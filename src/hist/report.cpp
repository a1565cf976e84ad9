#include "hist/report.hpp"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>

namespace parda {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  out += buf;
}

}  // namespace

std::string histogram_to_csv(const Histogram& hist) {
  std::string out = "distance,count\n";
  const auto& counts = hist.counts();
  for (std::size_t d = 0; d < counts.size(); ++d) {
    if (counts[d] == 0) continue;
    append_u64(out, d);
    out += ',';
    append_u64(out, counts[d]);
    out += '\n';
  }
  out += "inf,";
  append_u64(out, hist.infinities());
  out += '\n';
  return out;
}

std::string histogram_to_csv_log2(const Histogram& hist) {
  std::string out = "bucket_low,bucket_high,count\n";
  const auto buckets = hist.log2_buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const std::uint64_t lo = i == 0 ? 0 : 1ULL << (i - 1);
    const std::uint64_t hi = i == 0 ? 0 : (1ULL << i) - 1;
    append_u64(out, lo);
    out += ',';
    append_u64(out, hi);
    out += ',';
    append_u64(out, buckets[i]);
    out += '\n';
  }
  return out;
}

std::string mrc_to_csv(const std::vector<MrcPoint>& curve) {
  std::string out = "cache_size,miss_ratio\n";
  for (const MrcPoint& p : curve) {
    append_u64(out, p.cache_size);
    out += ',';
    append_double(out, p.miss_ratio);
    out += '\n';
  }
  return out;
}

void write_text_file(const std::string& path, const std::string& content) {
  struct Closer {
    void operator()(std::FILE* f) const noexcept {
      if (f != nullptr) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, Closer> f(std::fopen(path.c_str(), "w"));
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  if (!content.empty() &&
      std::fwrite(content.data(), 1, content.size(), f.get()) !=
          content.size()) {
    throw std::runtime_error("short write: " + path);
  }
}

std::string read_text_file(const std::string& path) {
  struct Closer {
    void operator()(std::FILE* f) const noexcept {
      if (f != nullptr) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, Closer> f(std::fopen(path.c_str(), "rb"));
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    out.append(buf, n);
  }
  if (std::ferror(f.get())) throw std::runtime_error("read failed: " + path);
  return out;
}

}  // namespace parda
