// perfbench_run: the measuring process. Times one workload's analyses
// through the library's public entry points, checks every histogram against
// the sequential oracle that perfbench_gen wrote, and prints one JSON line.
//
//   perfbench_run --workload NAME --dir DIR --seconds S --trace 0|1
//                 [--phase full|first] [--tiny] [--corrupt-oracle]
//
// --trace 0 (end-to-end, program obs off unless the workload keeps it on):
//   setup_s, first_ns_per_ref, ns_per_ref, peak_rss_mb, seq_ns_per_ref. --phase first stops after the first analysis; the
//   driver script starts several such fresh processes to take medians of
//   setup and first-analysis cost.
// --trace 1 (per-layer budget): enables the program's obs layer, records
//   benchmark-side spans around each public call, folds the program's
//   spans and counters per analysis, and times each layer on its own.
//
// No span or counter is added to the program: everything here is read
// from PardaResult, the obs registry, and the span tracer.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/file_analysis.hpp"
#include "core/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span_tracer.hpp"
#include "seq/bennett_kruskal.hpp"
#include "seq/bounded.hpp"
#include "trace/source.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using parda::Addr;
using parda::Histogram;
using parda::PardaResult;
using perfbench::Shape;
using perfbench::WorkloadSpec;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size()))),
      1, v.size());
  return v[rank - 1];
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A /proc/self/status field in KiB (VmHWM = peak RSS, VmRSS = current).
double status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return 0.0;
}

/// Reads the whole file once so the first timed analysis measures the
/// program, not the page cache.
void warm_page_cache(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> buf(std::size_t{1} << 20);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
  }
}

// ---------------------------------------------------------------------------
// Benchmark-side spans: recorded around each public call, kept in memory,
// written when the run ends.

struct BenchSpan {
  const char* name;
  double t0;
  double t1;
};

class BenchSpans {
 public:
  template <typename Fn>
  auto time(const char* name, Fn&& fn) -> decltype(fn()) {
    const double t0 = now_s();
    struct Close {
      BenchSpans* self;
      const char* name;
      double t0;
      ~Close() { self->spans_.push_back({name, t0, now_s()}); }
    } close{this, name, t0};
    return fn();
  }
  double last_seconds() const {
    return spans_.empty() ? 0.0 : spans_.back().t1 - spans_.back().t0;
  }

  /// chrome://tracing JSON of every benchmark span.
  void write(const std::string& path) const {
    parda::json::Writer w;
    w.begin_object().key("traceEvents").begin_array();
    const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
    for (const BenchSpan& s : spans_) {
      w.begin_object()
          .key("name").value(s.name)
          .key("ph").value("X")
          .key("pid").value(1)
          .key("tid").value(0)
          .key("ts").value((s.t0 - origin) * 1e6)
          .key("dur").value((s.t1 - s.t0) * 1e6)
          .end_object();
    }
    w.end_array().end_object();
    std::ofstream(path) << w.str() << "\n";
  }

 private:
  std::vector<BenchSpan> spans_;
};

// ---------------------------------------------------------------------------
// The workload under test: setup, one analysis, one sequential analysis.

class Target {
 public:
  Target(WorkloadSpec spec, std::string dir)
      : w_(std::move(spec)),
        path_(dir + "/" + w_.trace_file()),
        binary_path_(dir + "/" + WorkloadSpec::kBinaryFile) {
    options_.num_procs = w_.np;
    options_.bound = w_.bound;
    if (w_.chunk_words > 0) options_.chunk_words = w_.chunk_words;
    std::ifstream in(dir + "/oracle.jsonl");
    std::string line;
    while (std::getline(in, line)) oracle_.push_back(Histogram::from_json(line));
    if (oracle_.size() != w_.windows()) {
      throw std::runtime_error("oracle.jsonl does not match the workload");
    }
  }

  const WorkloadSpec& spec() const { return w_; }
  const std::string& path() const { return path_; }
  const std::string& binary_path() const { return binary_path_; }
  const parda::PardaOptions& options() const { return options_; }
  std::uint64_t units() const { return w_.windows(); }
  std::uint64_t refs_per_unit() const {
    return w_.shape == Shape::kWindows ? w_.window : w_.refs;
  }
  const Histogram& expected(std::uint64_t i) const {
    return oracle_[i % oracle_.size()];
  }
  void corrupt_oracle() {
    for (Histogram& h : oracle_) h.record(1);
  }

  /// Everything a user pays before the first analysis: the runtime with
  /// its parked workers, the obs layer when the workload keeps it on, and
  /// the offline source.
  void setup(bool program_obs) {
    runtime_ = std::make_unique<parda::core::PardaRuntime>(w_.np);
    if (program_obs) enable_obs();
    if (w_.shape != Shape::kPipe) open_source();
    session_.emplace(runtime_->session(options_));
  }

  static void enable_obs() {
    parda::obs::set_enabled(true);
    (void)parda::obs::tracer();
    (void)parda::obs::registry();
  }

  /// Opens (or reopens) the workload's source. The pipe path opens the
  /// file inside each analysis, as parda_analyze_file_on does.
  void open_source() {
    if (w_.shape == Shape::kOfflineTrz) {
      trz_ = std::make_unique<parda::ChunkedTrzSource>(path_);
    } else if (w_.shape == Shape::kWindows) {
      mmap_ = std::make_unique<parda::MmapTraceSource>(path_);
    } else {
      parda::BinaryTraceReader reader(path_);
    }
  }

  parda::core::PardaRuntime& runtime() { return *runtime_; }
  parda::ChunkedTrzSource* trz() { return trz_.get(); }

  std::span<const Addr> window(std::uint64_t i) const {
    return mmap_->view().subspan((i % units()) * w_.window, w_.window);
  }

  PardaResult analyze(std::uint64_t i) {
    switch (w_.shape) {
      case Shape::kOfflineTrz:
        // parda_analyze_file_on(kTrz) past its source open, which setup
        // already paid.
        return session_->analyze_source(*trz_);
      case Shape::kPipe:
        return session_->analyze_file(path_, std::size_t{1} << 20,
                                      parda::IngestMode::kPipe);
      case Shape::kWindows:
        // The call apps::WindowedMrcMonitor makes per completed window.
        return session_->analyze(window(i));
    }
    return {};
  }

  /// The fastest exact sequential engine on the same file: Bennett-Kruskal
  /// unbounded, BoundedAnalyzer<SplayTree> bounded. Offline, the file is
  /// read (and decoded) inside the timing, as the parallel path does.
  Histogram sequential(std::uint64_t i) {
    switch (w_.shape) {
      case Shape::kOfflineTrz:
        return parda::bennett_kruskal_analysis(
            parda::read_trace_compressed(path_));
      case Shape::kPipe: {
        const std::vector<Addr> trace = parda::read_trace_binary(path_);
        parda::BoundedAnalyzer<parda::SplayTree> seq(w_.bound);
        seq.process_block(trace);
        return seq.histogram();
      }
      case Shape::kWindows:
        return parda::bennett_kruskal_analysis(window(i));
    }
    return {};
  }

 private:
  WorkloadSpec w_;
  std::string path_;
  std::string binary_path_;
  parda::PardaOptions options_;
  std::vector<Histogram> oracle_;
  std::unique_ptr<parda::core::PardaRuntime> runtime_;
  std::unique_ptr<parda::ChunkedTrzSource> trz_;
  std::unique_ptr<parda::MmapTraceSource> mmap_;
  std::optional<parda::core::AnalysisSession> session_;
};

/// Counts every checked histogram; a throw or a histogram that is not
/// bit-identical to the oracle is a failure.
struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Runs fn (timed by the caller's span) and checks its histogram.
  /// Returns false when it threw or mismatched.
  template <typename Fn>
  bool run(const Histogram& expected, Fn&& fn) {
    ++attempted;
    try {
      if (fn() == expected) return true;
      std::fprintf(stderr, "perfbench: histogram differs from the oracle\n");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: analysis threw: %s\n", e.what());
    }
    ++failed;
    return false;
  }
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Checker& check, const std::vector<Metric>& metrics,
                  const std::vector<std::pair<std::string, double>>& info) {
  parda::json::Writer w;
  w.begin_object()
      .key("correct").value(check.failed == 0 && check.attempted > 0)
      .key("attempted").value(check.attempted)
      .key("failed").value(check.failed)
      .key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object()
        .key("value").value(m.value)
        .key("unit").value(m.unit)
        .end_object();
  }
  w.end_object().key("info").begin_object();
  for (const auto& [k, v] : info) w.key(k).value(v);
  w.end_object().key("build").value(PERFBENCH_BUILD_INFO).end_object();
  std::printf("%s\n", w.str().c_str());
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end.

int run_e2e(Target& t, double seconds, bool first_only) {
  Checker check;
  BenchSpans spans;
  std::vector<Metric> m;
  std::vector<std::pair<std::string, double>> info;
  const WorkloadSpec& w = t.spec();
  const double refs = static_cast<double>(t.refs_per_unit());

  warm_page_cache(t.path());
  spans.time("setup", [&] { t.setup(w.program_obs); });
  m.push_back({"setup_s", spans.last_seconds(), "s"});

  check.run(t.expected(0), [&] {
    return spans.time("first-analysis", [&] { return t.analyze(0).hist; });
  });
  m.push_back({"first_ns_per_ref", spans.last_seconds() * 1e9 / refs, "ns/ref"});
  if (first_only) {
    print_result(check, m, info);
    return check.failed == 0 ? 0 : 1;
  }

  // Untimed warm-up analyses for the first 10% of the run, then four
  // rounds, each a block of timed parallel analyses back to back (two
  // thirds of the round) and a block of the sequential baseline, so both
  // metrics sample the whole run's stretch of host noise. Interleaving
  // single samples was tried: the cores left idle by each sequential
  // sample made the next parallel analysis's wake-ups much noisier.
  constexpr int kRounds = 4;
  const double start = now_s();
  const double warm_end = start + 0.1 * seconds;
  const double round_s = 0.9 * seconds / kRounds;
  std::vector<double> ns, seq_ns;
  double peak_rss_mb = 0;
  std::uint64_t i = 1;
  const auto parallel = [&](bool timed) {
    PardaResult r;
    if (check.run(t.expected(i), [&] {
          r = spans.time(timed ? "analysis" : "warm-up",
                         [&] { return t.analyze(i); });
          return r.hist;
        }) &&
        timed) {
      ns.push_back(spans.last_seconds() * 1e9 / refs);
    }
    ++i;
  };
  while (now_s() < warm_end) parallel(false);
  for (int round = 0; round < kRounds && check.failed == 0; ++round) {
    const double round_start = warm_end + round * round_s;
    do {
      parallel(true);
    } while (now_s() < round_start + round_s * 2 / 3);
    // Peak RSS before the sequential engine has ever run.
    if (round == 0) peak_rss_mb = status_kib("VmHWM") / 1024.0;
    do {
      if (check.run(t.expected(i), [&] {
            return spans.time("sequential", [&] { return t.sequential(i); });
          })) {
        seq_ns.push_back(spans.last_seconds() * 1e9 / refs);
      }
      ++i;
    } while (now_s() < round_start + round_s);
  }

  std::string line = "perfbench: ns/ref samples:";
  for (double v : ns) line += " " + std::to_string(static_cast<int>(v));
  line += " | sequential:";
  for (double v : seq_ns) line += " " + std::to_string(static_cast<int>(v));
  std::fprintf(stderr, "%s\n", line.c_str());

  m.push_back({"ns_per_ref", median(ns), "ns/ref"});
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  m.push_back({"seq_ns_per_ref", median(seq_ns), "ns/ref"});
  // The per-sample tail; not a gated metric (README.md says why).
  info.push_back({"ns_per_ref.p95", percentile(ns, 0.95)});
  info.push_back({"samples", static_cast<double>(ns.size())});
  info.push_back({"seq_samples", static_cast<double>(seq_ns.size())});
  print_result(check, m, info);
  return check.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer budget.

std::uint64_t span_ns(const parda::obs::SpanEvent& e) {
  return e.t_end_ns > e.t_start_ns
             ? static_cast<std::uint64_t>(e.t_end_ns - e.t_start_ns)
             : 0;
}

bool is_wait(const char* op) {
  return std::strcmp(op, "recv-wait") == 0 ||
         std::strcmp(op, "barrier-wait") == 0;
}

/// Per-layer sums over the traced analyses of a run.
struct Budget {
  double analyses = 0;
  double refs = 0;
  double wall_ns = 0;      // benchmark-side span around each public call
  double covered_ns = 0;   // time some rank was inside a program section
  double wait_ns = 0;      // recv-wait + barrier-wait, all ranks
  double section_ns = 0;   // section time, all ranks
  std::map<std::string, double> critical_ns;  // per op: sum over phases of
                                              // the max over ranks of self
                                              // time
  double imbalance = 0;    // sum of max_busy / mean busy
  double bytes_sent = 0, bytes_copied = 0, messages = 0;
  double forwarded = 0, received = 0;
  double peak_resident = 0, phases = 0, bins = 0;
  double ingest_copied = 0, probes = 0, splays = 0, rotations = 0;
  double dropped = 0;

  void fold(const PardaResult& r, double refs_in, std::int64_t t0_ns,
            std::int64_t t1_ns) {
    auto& reg = parda::obs::registry();
    const auto& tracer = parda::obs::tracer();
    const std::vector<parda::obs::SpanEvent> events = tracer.events();
    const parda::obs::SpanReport report =
        parda::obs::SpanReport::from_events(events, tracer.dropped());
    analyses += 1;
    refs += refs_in;
    wall_ns += static_cast<double>(t1_ns - t0_ns);
    dropped += static_cast<double>(report.spans_dropped());
    for (const auto& phase : report.phases()) {
      for (const auto& slice : phase.ranks) {
        wait_ns += static_cast<double>(slice.wait_ns);
        section_ns += static_cast<double>(slice.total_ns);
      }
    }

    // Per-op critical path of self time (the span minus the recv/barrier
    // waits nested in it on the same rank; waits are the comm layer's),
    // and the union of section intervals clipped to the call: the time the
    // budget closes over.
    std::map<int, std::vector<const parda::obs::SpanEvent*>> waits;
    for (const auto& e : events) {
      if (is_wait(e.op)) waits[e.rank].push_back(&e);
    }
    std::map<std::pair<std::string, std::uint32_t>, std::map<int, double>> by;
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const auto& e : events) {
      if (is_wait(e.op)) continue;
      double self = static_cast<double>(span_ns(e));
      for (const auto* wt : waits[e.rank]) {
        const std::int64_t lo = std::max(wt->t_start_ns, e.t_start_ns);
        const std::int64_t hi = std::min(wt->t_end_ns, e.t_end_ns);
        if (hi > lo) self -= static_cast<double>(hi - lo);
      }
      std::string op = e.op;
      if (op == "reduce" && e.phase == parda::obs::kNoPhase) {
        op = "hist-reduce";  // offline histogram reduce
      } else if (op == "final-reduce") {
        op = "hist-reduce";  // streaming end-of-run histogram reduce
      }
      by[{op, e.phase}][e.rank] += std::max(self, 0.0);
      iv.emplace_back(std::max(e.t_start_ns, t0_ns),
                      std::min(e.t_end_ns, t1_ns));
    }
    for (const auto& [key, ranks] : by) {
      double mx = 0;
      for (const auto& [rank, ns] : ranks) mx = std::max(mx, ns);
      critical_ns[key.first] += mx;
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t cur_b = 0, cur_e = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (e <= b) continue;
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
        continue;
      }
      if (open) covered_ns += static_cast<double>(cur_e - cur_b);
      cur_b = b;
      cur_e = e;
      open = true;
    }
    if (open) covered_ns += static_cast<double>(cur_e - cur_b);

    const double np = static_cast<double>(r.stats.ranks.size());
    imbalance += per(r.stats.max_busy(), r.stats.total_busy() / np);
    bytes_sent += static_cast<double>(r.stats.total_bytes());
    bytes_copied += static_cast<double>(r.stats.total_bytes_copied());
    messages += static_cast<double>(r.stats.total_messages());
    double resident = 0;
    for (const auto& p : r.profiles) {
      forwarded += static_cast<double>(p.records_forwarded);
      received += static_cast<double>(p.records_received);
      resident += static_cast<double>(p.peak_resident);
      phases = std::max(phases, static_cast<double>(p.phases));
    }
    peak_resident = std::max(peak_resident, resident);
    bins = static_cast<double>(r.hist.counts().size());
    ingest_copied += static_cast<double>(reg.counter_total("ingest.bytes_copied"));
    probes += static_cast<double>(reg.counter_total("engine.hash_probes"));
    splays += static_cast<double>(reg.counter_total("engine.tree_splays"));
    rotations += static_cast<double>(reg.counter_total("engine.tree_rotations"));
  }

  double crit(const char* op) const {
    const auto it = critical_ns.find(op);
    return it == critical_ns.end() ? 0.0 : it->second;
  }
};

/// The first obs enable of the process and the RSS it adds; measured
/// before anything else has grown the heap (main() calls it before loading
/// the oracle). Recording stays off until the traced analyses.
struct ObsEnable {
  double ms = 0;
  double rss_mb = 0;
};

ObsEnable measure_obs_enable() {
  const double rss_before = status_kib("VmRSS");
  const double t0 = now_s();
  Target::enable_obs();
  ObsEnable e{(now_s() - t0) * 1e3,
              (status_kib("VmRSS") - rss_before) / 1024.0};
  parda::obs::set_enabled(false);
  return e;
}

int run_traced(Target& t, double seconds, const ObsEnable& obs_enable) {
  Checker check;
  BenchSpans spans;
  const WorkloadSpec& w = t.spec();
  const double refs = static_cast<double>(t.refs_per_unit());
  const double start = now_s();

  warm_page_cache(t.path());
  // Setup layers, each on its own (median of five): the runtime with np
  // parked workers, and the source open.
  std::vector<double> runtime_ms, open_ms;
  for (int i = 0; i < 5; ++i) {
    std::unique_ptr<parda::core::PardaRuntime> rt;
    spans.time("runtime-ctor", [&] {
      rt = std::make_unique<parda::core::PardaRuntime>(w.np);
    });
    runtime_ms.push_back(spans.last_seconds() * 1e3);
    rt.reset();
    spans.time("source-open", [&] { t.open_source(); });
    open_ms.push_back(spans.last_seconds() * 1e3);
  }
  spans.time("setup", [&] { t.setup(/*program_obs=*/false); });

  // comm: an empty job at the workload's np.
  std::vector<double> job_us;
  t.runtime().pool().run_job(w.np, [](parda::comm::Comm&) {});
  for (int i = 0; i < 200; ++i) {
    spans.time("empty-job", [&] {
      t.runtime().pool().run_job(w.np, [](parda::comm::Comm&) {});
    });
    job_us.push_back(spans.last_seconds() * 1e6);
  }

  // Pairs of analyses, one with the program's obs layer on and one with it
  // off, in alternating order so neither mode always follows the fold.
  // The obs-on analysis runs with a cleared span ring and zeroed registry
  // and is folded into the budget after its pair; the ratio of the two
  // medians is the overhead the obs layer adds.
  Budget b;
  std::vector<double> off_ns, on_ns;
  auto& tracer = parda::obs::tracer();
  const double analyses_end = start + 0.5 * seconds;
  for (std::uint64_t pair = 0;
       on_ns.size() < 3 || now_s() < analyses_end; ++pair) {
    PardaResult traced_result;
    std::int64_t t0 = 0, t1 = 0;
    bool traced_ok = false;
    for (int k = 0; k < 2; ++k) {
      const bool traced = (pair + static_cast<std::uint64_t>(k)) % 2 == 0;
      if (traced) {
        parda::obs::registry().reset_values();
        tracer.clear();
      }
      parda::obs::set_enabled(traced);
      PardaResult r;
      const bool ok = check.run(t.expected(pair), [&] {
        t0 = traced ? tracer.now_ns() : t0;
        r = spans.time(traced ? "analysis-traced" : "analysis",
                       [&] { return t.analyze(pair); });
        t1 = traced ? tracer.now_ns() : t1;
        return r.hist;
      });
      parda::obs::set_enabled(false);
      if (!ok) continue;
      (traced ? on_ns : off_ns).push_back(spans.last_seconds() * 1e9 / refs);
      if (traced) {
        traced_result = std::move(r);
        traced_ok = true;
      }
    }
    if (traced_ok) b.fold(traced_result, refs, t0, t1);
    if (check.failed > 0 && pair >= 3) break;
  }

  // The offline workload's refs also go through the streaming path
  // (file producer -> TracePipe -> phases), traced, so the phase layers
  // (scatter, Algorithm 6 state reduction) are measured on it too.
  Budget streamed;
  if (w.shape == Shape::kOfflineTrz) {
    const double streamed_end = start + 0.65 * seconds;
    for (std::uint64_t k = 0; streamed.analyses < 1 || now_s() < streamed_end;
         ++k) {
      parda::obs::registry().reset_values();
      tracer.clear();
      parda::obs::set_enabled(true);
      PardaResult r;
      std::int64_t t0 = 0, t1 = 0;
      const bool ok = check.run(t.expected(0), [&] {
        t0 = tracer.now_ns();
        r = spans.time("analysis-streamed", [&] {
          return t.runtime().session(t.options()).analyze_file(
              t.binary_path(), std::size_t{1} << 20, parda::IngestMode::kPipe);
        });
        t1 = tracer.now_ns();
        return r.hist;
      });
      parda::obs::set_enabled(false);
      if (ok) streamed.fold(r, refs, t0, t1);
      if (check.failed > 0 && k >= 1) break;
    }
  }
  const Budget& phased = w.shape == Shape::kOfflineTrz ? streamed : b;

  // Layers on their own, obs off, until the run's time is up (at least
  // three samples each). Views and states are built per sample exactly as
  // the rank bodies build them. Decode and pipe cover the whole file in
  // the offline source of its format (trz decode, or mmap views of the
  // .trc) and through the file producer.
  const int np = w.np;
  const double file_refs = static_cast<double>(w.refs);
  const double layers_end = start + seconds;
  std::vector<double> engine_ns, decode_ns, pipe_ns, merge_ms;
  std::unique_ptr<parda::MmapTraceSource> mapped;
  if (w.shape != Shape::kOfflineTrz) {
    mapped = std::make_unique<parda::MmapTraceSource>(t.binary_path());
  }
  parda::TraceSource& offline =
      mapped ? static_cast<parda::TraceSource&>(*mapped) : *t.trz();
  const std::size_t phase_words =
      t.options().chunk_words * static_cast<std::size_t>(np);
  for (std::uint64_t i = 0; engine_ns.size() < 3 || now_s() < layers_end;
       ++i) {
    std::vector<parda::RankView> views(static_cast<std::size_t>(np));
    spans.time("trace.decode", [&] {
      offline.partition(np);
      t.runtime().pool().run_job(np, [&](parda::comm::Comm& c) {
        views[static_cast<std::size_t>(c.rank())] = offline.rank_view(c.rank());
      });
    });
    decode_ns.push_back(spans.last_seconds() * 1e9 / file_refs);
    if (w.shape == Shape::kWindows) {
      // The engine runs on one window, as each windowed analysis does.
      for (int r = 0; r < np; ++r) {
        views[static_cast<std::size_t>(r)] =
            parda::detail::equal_rank_view(t.window(i), r, np);
      }
    }
    std::vector<std::optional<parda::RankState<parda::SplayTree>>> states(
        static_cast<std::size_t>(np));
    spans.time("core.engine", [&] {
      t.runtime().pool().run_job(np, [&](parda::comm::Comm& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        states[r].emplace(w.bound);
        states[r]->process_own_block(views[r].refs, views[r].base);
      });
    });
    engine_ns.push_back(spans.last_seconds() * 1e9 / refs);
    spans.time("hist.merge", [&] {
      Histogram merged;
      for (const auto& s : states) merged.merge(s->hist());
      return merged.total();
    });
    merge_ms.push_back(spans.last_seconds() * 1e3);

    // Producer -> TracePipe, drained in phase-sized reads, no analysis.
    spans.time("trace.pipe", [&] {
      return parda::detail::run_with_file_producer(
          t.binary_path(), t.options(), std::size_t{1} << 20,
          [&](parda::TracePipe& pipe) {
            while (!pipe.read_words(phase_words).empty()) {
            }
            return PardaResult{};
          });
    });
    pipe_ns.push_back(spans.last_seconds() * 1e9 / file_refs);
  }

  const double on = median(on_ns);
  const double off = median(off_ns);
  const double a = std::max(b.analyses, 1.0);
  std::vector<Metric> m = {
      {"trace.open_ms", median(open_ms), "ms"},
      {"trace.decode_ns_per_ref", median(decode_ns), "ns/ref"},
      {"trace.pipe_ns_per_ref", median(pipe_ns), "ns/ref"},
      {"trace.bytes_copied_per_ref", per(b.ingest_copied, b.refs), "B/ref"},
      {"core.engine_ns_per_ref", median(engine_ns), "ns/ref"},
      {"hash.probes_per_ref", per(b.probes, b.refs), "count/ref"},
      {"tree.splays_per_ref", per(b.splays, b.refs), "count/ref"},
      {"tree.rotations_per_ref", per(b.rotations, b.refs), "count/ref"},
      {"core.peak_resident", b.peak_resident, "count"},
      {"core.records_forwarded_per_ref", per(b.forwarded, b.refs), "count/ref"},
      {"core.records_received_per_ref", per(b.received, b.refs), "count/ref"},
      {"core.pipeline_ns_per_ref", per(b.crit("infinity-pipeline"), b.refs), "ns/ref"},
      {"core.scatter_ns_per_ref", per(phased.crit("scatter"), phased.refs), "ns/ref"},
      {"core.state_reduce_ns_per_ref", per(phased.crit("reduce"), phased.refs), "ns/ref"},
      {"core.phases", phased.phases, "count"},
      {"core.runtime_setup_ms", median(runtime_ms), "ms"},
      {"core.unattributed_share", 1.0 - per(b.covered_ns, b.wall_ns), "ratio"},
      {"hist.bins", b.bins, "count"},
      {"hist.reduce_ms", b.crit("hist-reduce") / a / 1e6, "ms"},
      {"hist.merge_ms", median(merge_ms), "ms"},
      {"comm.job_us", median(job_us), "us"},
      {"comm.wait_share", per(b.wait_ns, b.section_ns), "ratio"},
      {"comm.imbalance", b.imbalance / a, "ratio"},
      {"comm.bytes_sent_per_ref", per(b.bytes_sent, b.refs), "B/ref"},
      {"comm.bytes_copied_per_ref", per(b.bytes_copied, b.refs), "B/ref"},
      {"comm.messages_per_ref", per(b.messages, b.refs), "count/ref"},
      {"obs.enable_ms", obs_enable.ms, "ms"},
      {"obs.rss_mb", obs_enable.rss_mb, "MB"},
      {"obs.spans_dropped", b.dropped + streamed.dropped, "count"},
      {"obs.overhead_share", off > 0 ? on / off - 1.0 : 0.0, "ratio"},
  };
  std::vector<std::pair<std::string, double>> info = {
      {"traced_analyses", b.analyses},
      {"ns_per_ref_obs_off", off},
      {"ns_per_ref_obs_on", on},
      {"analyze_ns_per_ref", per(b.crit("analyze"), b.refs)},
      {"ingest_ns_per_ref", per(b.crit("ingest"), b.refs)},
      {"wall_ns_per_ref", per(b.wall_ns, b.refs)},
  };
  print_result(check, m, info);
  spans.write(std::string(t.path()) + ".bench_spans.json");
  return check.failed == 0 && b.dropped + streamed.dropped == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, dir, phase = "full";
  double seconds = 10;
  int trace = 0;
  bool tiny = false, corrupt = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--corrupt-oracle") {
      corrupt = true;
    } else if (i + 1 < argc && arg == "--workload") {
      name = argv[++i];
    } else if (i + 1 < argc && arg == "--dir") {
      dir = argv[++i];
    } else if (i + 1 < argc && arg == "--seconds") {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (i + 1 < argc && arg == "--trace") {
      trace = std::atoi(argv[++i]);
    } else if (i + 1 < argc && arg == "--phase") {
      phase = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench_run: bad argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (name.empty() || dir.empty() || (phase != "full" && phase != "first")) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload NAME --dir DIR --seconds S "
                 "--trace 0|1 [--phase full|first] [--tiny] "
                 "[--corrupt-oracle]\n");
    return 2;
  }
  try {
    const ObsEnable obs_enable = trace == 1 ? measure_obs_enable() : ObsEnable{};
    Target target(perfbench::workload(name, tiny), dir);
    if (corrupt) target.corrupt_oracle();
    return trace == 1 ? run_traced(target, seconds, obs_enable)
                      : run_e2e(target, seconds, phase == "first");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
}
