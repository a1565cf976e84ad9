// Approximate reuse distance analysis by address sampling — the
// accuracy-for-speed family the paper contrasts with (Ding & Zhong [4],
// Zhong & Chang [19], Schuff et al. [15]).
//
// A hash of the address decides membership in the sampled sub-trace
// (spatial sampling), the exact engine runs on the sample, and distances
// and counts are scaled back by the sampling rate. Sampling by *address*
// (not by reference) keeps every reuse pair of a sampled address intact,
// so the scaled distance d/rate is an unbiased estimate of the true stack
// distance. Parda is "compatible with ... approximate analysis techniques"
// (Section VII): run the parallel driver on sample_trace() and rescale.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "hist/histogram.hpp"
#include "seq/analyzer.hpp"
#include "seq/olken.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/types.hpp"

namespace parda {

/// True iff addr belongs to the sampled subset at the given rate.
inline bool sample_selects(Addr addr, double rate,
                           std::uint64_t seed) noexcept {
  const auto threshold = static_cast<std::uint64_t>(
      rate * 18446744073709551615.0);  // rate * (2^64 - 1)
  return mix64(addr ^ (seed * 0x9e3779b97f4a7c15ULL)) <= threshold;
}

/// Extracts the sampled sub-trace.
inline std::vector<Addr> sample_trace(std::span<const Addr> trace,
                                      double rate, std::uint64_t seed) {
  std::vector<Addr> sampled;
  sampled.reserve(static_cast<std::size_t>(
      static_cast<double>(trace.size()) * rate * 1.2) + 16);
  for (Addr a : trace) {
    if (sample_selects(a, rate, seed)) sampled.push_back(a);
  }
  return sampled;
}

/// Rescales a histogram measured on a rate-sampled sub-trace back to
/// full-trace coordinates: distances and counts are multiplied by 1/rate.
inline Histogram rescale_sampled_histogram(const Histogram& sampled,
                                           double rate) {
  PARDA_CHECK(rate > 0.0 && rate <= 1.0);
  Histogram out;
  const double inv = 1.0 / rate;
  const auto& counts = sampled.counts();
  for (std::size_t d = 0; d < counts.size(); ++d) {
    if (counts[d] == 0) continue;
    const auto scaled_d = static_cast<Distance>(
        std::llround(static_cast<double>(d) * inv));
    const auto scaled_count = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(counts[d]) * inv));
    out.record(scaled_d, scaled_count);
  }
  out.record(kInfiniteDistance,
             static_cast<std::uint64_t>(std::llround(
                 static_cast<double>(sampled.infinities()) * inv)));
  return out;
}

/// Streaming sampled engine: spatial-samples the reference stream into an
/// exact Olken engine and rescales at finish(). rate in (0, 1]; rate == 1
/// degenerates to the exact analysis.
class ApproxAnalyzer {
 public:
  explicit ApproxAnalyzer(double rate, std::uint64_t seed = 1)
      : rate_(rate), seed_(seed) {
    PARDA_CHECK(rate > 0.0 && rate <= 1.0);
  }

  void process(Addr z) {
    ++references_;
    if (rate_ >= 1.0 || sample_selects(z, rate_, seed_)) exact_.process(z);
  }

  void process_block(std::span<const Addr> block) {
    for (Addr z : block) process(z);
  }

  void finish() {
    if (finished_) return;
    finished_ = true;
    exact_.finish();
    hist_ = rate_ >= 1.0 ? exact_.histogram()
                         : rescale_sampled_histogram(exact_.histogram(), rate_);
  }

  /// Rescaled to full-trace coordinates; valid after finish().
  const Histogram& histogram() const noexcept { return hist_; }

  EngineStats stats() const {
    // Structural counters (probes, rotations, footprint) reflect the
    // sampled sub-trace the exact engine actually ran on; references is
    // the unsampled stream length.
    EngineStats s = exact_.stats();
    s.references = references_;
    s.finite = hist_.finite_total();
    s.infinities = hist_.infinities();
    return s;
  }

  double rate() const noexcept { return rate_; }
  std::uint64_t sampled_references() const noexcept { return exact_.time(); }

  void reset() {
    exact_.reset();
    hist_.clear();
    references_ = 0;
    finished_ = false;
  }

 private:
  double rate_;
  std::uint64_t seed_;
  OlkenAnalyzer<SplayTree> exact_;
  Histogram hist_;
  std::uint64_t references_ = 0;
  bool finished_ = false;
};

static_assert(ReuseAnalyzer<ApproxAnalyzer>);

/// Sequential sampled analysis: exact Olken on the sampled addresses,
/// rescaled. rate in (0, 1]; rate == 1 degenerates to the exact analysis.
inline Histogram sampled_analysis(std::span<const Addr> trace, double rate,
                                  std::uint64_t seed = 1) {
  ApproxAnalyzer analyzer(rate, seed);
  return analyze_trace(analyzer, trace);
}

}  // namespace parda
