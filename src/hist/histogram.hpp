// The reuse distance histogram: the output of every analysis engine.
//
// Finite distances are stored densely (distance -> count); first references
// (compulsory misses) are tallied in a separate infinity bin, matching the
// paper's hist[] + hist[inf] layout. Histograms are mergeable (the MPI
// reduce_sum of Algorithm 3) and serializable for the comm runtime.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace parda {

class Histogram {
 public:
  Histogram() = default;

  /// Tallies one reference with the given distance (may be
  /// kInfiniteDistance).
  void record(Distance d) { record(d, 1); }
  void record(Distance d, std::uint64_t count);

  /// Tallies one reference per entry of `finite` (no kInfiniteDistance),
  /// prefetching each bin a few entries ahead: over a large histogram the
  /// bins are scattered cache misses, and a batch lets them overlap. The
  /// Parda rank paths collect their distances in fixed batches for it.
  void record_batch(std::span<const Distance> finite);

  std::uint64_t at(Distance d) const noexcept;
  std::uint64_t infinities() const noexcept { return infinities_; }

  /// Total references tallied, including infinities.
  std::uint64_t total() const noexcept { return total_; }
  /// Total references with finite distance.
  std::uint64_t finite_total() const noexcept { return total_ - infinities_; }

  /// Largest finite distance recorded; 0 if none.
  Distance max_distance() const noexcept;

  /// Number of references with distance strictly below d (d finite).
  /// With a fully associative LRU cache of size C, hits == hits_below(C).
  std::uint64_t hits_below(Distance d) const noexcept;

  /// Element-wise sum; the reduce_sum of Algorithm 3.
  void merge(const Histogram& other);

  void clear() noexcept;

  bool operator==(const Histogram& other) const noexcept;

  /// Dense counts, index == distance. May carry trailing zeros.
  const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

  /// log2-bucketed view: bucket 0 holds d == 0, bucket i >= 1 holds
  /// d in [2^(i-1), 2^i). Infinities are excluded.
  std::vector<std::uint64_t> log2_buckets() const;

  /// Mean of the finite distances (0 if none).
  double mean_finite_distance() const noexcept;

  /// Smallest distance d such that at least fraction p (in [0,1]) of the
  /// *finite* references have distance <= d; 0 if no finite references.
  Distance finite_distance_percentile(double p) const noexcept;

  /// Flat serialization: [infinities, total, n, counts[0..n)].
  std::vector<std::uint64_t> to_words() const;
  static Histogram from_words(const std::vector<std::uint64_t>& words);

  /// JSON serialization ("parda.histogram.v1"): sparse finite counts as
  /// [[distance, count], ...] plus the infinity bin and totals. This is
  /// THE interchange format — the metrics snapshot and hist/report tooling
  /// both use it; the CSV emitters remain for plotting only.
  std::string to_json() const;
  /// Inverse of to_json(). Throws json::JsonError on malformed input or a
  /// schema/total mismatch.
  static Histogram from_json(std::string_view text);

 private:
  /// Grows the dense bins (geometrically) so that finite d has one.
  void cover(Distance d);

  std::vector<std::uint64_t> counts_;
  std::uint64_t infinities_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace parda
