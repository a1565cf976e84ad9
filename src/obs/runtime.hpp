// Observability runtime state shared by the metrics registry and the span
// tracer: one process-wide enable flag and a per-thread rank attribution.
//
// Instrumentation is compiled in everywhere but disabled by default; every
// hot-path record starts with a relaxed load of the enable flag, so the
// disabled cost is one predictable branch (measured <2% on bench_engines,
// see DESIGN.md section "Observability").
//
// Attribution: metrics and spans are sharded by rank so per-rank breakdowns
// need no hot-path locking. WorkerPool::run_job tags each rank thread via
// set_thread_rank; threads outside the rank world (the driver, the trace
// producer) record into the "unattributed" shard 0.
#pragma once

#include <atomic>

namespace parda::obs {

/// Hard cap on distinguishable ranks (the paper sweeps up to 64 physical
/// cores); higher ranks fold into the unattributed shard.
inline constexpr int kMaxRanks = 64;
/// Shard 0 is unattributed; rank r records into shard r + 1.
inline constexpr int kShards = kMaxRanks + 1;

/// Sentinel phase for threads outside any streaming phase (mirrors
/// span_tracer.hpp's kNoPhase; kept here so the attribution state is
/// self-contained).
inline constexpr unsigned kNoPhaseAttr = 0xFFFFFFFFu;

namespace detail {
inline std::atomic<bool> g_enabled{false};
inline thread_local int t_shard = 0;
inline thread_local unsigned t_phase = kNoPhaseAttr;
}  // namespace detail

inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

inline void set_thread_rank(int rank) noexcept {
  detail::t_shard = (rank >= 0 && rank < kMaxRanks) ? rank + 1 : 0;
}
inline void clear_thread_rank() noexcept { detail::t_shard = 0; }

/// Shard index of the calling thread (0 = unattributed).
inline int thread_shard() noexcept { return detail::t_shard; }
/// Rank of the calling thread, or -1 if unattributed.
inline int thread_rank() noexcept { return detail::t_shard - 1; }

/// Phase attribution: the streaming driver tags each rank thread with the
/// current Algorithm 5 phase so instrumentation recorded below it (comm
/// wait spans, log events) lands in the right phase without threading the
/// phase number through every layer.
inline void set_thread_phase(unsigned phase) noexcept {
  detail::t_phase = phase;
}
inline void clear_thread_phase() noexcept {
  detail::t_phase = kNoPhaseAttr;
}
/// Current phase of the calling thread (kNoPhaseAttr outside a phase).
inline unsigned thread_phase() noexcept { return detail::t_phase; }

/// RAII phase attribution for one streaming phase iteration.
class ScopedThreadPhase {
 public:
  explicit ScopedThreadPhase(unsigned phase) noexcept
      : prev_(detail::t_phase) {
    detail::t_phase = phase;
  }
  ScopedThreadPhase(const ScopedThreadPhase&) = delete;
  ScopedThreadPhase& operator=(const ScopedThreadPhase&) = delete;
  ~ScopedThreadPhase() { detail::t_phase = prev_; }

 private:
  unsigned prev_;
};

/// RAII rank attribution for a thread's lifetime (used by
/// WorkerPool::run_job and tests).
class ScopedThreadRank {
 public:
  explicit ScopedThreadRank(int rank) noexcept : prev_(detail::t_shard) {
    set_thread_rank(rank);
  }
  ScopedThreadRank(const ScopedThreadRank&) = delete;
  ScopedThreadRank& operator=(const ScopedThreadRank&) = delete;
  ~ScopedThreadRank() { detail::t_shard = prev_; }

 private:
  int prev_;
};

}  // namespace parda::obs
