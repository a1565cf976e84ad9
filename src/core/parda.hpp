// Parda: parallel reuse distance analysis (paper Algorithms 3-7).
//
// One entry point, parda_analyze(pool, source, options), runs one rank
// body on a caller-owned WorkerPool: the phase loop of Algorithm 5, in
// which offline analysis (Algorithm 3) is the one-phase case.
//  - offline sources (in-memory span, mmap, chunked trz): one phase, whose
//    chunk is the rank's own contiguous view of the trace.
//  - streaming sources (a TracePipe fed by a concurrent producer): a phase
//    per np*C references, reproducing the Figure 3 framework: producer ->
//    pipe -> rank 0 -> scatter -> ranks -> merge -> reduce.
// Every phase runs the space-optimized merge of Algorithm 4 (or the plain
// Algorithm 3 merge offline, on request) under the cache bound of
// Algorithm 7, whose budget lets a rank emit at most B local infinities
// per phase; a phase that another can follow ends with Algorithm 6, which
// reduces the state onto rank 0 by appending the other ranks' newer
// exports (only those from the newest saturated rank on, once a rank
// spent its budget).
//
// The result is the histogram plus per-rank work statistics (used for
// critical-path scaling reports). core::AnalysisSession wraps the driver
// for callers that hold a long-lived runtime or analyze files.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "comm/worker_pool.hpp"
#include "core/messages.hpp"
#include "core/rank_state.hpp"
#include "hist/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "trace/source.hpp"
#include "trace/trace_pipe.hpp"
#include "tree/fenwick.hpp"
#include "tree/splay_tree.hpp"
#include "util/check.hpp"
#include "util/types.hpp"

namespace parda {

struct PardaOptions {
  /// Number of ranks (the paper's np). Each becomes one thread.
  int num_procs = 4;
  /// Cache bound B of Algorithm 7 in distinct elements; kUnbounded for the
  /// exact full-depth analysis.
  std::uint64_t bound = kUnbounded;
  /// Use the space-optimized local-infinity processing (Algorithm 4).
  /// Bounded and streaming modes require it.
  bool space_optimized = true;
  /// Streaming only: per-rank chunk size C; each phase consumes np*C
  /// references (Algorithm 5).
  std::size_t chunk_words = 1 << 16;
  /// Fault-tolerance knobs passed to WorkerPool::run_job: per-op
  /// deadlines, the stall watchdog, and deterministic fault injection.
  /// The default is the historical wait-forever behavior.
  comm::RunOptions run_options;
};

/// Per-rank algorithm counters (beyond the comm-level RankStats): where
/// the work went, for the load-balancing analysis of Algorithms 5-6.
struct RankProfile {
  std::uint64_t chunk_refs = 0;         // own-chunk references processed
  std::uint64_t records_received = 0;   // incoming local infinities
  std::uint64_t records_forwarded = 0;  // survivors sent further left
  std::uint64_t hits_resolved = 0;      // finite distances recorded
  std::uint64_t peak_resident = 0;      // max tree size observed
  std::uint64_t phases = 0;             // phases participated in (stream)
};

struct PardaResult {
  Histogram hist;
  comm::RunStats stats;
  std::vector<RankProfile> profiles;  // indexed by physical rank
};

/// Reduces each rank's histogram onto `root` with a binomial tree
/// (the reduce_sum of Algorithm 3); returns the merged histogram at root
/// and an empty histogram elsewhere.
Histogram reduce_histogram(comm::Comm& comm, const Histogram& mine, int root);

namespace detail {

/// The merge stage driven at rank p of np: runs the remaining np - p
/// rounds of Algorithm 3's while-loop after the rank has processed its own
/// chunk, sending to p-1 and receiving from p+1.
template <OrderStatTree Tree>
void run_merge_rounds(comm::Comm& comm, RankState<Tree>& state,
                      std::uint64_t* forwarded = nullptr) {
  const int np = comm.size();
  const int me = comm.rank();
  for (int round = 0; round < np - me; ++round) {
    if (me > 0) {
      std::vector<InfRecord> outgoing = state.take_local_infinities();
      if (forwarded != nullptr) *forwarded += outgoing.size();
      // Zero-copy: the record list is moved into the message and the
      // receiving rank processes it in place through a View.
      comm.send(me - 1, kTagInfinities, std::move(outgoing));
    } else {
      state.flush_global_infinities();
    }
    if (me < np - 1 && round < np - me - 1) {
      const comm::View<InfRecord> incoming =
          comm.recv_view<InfRecord>(me + 1, kTagInfinities);
      state.process_incoming(incoming.span());
    }
  }
}

/// End-of-rank metrics publication: the rank's RankProfile plus the
/// structural counters of its analysis state, attributed to the calling
/// rank's shard. Cold path (runs once per rank per analysis); the engine.*
/// totals are designed to agree with the result histogram:
/// engine.chunk_refs == hist.total(), engine.hits_resolved ==
/// hist.finite_total().
template <OrderStatTree Tree>
void publish_rank_metrics(const RankProfile& profile,
                          const RankState<Tree>& state) {
  if (!obs::enabled()) return;
  auto& reg = obs::registry();
  reg.counter("engine.chunk_refs").add(profile.chunk_refs);
  reg.counter("engine.records_received").add(profile.records_received);
  reg.counter("engine.records_forwarded").add(profile.records_forwarded);
  reg.counter("engine.hits_resolved").add(profile.hits_resolved);
  reg.counter("engine.infinities").add(state.hist().infinities());
  reg.counter("engine.phases").add(profile.phases);
  reg.counter("engine.hash_probes").add(state.table().probe_count());
  if constexpr (requires { state.tree().rotation_count(); }) {
    reg.counter("engine.tree_rotations").add(state.tree().rotation_count());
  }
  if constexpr (requires { state.tree().splay_count(); }) {
    reg.counter("engine.tree_splays").add(state.tree().splay_count());
  }
  reg.gauge("engine.peak_resident").set_max(profile.peak_resident);
}

/// Gathers each rank's profile at rank 0 (physical order).
inline std::vector<RankProfile> gather_profiles(comm::Comm& comm,
                                                const RankProfile& mine) {
  static_assert(std::is_trivially_copyable_v<RankProfile>);
  const auto pieces =
      comm.gather(std::span<const RankProfile>(&mine, 1), 0, kTagProfile);
  std::vector<RankProfile> out;
  out.reserve(pieces.size());
  for (const auto& piece : pieces) {
    if (!piece.empty()) out.push_back(piece[0]);
  }
  return out;
}

/// One phase's chunk for the calling rank, from take_phase_chunk.
struct PhaseChunk {
  RankView view;               // the rank's references and their global base
  comm::View<Addr> scattered;  // streaming: keeps view.refs alive
  bool drained = false;  // the pipe was empty: the phase does not run
  bool last = true;      // no phase can follow: skip Algorithm 6
};

/// Phase intake. An offline source is one phase whose chunk is the rank's
/// own rank_view, pulled under an "ingest" span (for ChunkedTrzSource this
/// is the per-rank parallel decode). A streaming source has a phase per
/// np*C references: rank 0 reads ONE block from the pipe, broadcasts its
/// length and scatters per-rank (offset, count) views of it, so the block
/// is never copied again whatever np is; the "scatter" span is labelled
/// `phase`. Every phase but the last is full, so phase p starts at global
/// time p*np*C.
PhaseChunk take_phase_chunk(comm::Comm& comm, TraceSource& source,
                            std::size_t chunk_words, std::uint32_t phase);

/// The per-rank body (one call per rank inside a comm job): Algorithm 5's
/// phase loop, of which offline analysis (Algorithm 3) is the one-phase
/// case. Each phase takes its chunk, processes it (Algorithm 7's modified
/// stack_dist, at most B records forwarded per chunk when bounded), runs
/// the merge rounds (Algorithm 3's loop, with Algorithm 4), and, only when
/// another phase can follow, reduces the state onto rank 0 (Algorithm 6,
/// from the newest saturated rank on when a rank saturated). The
/// histograms and profiles are then reduced onto rank 0 under
/// "final-reduce".
template <OrderStatTree Tree>
void rank_body(comm::Comm& comm, TraceSource& source,
               const PardaOptions& options, Histogram& result,
               std::vector<RankProfile>& profiles) {
  const int np = comm.size();
  const int me = comm.rank();
  const bool phased = !source.offline();
  RankState<Tree> state(options.bound, options.space_optimized);
  RankProfile profile;

  for (std::uint32_t n = 0;; ++n) {
    // Attribute everything this thread records during a streaming phase —
    // notably the recv-wait spans inside the comm layer — to that phase,
    // so the SpanReport can decompose each phase into self vs blocked time
    // per rank. The offline phase stays at kNoPhase.
    const std::uint32_t phase = phased ? n : obs::kNoPhase;
    obs::ScopedThreadPhase phase_scope(phase);
    const PhaseChunk chunk =
        take_phase_chunk(comm, source, options.chunk_words, phase);
    if (chunk.drained) break;

    {
      obs::SpanScope span("analyze");
      state.begin_merge_stage();
      state.process_own_block(chunk.view.refs, chunk.view.base);
    }
    profile.chunk_refs += chunk.view.refs.size();
    if (phased) ++profile.phases;

    {
      obs::SpanScope span("infinity-pipeline");
      run_merge_rounds(comm, state, &profile.records_forwarded);
    }
    profile.records_received += state.received_count();
    if (chunk.last) break;

    // State reduction onto rank 0 (Algorithm 6): each other rank's
    // exported state moves into the message, whose tag says whether the
    // rank saturated (spent Algorithm 7's budget of B records). Unless one
    // did, rank 0 appends the views in rank order, which is reference
    // order; rank 0's own state never moves, so a phase moves O(np*C)
    // entries however large the state. A saturated rank swallowed records
    // and so left stale replicas to its left, but it and the ranks to its
    // right hold the phase's B newest distinct addresses: rank 0 then drops
    // its state and appends only the exports from the newest saturated rank
    // on.
    obs::SpanScope span("reduce");
    if (me != 0) {
      comm.send(0, state.saturated() ? kTagSaturatedState : kTagState,
                state.export_state());
    } else {
      std::vector<comm::View<InfRecord>> exports(static_cast<std::size_t>(np));
      int newest_saturated = 0;
      for (int r = 1; r < np; ++r) {
        int tag = kTagState;
        exports[r] =
            comm.recv_view<InfRecord>(r, comm::kAnyTag, nullptr, &tag);
        if (tag == kTagSaturatedState) newest_saturated = r;
      }
      if (newest_saturated > 0) state.drop_state();
      for (int r = std::max(newest_saturated, 1); r < np; ++r) {
        state.append_state(exports[r].span());
      }
    }
  }

  profile.hits_resolved = state.hist().finite_total();
  profile.peak_resident = state.peak_resident();
  publish_rank_metrics(profile, state);
  std::vector<RankProfile> gathered;
  Histogram reduced;
  {
    obs::SpanScope span("final-reduce");
    gathered = gather_profiles(comm, profile);
    reduced = reduce_histogram(comm, state.hist(), 0);
  }
  if (me == 0) {
    result = std::move(reduced);
    profiles = std::move(gathered);
  }
}

}  // namespace detail

/// Parallel reuse distance analysis of `source` on a caller-owned
/// WorkerPool, with options.num_procs ranks. The result equals the
/// sequential analysis exactly (unbounded), or the bounded sequential
/// analysis when options.bound is set.
///
/// Every source runs detail::rank_body. Offline sources are partitioned
/// once, then each rank pulls its own disjoint RankView from its own
/// thread under an "ingest" span (for ChunkedTrzSource the per-rank
/// parallel decode, for span and mmap sources a zero-copy window) and the
/// ranks run Algorithm 3 as a single phase.
///
/// Streaming sources run Algorithms 5-6: rank 0 drains the pipe in phases
/// of np*C references and scatters per-rank chunks; after each phase that
/// another can follow, ranks 1..np-1 send their resident state to rank 0,
/// which appends it after its own, so the global state never travels. With
/// a bound, a rank that emitted Algorithm 7's budget of B records saturated:
/// rank 0 then drops its own state and appends only the exports of the
/// newest saturated rank and those to its right. The last (short) phase
/// skips that reduction. This requires space optimization (the reduce step
/// relies on the disjoint-residency property of Algorithm 4), and
/// chunk_words * num_procs must fit in size_t.
///
/// The source must stay alive for the call (rank views alias its
/// storage) and may be reused across calls; ChunkedTrzSource keeps its
/// per-rank decode arenas warm.
template <OrderStatTree Tree = FenwickWindow>
PardaResult parda_analyze(comm::WorkerPool& pool, TraceSource& source,
                          const PardaOptions& options) {
  const int np = options.num_procs;
  PARDA_CHECK(np >= 1);
  if (source.offline()) {
    source.partition(np);
  } else {
    PARDA_CHECK(options.chunk_words >= 1);
    PARDA_CHECK_MSG(
        options.chunk_words <= SIZE_MAX / static_cast<std::size_t>(np),
        "chunk_words %zu times %d ranks overflows size_t",
        options.chunk_words, np);
    PARDA_CHECK(options.space_optimized);
  }
  Histogram result;
  std::vector<RankProfile> profiles;
  comm::RunStats stats = pool.run_job(
      np,
      [&](comm::Comm& comm) {
        detail::rank_body<Tree>(comm, source, options, result, profiles);
      },
      options.run_options);
  return PardaResult{std::move(result), std::move(stats),
                     std::move(profiles)};
}

}  // namespace parda
