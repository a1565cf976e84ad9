// The benchmark's named workloads: one table read by both the fixture
// generator (perfbench_gen) and the measuring process (perfbench_run), so
// the two cannot disagree on sizes, bounds, or rank counts.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/rank_state.hpp"

namespace perfbench {

enum class Shape {
  kOfflineTrz,  // whole-trace offline analysis of a chunked .trz v2 file
  kPipe,        // file producer -> TracePipe -> multi-phase streaming
  kWindows,     // consecutive windows of an mmap'd trace, one job each
};

struct WorkloadSpec {
  std::string name;
  Shape shape = Shape::kOfflineTrz;
  // Generator: a parse_workload() spec, or a Table IV profile name.
  std::string generator;
  std::uint64_t spec_scale = 0;  // >0 selects make_spec_workload(profile)
  std::uint64_t refs = 0;
  int np = 1;                    // analysis ranks (plus the pipe producer)
  std::uint64_t bound = parda::kUnbounded;
  std::uint64_t chunk_words = 0;  // streaming C; 0 = PardaOptions default
  std::uint64_t window = 0;       // kWindows: refs per window
  bool program_obs = false;       // the program's obs layer stays on

  const char* trace_file() const {
    return shape == Shape::kOfflineTrz ? "trace.trz" : "trace.trc";
  }
  /// The same references as a binary .trc, for the ingest layers that read
  /// that format (the pipe producer, mmap views). Equal to trace_file()
  /// except for kOfflineTrz.
  static constexpr const char* kBinaryFile = "trace.trc";
  std::uint64_t windows() const { return window == 0 ? 1 : refs / window; }
};

// scaled_bound(2Mw) of the paper's Table IV runs at spec scale 2000:
// 2 * 2^20 / 2000 = 1048 distinct elements.
inline constexpr std::uint64_t kMcfBound = (std::uint64_t{2} << 20) / 2000;

/// `tiny` shrinks every workload to a few tens of thousands of refs for the
/// smoke test; the shapes, rank counts, and code paths stay the same.
inline WorkloadSpec workload(std::string_view name, bool tiny) {
  WorkloadSpec w;
  w.name = std::string(name);
  if (name == "zipf-trz") {
    // Offline and exact. ~1.6M distinct of 2^22 refs: per-rank AddrMap +
    // splay state is far larger than L2, so the engine, trz decode, the
    // local-infinity pipeline (Algorithms 3-4) and a ~1.6M-bin histogram
    // dominate. The ROADMAP's "beat the sequential engine" case.
    w.shape = Shape::kOfflineTrz;
    w.refs = tiny ? (std::uint64_t{1} << 16) : (std::uint64_t{1} << 22);
    w.generator = "zipf:m=" + std::to_string(w.refs) + ",a=0.8";
    w.np = 4;
  } else if (name == "mcf-stream") {
    // The Table IV shape: the only workload through the pipe copy, phase
    // scatter, Algorithm 6 state reduction with rank reversal, and bounded
    // eviction (Algorithm 7). ~28k distinct: between the other two.
    // np=3 ranks + the producer thread stay within 4 cores.
    w.shape = Shape::kPipe;
    w.generator = "mcf";
    w.spec_scale = 2000;
    w.refs = tiny ? (std::uint64_t{1} << 17) : (std::uint64_t{1} << 22);
    w.np = 3;
    w.bound = kMcfBound;
    // Default C (2^16) gives ~21 phases over 2^22 refs; the tiny run keeps
    // several phases by shrinking C.
    w.chunk_words = tiny ? 4096 : 0;
  } else if (name == "povray-windows") {
    // The monitoring/serving shape: 308 distinct, cache-resident, almost no
    // infinities, so per-job fixed costs (pool admission, World reset,
    // reduce) and the obs layer carry a share the other workloads hide.
    // np=2 keeps wake-up latency off a saturated scheduler.
    w.shape = Shape::kWindows;
    w.generator = "povray";
    w.spec_scale = 2000;
    w.window = tiny ? (std::uint64_t{1} << 12) : (std::uint64_t{1} << 15);
    w.refs = w.window * (tiny ? 8 : 256);
    w.np = 2;
    w.program_obs = true;
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  return w;
}

}  // namespace perfbench
