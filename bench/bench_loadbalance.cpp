// Ablation A8: load balance across ranks. Section IV-D argues the
// multi-phase algorithm "achieves good load balancing" because the
// state-holder merges while other ranks process infinities, and the
// holder role rotates with the rank reversal. This repo departs from that:
// the phase state stays on rank 0, which every phase does its own chunk,
// the end of the infinity pipeline and the append of the other ranks'
// exports, so rank 0 is the busiest rank by design (DESIGN.md §5 item 4).
// This harness prints per-rank work (busy time, chunk references, records
// received) and the wall time for the offline single-stage run versus
// phased runs, so the balance can be read against what it costs.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/parda.hpp"
#include "trace/trace_pipe.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec.hpp"

namespace parda::bench {
namespace {

constexpr std::size_t kBlock = 4096;

PardaResult run_streamed(const std::vector<Addr>& trace,
                         const PardaOptions& options) {
  TracePipe pipe(8 * kBlock);
  std::thread producer([&] {
    for (std::size_t at = 0; at < trace.size(); at += kBlock) {
      const std::size_t hi = std::min(at + kBlock, trace.size());
      pipe.write(std::span<const Addr>(trace.data() + at, hi - at));
    }
    pipe.close();
  });
  comm::WorkerPool pool(options.num_procs);
  PipeTraceSource source(pipe);
  PardaResult result = parda_analyze(pool, source, options);
  producer.join();
  return result;
}

void print_profiles(const char* label, const PardaResult& result) {
  std::printf("%s\n", label);
  TablePrinter table({"rank", "busy (ms)", "chunk refs", "records in",
                      "records fwd", "hits resolved", "peak resident"});
  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (std::size_t r = 0; r < result.profiles.size(); ++r) {
    const RankProfile& p = result.profiles[r];
    const double busy =
        result.stats.ranks[r].busy_seconds * 1000.0;
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
    table.add_row({std::to_string(r), TablePrinter::fmt(busy, 1),
                   with_commas(p.chunk_refs),
                   with_commas(p.records_received),
                   with_commas(p.records_forwarded),
                   with_commas(p.hits_resolved),
                   with_commas(p.peak_resident)});
  }
  table.print();
  const double balance =
      busy_max == 0.0
          ? 1.0
          : busy_sum / (busy_max * static_cast<double>(
                                       result.profiles.size()));
  std::printf("balance = avg busy / max busy = %.2f (1.0 = perfect), "
              "wall %.1f ms\n\n",
              balance, result.stats.wall_seconds * 1000.0);
}

}  // namespace
}  // namespace parda::bench

int main() {
  using namespace parda;
  using namespace parda::bench;

  const std::uint64_t scale = spec_scale();
  const std::uint64_t maxrefs = env_u64("PARDA_BENCH_MAXREFS", 1'000'000);
  const int np = static_cast<int>(env_u64("PARDA_BENCH_PROCS", 8));

  auto workload = make_spec_workload("sphinx3", scale, /*seed=*/1);
  const std::uint64_t n = std::min<std::uint64_t>(
      spec_profile("sphinx3").scaled_n(scale), maxrefs);
  const std::vector<Addr> trace = take_trace(*workload, n);

  std::printf("Load-balance ablation (Section IV-D), sphinx3 profile, "
              "N=%s, np=%d\n\n",
              with_commas(n).c_str(), np);

  PardaOptions offline;
  offline.num_procs = np;
  comm::WorkerPool pool(np);
  SpanTraceSource source(trace);
  print_profiles("offline single-stage (Algorithm 3): rank 0 resolves "
                 "everything, left ranks do extra merge work",
                 parda_analyze(pool, source, offline));

  for (const std::size_t chunk : {65536UL, 8192UL}) {
    PardaOptions streamed;
    streamed.num_procs = np;
    streamed.chunk_words = chunk;
    char label[128];
    std::snprintf(label, sizeof(label),
                  "phased (Algorithm 5), C=%zu: rank 0 keeps the state "
                  "and appends the other ranks' exports",
                  chunk);
    print_profiles(label, run_streamed(trace, streamed));
  }
  return 0;
}
