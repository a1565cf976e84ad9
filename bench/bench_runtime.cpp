// Runtime ablation: what the persistent executor actually buys. Measures
// cold-spawn (a fresh WorkerPool per analysis — the one-shot spawn/join
// shape) against warm-pool (one PardaRuntime reused across analyses) for
// empty jobs and small-trace end-to-end analyses at np ∈ {2, 4, 8}, and
// writes the comparison to BENCH_runtime.json (override the path with
// PARDA_BENCH_JSON). This is the end-to-end datapoint for the perf
// trajectory: repeated small analyses are exactly the workload online
// monitoring and bench loops put on the engine.
//
// Environment: PARDA_BENCH_REFS (default 2000 references per trace — small
// on purpose: the spawn overhead under measurement is a fixed cost, so the
// repeated-small-analysis regime is where it shows), PARDA_BENCH_REPS
// (default 50 analyses per measurement), PARDA_BENCH_JSON (default
// BENCH_runtime.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/runtime.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

void BM_ColdSpawnJob(benchmark::State& state) {
  // Fresh pool per job: thread spawn + World build + join every time.
  const auto np = static_cast<int>(state.range(0));
  for (auto _ : state) {
    comm::WorkerPool pool(np);
    pool.run_job(np, [](comm::Comm&) {});
  }
}

BENCHMARK(BM_ColdSpawnJob)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_WarmPoolJob(benchmark::State& state) {
  // Parked workers + cached World: the steady-state cost of one job.
  const auto np = static_cast<int>(state.range(0));
  comm::WorkerPool pool(np);
  pool.run_job(np, [](comm::Comm&) {});  // absorb first-World cost
  for (auto _ : state) {
    pool.run_job(np, [](comm::Comm&) {});
  }
}

BENCHMARK(BM_WarmPoolJob)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ColdAnalyze(benchmark::State& state) {
  const auto np = static_cast<int>(state.range(0));
  ZipfWorkload w(500, 0.9, 17);
  const auto trace = generate_trace(w, 20000);
  PardaOptions options;
  options.num_procs = np;
  SpanTraceSource source(trace);
  for (auto _ : state) {
    comm::WorkerPool pool(np);
    benchmark::DoNotOptimize(
        parda_analyze(pool, source, options).hist.total());
  }
}

BENCHMARK(BM_ColdAnalyze)->Arg(2)->Arg(4)->UseRealTime();

void BM_WarmAnalyze(benchmark::State& state) {
  const auto np = static_cast<int>(state.range(0));
  ZipfWorkload w(500, 0.9, 17);
  const auto trace = generate_trace(w, 20000);
  PardaOptions options;
  options.num_procs = np;
  core::PardaRuntime runtime;
  auto session = runtime.session(options);
  session.analyze(trace);  // absorb spawn + first-World cost
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.analyze(trace).hist.total());
  }
}

BENCHMARK(BM_WarmAnalyze)->Arg(2)->Arg(4)->UseRealTime();

// ---------------------------------------------------------------------------
// The JSON artifact: cold vs warm, measured directly (not via the
// google-benchmark loop) so the file carries comparable absolute numbers.
// ---------------------------------------------------------------------------

struct RuntimePoint {
  std::string mode;  // "cold_spawn" | "warm_pool"
  int np;
  std::uint64_t refs;   // 0 for the empty-job latency points
  int reps;
  double total_seconds;
  double per_analysis_ms;   // median over reps (robust against CI noise)
  double throughput_mrefs;  // refs/s at the median (0 for empty jobs)
};

RuntimePoint summarize(std::string mode, int np, std::uint64_t refs,
                       std::vector<double> rep_seconds) {
  double total = 0.0;
  for (const double s : rep_seconds) total += s;
  std::sort(rep_seconds.begin(), rep_seconds.end());
  const double median = rep_seconds[rep_seconds.size() / 2];
  return {std::move(mode),
          np,
          refs,
          static_cast<int>(rep_seconds.size()),
          total,
          median * 1e3,
          refs == 0 ? 0.0 : static_cast<double>(refs) / median / 1e6};
}

RuntimePoint measure_cold(int np, const std::vector<Addr>& trace, int reps) {
  PardaOptions options;
  options.num_procs = np;
  SpanTraceSource source(trace);
  std::vector<double> rep_seconds;
  rep_seconds.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    comm::WorkerPool pool(np);
    benchmark::DoNotOptimize(
        parda_analyze(pool, source, options).hist.total());
    rep_seconds.push_back(timer.seconds());
  }
  return summarize("cold_spawn", np, trace.size(), std::move(rep_seconds));
}

RuntimePoint measure_warm(int np, const std::vector<Addr>& trace, int reps) {
  PardaOptions options;
  options.num_procs = np;
  core::PardaRuntime runtime;
  auto session = runtime.session(options);
  session.analyze(trace);  // spawn workers + build the World once
  std::vector<double> rep_seconds;
  rep_seconds.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    benchmark::DoNotOptimize(session.analyze(trace).hist.total());
    rep_seconds.push_back(timer.seconds());
  }
  return summarize("warm_pool", np, trace.size(), std::move(rep_seconds));
}

void write_json(const std::string& path,
                const std::vector<RuntimePoint>& points) {
  std::vector<bench::BenchPoint> out;
  out.reserve(points.size());
  for (const RuntimePoint& p : points) {
    bench::BenchPoint bp;
    bp.name = p.mode;
    bp.params = {{"np", static_cast<std::uint64_t>(p.np)},
                 {"refs", p.refs},
                 {"reps", static_cast<std::uint64_t>(p.reps)}};
    bp.metrics = {{"total_seconds", p.total_seconds},
                  {"per_analysis_ms", p.per_analysis_ms},
                  {"throughput_mrefs_per_s", p.throughput_mrefs}};
    out.push_back(std::move(bp));
  }
  bench::write_bench_json(path, "runtime", out);
}

void run_runtime_suite() {
  const auto refs = bench::env_u64("PARDA_BENCH_REFS", 2000);
  const int reps = static_cast<int>(bench::env_u64("PARDA_BENCH_REPS", 50));
  const std::string json_path = bench::bench_json_path("BENCH_runtime.json");

  ZipfWorkload w(500, 0.9, 17);
  const auto trace = generate_trace(w, refs);
  const std::vector<Addr> empty;

  std::vector<RuntimePoint> points;
  for (int np : {2, 4, 8}) {
    points.push_back(measure_cold(np, empty, reps));
    points.push_back(measure_warm(np, empty, reps));
  }
  for (int np : {2, 4}) {
    points.push_back(measure_cold(np, trace, reps));
    points.push_back(measure_warm(np, trace, reps));
  }

  std::printf("\nruntime reuse (reps=%d, refs=%" PRIu64 ")\n%-12s %4s %8s %16s %12s\n",
              reps, refs, "mode", "np", "refs", "per_analysis_ms",
              "Mrefs/s");
  for (const RuntimePoint& p : points) {
    std::printf("%-12s %4d %8" PRIu64 " %16.4f %12.3f\n", p.mode.c_str(),
                p.np, p.refs, p.per_analysis_ms, p.throughput_mrefs);
  }
  write_json(json_path, points);
}

}  // namespace
}  // namespace parda

int main(int argc, char** argv) {
  parda::run_runtime_suite();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
