// Ingest-path comparison: the same trace analyzed through the three
// file paths (DESIGN.md "Ingest") —
//   pipe  the .trc through a producer thread + bounded TracePipe +
//         multi-phase streaming algorithm (one copy per reference),
//   mmap  the .trc offline: zero-copy mapping, disjoint views,
//   trz   the .trz offline: per-rank parallel chunk decode
// — at np = 1..8. mmap and trz are the same IngestMode::kOffline call;
// the file's magic picks the source. This is the artifact behind the
// "ingest at line rate" roadmap item: mmap and trz must beat pipe on
// refs/s (the pipe pays a copy, a thread handoff, and the phase machinery
// per reference).
//
// Writes a parda.bench.v1 artifact (default BENCH_ingest.json, override
// with PARDA_BENCH_JSON); a point's identity is (name="analyze_file",
// np, ingest) — trace length deliberately stays out of the params so a
// small CI run diffs against the committed full-size baseline with
// scripts/bench_diff.py (gate on --metric ns_per_ref; the diff tool
// treats every metric as a cost, so refs/s is reported but not gated).
//
// Environment: PARDA_BENCH_INGEST_REFS (default 1M references),
// PARDA_BENCH_INGEST_REPS (default 3, best rep wins), PARDA_BENCH_JSON.
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/runtime.hpp"
#include "trace/source.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "util/timer.hpp"
#include "workload/generators.hpp"

namespace parda {
namespace {

struct IngestFixture {
  std::string trc_path;
  std::string trz_path;
  std::size_t refs = 0;
};

IngestFixture make_fixture() {
  const auto refs = bench::env_u64("PARDA_BENCH_INGEST_REFS", 1 << 20);
  ZipfWorkload w(refs, 0.8, 5);
  const std::vector<Addr> trace = generate_trace(w, refs);
  IngestFixture fx;
  fx.refs = trace.size();
  fx.trc_path = "bench_ingest_tmp.trc";
  fx.trz_path = "bench_ingest_tmp.trz";
  write_trace_binary(fx.trc_path, trace);
  write_trace_chunked(fx.trz_path, trace);
  return fx;
}

/// One bench row: the `ingest` label, the file, and how it is read.
struct IngestPath {
  const char* label;
  const std::string* path;
  IngestMode mode;
};

double measure(core::PardaRuntime& runtime, const IngestFixture& fx,
               const IngestPath& ingest, int np, int reps) {
  PardaOptions options;
  options.num_procs = np;
  auto session = runtime.session(options);
  double best = 1e30;
  for (int i = 0; i < reps; ++i) {
    WallTimer timer;
    const PardaResult r =
        session.analyze_file(*ingest.path, 1 << 20, ingest.mode);
    const double secs = timer.seconds();
    if (r.hist.total() != fx.refs) {
      std::fprintf(stderr, "bench_ingest: %s returned %" PRIu64
                           " references, expected %zu\n",
                   ingest.label, r.hist.total(), fx.refs);
      std::exit(1);
    }
    best = std::min(best, secs);
  }
  return best;
}

void run_ingest_suite() {
  const int reps =
      static_cast<int>(bench::env_u64("PARDA_BENCH_INGEST_REPS", 3));
  const std::string json_path = bench::bench_json_path("BENCH_ingest.json");
  const IngestFixture fx = make_fixture();

  std::vector<bench::BenchPoint> points;
  std::printf("ingest (refs=%zu, reps=%d)\n%-6s %3s %12s %10s\n", fx.refs,
              reps, "ingest", "np", "ns_per_ref", "Mrefs/s");
  for (const int np : {1, 2, 4, 8}) {
    core::PardaRuntime runtime(np);  // warm pool shared by the modes
    for (const IngestPath& ingest :
         {IngestPath{"pipe", &fx.trc_path, IngestMode::kPipe},
          IngestPath{"mmap", &fx.trc_path, IngestMode::kOffline},
          IngestPath{"trz", &fx.trz_path, IngestMode::kOffline}}) {
      const double secs = measure(runtime, fx, ingest, np, reps);
      bench::BenchPoint p;
      p.name = "analyze_file";
      p.params = {{"np", static_cast<std::uint64_t>(np)}};
      p.labels = {{"ingest", ingest.label}};
      p.metrics = {
          {"ns_per_ref", secs * 1e9 / static_cast<double>(fx.refs)},
          {"mrefs_per_s", static_cast<double>(fx.refs) / secs / 1e6}};
      std::printf("%-6s %3d %12.2f %10.2f\n", ingest.label, np,
                  p.metrics[0].second, p.metrics[1].second);
      points.push_back(std::move(p));
    }
  }
  bench::write_bench_json(json_path, "ingest", points);
  std::remove(fx.trc_path.c_str());
  std::remove(fx.trz_path.c_str());
}

}  // namespace
}  // namespace parda

int main() {
  parda::run_ingest_suite();
  return 0;
}
