// Shared-cache partitioning (Lu et al. "Soft-OLP", from the paper's intro
// and conclusions): per-stream reuse distance histograms drive an
// allocation of cache ways among co-running workloads, compared against an
// even split and the DP-optimal allocation.
//
//   ./cache_partitioning --units=128 --refs=100000
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/partition.hpp"
#include "core/parda.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/spec.hpp"

int main(int argc, char** argv) {
  using namespace parda;

  std::uint64_t units = 128;
  std::uint64_t refs = 100000;
  std::uint64_t scale = kDefaultSpecScale * 4;

  CliParser cli(
      "Partition a shared cache among co-running SPEC-like workloads "
      "using their reuse distance histograms");
  cli.add_flag("units", &units, "total cache units to divide");
  cli.add_flag("refs", &refs, "trace length per workload");
  cli.add_flag("scale", &scale, "SPEC footprint down-scaling factor");
  cli.parse(argc, argv);

  const std::vector<std::string> names{"povray", "mcf", "libquantum",
                                       "gobmk"};
  std::vector<Histogram> histograms;
  PardaOptions options;
  options.num_procs = 2;
  comm::WorkerPool pool(options.num_procs);  // reused by every analysis
  for (const std::string& name : names) {
    auto w = make_spec_workload(name, scale, /*seed=*/3);
    const auto trace = generate_trace(*w, refs);
    SpanTraceSource source(trace);
    histograms.push_back(parda_analyze(pool, source, options).hist);
  }

  const PartitionResult even = partition_even(histograms, units);
  const PartitionResult greedy = partition_greedy(histograms, units);
  const PartitionResult optimal = partition_optimal(histograms, units);

  std::printf("partitioning %s cache units among %zu workloads\n\n",
              with_commas(units).c_str(), names.size());
  TablePrinter table({"workload", "even", "greedy", "optimal"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    table.add_row({names[i], with_commas(even.allocation[i]),
                   with_commas(greedy.allocation[i]),
                   with_commas(optimal.allocation[i])});
  }
  table.add_row({"total misses", with_commas(even.total_misses),
                 with_commas(greedy.total_misses),
                 with_commas(optimal.total_misses)});
  table.print();

  const double saving =
      even.total_misses == 0
          ? 0.0
          : 100.0 *
                (static_cast<double>(even.total_misses) -
                 static_cast<double>(optimal.total_misses)) /
                static_cast<double>(even.total_misses);
  std::printf("\nhistogram-driven partitioning saves %.1f%% of misses vs an "
              "even split\n",
              saving);
  return 0;
}
