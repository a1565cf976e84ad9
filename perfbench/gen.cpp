// perfbench_gen: writes one workload's trace file and its sequential oracle
// from a seed, in a process of its own so the measuring process never
// holds the generator's memory.
//
//   perfbench_gen --workload NAME --seed N --out DIR [--tiny]
//
// DIR/trace.trz|trace.trc  the trace (chunked .trz v2 or binary .trc); a
//                          .trz workload also gets the binary .trc, which
//                          the per-layer pipe and mmap measurements read
// DIR/oracle.jsonl         one parda.histogram.v1 per line: the whole trace
//                          (BK unbounded, BoundedAnalyzer<SplayTree> when
//                          bounded), or one per window
// DIR/meta.json            refs, distinct, footprint bytes
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "seq/bennett_kruskal.hpp"
#include "seq/bounded.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "tree/splay_tree.hpp"
#include "workload/parse.hpp"
#include "workload/spec.hpp"
#include "workloads.hpp"

namespace {

std::uint64_t count_distinct(std::vector<parda::Addr> trace) {
  std::sort(trace.begin(), trace.end());
  return static_cast<std::uint64_t>(
      std::unique(trace.begin(), trace.end()) - trace.begin());
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string out;
  std::uint64_t seed = 1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      tiny = true;
    } else if (i + 1 < argc && arg == "--workload") {
      name = argv[++i];
    } else if (i + 1 < argc && arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (i + 1 < argc && arg == "--out") {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench_gen: bad argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (name.empty() || out.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --workload NAME --seed N --out DIR "
                 "[--tiny]\n");
    return 2;
  }

  try {
    const perfbench::WorkloadSpec w = perfbench::workload(name, tiny);
    std::unique_ptr<parda::Workload> gen =
        w.spec_scale > 0
            ? parda::make_spec_workload(w.generator, w.spec_scale, seed)
            : parda::parse_workload(w.generator, seed);
    const std::vector<parda::Addr> trace = parda::take_trace(*gen, w.refs);

    const std::string trace_path = out + "/" + w.trace_file();
    if (w.shape == perfbench::Shape::kOfflineTrz) {
      parda::write_trace_chunked(trace_path, trace);
    }
    parda::write_trace_binary(out + "/" + w.kBinaryFile, trace);

    std::ofstream oracle(out + "/oracle.jsonl");
    const std::span<const parda::Addr> all(trace);
    if (w.shape == perfbench::Shape::kWindows) {
      for (std::uint64_t i = 0; i < w.windows(); ++i) {
        oracle << parda::bennett_kruskal_analysis(
                      all.subspan(i * w.window, w.window))
                      .to_json()
               << "\n";
      }
    } else if (w.bound == parda::kUnbounded) {
      oracle << parda::bennett_kruskal_analysis(all).to_json() << "\n";
    } else {
      parda::BoundedAnalyzer<parda::SplayTree> seq(w.bound);
      seq.process_block(all);
      oracle << seq.histogram().to_json() << "\n";
    }

    const std::uint64_t distinct = count_distinct(trace);
    std::ofstream meta(out + "/meta.json");
    meta << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
         << ", \"tiny\": " << (tiny ? "true" : "false")
         << ", \"generator\": \"" << gen->name() << "\", \"refs\": "
         << w.refs << ", \"distinct\": " << distinct
         << ", \"footprint_bytes\": " << distinct * sizeof(parda::Addr)
         << ", \"windows\": " << w.windows() << ", \"trace_file\": \""
         << w.trace_file() << "\"}\n";
    if (!oracle || !meta) {
      std::fprintf(stderr, "perfbench_gen: cannot write into %s\n",
                   out.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
