// One-shot analyses for tests: each call runs parda_analyze on its own
// transient WorkerPool, so no result depends on worker or World state left
// behind by an earlier analysis.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "comm/worker_pool.hpp"
#include "core/parda.hpp"
#include "core/runtime.hpp"
#include "trace/source.hpp"
#include "trace/trace_pipe.hpp"
#include "tree/fenwick.hpp"

namespace parda::test_support {

/// Offline analysis of an in-memory trace through a SpanTraceSource. Tree
/// defaults to the driver's default rank tree.
template <OrderStatTree Tree = FenwickWindow>
PardaResult run_parda(std::span<const Addr> trace,
                      const PardaOptions& options) {
  comm::WorkerPool pool(options.num_procs);
  SpanTraceSource source(trace);
  return parda_analyze<Tree>(pool, source, options);
}

/// Streaming analysis of a pipe through a PipeTraceSource.
template <OrderStatTree Tree = FenwickWindow>
PardaResult run_parda_pipe(TracePipe& pipe, const PardaOptions& options) {
  comm::WorkerPool pool(options.num_procs);
  PipeTraceSource source(pipe);
  return parda_analyze<Tree>(pool, source, options);
}

/// File analysis through a fresh runtime's session.
inline PardaResult run_parda_file(const std::string& path,
                                  const PardaOptions& options,
                                  std::size_t pipe_words = 1 << 20,
                                  IngestMode ingest = IngestMode::kPipe) {
  core::PardaRuntime runtime(options.num_procs);
  return runtime.session(options).analyze_file(path, pipe_words, ingest);
}

}  // namespace parda::test_support
