// The file producer behind pipe ingest of on-disk traces
// (IngestMode::kPipe, DESIGN.md "Ingest"): a producer thread streams the
// file through a bounded TracePipe into the multi-phase online algorithm,
// so traces larger than memory are analyzed at O(pipe + rank state)
// footprint (the Figure 3 shape). The offline alternative,
// IngestMode::kOffline, needs no producer: open_offline_source
// (trace/source.hpp) maps a .trc or decodes a .trz per rank.
#pragma once

#include <functional>
#include <string>

#include "core/parda.hpp"

namespace parda {

namespace detail {

/// The producer scaffolding of kPipe file analysis: spawns a producer
/// thread that streams `path` into a bounded pipe (honoring the
/// FaultPlan's producer_fail_after injection), runs `consume(pipe)` on the
/// calling thread, and tears both down with the root-cause rethrow policy
/// (a producer error reaches the consumer by pipe poisoning, so the
/// producer's own exception wins).
PardaResult run_with_file_producer(
    const std::string& path, const PardaOptions& options,
    std::size_t pipe_words,
    const std::function<PardaResult(TracePipe&)>& consume);

}  // namespace detail

}  // namespace parda
