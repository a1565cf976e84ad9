// TraceSource: how references reach the ranks.
//
// The paper streams 100-billion-reference traces through a Linux pipe into
// rank 0; this repo's offline path historically did the same (a producer
// thread copying every block through a TracePipe) even when the trace was
// a seekable file. TraceSource abstracts the ingest so the driver can pick
// the cheapest path per input:
//
//   - PipeTraceSource   — the streaming/online source: a TracePipe fed by
//                         an external producer (the Figure 3 shape). The
//                         only choice when the trace is unbounded or
//                         arrives live; runs the multi-phase Algorithm 5.
//   - SpanTraceSource   — offline in-memory ingest: each rank analyzes a
//                         disjoint view of a caller-owned span.
//   - MmapTraceSource   — zero-copy offline .bin ingest: the file is
//                         mmap'd once, madvise(SEQUENTIAL), and each rank
//                         analyzes a disjoint view of the mapping. No
//                         pipe, no producer thread, no copy.
//   - ChunkedTrzSource  — chunked-compressed offline ingest: a v2 .trz
//                         archive's chunks are assigned to ranks in
//                         contiguous runs and each rank decodes its own
//                         chunks, in parallel, into a per-rank arena that
//                         is reused across analyses.
//
// A trace on disk picks its own offline source: open_offline_source reads
// the file's 8-byte magic ("PARDATRC" -> mmap, "PARDATRZ" -> trz).
//
// Offline sources partition the trace once per job (partition(np), driver
// thread), then every rank asks for its RankView from its own thread
// (rank_view(rank)) — which is exactly where ChunkedTrzSource does its
// decoding, so decompression parallelizes with np for free. Views stay
// valid until the next partition() or the source's destruction; they must
// never outlive the source (the mmap case would fault).
//
// Ingest telemetry (the `ingest.*` metrics, DESIGN.md "Ingest"):
//   ingest.bytes_mapped    bytes of file mapped (mmap + trz)
//   ingest.bytes_decoded   compressed payload bytes decoded (trz)
//   ingest.bytes_copied    raw reference bytes memcpy'd (pipe path only —
//                          the zero-copy proof is this staying 0)
//   ingest.chunks_assigned trz chunks handed to ranks
//   ingest.decode          per-rank decode wall time (trz)
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/mmap_file.hpp"
#include "trace/trace_compress.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_pipe.hpp"
#include "util/types.hpp"

namespace parda {

/// How a trace on disk reaches the ranks: kPipe streams it through a
/// producer thread and a bounded pipe into the multi-phase algorithm;
/// kOffline opens the offline source its magic names (open_offline_source).
enum class IngestMode { kPipe, kOffline };

/// One rank's slice of the trace: the references plus the global logical
/// time of refs[0] (rank bases must be cumulative across ranks so the
/// infinity pipeline sees one consistent clock).
struct RankView {
  std::span<const Addr> refs;
  Timestamp base = 0;
};

namespace detail {

/// The equal ceil-division split of Algorithm 3: rank p owns global
/// positions [p*ceil(N/np), ...). Ranks past the end get empty views.
inline RankView equal_rank_view(std::span<const Addr> trace, int rank,
                                int np) {
  const std::size_t n = trace.size();
  const std::size_t chunk = (n + static_cast<std::size_t>(np) - 1) /
                            static_cast<std::size_t>(np);
  const std::size_t begin =
      std::min(static_cast<std::size_t>(rank) * chunk, n);
  const std::size_t end = std::min(begin + chunk, n);
  return RankView{trace.subspan(begin, end - begin),
                  static_cast<Timestamp>(begin)};
}

}  // namespace detail

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// The source label ("pipe" | "span" | "mmap" | "trz"), for
  /// diagnostics and bench points.
  virtual const char* name() const noexcept = 0;

  /// Whether the whole trace is addressable up front. Offline sources
  /// implement partition()/rank_view(); streaming sources implement
  /// pipe().
  virtual bool offline() const noexcept = 0;

  /// Offline only: total references in the trace.
  virtual std::uint64_t total_references() const;

  /// Offline only: splits the trace into np contiguous per-rank ranges.
  /// Called once per job from the driver thread, before any rank_view().
  virtual void partition(int np);

  /// Offline only: rank's disjoint view, called from the rank's own
  /// thread (concurrent across ranks — this is where ChunkedTrzSource
  /// decodes). Valid until the next partition() or destruction.
  virtual RankView rank_view(int rank);

  /// Streaming only: the pipe the multi-phase driver drains.
  virtual TracePipe& pipe();
};

/// The streaming/online source: wraps an externally produced TracePipe
/// behind the TraceSource interface (the producer lifecycle stays with the
/// caller — see detail::run_with_file_producer for the file-backed shape).
class PipeTraceSource final : public TraceSource {
 public:
  explicit PipeTraceSource(TracePipe& pipe) : pipe_(&pipe) {}

  const char* name() const noexcept override { return "pipe"; }
  bool offline() const noexcept override { return false; }
  TracePipe& pipe() override { return *pipe_; }

 private:
  TracePipe* pipe_;
};

/// Offline source over a caller-owned in-memory trace, split with
/// detail::equal_rank_view. The span must outlive the analysis.
class SpanTraceSource final : public TraceSource {
 public:
  explicit SpanTraceSource(std::span<const Addr> trace) : trace_(trace) {}

  const char* name() const noexcept override { return "span"; }
  bool offline() const noexcept override { return true; }
  std::uint64_t total_references() const override { return trace_.size(); }
  void partition(int np) override;
  RankView rank_view(int rank) override;

 private:
  std::span<const Addr> trace_;
  int np_ = 0;
};

/// Zero-copy offline source over a binary (.trc/.bin) trace: maps the file
/// once and hands each rank a disjoint view straight into the mapping.
class MmapTraceSource final : public TraceSource {
 public:
  /// Maps and validates the trace header (same checks and byte-offset
  /// TraceFormatErrors as BinaryTraceReader).
  explicit MmapTraceSource(const std::string& path);

  const char* name() const noexcept override { return "mmap"; }
  bool offline() const noexcept override { return true; }
  std::uint64_t total_references() const override { return total_; }
  void partition(int np) override;
  RankView rank_view(int rank) override;

  /// The whole trace as one view (tests; sequential tools).
  std::span<const Addr> view() const noexcept { return {refs_, total_}; }
  /// The mapped byte range, exposed so tests can prove rank views alias
  /// the mapping (zero copies) instead of pointing at private buffers.
  const void* map_base() const noexcept { return map_.data(); }
  std::size_t map_bytes() const noexcept { return map_.size(); }

 private:
  std::string path_;
  MappedFile map_;
  const Addr* refs_ = nullptr;
  std::uint64_t total_ = 0;
  int np_ = 0;
};

/// Chunked-compressed offline source over a v2 .trz archive: contiguous
/// chunk runs per rank, decoded in parallel on the ranks' own threads into
/// per-rank arenas that persist (and keep their capacity) across
/// partitions and analyses.
class ChunkedTrzSource final : public TraceSource {
 public:
  explicit ChunkedTrzSource(const std::string& path);

  const char* name() const noexcept override { return "trz"; }
  bool offline() const noexcept override { return true; }
  std::uint64_t total_references() const override {
    return file_.total_references();
  }
  void partition(int np) override;
  RankView rank_view(int rank) override;

  const ChunkedTrzFile& file() const noexcept { return file_; }
  /// The chunk range assigned to `rank` by the last partition(), as
  /// [first, first + count): exposed for the balance tests.
  std::pair<std::uint64_t, std::uint64_t> assigned_chunks(int rank) const;

 private:
  struct Assignment {
    std::uint64_t first_chunk = 0;
    std::uint64_t num_chunks = 0;
    std::uint64_t first_ref = 0;  // global index of the run's first ref
    std::uint64_t refs = 0;
  };

  ChunkedTrzFile file_;
  std::vector<Assignment> plan_;
  std::vector<std::vector<Addr>> arenas_;  // one per rank, reused
};

/// Opens the offline source the file's 8-byte magic names: a .trz archive
/// ("PARDATRZ") gets a ChunkedTrzSource, anything else a MmapTraceSource,
/// whose header checks reject a file that is not a binary trace with a
/// TraceFormatError at byte offset 0.
std::unique_ptr<TraceSource> open_offline_source(const std::string& path);

}  // namespace parda
