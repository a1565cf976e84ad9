#include "core/parda.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace parda {

Histogram reduce_histogram(comm::Comm& comm, const Histogram& mine,
                           int root) {
  // Binomial-tree merge in virtual rank space rooted at `root`, mirroring
  // MPI_Reduce: ceil(log2(np)) rounds, each rank sends exactly once.
  const int np = comm.size();
  const int me = (comm.rank() - root + np) % np;
  Histogram acc = mine;
  for (int step = 1; step < np; step <<= 1) {
    if ((me & step) != 0) {
      const int dest = ((me - step) + root) % np;
      // Move the serialized histogram into the message; the receiver's
      // recv moves it back out, so the reduction never copies payloads.
      comm.send(dest, kTagHistogram, acc.to_words());
      return {};
    }
    if (me + step < np) {
      const int src = (me + step + root) % np;
      const std::vector<std::uint64_t> words =
          comm.recv<std::uint64_t>(src, kTagHistogram);
      acc.merge(Histogram::from_words(words));
    }
  }
  return acc;
}

namespace detail {

PhaseChunk take_phase_chunk(comm::Comm& comm, TraceSource& source,
                            std::size_t chunk_words, std::uint32_t phase) {
  PhaseChunk out;
  if (source.offline()) {
    obs::SpanScope span("ingest");
    out.view = source.rank_view(comm.rank());
    return out;
  }
  // The span is recorded manually because the chunk view outlives this
  // function.
  const std::int64_t t0 = obs::enabled() ? obs::tracer().now_ns() : -1;
  const int np = comm.size();
  const std::size_t phase_words_max =
      chunk_words * static_cast<std::size_t>(np);
  std::vector<Addr> block;
  std::vector<std::uint64_t> header;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> slices;
  if (comm.rank() == 0) {
    block = source.pipe().read_words(phase_words_max);
    header = {block.size()};
    slices.resize(static_cast<std::size_t>(np));
    for (std::size_t r = 0; r < slices.size(); ++r) {
      const std::size_t lo = std::min(r * chunk_words, block.size());
      const std::size_t hi = std::min(lo + chunk_words, block.size());
      slices[r] = {lo, hi - lo};
    }
  }
  const std::uint64_t phase_words =
      comm.broadcast(std::move(header), 0, kTagControl).at(0);
  out.scattered = comm.scatterv_view(
      std::move(block),
      std::span<const std::pair<std::uint64_t, std::uint64_t>>(slices), 0,
      kTagChunk);
  if (t0 >= 0) {
    obs::tracer().record(t0, obs::tracer().now_ns(), "scatter", phase);
  }
  // Everyone agrees on drained/last because phase_words was broadcast; a
  // short phase means the pipe is exhausted.
  out.drained = phase_words == 0;
  out.last = phase_words < phase_words_max;
  out.view = RankView{
      out.scattered.span(),
      static_cast<Timestamp>(phase) * phase_words_max +
          static_cast<Timestamp>(comm.rank()) * chunk_words};
  return out;
}

}  // namespace detail
}  // namespace parda
