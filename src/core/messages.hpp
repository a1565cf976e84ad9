// Wire records and message tags used between Parda ranks.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace parda {

/// One local-infinity entry: a first reference (within the producing rank's
/// view) carrying its global timestamp, passed leftward down the rank
/// pipeline (Algorithm 3). The same record serializes tree/hash state for
/// the phase reduction onto rank 0 (Algorithm 6), with ts the exporting
/// rank's local tick. No receiver reads ts: ranks key their state by local
/// tick and rely on record order alone.
struct InfRecord {
  Addr addr;
  Timestamp ts;

  friend bool operator==(const InfRecord&, const InfRecord&) = default;
};
static_assert(sizeof(InfRecord) == 16);

/// Message tags (the comm runtime matches on (src, tag) like MPI).
enum MsgTag : int {
  kTagInfinities = 1,  // local-infinity lists, rank p -> p-1
  kTagState = 2,       // rank r -> 0 state export, appended after a phase
  kTagHistogram = 3,   // histogram reduction
  kTagChunk = 4,       // trace chunk scatter from the pipe reader
  kTagControl = 5,     // per-phase reference counts
  kTagProfile = 6,     // per-rank profile gathering
  kTagSaturatedState = 7,  // a kTagState export from a saturated rank
};

}  // namespace parda
