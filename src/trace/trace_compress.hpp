// Delta + varint compressed trace format (.trz).
//
// Address traces are massive (the paper's run to 100 billion references),
// and consecutive addresses are strongly correlated, so the offline format
// stores zigzag-encoded deltas in LEB128 varints: sequential sweeps cost
// ~1 byte per reference instead of 8.
//
// Layout (version 2, chunked): magic "PARDATRZ", u64 version=2, u64
// reference count, u64 refs-per-chunk, u64 chunk count, then a seekable
// index of one 24-byte entry per chunk {u64 base address, u64 payload
// bytes, u64 crc32}, then the chunk payloads concatenated in order. Each
// chunk is a self-contained delta stream seeded by its base address (the
// first reference of the chunk), so disjoint chunk ranges decode
// independently and in parallel — ChunkedTrzSource assigns contiguous
// chunk runs to ranks and each rank decodes its own into a reused arena.
// Any other version is rejected.
//
// Every malformed input is a typed parda::TraceFormatError naming the file
// and the byte offset (matching BinaryTraceReader), never a crash or a
// silent short read.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/mmap_file.hpp"
#include "trace/trace_io.hpp"
#include "util/types.hpp"

namespace parda {

inline constexpr char kCompressedTraceMagic[8] = {'P', 'A', 'R', 'D',
                                                  'A', 'T', 'R', 'Z'};
/// v2 header: magic + version + count + refs-per-chunk + chunk count.
inline constexpr std::uint64_t kTrzV2HeaderBytes = 40;
/// v2 index entry: base address + payload bytes + crc32 (in a u64 slot).
inline constexpr std::uint64_t kTrzIndexEntryBytes = 24;
/// Default refs-per-chunk for the chunked writer: 64Ki references ≈ one
/// rank-sized unit of decode work (64–512KB of payload).
inline constexpr std::uint64_t kDefaultTrzChunkRefs = std::uint64_t{1} << 16;

/// CRC-32 (IEEE, reflected) over `bytes`, continuing from `seed` (pass the
/// previous return value to checksum discontiguous pieces). Exposed so
/// tests can craft corrupt-but-recomputed chunk indexes.
std::uint32_t trz_crc32(std::span<const std::uint8_t> bytes,
                        std::uint32_t seed = 0) noexcept;

/// Writes the chunked layout with fixed `chunk_refs` references per
/// chunk (the last chunk may be short). chunk_refs must be positive.
void write_trace_chunked(const std::string& path, std::span<const Addr> trace,
                         std::uint64_t chunk_refs = kDefaultTrzChunkRefs);

/// Reads a whole archive into memory, decoding its chunks in order.
std::vector<Addr> read_trace_compressed(const std::string& path);

/// True when the file at `path` starts with kCompressedTraceMagic; a file
/// that cannot be opened or is shorter than the magic is not an archive.
bool has_trz_magic(const std::string& path);

/// One chunk of an archive, as described by the index.
struct TrzChunk {
  Addr base = 0;                  // first reference of the chunk
  std::uint64_t refs = 0;         // references in this chunk
  std::uint64_t payload_offset = 0;  // absolute file offset of the payload
  std::uint64_t payload_bytes = 0;
  std::uint32_t crc = 0;          // crc32 over base (LE bytes) + payload
};

/// A memory-mapped .trz archive: the constructor maps the file and
/// validates the header and the whole chunk index (entry sizes, payload
/// extents vs the file size, per-chunk reference counts vs the declared
/// total) up front, so decode_chunk can seek anywhere without re-checking
/// structure.
class ChunkedTrzFile {
 public:
  explicit ChunkedTrzFile(const std::string& path);

  ChunkedTrzFile(ChunkedTrzFile&&) noexcept = default;
  ChunkedTrzFile& operator=(ChunkedTrzFile&&) noexcept = default;

  const std::string& path() const noexcept { return path_; }
  std::uint64_t total_references() const noexcept { return total_; }
  std::uint64_t chunk_refs() const noexcept { return chunk_refs_; }
  std::size_t num_chunks() const noexcept { return chunks_.size(); }
  const TrzChunk& chunk(std::size_t i) const { return chunks_.at(i); }
  std::uint64_t file_bytes() const noexcept { return map_.size(); }

  /// Decodes chunk i, appending its references to `out` (callers reuse one
  /// arena vector across chunks and analyses). Verifies the stored CRC and
  /// the exact reference count; both failures are TraceFormatErrors with
  /// the chunk number and byte offset.
  void decode_chunk(std::size_t i, std::vector<Addr>& out) const;

 private:
  std::string path_;
  MappedFile map_;
  std::uint64_t total_ = 0;
  std::uint64_t chunk_refs_ = 0;
  std::vector<TrzChunk> chunks_;
};

}  // namespace parda
