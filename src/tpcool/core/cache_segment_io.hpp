#pragma once
/// \file cache_segment_io.hpp
/// \brief On-disk format of the solve-cache: the segmented snapshot
///        (manifest + one segment file per shard digest-range).
///
/// The formats are versioned, endian-safe binary (all integers
/// little-endian, doubles as IEEE-754 bit patterns) and defensive: every
/// length field is validated against the remaining bytes before it is
/// trusted, every file carries a trailing FNV-1a stream digest, and every
/// entry records a digest of its key — so truncation, bit rot, a
/// mixed-generation manifest/segment pair, or a hostile file raises
/// SnapshotError instead of undefined behavior.  The exact byte layout is
/// documented in docs/CACHE.md and mirrored by scripts/cache_inspect.py.
///
/// SolveCache owns the policy (which entries, merge semantics, eviction);
/// this layer owns only bytes <-> entries.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "tpcool/core/server.hpp"

namespace tpcool::core {

/// Thrown for unreadable, truncated, corrupt, or schema-mismatched
/// snapshot files (manifest or segment).
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace cache_io {

/// One cache entry as it crosses the disk boundary.  `cost_ms` is the
/// observed compute cost backing cost-aware eviction; it is snapshot
/// metadata, not part of the result payload, and is excluded from content
/// digests (see SolveCache::content_digest).
struct SnapshotEntry {
  std::string key;
  double cost_ms = 0.0;
  SimulationResult result;
};

/// Per-segment record in the manifest: what the segment file must contain.
struct SegmentInfo {
  std::uint64_t entry_count = 0;
  std::uint64_t byte_size = 0;      ///< Exact segment file size in bytes.
  std::uint64_t stream_digest = 0;  ///< == the segment's trailing digest.
};

/// Parsed manifest of a segmented snapshot.
struct Manifest {
  std::uint32_t version = 0;
  std::uint64_t fingerprint = 0;  ///< SolveCache::model_fingerprint() at save.
  std::uint64_t total_entries = 0;
  std::vector<SegmentInfo> segments;  ///< Index = shard digest-range index.
};

/// Serialize one SimulationResult, field for field.  Any new field must be
/// added here (and to parse_result) AND bump SolveCache::kSnapshotVersion:
/// old snapshots are refused rather than silently misread.
[[nodiscard]] std::string serialize_result(const SimulationResult& result);

/// Parse one serialized SimulationResult; throws SnapshotError on
/// truncation or trailing bytes.
[[nodiscard]] SimulationResult parse_result_payload(const std::string& payload);

/// FNV-1a digest of a key's bytes — the digest that selects an entry's
/// shard (top bits) and seals it in segment files.
[[nodiscard]] std::uint64_t key_digest(const std::string& key);

/// Shard/segment index for a key digest among `count` digest-ranges
/// (`count` must be a power of two): the top log2(count) bits of the
/// digest after a golden-ratio bit mix (FNV-1a's raw high bits disperse
/// poorly for similar keys), so each index owns one contiguous range of
/// *mixed*-digest space.  Part of the on-disk format: segment readers
/// re-derive membership with the same function.
[[nodiscard]] std::size_t shard_index_for_digest(std::uint64_t digest,
                                                 std::size_t count);

/// Order-insensitive per-entry content digest: FNV-1a over the key bytes
/// then the serialized payload bytes.  SolveCache::content_digest is the
/// wrapping sum of these, so it is independent of recency order, shard
/// count, and merge interleaving.  Costs are excluded.
[[nodiscard]] std::uint64_t entry_content_digest(const std::string& key,
                                                 const std::string& payload);

/// Path of segment `index` for the manifest at `manifest_path`
/// ("<manifest>.seg0007").
[[nodiscard]] std::string segment_path(const std::string& manifest_path,
                                       std::size_t index);

// ------------------------------------------------------------- encoding --

/// Incremental segment encoder, so a shard can serialize its entries under
/// its own lock without first copying every result:
///   SegmentEncoder enc(index, count);
///   for (...) enc.add(key, cost_ms, serialize_result(result));
///   std::string blob = std::move(enc).finish();
class SegmentEncoder {
 public:
  SegmentEncoder(std::size_t segment_index, std::size_t segment_count);

  /// Append one entry (MRU -> LRU order is the caller's contract).
  void add(const std::string& key, double cost_ms, const std::string& payload);

  /// Seal the entry count and the trailing stream digest; the encoder is
  /// spent afterwards.
  [[nodiscard]] std::string finish() &&;

  [[nodiscard]] std::uint64_t entry_count() const noexcept { return count_; }

 private:
  std::string blob_;
  std::uint64_t count_ = 0;
};

/// Encode the manifest for `segments` (byte sizes, entry counts and stream
/// digests must describe the already-encoded segment files), stamped with
/// the model `fingerprint` the entries were computed under.
[[nodiscard]] std::string encode_manifest(
    const std::vector<SegmentInfo>& segments, std::uint64_t fingerprint);

// ------------------------------------------------------------- decoding --

/// True when `blob` starts with the segmented manifest magic ("TPCOOLSM").
[[nodiscard]] bool is_manifest(const std::string& blob);

/// Decode and fully validate a manifest blob.  `origin` names the file in
/// error messages.
[[nodiscard]] Manifest decode_manifest(const std::string& blob,
                                       const std::string& origin);

/// Decode and fully validate one segment blob: magic, version, recorded
/// index/count against `expected_*`, entry count and byte size against
/// `info`, the trailing stream digest (recomputed AND compared to the
/// manifest's recorded value, so a mixed-generation manifest/segment pair
/// is caught), every per-entry key digest, and that every key's digest
/// falls inside this segment's digest range.
[[nodiscard]] std::vector<SnapshotEntry> decode_segment(
    const std::string& blob, std::size_t expected_index,
    std::size_t expected_count, const SegmentInfo& info,
    const std::string& origin);

// ------------------------------------------------------------- file I/O --

/// Read a whole file; throws SnapshotError when it cannot be opened/read.
[[nodiscard]] std::string read_file(const std::string& path);

/// Atomic write: a uniquely named temporary in `path`'s directory is
/// written, flushed, and renamed over `path`, so readers (and a crash
/// mid-write) never observe a partial file.  Concurrent writers to one
/// path interleave as whole files (last rename wins), never as mixed
/// bytes.  Throws SnapshotError on failure.
void write_file_atomic(const std::string& path, const std::string& blob);

}  // namespace cache_io
}  // namespace tpcool::core
