#include "tpcool/core/cache_segment_io.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "tpcool/core/solve_cache.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/fnv.hpp"

namespace tpcool::core::cache_io {

// ------------------------------------------------------------- formats --
//
// Segmented snapshot (v4): a manifest plus one segment file per shard
// digest-range (segment i holds exactly the keys whose FNV-1a digest's top
// log2(count) bits equal i).
//
//   manifest ("TPCOOLSM"):
//     magic, u32 version (4), u64 model fingerprint,
//     u64 segment count (power of two),
//     u64 total entry count,
//     per segment: u64 entry count, u64 byte size, u64 stream digest,
//     u64 trailing FNV-1a digest of every preceding byte
//
//   segment ("TPCOOLSG", file <manifest>.seg%04zu):
//     magic, u32 version (4), u64 segment index, u64 segment count,
//     u64 entry count,
//     entry* (MRU -> LRU): u64 key digest, u64 key length + bytes,
//                          f64 cost_ms, u64 payload length + bytes
//     u64 trailing FNV-1a digest of every preceding byte
//
// The manifest records each segment's trailing digest, so a manifest from
// one save generation paired with a segment from another (a crash or a
// racing writer between renames) is a detected SnapshotError, never a
// silently mixed snapshot.

namespace {

constexpr char kManifestMagic[8] = {'T', 'P', 'C', 'O', 'O', 'L', 'S', 'M'};
constexpr char kSegmentMagic[8] = {'T', 'P', 'C', 'O', 'O', 'L', 'S', 'G'};

/// The schema version both encoders write and both decoders require.
constexpr std::uint32_t kSegmentedVersion = SolveCache::kSnapshotVersion;

/// Hard ceiling on segment counts accepted from disk; far above any real
/// shard configuration, low enough that a hostile manifest cannot demand
/// millions of file reads.
constexpr std::uint64_t kMaxSegments = 4096;

std::uint64_t fnv1a(const char* data, std::size_t size,
                    std::uint64_t seed = util::kFnvOffsetBasis) {
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= util::kFnvPrime;
  }
  return hash;
}

void put_u8(std::string& out, std::uint8_t value) {
  out.push_back(static_cast<char>(value));
}

void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void put_f64(std::string& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

void put_grid(std::string& out, const util::Grid2D<double>& grid) {
  put_u64(out, grid.nx());
  put_u64(out, grid.ny());
  for (const double value : grid.data()) put_f64(out, value);
}

void put_metrics(std::string& out, const thermal::ThermalMetrics& m) {
  put_f64(out, m.max_c);
  put_f64(out, m.avg_c);
  put_f64(out, m.grad_max_c_per_mm);
  put_u64(out, m.hotspot_cells);
  put_u64(out, m.cell_count);
}

/// Patch a little-endian u64 in place (the segment encoder seals its entry
/// count after the last add()).
void patch_u64(std::string& out, std::size_t offset, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out[offset + static_cast<std::size_t>(shift / 8)] =
        static_cast<char>((value >> shift) & 0xFF);
  }
}

/// Bounds-checked reader over a byte buffer; every underflow throws
/// SnapshotError so truncated files fail loudly at the exact spot.
class Cursor {
 public:
  Cursor(const std::string& buffer, std::size_t pos, std::size_t end)
      : buffer_(buffer), pos_(pos), end_(end) {}

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return end_ - pos_; }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buffer_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(buffer_[pos_++]))
               << shift;
    }
    return value;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(buffer_[pos_++]))
               << shift;
    }
    return value;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string bytes(std::size_t size) {
    need(size);
    std::string out = buffer_.substr(pos_, size);
    pos_ += size;
    return out;
  }

  void skip(std::size_t size) {
    need(size);
    pos_ += size;
  }

  /// A length field must fit the remaining bytes before it is trusted.
  std::size_t length(const char* what) {
    const std::uint64_t value = u64();
    if (value > remaining()) {
      throw SnapshotError(std::string("truncated solve-cache snapshot: ") +
                          what + " length exceeds the file");
    }
    return static_cast<std::size_t>(value);
  }

 private:
  void need(std::size_t count) const {
    if (end_ - pos_ < count) {
      throw SnapshotError(
          "truncated solve-cache snapshot: unexpected end of file");
    }
  }

  const std::string& buffer_;
  std::size_t pos_;
  std::size_t end_;
};

util::Grid2D<double> parse_grid(Cursor& cursor) {
  const std::uint64_t nx = cursor.u64();
  const std::uint64_t ny = cursor.u64();
  if (nx == 0 || ny == 0) {
    if (nx != ny) {
      throw SnapshotError("corrupt solve-cache snapshot: half-empty grid");
    }
    return {};
  }
  // Overflow-safe bound: nx * ny doubles must fit the remaining bytes.
  if (nx > (cursor.remaining() / 8) / ny) {
    throw SnapshotError(
        "truncated solve-cache snapshot: grid exceeds the file");
  }
  util::Grid2D<double> grid(static_cast<std::size_t>(nx),
                            static_cast<std::size_t>(ny));
  for (double& value : grid.data()) value = cursor.f64();
  return grid;
}

thermal::ThermalMetrics parse_metrics(Cursor& cursor) {
  thermal::ThermalMetrics m;
  m.max_c = cursor.f64();
  m.avg_c = cursor.f64();
  m.grad_max_c_per_mm = cursor.f64();
  m.hotspot_cells = static_cast<std::size_t>(cursor.u64());
  m.cell_count = static_cast<std::size_t>(cursor.u64());
  return m;
}

SimulationResult parse_result(Cursor& cursor) {
  SimulationResult r;
  r.die = parse_metrics(cursor);
  r.package = parse_metrics(cursor);
  r.tcase_c = cursor.f64();
  r.total_power_w = cursor.f64();
  r.power.active_cores_w = cursor.f64();
  r.power.idle_cores_w = cursor.f64();
  r.power.mcio_w = cursor.f64();
  r.power.llc_w = cursor.f64();
  r.syphon.t_sat_c = cursor.f64();
  r.syphon.refrigerant_flow_kg_s = cursor.f64();
  r.syphon.loop_exit_quality = cursor.f64();
  r.syphon.water_outlet_c = cursor.f64();
  r.syphon.q_total_w = cursor.f64();
  r.syphon.htc_map = parse_grid(cursor);
  r.syphon.fluid_temp_map = parse_grid(cursor);
  const std::size_t channel_count = cursor.length("channel list");
  r.syphon.channels.resize(channel_count);
  for (thermosyphon::ChannelSummary& ch : r.syphon.channels) {
    ch.exit_quality = cursor.f64();
    ch.absorbed_w = cursor.f64();
    ch.dried_out = cursor.u8() != 0;
  }
  r.syphon.any_dryout = cursor.u8() != 0;
  r.die_field_c = parse_grid(cursor);
  r.package_field_c = parse_grid(cursor);
  const std::size_t core_count = cursor.length("active-core list");
  r.active_cores.resize(core_count);
  for (int& core : r.active_cores) {
    core = static_cast<int>(std::bit_cast<std::int64_t>(cursor.u64()));
  }
  const std::size_t state_count = cursor.length("transient end state");
  if (state_count > cursor.remaining() / 8) {
    throw SnapshotError(
        "truncated solve-cache snapshot: transient state exceeds the file");
  }
  r.transient.end_state_c.resize(state_count);
  for (double& value : r.transient.end_state_c) value = cursor.f64();
  r.transient.peak_tcase_c = cursor.f64();
  r.transient.peak_die_c = cursor.f64();
  r.transient.sim_time_s = cursor.f64();
  r.transient.steps = cursor.u64();
  r.transient.rejected_steps = cursor.u64();
  return r;
}

/// Validate a whole file's trailing stream digest and return a cursor over
/// the body (after `header_size` magic bytes, before the digest).
Cursor open_sealed(const std::string& blob, const char (&magic)[8],
                   const char* kind, const std::string& origin) {
  if (blob.size() < sizeof(magic) + 4 + 8) {
    throw SnapshotError("truncated solve-cache " + std::string(kind) + " " +
                        origin + ": shorter than the fixed header");
  }
  if (!std::equal(magic, magic + sizeof(magic), blob.begin())) {
    throw SnapshotError(origin + " is not a solve-cache " + kind +
                        " (bad magic)");
  }
  Cursor digest_cursor(blob, blob.size() - 8, blob.size());
  const std::uint64_t recorded = digest_cursor.u64();
  const std::uint64_t actual = fnv1a(blob.data(), blob.size() - 8);
  if (recorded != actual) {
    throw SnapshotError("corrupt solve-cache " + std::string(kind) + " " +
                        origin +
                        ": stream digest mismatch (truncated or damaged)");
  }
  return {blob, sizeof(magic), blob.size() - 8};
}

}  // namespace

std::string serialize_result(const SimulationResult& r) {
  std::string out;
  out.reserve(64 + 8 * (r.die_field_c.size() + r.package_field_c.size() +
                        r.syphon.htc_map.size() +
                        r.syphon.fluid_temp_map.size()));
  put_metrics(out, r.die);
  put_metrics(out, r.package);
  put_f64(out, r.tcase_c);
  put_f64(out, r.total_power_w);
  put_f64(out, r.power.active_cores_w);
  put_f64(out, r.power.idle_cores_w);
  put_f64(out, r.power.mcio_w);
  put_f64(out, r.power.llc_w);
  put_f64(out, r.syphon.t_sat_c);
  put_f64(out, r.syphon.refrigerant_flow_kg_s);
  put_f64(out, r.syphon.loop_exit_quality);
  put_f64(out, r.syphon.water_outlet_c);
  put_f64(out, r.syphon.q_total_w);
  put_grid(out, r.syphon.htc_map);
  put_grid(out, r.syphon.fluid_temp_map);
  put_u64(out, r.syphon.channels.size());
  for (const thermosyphon::ChannelSummary& ch : r.syphon.channels) {
    put_f64(out, ch.exit_quality);
    put_f64(out, ch.absorbed_w);
    put_u8(out, ch.dried_out ? 1 : 0);
  }
  put_u8(out, r.syphon.any_dryout ? 1 : 0);
  put_grid(out, r.die_field_c);
  put_grid(out, r.package_field_c);
  put_u64(out, r.active_cores.size());
  for (const int core : r.active_cores) {
    put_u64(out, std::bit_cast<std::uint64_t>(static_cast<std::int64_t>(core)));
  }
  // v2+: transient-segment payload.  Steady results serialize an empty end
  // state and zero counters — a few dozen bytes of overhead per entry.
  put_u64(out, r.transient.end_state_c.size());
  for (const double value : r.transient.end_state_c) put_f64(out, value);
  put_f64(out, r.transient.peak_tcase_c);
  put_f64(out, r.transient.peak_die_c);
  put_f64(out, r.transient.sim_time_s);
  put_u64(out, r.transient.steps);
  put_u64(out, r.transient.rejected_steps);
  return out;
}

SimulationResult parse_result_payload(const std::string& payload) {
  Cursor cursor(payload, 0, payload.size());
  SimulationResult result = parse_result(cursor);
  if (cursor.remaining() != 0) {
    throw SnapshotError(
        "corrupt solve-cache snapshot: result payload has trailing bytes");
  }
  return result;
}

std::uint64_t key_digest(const std::string& key) {
  return fnv1a(key.data(), key.size());
}

std::size_t shard_index_for_digest(std::uint64_t digest, std::size_t count) {
  TPCOOL_REQUIRE(count >= 1 && std::has_single_bit(count),
                 "shard count must be a power of two");
  if (count == 1) return 0;
  // FNV-1a disperses its low bits well but its high bits poorly (similar
  // short keys cluster); a golden-ratio multiply (Fibonacci hashing) folds
  // the whole digest into uniformly dispersed top bits.  The mix is part
  // of the on-disk format: decode_segment re-derives membership with it.
  const std::uint64_t mixed = digest * 0x9e3779b97f4a7c15ULL;
  const int bits = std::countr_zero(count);
  return static_cast<std::size_t>(mixed >> (64 - bits));
}

std::uint64_t entry_content_digest(const std::string& key,
                                   const std::string& payload) {
  return fnv1a(payload.data(), payload.size(),
               fnv1a(key.data(), key.size()));
}

std::string segment_path(const std::string& manifest_path, std::size_t index) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".seg%04zu", index);
  return manifest_path + suffix;
}

// ------------------------------------------------------------- encoding --

namespace {
/// Offset of the entry-count field a SegmentEncoder patches at finish():
/// magic + version + segment index + segment count.
constexpr std::size_t kSegmentCountOffset = sizeof(kSegmentMagic) + 4 + 8 + 8;
}  // namespace

SegmentEncoder::SegmentEncoder(std::size_t segment_index,
                               std::size_t segment_count) {
  blob_.append(kSegmentMagic, sizeof(kSegmentMagic));
  put_u32(blob_, kSegmentedVersion);
  put_u64(blob_, segment_index);
  put_u64(blob_, segment_count);
  put_u64(blob_, 0);  // entry count, sealed by finish()
}

void SegmentEncoder::add(const std::string& key, double cost_ms,
                         const std::string& payload) {
  put_u64(blob_, key_digest(key));
  put_u64(blob_, key.size());
  blob_ += key;
  put_f64(blob_, cost_ms);
  put_u64(blob_, payload.size());
  blob_ += payload;
  ++count_;
}

std::string SegmentEncoder::finish() && {
  patch_u64(blob_, kSegmentCountOffset, count_);
  put_u64(blob_, fnv1a(blob_.data(), blob_.size()));
  return std::move(blob_);
}

std::string encode_manifest(const std::vector<SegmentInfo>& segments,
                            std::uint64_t fingerprint) {
  TPCOOL_REQUIRE(!segments.empty() && std::has_single_bit(segments.size()),
                 "manifest needs a power-of-two segment count");
  std::string blob;
  blob.append(kManifestMagic, sizeof(kManifestMagic));
  put_u32(blob, kSegmentedVersion);
  put_u64(blob, fingerprint);
  put_u64(blob, segments.size());
  std::uint64_t total = 0;
  for (const SegmentInfo& segment : segments) total += segment.entry_count;
  put_u64(blob, total);
  for (const SegmentInfo& segment : segments) {
    put_u64(blob, segment.entry_count);
    put_u64(blob, segment.byte_size);
    put_u64(blob, segment.stream_digest);
  }
  put_u64(blob, fnv1a(blob.data(), blob.size()));
  return blob;
}

// ------------------------------------------------------------- decoding --

bool is_manifest(const std::string& blob) {
  return blob.size() >= sizeof(kManifestMagic) &&
         std::equal(kManifestMagic, kManifestMagic + sizeof(kManifestMagic),
                    blob.begin());
}

Manifest decode_manifest(const std::string& blob, const std::string& origin) {
  Cursor cursor = open_sealed(blob, kManifestMagic, "manifest", origin);
  Manifest manifest;
  manifest.version = cursor.u32();
  if (manifest.version != kSegmentedVersion) {
    throw SnapshotError(
        "solve-cache manifest " + origin + " has schema version " +
        std::to_string(manifest.version) + "; this build reads only version " +
        std::to_string(kSegmentedVersion) + " — delete it and re-warm");
  }
  manifest.fingerprint = cursor.u64();
  const std::uint64_t segment_count = cursor.u64();
  if (segment_count == 0 || segment_count > kMaxSegments ||
      !std::has_single_bit(segment_count)) {
    throw SnapshotError("corrupt solve-cache manifest " + origin +
                        ": segment count " + std::to_string(segment_count) +
                        " is not a power of two in [1, " +
                        std::to_string(kMaxSegments) + "]");
  }
  manifest.total_entries = cursor.u64();
  manifest.segments.resize(static_cast<std::size_t>(segment_count));
  std::uint64_t summed = 0;
  for (SegmentInfo& segment : manifest.segments) {
    segment.entry_count = cursor.u64();
    segment.byte_size = cursor.u64();
    segment.stream_digest = cursor.u64();
    summed += segment.entry_count;
  }
  if (cursor.remaining() != 0) {
    throw SnapshotError("corrupt solve-cache manifest " + origin +
                        ": trailing bytes after the segment table");
  }
  if (summed != manifest.total_entries) {
    throw SnapshotError("corrupt solve-cache manifest " + origin +
                        ": segment entry counts sum to " +
                        std::to_string(summed) + ", recorded total is " +
                        std::to_string(manifest.total_entries));
  }
  return manifest;
}

std::vector<SnapshotEntry> decode_segment(const std::string& blob,
                                          std::size_t expected_index,
                                          std::size_t expected_count,
                                          const SegmentInfo& info,
                                          const std::string& origin) {
  if (blob.size() != info.byte_size) {
    throw SnapshotError("corrupt solve-cache segment " + origin + ": " +
                        std::to_string(blob.size()) +
                        " bytes on disk, manifest recorded " +
                        std::to_string(info.byte_size));
  }
  Cursor cursor = open_sealed(blob, kSegmentMagic, "segment", origin);
  // The manifest pins the exact digest of the segment generation it was
  // written with; a mismatch means a mixed-generation pair (crash or racing
  // writer between renames) even though both files are self-consistent.
  {
    Cursor digest_cursor(blob, blob.size() - 8, blob.size());
    if (digest_cursor.u64() != info.stream_digest) {
      throw SnapshotError("corrupt solve-cache segment " + origin +
                          ": digest differs from the manifest (snapshot "
                          "generations are mixed)");
    }
  }
  const std::uint32_t version = cursor.u32();
  if (version != kSegmentedVersion) {
    throw SnapshotError("solve-cache segment " + origin +
                        " has schema version " + std::to_string(version) +
                        "; this build reads only version " +
                        std::to_string(kSegmentedVersion));
  }
  const std::uint64_t index = cursor.u64();
  const std::uint64_t count = cursor.u64();
  if (index != expected_index || count != expected_count) {
    throw SnapshotError("corrupt solve-cache segment " + origin +
                        ": records range " + std::to_string(index) + "/" +
                        std::to_string(count) + ", manifest expects " +
                        std::to_string(expected_index) + "/" +
                        std::to_string(expected_count));
  }
  const std::uint64_t entry_count = cursor.u64();
  if (entry_count != info.entry_count) {
    throw SnapshotError("corrupt solve-cache segment " + origin + ": holds " +
                        std::to_string(entry_count) +
                        " entries, manifest recorded " +
                        std::to_string(info.entry_count));
  }

  std::vector<SnapshotEntry> entries;
  entries.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(entry_count, 4096)));
  for (std::uint64_t i = 0; i < entry_count; ++i) {
    const std::uint64_t recorded_digest = cursor.u64();
    const std::size_t key_size = cursor.length("key");
    std::string key = cursor.bytes(key_size);
    const std::uint64_t digest = key_digest(key);
    if (digest != recorded_digest) {
      throw SnapshotError("corrupt solve-cache segment " + origin +
                          ": key digest mismatch at entry " +
                          std::to_string(i));
    }
    if (shard_index_for_digest(digest, expected_count) != expected_index) {
      throw SnapshotError("corrupt solve-cache segment " + origin +
                          ": entry " + std::to_string(i) +
                          " is outside this segment's digest range");
    }
    const double cost_ms = cursor.f64();
    const std::size_t payload_size = cursor.length("payload");
    Cursor payload(blob, cursor.pos(), cursor.pos() + payload_size);
    SimulationResult result = parse_result(payload);
    if (payload.remaining() != 0) {
      throw SnapshotError("corrupt solve-cache segment " + origin +
                          ": payload of entry " + std::to_string(i) +
                          " has trailing bytes");
    }
    cursor.skip(payload_size);  // parse_result consumed a bounded view
    entries.push_back(
        SnapshotEntry{std::move(key), cost_ms, std::move(result)});
  }
  if (cursor.remaining() != 0) {
    throw SnapshotError("corrupt solve-cache segment " + origin +
                        ": trailing bytes after the last entry");
  }
  return entries;
}

// ------------------------------------------------------------- file I/O --

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw SnapshotError("cannot open solve-cache file " + path);
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (!is.good() && !is.eof()) {
    throw SnapshotError("cannot read solve-cache file " + path);
  }
  return std::move(buffer).str();
}

void write_file_atomic(const std::string& path, const std::string& blob) {
  // Unique temp per (process, write): concurrent writers to one path then
  // interleave as whole-file renames (last wins), never as mixed bytes.
  static std::atomic<std::uint64_t> sequence{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) + "." +
                           std::to_string(sequence.fetch_add(1));
  {
    std::ofstream os(temp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw SnapshotError("cannot open " + temp + " for writing");
    }
    os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    os.flush();
    if (!os) {
      std::error_code ec;
      std::filesystem::remove(temp, ec);
      throw SnapshotError("short write to " + temp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    std::filesystem::remove(temp, ec);
    throw SnapshotError("cannot rename " + temp + " to " + path);
  }
}

}  // namespace tpcool::core::cache_io
