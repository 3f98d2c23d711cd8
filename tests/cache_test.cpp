// Tests for the sharded solve-cache layer: shard-count/capacity resolution,
// cost-aware eviction, the order-insensitive content digest, the segmented
// (manifest + per-shard segment) snapshot format, re-striping across shard
// counts, refusal of non-manifest files and of stale model fingerprints,
// rejection of damaged manifests and missing/truncated/mixed-generation
// segments, a concurrent merge-save torture run with a deterministic final
// digest, and the attach_persistent_file displacement warning.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tpcool/core/solve_cache.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/util/grid2d.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::core {
namespace {

/// A SimulationResult exercising every serialized field, deterministic in
/// `seed`.  All seeds produce identically *shaped* results (same grid and
/// list sizes), so two snapshots of the same keys have identical byte
/// sizes — the mixed-generation test below relies on that.
SimulationResult rich_result(int seed) {
  const double s = static_cast<double>(seed);
  SimulationResult r;
  r.die = {60.0 + s, 50.0 + s, 3.5 + s, 4u, 100u};
  r.package = {45.0 + s, 40.0 + s, 0.5 + s, 2u, 100u};
  r.tcase_c = 55.0 + s;
  r.total_power_w = 80.0 + s;
  r.power = {40.0 + s, 5.0 + s, 12.0 + s, 8.0 + s};
  r.syphon.t_sat_c = 35.0 + s;
  r.syphon.refrigerant_flow_kg_s = 1e-3 * (1.0 + s);
  r.syphon.loop_exit_quality = 0.3 + 0.01 * s;
  r.syphon.water_outlet_c = 32.0 + s;
  r.syphon.q_total_w = 75.0 + s;
  r.syphon.htc_map = util::Grid2D<double>(3, 2);
  r.syphon.fluid_temp_map = util::Grid2D<double>(3, 2);
  for (std::size_t i = 0; i < r.syphon.htc_map.data().size(); ++i) {
    r.syphon.htc_map.data()[i] = 5000.0 + s + static_cast<double>(i);
    r.syphon.fluid_temp_map.data()[i] = 30.0 + s + 0.1 * static_cast<double>(i);
  }
  r.syphon.channels = {{0.25 + 0.01 * s, 10.0 + s, false},
                       {0.9 + 0.001 * s, 2.0 + s, seed % 2 == 1}};
  r.syphon.any_dryout = seed % 2 == 1;
  r.die_field_c = util::Grid2D<double>(4, 3);
  r.package_field_c = util::Grid2D<double>(2, 2);
  for (std::size_t i = 0; i < r.die_field_c.data().size(); ++i) {
    r.die_field_c.data()[i] = 60.0 + s + 0.25 * static_cast<double>(i);
  }
  for (std::size_t i = 0; i < r.package_field_c.data().size(); ++i) {
    r.package_field_c.data()[i] = 45.0 + s + 0.5 * static_cast<double>(i);
  }
  r.active_cores = {seed, 1, 5};
  r.transient.end_state_c = {70.0 + s, 68.5 + s, 67.0 + s, 66.25 + s};
  r.transient.peak_tcase_c = 58.0 + s;
  r.transient.peak_die_c = 63.0 + s;
  r.transient.sim_time_s = 120.0 + s;
  r.transient.steps = 17u + static_cast<std::uint64_t>(seed);
  r.transient.rejected_steps = static_cast<std::uint64_t>(seed % 3);
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& blob) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

void remove_snapshot(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  for (std::size_t i = 0; i < 64; ++i) {
    if (!std::filesystem::remove(cache_io::segment_path(path, i), ec)) break;
  }
}

// --------------------------------------------------------------- striping --

TEST(CacheShardingTest, ShardCountAndCapacityResolution) {
  // Explicit counts round up to the next power of two; the capacity is
  // divided across the shards with ceil, so capacity() reports the
  // effective total (a multiple of the shard count).
  SolveCache one(4, 1);
  EXPECT_EQ(one.shard_count(), 1u);
  EXPECT_EQ(one.capacity(), 4u);

  SolveCache rounded(16, 3);
  EXPECT_EQ(rounded.shard_count(), 4u);
  EXPECT_EQ(rounded.capacity(), 16u);  // 4 shards x slice 4

  SolveCache uneven(10, 4);
  EXPECT_EQ(uneven.shard_count(), 4u);
  EXPECT_EQ(uneven.capacity(), 12u);  // ceil(10/4) = 3 per shard

  // shards = 0 resolves via default_shard_count(), always a power of two.
  SolveCache automatic(16, 0);
  EXPECT_EQ(automatic.shard_count(), SolveCache::default_shard_count());
  EXPECT_TRUE(std::has_single_bit(automatic.shard_count()));
}

TEST(CacheShardingTest, ShardIndexIsBoundedDeterministicAndDispersed) {
  // One shard takes everything.
  EXPECT_EQ(cache_io::shard_index_for_digest(0x0123456789abcdefULL, 1), 0u);
  // Bounded and deterministic for any power-of-two count.
  for (const std::size_t count : {2u, 4u, 16u}) {
    for (std::uint64_t digest = 0; digest < 64; ++digest) {
      const std::size_t index =
          cache_io::shard_index_for_digest(digest * 0x123456789ULL, count);
      EXPECT_LT(index, count);
      EXPECT_EQ(index, cache_io::shard_index_for_digest(
                           digest * 0x123456789ULL, count));
    }
  }
  // Realistic similar keys (solve keys share long prefixes) must actually
  // stripe: 64 keys over 4 shards leave no shard empty and no shard with
  // the lion's share.  This is what the golden-ratio mix buys over FNV-1a's
  // raw (poorly dispersed) top bits.
  std::vector<std::size_t> population(4, 0);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t digest =
        cache_io::key_digest("bench;cfg=16,2;core" + std::to_string(i));
    ++population[cache_io::shard_index_for_digest(digest, 4)];
  }
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_GT(population[shard], 0u) << shard;
    EXPECT_LT(population[shard], 40u) << shard;
  }
}

TEST(CacheShardingTest, StatsSumAcrossShards) {
  SolveCache cache(32, 4);
  for (int i = 0; i < 12; ++i) {
    cache.put("stats/k" + std::to_string(i), rich_result(i));
  }
  SimulationResult out;
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(cache.try_get("stats/k" + std::to_string(i), out));
  }
  EXPECT_FALSE(cache.try_get("stats/absent", out));
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.size, 12u);
  EXPECT_EQ(stats.hits, 12u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

// --------------------------------------------------------------- eviction --

TEST(CostAwareEvictionTest, EvictsCheapestToRecomputeFirst) {
  SolveCache cache(2, 1);
  cache.put("expensive", rich_result(1), 100.0);
  cache.put("cheap", rich_result(2), 1.0);
  // "expensive" is now least recently used, but "cheap" costs less to
  // recompute: the cost-aware policy sacrifices it instead.
  cache.put("medium", rich_result(3), 50.0);

  SimulationResult out;
  EXPECT_TRUE(cache.try_get("expensive", out));
  EXPECT_TRUE(cache.try_get("medium", out));
  EXPECT_FALSE(cache.try_get("cheap", out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CostAwareEvictionTest, TiesBreakTowardLeastRecentlyUsed) {
  // Uniform costs degrade to exact LRU (the pre-shard behavior).
  SolveCache cache(2, 1);
  cache.put("a", rich_result(1), 5.0);
  cache.put("b", rich_result(2), 5.0);
  SimulationResult out;
  ASSERT_TRUE(cache.try_get("a", out));  // "b" is now least recently used
  cache.put("c", rich_result(3), 5.0);

  EXPECT_TRUE(cache.try_get("a", out));
  EXPECT_TRUE(cache.try_get("c", out));
  EXPECT_FALSE(cache.try_get("b", out));
}

TEST(CostAwareEvictionTest, RepeatedPutKeepsTheLargerCost) {
  SolveCache cache(2, 1);
  cache.put("remeasured", rich_result(1), 1.0);
  cache.put("remeasured", rich_result(1), 100.0);  // cost upgraded in place
  cache.put("mid", rich_result(2), 50.0);
  cache.put("new", rich_result(3), 50.0);  // evicts "mid", not "remeasured"

  SimulationResult out;
  EXPECT_TRUE(cache.try_get("remeasured", out));
  EXPECT_TRUE(cache.try_get("new", out));
  EXPECT_FALSE(cache.try_get("mid", out));
}

// ---------------------------------------------------------------- digests --

TEST(ContentDigestTest, OrderAndShardCountInsensitive) {
  SolveCache forward(16, 1);
  SolveCache backward(16, 1);
  SolveCache striped(16, 4);
  for (int i = 0; i < 6; ++i) {
    forward.put("digest/k" + std::to_string(i), rich_result(i));
    backward.put("digest/k" + std::to_string(5 - i), rich_result(5 - i));
    striped.put("digest/k" + std::to_string(i), rich_result(i));
  }
  EXPECT_EQ(forward.content_digest(), backward.content_digest());
  EXPECT_EQ(forward.content_digest(), striped.content_digest());

  SolveCache different(16, 1);
  for (int i = 0; i < 6; ++i) {
    different.put("digest/k" + std::to_string(i), rich_result(i + 1));
  }
  EXPECT_NE(forward.content_digest(), different.content_digest());
}

// -------------------------------------------------------------- snapshots --

TEST(SegmentedSnapshotTest, SaveWritesManifestPlusSegmentsAndReloads) {
  const std::string path = ::testing::TempDir() + "tpcool_cache_seg.bin";
  remove_snapshot(path);
  SolveCache source(32, 4);
  for (int i = 0; i < 10; ++i) {
    source.put("seg/k" + std::to_string(i), rich_result(i), 1.0 + i);
  }
  source.save(path);

  EXPECT_TRUE(cache_io::is_manifest(read_file(path)));
  std::uint64_t total_entries = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string seg = read_file(cache_io::segment_path(path, i));
    ASSERT_FALSE(seg.empty()) << i;
    EXPECT_FALSE(cache_io::is_manifest(seg));
  }
  const cache_io::Manifest manifest =
      cache_io::decode_manifest(read_file(path), path);
  for (const cache_io::SegmentInfo& info : manifest.segments) {
    total_entries += info.entry_count;
  }
  EXPECT_EQ(manifest.segments.size(), 4u);
  EXPECT_EQ(total_entries, 10u);
  EXPECT_EQ(manifest.total_entries, 10u);

  SolveCache reloaded(32, 4);
  reloaded.load(path);
  EXPECT_EQ(reloaded.stats().size, 10u);
  EXPECT_EQ(reloaded.content_digest(), source.content_digest());
  remove_snapshot(path);
}

TEST(SegmentedSnapshotTest, ReStripesAcrossShardCounts) {
  // A snapshot written by an N-shard cache must load into an M-shard cache
  // (CI machines and laptops disagree about hardware concurrency).
  const std::string path = ::testing::TempDir() + "tpcool_cache_restripe.bin";
  remove_snapshot(path);
  SolveCache wide(32, 8);
  for (int i = 0; i < 12; ++i) {
    wide.put("restripe/k" + std::to_string(i), rich_result(i));
  }
  wide.save(path);

  SolveCache narrow(32, 1);
  narrow.load(path);
  EXPECT_EQ(narrow.stats().size, 12u);
  EXPECT_EQ(narrow.content_digest(), wide.content_digest());

  // And back out: the narrow cache saves 1 segment; a 4-shard cache loads.
  narrow.save(path);
  SolveCache medium(32, 4);
  medium.load(path);
  EXPECT_EQ(medium.stats().size, 12u);
  EXPECT_EQ(medium.content_digest(), wide.content_digest());
  remove_snapshot(path);
}

TEST(SegmentedSnapshotTest, NarrowerResaveRemovesStaleSegments) {
  const std::string path = ::testing::TempDir() + "tpcool_cache_stale.bin";
  remove_snapshot(path);
  SolveCache wide(32, 4);
  for (int i = 0; i < 8; ++i) {
    wide.put("stale/k" + std::to_string(i), rich_result(i));
  }
  wide.save(path);
  ASSERT_TRUE(std::filesystem::exists(cache_io::segment_path(path, 3)));

  SolveCache narrow(32, 1);
  narrow.load(path);
  narrow.save(path);
  EXPECT_TRUE(std::filesystem::exists(cache_io::segment_path(path, 0)));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(std::filesystem::exists(cache_io::segment_path(path, i)))
        << i;
  }
  SolveCache reloaded(32, 4);
  reloaded.load(path);
  EXPECT_EQ(reloaded.content_digest(), wide.content_digest());
  remove_snapshot(path);
}

/// The retired pre-shard monolithic snapshot, byte for byte: magic
/// "TPCOOLSC", u32 schema 2, u64 entry count, then per entry the key digest,
/// key and payload (length-prefixed), sealed by a trailing FNV-1a digest of
/// every preceding byte.  Well-formed in every respect but its format.
std::string monolithic_v2_blob(int entries) {
  std::string blob = "TPCOOLSC";
  const auto put_u64 = [&blob](std::uint64_t value, int bytes = 8) {
    for (int i = 0; i < bytes; ++i) {
      blob.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
    }
  };
  put_u64(2, 4);
  put_u64(static_cast<std::uint64_t>(entries));
  for (int i = 0; i < entries; ++i) {
    const std::string key = "monolithic/k" + std::to_string(i);
    const std::string payload = cache_io::serialize_result(rich_result(i));
    put_u64(cache_io::key_digest(key));
    put_u64(key.size());
    blob += key;
    put_u64(payload.size());
    blob += payload;
  }
  std::uint64_t digest = util::kFnvOffsetBasis;
  for (const char c : blob) util::fnv_byte(digest, static_cast<std::uint8_t>(c));
  put_u64(digest);
  return blob;
}

TEST(SegmentedSnapshotTest, RefusesNonManifestFilesWithoutTouchingTheCache) {
  // Only the segmented manifest is a snapshot: a monolithic "TPCOOLSC"
  // file (the retired v2 format, which could hold results of older
  // physics) and a file of unknown magic are both refused before the
  // cache is touched.
  const std::string path = ::testing::TempDir() + "tpcool_cache_refused.bin";
  SolveCache cache(32, 4);
  for (int i = 0; i < 5; ++i) {
    cache.put("kept/k" + std::to_string(i), rich_result(i));
  }
  const std::size_t size = cache.stats().size;
  const std::uint64_t digest = cache.content_digest();

  const std::string monolithic = monolithic_v2_blob(9);
  std::string unknown = monolithic;
  unknown.replace(0, 8, "NOTASNAP");
  for (const std::string& blob : {monolithic, unknown}) {
    write_file(path, blob);
    try {
      cache.load(path);
      FAIL() << "expected SnapshotError for magic " << blob.substr(0, 8);
    } catch (const SnapshotError& error) {
      EXPECT_NE(std::string(error.what()).find("bad magic"),
                std::string::npos)
          << error.what();
    }
    EXPECT_EQ(cache.stats().size, size);
    EXPECT_EQ(cache.content_digest(), digest);
  }
  std::filesystem::remove(path);
}

TEST(SegmentedSnapshotTest, RefusesStaleModelFingerprintWithoutTouchingTheCache) {
  // A snapshot saved under other model constants (hand-edited here: its
  // manifest fingerprint is changed and the manifest re-sealed, so only
  // the fingerprint check can fire) is refused whole: SnapshotError, a
  // warning, a cache.fingerprint_mismatch count, and none of its entries
  // is ever served.
  const std::string path = ::testing::TempDir() + "tpcool_cache_stale_fp.bin";
  remove_snapshot(path);
  SolveCache source(32, 4);
  for (int i = 0; i < 6; ++i) {
    source.put("stale/k" + std::to_string(i), rich_result(i), 1.0);
  }
  source.save(path);
  std::string blob = read_file(path);
  ASSERT_EQ(cache_io::decode_manifest(blob, path).fingerprint,
            SolveCache::model_fingerprint());

  // Fingerprint: bytes 12..19 (magic, u32 version, then u64 fingerprint).
  blob[12] = static_cast<char>(blob[12] ^ 0x5A);
  std::uint64_t digest = util::kFnvOffsetBasis;
  for (std::size_t i = 0; i + 8 < blob.size(); ++i) {
    util::fnv_byte(digest, static_cast<std::uint8_t>(blob[i]));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + i] = static_cast<char>((digest >> (8 * i)) & 0xFF);
  }
  write_file(path, blob);
  ASSERT_NE(cache_io::decode_manifest(blob, path).fingerprint,
            SolveCache::model_fingerprint());

  SolveCache cache(32, 4);
  for (int i = 0; i < 5; ++i) {
    cache.put("kept/k" + std::to_string(i), rich_result(i + 20));
  }
  const std::size_t size = cache.stats().size;
  const std::uint64_t content = cache.content_digest();

  util::Telemetry& telemetry = util::Telemetry::instance();
  telemetry.enable();
  telemetry.reset();
  ::testing::internal::CaptureStderr();
  try {
    cache.load(path);
    ADD_FAILURE() << "expected SnapshotError for a stale fingerprint";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"),
              std::string::npos)
        << error.what();
  }
  const std::string warned = ::testing::internal::GetCapturedStderr();
  double mismatches = 0.0;
  for (const auto& [name, value] : telemetry.metrics().counters) {
    if (name == "cache.fingerprint_mismatch") mismatches = value;
  }
  telemetry.disable();
  telemetry.reset();
  EXPECT_NE(warned.find("WARN"), std::string::npos) << warned;
  EXPECT_NE(warned.find("fingerprint"), std::string::npos) << warned;
  EXPECT_EQ(mismatches, 1.0);

  EXPECT_EQ(cache.stats().size, size);
  EXPECT_EQ(cache.content_digest(), content);
  // Never served: the snapshot's keys still miss and recompute.
  const std::uint64_t misses = cache.stats().misses;
  const SimulationResult fresh =
      cache.get_or_compute("stale/k3", [] { return rich_result(99); });
  EXPECT_EQ(fresh.tcase_c, rich_result(99).tcase_c);
  EXPECT_EQ(cache.stats().misses, misses + 1);
  remove_snapshot(path);
}

TEST(SegmentedSnapshotTest, RejectsDamagedManifestAndSegments) {
  const std::string path = ::testing::TempDir() + "tpcool_cache_damage.bin";
  remove_snapshot(path);
  SolveCache source(32, 4);
  for (int i = 0; i < 8; ++i) {
    source.put("damage/k" + std::to_string(i), rich_result(i), 2.0);
  }
  source.save(path);
  const std::string manifest_blob = read_file(path);

  // Find a segment that actually holds entries to damage.
  const cache_io::Manifest manifest =
      cache_io::decode_manifest(manifest_blob, path);
  std::size_t victim = 0;
  for (std::size_t i = 0; i < manifest.segments.size(); ++i) {
    if (manifest.segments[i].entry_count > 0) victim = i;
  }
  const std::string victim_path = cache_io::segment_path(path, victim);
  const std::string victim_blob = read_file(victim_path);

  SolveCache fresh(32, 4);

  // Damaged manifest: a flipped bit breaks the manifest stream digest.
  std::string bad_manifest = manifest_blob;
  bad_manifest[manifest_blob.size() / 2] =
      static_cast<char>(bad_manifest[manifest_blob.size() / 2] ^ 1);
  write_file(path, bad_manifest);
  EXPECT_THROW(fresh.load(path), SnapshotError);
  write_file(path, manifest_blob);

  // Missing segment: the manifest references a file that is gone.
  std::filesystem::remove(victim_path);
  EXPECT_THROW(fresh.load(path), SnapshotError);

  // Truncated segment: byte size no longer matches the manifest record.
  write_file(victim_path, victim_blob.substr(0, victim_blob.size() - 12));
  EXPECT_THROW(fresh.load(path), SnapshotError);

  // Corrupt segment, length intact: the stream digest catches it.
  std::string corrupt = victim_blob;
  corrupt[victim_blob.size() / 2] =
      static_cast<char>(corrupt[victim_blob.size() / 2] ^ 1);
  write_file(victim_path, corrupt);
  EXPECT_THROW(fresh.load(path), SnapshotError);
  write_file(victim_path, victim_blob);

  // Mixed generations: a manifest from one save paired with a segment from
  // another.  Same keys, different payload bits — identical byte sizes, so
  // only the manifest-recorded digest can (and must) catch it.
  SolveCache other(32, 4);
  for (int i = 0; i < 8; ++i) {
    other.put("damage/k" + std::to_string(i), rich_result(i + 50), 2.0);
  }
  other.save(path);  // rewrites manifest + segments
  write_file(path, manifest_blob);  // restore the *old* manifest
  try {
    fresh.load(path);
    FAIL() << "expected SnapshotError for mixed snapshot generations";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find("generations are mixed"),
              std::string::npos)
        << error.what();
  }

  // Nothing survived any of the bad loads.
  EXPECT_EQ(fresh.stats().size, 0u);
  remove_snapshot(path);
}

TEST(SegmentedSnapshotTest, ConcurrentMergeSavesConvergeDeterministically) {
  // Torture: four OS threads repeatedly merge-save (load + save) their own
  // caches into one snapshot path.  Interleaved rewrites may transiently
  // produce a mixed-generation snapshot — loads must then throw
  // SnapshotError (never UB, never silent corruption) — and after a final
  // sequential merge round the snapshot must hold exactly the union of all
  // entries, certified by the order-insensitive content digest.
  const std::string path = ::testing::TempDir() + "tpcool_cache_torture.bin";
  remove_snapshot(path);
  constexpr int kThreads = 4;
  constexpr int kUniverse = 16;
  constexpr int kRounds = 12;

  // Per-shard slice 16 >= the whole universe: eviction can never drop an
  // entry, so the converged union is exact.
  std::vector<std::unique_ptr<SolveCache>> caches;
  for (int t = 0; t < kThreads; ++t) {
    caches.push_back(std::make_unique<SolveCache>(64, 4));
    for (int i = 0; i < 8; ++i) {
      const int id = (4 * t + i) % kUniverse;  // overlapping slices
      caches.back()->put("torture/k" + std::to_string(id), rich_result(id),
                         1.0 + id);
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        try {
          caches[static_cast<std::size_t>(t)]->load(path);
        } catch (const SnapshotError&) {
          // Missing (first rounds) or caught-mid-rewrite snapshot: the
          // documented cold-start path.
        }
        caches[static_cast<std::size_t>(t)]->save(path);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // One sequential merge round: afterwards the file holds every thread's
  // entries, i.e. exactly the universe.
  for (const std::unique_ptr<SolveCache>& cache : caches) {
    try {
      cache->load(path);
    } catch (const SnapshotError&) {
    }
    cache->save(path);
  }

  SolveCache expected(64, 4);
  for (int id = 0; id < kUniverse; ++id) {
    expected.put("torture/k" + std::to_string(id), rich_result(id));
  }
  SolveCache merged(64, 4);
  merged.load(path);
  EXPECT_EQ(merged.stats().size, static_cast<std::size_t>(kUniverse));
  EXPECT_EQ(merged.content_digest(), expected.content_digest());

  // The digest is shard-count-independent: a single-stripe load agrees.
  SolveCache single(64, 1);
  single.load(path);
  EXPECT_EQ(single.content_digest(), expected.content_digest());
  remove_snapshot(path);
}

// ------------------------------------------------------------ persistence --

TEST(AttachPersistentFileTest, WarnsWhenSecondPathDisplacesTheFirst) {
  // Last attach wins is deliberate (a bench's --cache-file replaces the
  // env registration), but the displacement must be visible: the first
  // path will not be rewritten at exit.
  const std::string first =
      ::testing::TempDir() + "tpcool_attach_first.bin";
  const std::string second =
      ::testing::TempDir() + "tpcool_attach_second.bin";
  // attach loads an existing file, and this process's exit save leaves
  // `second` behind: start without either, so a snapshot a build of
  // other model constants left there cannot add an "ignoring" line.
  remove_snapshot(first);
  remove_snapshot(second);
  auto cache = std::make_shared<SolveCache>(8, 1);
  cache->put("attach/key", rich_result(1));

  SolveCache::attach_persistent_file(cache, first);
  ::testing::internal::CaptureStderr();
  SolveCache::attach_persistent_file(cache, second);
  const std::string warned = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warned.find("WARN"), std::string::npos) << warned;
  EXPECT_NE(warned.find("displaces"), std::string::npos) << warned;
  EXPECT_NE(warned.find(first), std::string::npos) << warned;

  // Re-attaching the same path is not a displacement: no warning.
  ::testing::internal::CaptureStderr();
  SolveCache::attach_persistent_file(cache, second);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

}  // namespace
}  // namespace tpcool::core
