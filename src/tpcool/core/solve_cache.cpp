#include "tpcool/core/solve_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "tpcool/materials/refrigerant.hpp"
#include "tpcool/materials/solid.hpp"
#include "tpcool/materials/water.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/util/logging.hpp"
#include "tpcool/util/parallel_map.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::core {

namespace {

/// Hard ceiling on shard counts; matches the manifest reader's bound.
constexpr std::size_t kMaxShards = 4096;

std::size_t round_up_shards(std::size_t shards) {
  return std::min(std::bit_ceil(std::max<std::size_t>(shards, 1)), kMaxShards);
}

/// Snapshot-size warning threshold in bytes; TPCOOL_SOLVE_CACHE_WARN_MB
/// overrides the 64 MB default (fractions allowed, <= 0 disables).  Read
/// on every save — saves are rare and tests flip the env var between them.
std::size_t snapshot_warn_bytes() {
  double warn_mb = 64.0;
  if (const char* env = std::getenv("TPCOOL_SOLVE_CACHE_WARN_MB")) {
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end != env && *end == '\0' && std::isfinite(parsed)) {
      warn_mb = parsed;
    } else {
      std::fprintf(stderr,
                   "tpcool: ignoring TPCOOL_SOLVE_CACHE_WARN_MB=%s "
                   "(want a finite number of megabytes)\n",
                   env);
    }
  }
  if (warn_mb <= 0.0) return 0;  // disabled
  const double bytes = warn_mb * 1024.0 * 1024.0;
  // A threshold past size_t can never fire; saturate instead of the UB a
  // float-to-integer overflow would be.
  if (bytes >= static_cast<double>(std::numeric_limits<std::size_t>::max())) {
    return std::numeric_limits<std::size_t>::max();
  }
  return static_cast<std::size_t>(bytes);
}

/// Route parsed snapshot entries to per-shard buckets, preserving order
/// within each bucket (loaded entries join behind existing ones in saved
/// recency order).
std::vector<std::vector<cache_io::SnapshotEntry>> bucket_by_shard(
    std::vector<cache_io::SnapshotEntry> entries, std::size_t shard_count) {
  std::vector<std::vector<cache_io::SnapshotEntry>> buckets(shard_count);
  for (cache_io::SnapshotEntry& entry : entries) {
    const std::size_t shard = cache_io::shard_index_for_digest(
        cache_io::key_digest(entry.key), shard_count);
    buckets[shard].push_back(std::move(entry));
  }
  return buckets;
}

}  // namespace

SolveCache::SolveCache(std::size_t capacity, std::size_t shards) {
  TPCOOL_REQUIRE(capacity >= 1, "solve cache needs capacity >= 1");
  const std::size_t count =
      shards == 0 ? default_shard_count() : round_up_shards(shards);
  // Divide the capacity across the stripes, rounded up so every shard can
  // hold at least one entry; capacity() reports the effective total.
  shard_capacity_ = std::max<std::size_t>(1, (capacity + count - 1) / count);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<CacheShard>(shard_capacity_, i));
  }
}

std::size_t SolveCache::default_shard_count() {
  if (const char* env = std::getenv("TPCOOL_SOLVE_CACHE_SHARDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) {
      return round_up_shards(static_cast<std::size_t>(parsed));
    }
    std::fprintf(stderr,
                 "tpcool: ignoring TPCOOL_SOLVE_CACHE_SHARDS=%s "
                 "(want an integer >= 1)\n",
                 env);
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return round_up_shards(hardware == 0 ? 1 : hardware);
}

CacheShard& SolveCache::shard_for(const std::string& key) const {
  return *shards_[cache_io::shard_index_for_digest(cache_io::key_digest(key),
                                                   shards_.size())];
}

SimulationResult SolveCache::get_or_compute(
    const std::string& key,
    const std::function<SimulationResult()>& compute) {
  return shard_for(key).get_or_compute(key, compute);
}

bool SolveCache::try_get(const std::string& key, SimulationResult& out) {
  return shard_for(key).try_get(key, out);
}

void SolveCache::put(const std::string& key, SimulationResult result,
                     double cost_ms) {
  shard_for(key).put(key, std::move(result), cost_ms);
}

SolveCache::Stats SolveCache::stats() const {
  Stats total;
  for (const std::unique_ptr<CacheShard>& shard : shards_) {
    const CacheShard::Stats s = shard->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.size += s.size;
    total.waiting += s.waiting;
  }
  return total;
}

void SolveCache::clear() {
  for (const std::unique_ptr<CacheShard>& shard : shards_) shard->clear();
}

// --------------------------------------------------------- persistence --

void SolveCache::save(const std::string& path) const {
  util::TraceSpan span("cache.save");
  const std::size_t shard_count = shards_.size();
  span.arg("shards", static_cast<double>(shard_count));
  span.detail(path);
  std::vector<cache_io::SegmentInfo> infos(shard_count);

  // Fan the per-segment encode + atomic write out over the thread pool:
  // each shard serializes under its own lock and lands in its own file, so
  // wide caches save in parallel.  parallel_map degrades to a serial loop
  // when called from inside a pool worker (nested saves stay safe).
  const std::vector<std::size_t> byte_sizes =
      util::parallel_map<std::size_t>(
          shard_count, 1, [](std::size_t chunk) { return chunk; },
          [&](std::size_t /*chunk*/, std::size_t i) {
            const std::string blob =
                shards_[i]->encode_segment(i, shard_count, infos[i]);
            cache_io::write_file_atomic(cache_io::segment_path(path, i), blob);
            return blob.size();
          });

  // Manifest last: a manifest that landed describes segments that already
  // landed.  (A reader racing a rewrite can catch a new segment under an
  // old manifest — the manifest-recorded segment digests make that a
  // detected cold start, never silent corruption.)
  const std::string manifest =
      cache_io::encode_manifest(infos, model_fingerprint());
  cache_io::write_file_atomic(path, manifest);

  // A previous save with more shards leaves higher-index segment files
  // behind; remove them so the directory mirrors the manifest.  Best
  // effort — a stale survivor is unreferenced and harmless.
  for (std::size_t i = shard_count; i < kMaxShards; ++i) {
    std::error_code ec;
    if (!std::filesystem::remove(cache_io::segment_path(path, i), ec)) break;
  }

  // Surface fleet-scale snapshot growth early (now across all files).
  std::size_t total_bytes = manifest.size();
  for (const std::size_t size : byte_sizes) total_bytes += size;
  span.arg("bytes", static_cast<double>(total_bytes));
  const std::size_t warn_bytes = snapshot_warn_bytes();
  if (warn_bytes > 0 && total_bytes > warn_bytes) {
    util::log_warn() << "solve-cache snapshot " << path << " is "
                     << total_bytes / (1024.0 * 1024.0) << " MB across "
                     << shard_count << " segment(s) (warn threshold "
                     << warn_bytes / (1024.0 * 1024.0)
                     << " MB; raise TPCOOL_SOLVE_CACHE_WARN_MB or lower "
                        "TPCOOL_SOLVE_CACHE_CAPACITY)";
  }
}

void SolveCache::load(const std::string& path) {
  util::TraceSpan span("cache.load");
  span.arg("shards", static_cast<double>(shards_.size()));
  span.detail(path);
  const std::string blob = cache_io::read_file(path);

  // Parse and validate everything *before* touching the cache: a snapshot
  // that fails validation leaves the cache exactly as it was.
  std::vector<cache_io::SnapshotEntry> entries;
  if (cache_io::is_manifest(blob)) {
    const cache_io::Manifest manifest = cache_io::decode_manifest(blob, path);
    if (manifest.fingerprint != model_fingerprint()) {
      if (util::telemetry_enabled()) {
        static util::TelemetryCounter& mismatches =
            util::Telemetry::instance().counter("cache.fingerprint_mismatch");
        mismatches.add(1.0);
      }
      util::log_warn() << "refusing solve-cache snapshot " << path
                       << ": it was computed under another model (fingerprint "
                       << manifest.fingerprint << ", this build "
                       << model_fingerprint() << ")";
      throw SnapshotError("solve-cache snapshot " + path +
                          " has a stale model fingerprint — delete it and "
                          "re-warm");
    }
    const std::size_t segment_count = manifest.segments.size();
    for (std::size_t i = 0; i < segment_count; ++i) {
      const std::string segment_file = cache_io::segment_path(path, i);
      std::vector<cache_io::SnapshotEntry> segment = cache_io::decode_segment(
          cache_io::read_file(segment_file), i, segment_count,
          manifest.segments[i], segment_file);
      entries.insert(entries.end(), std::make_move_iterator(segment.begin()),
                     std::make_move_iterator(segment.end()));
    }
  } else {
    throw SnapshotError(path + " is not a solve-cache snapshot (bad magic)");
  }

  // Re-stripe by *this* cache's shard count (the snapshot's segment count
  // need not match) and merge each bucket behind the shard's existing
  // entries.  Entry order within a bucket follows the snapshot's saved
  // recency order, so the merge is deterministic.
  std::vector<std::vector<cache_io::SnapshotEntry>> buckets =
      bucket_by_shard(std::move(entries), shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->absorb(std::move(buckets[i]));
  }
}

std::uint64_t SolveCache::model_fingerprint() {
  using util::fnv_f64;
  using util::fnv_string;
  using util::fnv_u64;
  std::uint64_t digest = util::kFnvOffsetBasis;
  fnv_u64(digest, kSnapshotVersion);
  for (const double value :
       {thermal::kSteadyCgTolerance, thermal::kSteadySsorOmega,
        thermal::kTransientCgTolerance, thermal::kTransientSsorOmega,
        kForcingFactor, kForcingFloor, kForcingCeiling,
        kTransientCouplingRelaxation, kTransientCouplingAgreement}) {
    fnv_f64(digest, value);
  }
  fnv_u64(digest,
          static_cast<std::uint64_t>(ServerConfig{}.coupling_iterations));
  fnv_u64(digest, static_cast<std::uint64_t>(kTransientCouplingPasses));
  for (const materials::SolidMaterial* solid :
       {&materials::silicon(), &materials::copper(),
        &materials::tim_high_performance(), &materials::tim_grease(),
        &materials::package_substrate(), &materials::gap_filler()}) {
    fnv_string(digest, solid->name);
    fnv_f64(digest, solid->conductivity_w_mk);
    fnv_f64(digest, solid->density_kg_m3);
    fnv_f64(digest, solid->specific_heat_j_kgk);
  }
  for (const materials::Refrigerant* fluid :
       {&materials::r236fa(), &materials::r134a(), &materials::r245fa()}) {
    const materials::RefrigerantSpec& spec = fluid->spec();
    fnv_string(digest, spec.name);
    for (const double value :
         {spec.molar_mass_g_mol, spec.critical_temp_c,
          spec.critical_pressure_pa, spec.anchor_t_c[0], spec.anchor_t_c[1],
          spec.anchor_t_c[2], spec.anchor_p_pa[0], spec.anchor_p_pa[1],
          spec.anchor_p_pa[2], spec.latent_heat_25c_j_kg,
          spec.liquid_density_25c_kg_m3, spec.liquid_density_slope,
          spec.liquid_viscosity_25c_pa_s, spec.liquid_conductivity_w_mk,
          spec.liquid_cp_j_kgk, spec.surface_tension_25c_n_m}) {
      fnv_f64(digest, value);
    }
  }
  // The water fits are closed-form; sample them across their 5-60 °C range.
  for (double t_c = 5.0; t_c <= 60.0; t_c += 5.0) {
    const materials::WaterProperties water = materials::water_at(t_c);
    fnv_f64(digest, water.density_kg_l);
    fnv_f64(digest, water.specific_heat_j_kgk);
    fnv_f64(digest, water.conductivity_w_mk);
    fnv_f64(digest, water.viscosity_pa_s);
  }
  return digest;
}

std::uint64_t SolveCache::content_digest() const {
  std::uint64_t sum = 0;
  for (const std::unique_ptr<CacheShard>& shard : shards_) {
    sum += shard->content_digest_sum();
  }
  return sum;
}

namespace {

/// Caches registered for save-at-exit; holds shared ownership so the
/// snapshot can be written even if all other references are gone.
struct PersistenceRegistry {
  std::mutex mutex;
  bool atexit_registered = false;
  std::vector<std::pair<std::shared_ptr<SolveCache>, std::string>> entries;

  static PersistenceRegistry& instance() {
    static PersistenceRegistry registry;
    return registry;
  }

  static void save_all() {
    PersistenceRegistry& registry = instance();
    std::lock_guard lock(registry.mutex);
    for (const auto& [cache, path] : registry.entries) {
      try {
        // Merge-save: fold the current on-disk snapshot back in first
        // (in-memory entries win), so a process that cleared or only
        // partially exercised the cache never shrinks the snapshot —
        // warmth accumulates monotonically, bounded by the capacity.
        try {
          cache->load(path);
        } catch (const SnapshotError&) {
          // Missing or damaged file: save fresh.
        }
        cache->save(path);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "tpcool: solve-cache save to %s failed: %s\n",
                     path.c_str(), error.what());
      }
    }
  }
};

}  // namespace

void SolveCache::attach_persistent_file(
    const std::shared_ptr<SolveCache>& cache, std::string path) {
  TPCOOL_REQUIRE(cache != nullptr, "attach_persistent_file needs a cache");
  TPCOOL_REQUIRE(!path.empty(), "attach_persistent_file needs a path");
  // The exit save fans segments out via parallel_map; construct the global
  // thread pool *before* registering the atexit handler so the pool's
  // function-local static slot is destroyed after the handler runs.
  (void)util::ThreadPool::global();
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    try {
      cache->load(path);
    } catch (const SnapshotError& error) {
      // A bad snapshot must never fail the run; start cold and the exit
      // save will replace it with a good one.
      std::fprintf(stderr, "tpcool: ignoring solve-cache snapshot: %s\n",
                   error.what());
    }
  }
  PersistenceRegistry& registry = PersistenceRegistry::instance();
  std::lock_guard lock(registry.mutex);
  // One snapshot path per cache, last attach wins: a bench's --cache-file
  // replaces the TPCOOL_SOLVE_CACHE_FILE registration made by global(),
  // so the env path is not also rewritten at exit.  The displacement is
  // deliberate but must be visible — the first path will NOT be rewritten.
  for (auto& [existing, existing_path] : registry.entries) {
    if (existing == cache) {
      if (existing_path != path) {
        util::log_warn() << "solve-cache snapshot path " << path
                         << " displaces previously attached " << existing_path
                         << " (last attach wins; " << existing_path
                         << " will not be rewritten at exit)";
      }
      existing_path = std::move(path);
      return;
    }
  }
  registry.entries.emplace_back(cache, std::move(path));
  if (!registry.atexit_registered) {
    // The registry (a function-local static) is constructed before this
    // handler registers, so it is destroyed after the handler runs.
    std::atexit(&PersistenceRegistry::save_all);
    registry.atexit_registered = true;
  }
}

const std::shared_ptr<SolveCache>& SolveCache::global() {
  static const std::shared_ptr<SolveCache> cache = [] {
    std::size_t capacity = kDefaultCapacity;
    if (const char* env = std::getenv("TPCOOL_SOLVE_CACHE_CAPACITY")) {
      const long parsed = std::strtol(env, nullptr, 10);
      if (parsed >= 1) {
        capacity = static_cast<std::size_t>(parsed);
      } else {
        std::fprintf(stderr,
                     "tpcool: ignoring TPCOOL_SOLVE_CACHE_CAPACITY=%s "
                     "(want an integer >= 1)\n",
                     env);
      }
    }
    auto created = std::make_shared<SolveCache>(capacity);
    if (const char* path = std::getenv("TPCOOL_SOLVE_CACHE_FILE")) {
      if (path[0] != '\0') attach_persistent_file(created, path);
    }
    return created;
  }();
  return cache;
}

void append_key_bits(std::string& key, double value) {
  static const char* hex = "0123456789abcdef";
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 60; shift >= 0; shift -= 4) {
    key.push_back(hex[(bits >> shift) & 0xF]);
  }
  key.push_back(';');
}

std::string solve_request_key(const workload::BenchmarkProfile& bench,
                              const workload::Configuration& config,
                              const std::vector<int>& cores,
                              power::CState idle_state) {
  // Per-core powers depend only on which cores are active, so placements
  // that permute the same set share one entry (the oracle enumerates sorted
  // subsets, heuristics return rack order).  ServerModel restores the
  // caller's ordering in SimulationResult::active_cores after a hit.
  std::vector<int> sorted_cores = cores;
  std::sort(sorted_cores.begin(), sorted_cores.end());
  std::string key;
  key.reserve(192);
  // The full profile, not just the name: two profiles may share a name but
  // differ in parameters (tests build custom ones).
  key += bench.name;
  key.push_back(';');
  append_key_bits(key, bench.c_eff_w_per_ghz_v2);
  append_key_bits(key, bench.smt_yield);
  append_key_bits(key, bench.serial_fraction);
  append_key_bits(key, bench.scaling_exponent);
  append_key_bits(key, bench.mem_intensity);
  append_key_bits(key, bench.tolerable_latency_us);
  key += std::to_string(config.cores);
  key.push_back(',');
  key += std::to_string(config.threads_per_core);
  key.push_back(',');
  append_key_bits(key, config.freq_ghz);
  for (const int core : sorted_cores) {
    key += std::to_string(core);
    key.push_back(',');
  }
  key.push_back(';');
  key += std::to_string(static_cast<int>(idle_state));
  return key;
}

std::string segment_request_key(const std::string& scope,
                                const workload::BenchmarkProfile& bench,
                                const workload::Configuration& config,
                                const std::vector<int>& cores,
                                power::CState idle_state,
                                const thermosyphon::OperatingPoint& op,
                                double duration_s,
                                const thermal::StepControlConfig& step_control,
                                double fixed_dt_s,
                                const std::vector<double>& initial_field_c) {
  // 128-bit initial-field digest: two FNV-1a streams over the exact cell
  // bit patterns, differing only in seed.  A single 64-bit stream invites
  // birthday collisions at fleet scale; two independent seeds push the
  // collision probability below any practical run length while keeping the
  // key a fixed, small size.
  std::uint64_t lo = util::kFnvOffsetBasis;
  std::uint64_t hi = util::kFnvOffsetBasis ^ 0x9e3779b97f4a7c15ULL;
  for (const double value : initial_field_c) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int shift = 0; shift < 64; shift += 8) {
      const auto byte = static_cast<unsigned char>((bits >> shift) & 0xFF);
      lo = (lo ^ byte) * util::kFnvPrime;
      hi = (hi ^ byte) * util::kFnvPrime;
    }
  }
  std::string key = "segment;";
  key += scope;
  key.push_back(';');
  key += solve_request_key(bench, config, cores, idle_state);
  key.push_back(';');
  append_key_bits(key, op.water_flow_kg_h);
  append_key_bits(key, op.water_inlet_c);
  append_key_bits(key, duration_s);
  append_key_bits(key, step_control.tolerance_c);
  append_key_bits(key, step_control.min_dt_s);
  append_key_bits(key, step_control.max_dt_s);
  append_key_bits(key, step_control.initial_dt_s);
  append_key_bits(key, step_control.max_growth);
  append_key_bits(key, step_control.safety);
  append_key_bits(key, fixed_dt_s);
  key += std::to_string(initial_field_c.size());
  key.push_back(';');
  append_key_bits(key, std::bit_cast<double>(lo));
  append_key_bits(key, std::bit_cast<double>(hi));
  return key;
}

}  // namespace tpcool::core
