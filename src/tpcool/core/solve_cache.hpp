#pragma once
/// \file solve_cache.hpp
/// \brief Sharded, thread-safe memo of coupled-solve results, shared by the
///        parallel experiment engine, with segmented on-disk snapshots.
///
/// Experiment sweeps (Fig. 3/5/6 rows, Table I/II cells, the oracle's subset
/// enumeration, rack supply-temperature scans) and the acceptance tests
/// repeatedly request the same (server, workload, placement, operating
/// point) solves.  The cache deduplicates them across runners and — because
/// cache-miss solves run from a cold start (see
/// ServerModel::enable_solve_cache) — every stored value is a pure function
/// of its key.  That purity is what makes the parallel experiment engine
/// bit-deterministic: a racing duplicate compute produces the identical
/// bits, so it never matters which thread's result is stored or served.
/// Purity is also what makes snapshots sound: a value loaded from disk is
/// bit-identical to the value a cold re-solve of its key would produce, so
/// warm-loaded runs reproduce cold runs exactly.
///
/// Internally the store is striped into N lock-striped shards (CacheShard),
/// each owning one contiguous range of FNV-1a key-digest space, so hits on
/// independent keys no longer serialize on one mutex at fleet thread
/// counts.  N defaults to the hardware concurrency rounded up to a power of
/// two and is overridable via TPCOOL_SOLVE_CACHE_SHARDS (or `--cache-shards`
/// on every bench binary).  Stats are exact per-shard sums; eviction is
/// cost-aware per shard (cheapest-to-recompute first, LRU tiebreak).
///
/// Persistence: `save()` / `load()` write and read a segmented, versioned,
/// endian-safe snapshot — a manifest at `path` plus one segment file per
/// shard digest-range (`path.segNNNN`), schema `kSnapshotVersion`, each
/// file sealed by a stream digest (truncation, corruption, and
/// mixed-generation manifest/segment pairs are detected, never undefined
/// behavior).  Any other file, including a snapshot of an older schema,
/// is refused with SnapshotError and leaves the cache untouched.
/// Setting `TPCOOL_SOLVE_CACHE_FILE=<path>` (or passing `--cache-file
/// <path>` to a bench binary) loads the snapshot into the process-global
/// cache at startup and atomically rewrites it at exit, so bench reruns and
/// the slow CTest suites start warm.  Formats and tooling are documented in
/// docs/CACHE.md and inspectable via scripts/cache_inspect.py.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tpcool/core/cache_segment_io.hpp"
#include "tpcool/core/cache_shard.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/thermal/step_control.hpp"
#include "tpcool/workload/benchmark.hpp"
#include "tpcool/workload/configuration.hpp"

namespace tpcool::core {

/// Sharded least-recently-used (cost-weighted) memo from solve keys to
/// SimulationResults.
///
/// All operations are safe to call concurrently.  Shard locks are released
/// while a miss computes, so independent keys solve in parallel; keys on
/// different shards do not contend at all.  Concurrent get_or_compute calls
/// for the *same* key are deduplicated: the first caller computes, later
/// callers wait and count a hit — exactly the serial schedule — so the
/// miss/hit counters are deterministic and machine-independent (the
/// regression gate in scripts/check_bench_regression.py relies on this).
/// Waiters consume the result from the in-flight computation record itself,
/// not from the LRU store, so dedup is exact under any eviction pressure —
/// a key evicted between its compute and a waiter's wake-up is still
/// served.  A key evicted and *re-requested later* is a genuine capacity
/// miss, and which entry eviction drops can depend on the parallel touch
/// order, the observed costs, and the shard count: keep a sweep's
/// unique-key working set under capacity() (or raise it via
/// TPCOOL_SOLVE_CACHE_CAPACITY) for cross-run-exact counts.
class SolveCache {
 public:
  /// Capacity is in entries; one 1 mm-grid SimulationResult is ~100 KB, so
  /// the default bounds the cache around tens of MB.  The capacity is
  /// divided evenly across the shards (rounded up, so the effective total
  /// is the next multiple of the shard count); each shard evicts
  /// independently within its slice.  The process-global cache honors a
  /// TPCOOL_SOLVE_CACHE_CAPACITY env override.
  static constexpr std::size_t kDefaultCapacity = 256;

  /// Snapshot schema version; load() refuses any other version.
  /// v2: SimulationResult gained the transient-segment payload.
  /// v3: segmented format (manifest + one segment per shard digest-range)
  ///     and per-entry observed solve costs.
  /// v4: the manifest carries model_fingerprint(); forcing-term coupling
  ///     tolerances and warm-started transient passes changed result bits.
  static constexpr std::uint32_t kSnapshotVersion = 4;

  /// FNV-1a hash over a canonical list of every model constant that sets
  /// result bits: the steady and transient CG tolerances and SSOR ω, the
  /// forcing-term constants, the default coupling pass count, the
  /// transient coupling cap, relaxation and agreement test, the solid,
  /// refrigerant and water property tables, and kSnapshotVersion.  save()
  /// writes it into the manifest; load() refuses a snapshot that carries a
  /// different one, so a snapshot never serves results of other physics.
  [[nodiscard]] static std::uint64_t model_fingerprint();

  /// `shards` must be 0 (auto: default_shard_count()) or is rounded up to
  /// the next power of two.  Tests that pin eviction order or exact sizes
  /// at tiny capacities pass `shards = 1` to keep one deterministic stripe.
  explicit SolveCache(std::size_t capacity = kDefaultCapacity,
                      std::size_t shards = 0);

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Cache hit/miss/eviction counters since construction or clear():
  /// exact sums of the exact per-shard counters.
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;
    std::size_t size = 0;
    /// Threads currently blocked on an in-flight computation (a gauge, not
    /// a counter; clear() does not reset it).
    std::size_t waiting = 0;
  };

  /// Serve `key` from the cache, or run `compute`, store and return its
  /// result.  `compute` runs without any cache lock held; a concurrent
  /// call for the same key blocks until the first caller's result lands
  /// and then counts a hit.  The observed wall-clock cost of `compute` is
  /// recorded on the entry and drives cost-aware eviction.
  [[nodiscard]] SimulationResult get_or_compute(
      const std::string& key,
      const std::function<SimulationResult()>& compute);

  /// Lookup without computing; returns true and fills `out` on a hit.
  [[nodiscard]] bool try_get(const std::string& key, SimulationResult& out);

  /// Insert (idempotent: an existing entry is kept and refreshed as
  /// most-recently-used; values for one key are identical by construction).
  /// `cost_ms` is the entry's eviction weight — callers that know the
  /// solve cost should pass it; 0 marks the entry cheapest-to-recompute.
  void put(const std::string& key, SimulationResult result,
           double cost_ms = 0.0);

  [[nodiscard]] Stats stats() const;
  /// Effective total capacity: per-shard slice times shard count.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return shard_capacity_ * shards_.size();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Drop all entries and reset the counters.
  void clear();

  /// Shard count used when a SolveCache is built with `shards = 0`:
  /// TPCOOL_SOLVE_CACHE_SHARDS (>= 1, rounded up to a power of two) when
  /// set and valid, else the hardware concurrency rounded up to a power of
  /// two.
  [[nodiscard]] static std::size_t default_shard_count();

  // ------------------------------------------------------- persistence --

  /// Write a segmented snapshot: every shard's entries (most- to
  /// least-recently-used) become one segment file `path.segNNNN`, written
  /// and renamed atomically, fanned out over the thread pool via
  /// util::parallel_map; the manifest at `path` is written last, so a
  /// snapshot whose manifest landed describes segments that already
  /// landed.  Stale segment files from a previous wider save are removed.
  /// Throws SnapshotError when a file cannot be written.  Snapshots whose
  /// files total more than TPCOOL_SOLVE_CACHE_WARN_MB megabytes (default
  /// 64, <= 0 disables) log a warning through util/logging so fleet-scale
  /// runs surface growth early.
  void save(const std::string& path) const;

  /// Merge the snapshot at `path` (a segmented manifest + its segment
  /// files) into this cache.  Every file is fully validated *before* the
  /// cache is touched.  Loaded entries join behind the existing ones in
  /// saved recency order, re-striped by this cache's own shard count
  /// (existing keys win; values for one key are identical by construction)
  /// and the usual capacity eviction applies.  Hit/miss counters are not
  /// touched.  Throws SnapshotError — never UB — on unreadable, truncated,
  /// corrupt, or schema-mismatched files.  A snapshot whose manifest
  /// fingerprint differs from model_fingerprint() is refused whole, with a
  /// logged warning and a `cache.fingerprint_mismatch` count.
  void load(const std::string& path);

  /// Order-insensitive digest over all entries: the wrapping sum of
  /// per-entry FNV-1a digests (key bytes then payload bytes; observed
  /// costs excluded).  Independent of recency order, shard count, and
  /// merge interleaving, so equal digests certify equal contents across
  /// save/load round trips and concurrent merge-saves.
  [[nodiscard]] std::uint64_t content_digest() const;

  /// Load `path` into `cache` now if the file exists (a corrupt snapshot
  /// warns on stderr and starts cold — a cache must never make a run
  /// fail), and register a process-exit hook that atomically saves the
  /// cache back to `path`.  The exit save first folds the then-current
  /// on-disk snapshot back in (in-memory entries win), so warmth
  /// accumulates across processes instead of being clobbered by a run
  /// that cleared the cache.  One path per cache, last attach wins — a
  /// bench's `--cache-file` replaces the TPCOOL_SOLVE_CACHE_FILE
  /// registration, and the displacement is logged through util/logging so
  /// a silently dropped snapshot path is visible.  The registry keeps
  /// `cache` alive until exit.
  static void attach_persistent_file(const std::shared_ptr<SolveCache>& cache,
                                     std::string path);

  /// Process-wide cache shared by the experiment runners, the rack
  /// coordinator and the oracle sweeps.  Reads TPCOOL_SOLVE_CACHE_CAPACITY
  /// (entries), TPCOOL_SOLVE_CACHE_SHARDS (stripes) and
  /// TPCOOL_SOLVE_CACHE_FILE (snapshot path) once, at first use.
  [[nodiscard]] static const std::shared_ptr<SolveCache>& global();

 private:
  [[nodiscard]] CacheShard& shard_for(const std::string& key) const;

  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<CacheShard>> shards_;  ///< Power-of-two count.
};

/// Append a double to a cache key as its exact bit pattern (hex).  Keys must
/// distinguish 1.25e-3 from 1.2500001e-3; formatted decimals would not.
void append_key_bits(std::string& key, double value);

/// Canonical key fragment for the solve inputs below the server level:
/// benchmark profile (all model parameters, not just the name),
/// configuration, placement, and idle state.
[[nodiscard]] std::string solve_request_key(
    const workload::BenchmarkProfile& bench,
    const workload::Configuration& config, const std::vector<int>& cores,
    power::CState idle_state);

/// Canonical key for one transient segment: server scope + the steady solve
/// inputs of the phase + operating point + segment duration + every
/// step-control parameter (`fixed_dt_s > 0` selects the fixed-period
/// baseline integrator; the adaptive parameters are keyed either way) + a
/// 128-bit digest of the initial temperature field's exact bit patterns.
/// The digest stands in for the full field — two seeds of an FNV-1a stream
/// over the cell bits make an accidental collision negligible — so chained
/// segments key on where they start, which is what makes warm transient
/// reruns pure cache replay.
[[nodiscard]] std::string segment_request_key(
    const std::string& scope, const workload::BenchmarkProfile& bench,
    const workload::Configuration& config, const std::vector<int>& cores,
    power::CState idle_state, const thermosyphon::OperatingPoint& op,
    double duration_s, const thermal::StepControlConfig& step_control,
    double fixed_dt_s, const std::vector<double>& initial_field_c);

}  // namespace tpcool::core
