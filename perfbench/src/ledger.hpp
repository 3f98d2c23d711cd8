#pragma once
/// \file ledger.hpp
/// \brief The per-layer ledger of a traced run: spans the benchmark records
///        around its public calls (source B) plus the spans and counters
///        util::Telemetry already exports (source L), folded per round.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Names of the benchmark's own spans around public calls.
inline constexpr const char* kSpanAdvance = "bench.advance";
inline constexpr const char* kSpanSchedule = "bench.schedule";
inline constexpr const char* kSpanCacheSave = "bench.cache_save";
inline constexpr const char* kSpanCacheLoad = "bench.cache_load";

/// One per-layer metric as printed.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Accumulates the telemetry of traced rounds.  Call `fold_round` after
/// each traced round (telemetry quiescent), then `reset` the registry
/// before the next; `fold_setup` likewise after a traced set-up.
class Ledger {
 public:
  explicit Ledger(std::size_t threads) : threads_(threads) {}

  /// Fold the registry's current spans and counters as one round that
  /// took `wall_ms` of wall time.
  void fold_round(double wall_ms);
  /// Fold the snapshot save/load spans of one traced set-up.
  void fold_setup();
  /// Per-layer counts the telemetry does not carry (TransientFleetResult
  /// totals).
  void add_transient_steps(double steps, double rejected) {
    transient_steps_ += steps;
    transient_rejected_ += rejected;
  }

  /// Every per-layer metric, per traced round (or per set-up for the
  /// snapshot timings), in the order BENCHMARK.json lists them.
  /// `untraced_wall_ms` is the median round time of the untraced rounds.
  [[nodiscard]] std::vector<LayerMetric> metrics(
      double traced_wall_ms, double untraced_wall_ms) const;

  [[nodiscard]] double solve_count() const { return solve_count_; }
  [[nodiscard]] double segment_count() const { return segment_count_; }
  [[nodiscard]] double cache_misses() const { return cache_misses_; }
  [[nodiscard]] double dropped_spans() const { return dropped_spans_; }

  /// Names and units of the per-layer metrics, as `metrics` prints them.
  [[nodiscard]] static std::vector<std::pair<std::string, std::string>>
  names();

 private:
  std::size_t threads_;
  std::size_t rounds_ = 0;
  std::size_t setups_ = 0;
  double wall_ms_ = 0.0;
  double interval_ms_ = 0.0, interval_self_ms_ = 0.0;
  double segment_count_ = 0.0, segment_ms_ = 0.0;
  double transient_steps_ = 0.0, transient_rejected_ = 0.0;
  double solve_count_ = 0.0, solve_ms_ = 0.0, solve_self_ms_ = 0.0;
  double cache_hits_ = 0.0, cache_misses_ = 0.0, cache_evictions_ = 0.0;
  double save_ms_ = 0.0, load_ms_ = 0.0;
  double constructions_ = 0.0, reuses_ = 0.0;
  double schedule_ms_ = 0.0;
  double steady_count_ = 0.0, steady_ms_ = 0.0, steady_self_ms_ = 0.0;
  double cg_count_ = 0.0, cg_ms_ = 0.0, cg_iterations_ = 0.0;
  double cg_cell_iters_ = 0.0;
  double pool_jobs_ = 0.0, pool_inline_jobs_ = 0.0, pool_busy_ms_ = 0.0;
  double dropped_spans_ = 0.0;
};

}  // namespace perfbench
