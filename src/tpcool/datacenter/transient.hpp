#pragma once
/// \file transient.hpp
/// \brief Trace-driven transient fleet engine: play whole diurnal/bursty
///        traces through the fleet with adaptive time stepping.
///
/// The steady `FleetModel` answers "where does every job run and at what
/// setpoint"; this layer answers "what does the package temperature of
/// every server actually do over the day".  It first runs the steady fleet
/// (placement, schedules, shared rack setpoints), then integrates one
/// transient *segment* per (job, interval): backward-Euler steps whose
/// length the `thermal::StepController` adapts from the step-doubling
/// error estimate, clamped by a step-to-boundary rule so every phase and
/// interval edge is hit exactly — never overshot (the TraceRunner bug this
/// engine replaces), never approached with a sliver step.  Within each
/// adaptive trial the thermosyphon boundary is converged against the
/// trial's own end state (an under-relaxed fixed point, the transient
/// analogue of `ServerModel::coupled_solve`), so the error estimate sees
/// the real segment dynamics rather than boundary-lag noise.  Thermal
/// state
/// follows the stream across intervals (the history a migrating job's
/// server accumulates); a rack move that changes the grid resets the
/// state to the start temperature.
///
/// Engine contract: each stream's chain of segments is one
/// `core::parallel_map` task on pooled pipelines, and every segment is
/// memoized in the `SolveCache` under `segment_request_key` — keyed on a
/// digest of the segment's *initial field*, so a chained rerun replays the
/// whole trajectory from a warm snapshot with zero misses, and results are
/// bit-identical for any thread count (`transient_digest` certifies it,
/// like `fleet_digest`).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/thermal/step_control.hpp"

namespace tpcool::datacenter {

/// Transient-engine tuning.
struct TransientEngineConfig {
  /// Adaptive step controller tuning (tolerance, dt bounds, growth caps).
  thermal::StepControlConfig step_control;
  /// > 0 selects the fixed-period baseline integrator (every step this
  /// long, final step clamped to the boundary) instead of the adaptive
  /// controller — the TraceRunner-style reference the bench compares
  /// step counts against.  0 (default) = adaptive.
  double fixed_dt_s = 0.0;
  /// Initial temperature of every stream's thermal state [°C].
  double start_temperature_c = 35.0;
};

/// Transient outcome of one (job, interval) segment.
struct TransientJobOutcome {
  std::size_t stream = 0;
  std::size_t rack = 0;
  std::string benchmark;
  double peak_tcase_c = 0.0;   ///< Max TCASE over the segment's steps.
  double peak_die_c = 0.0;     ///< Max die temperature over the segment.
  double end_tcase_c = 0.0;    ///< TCASE at the interval boundary.
  std::uint64_t steps = 0;           ///< Accepted transient steps.
  std::uint64_t rejected_steps = 0;  ///< Trials redone at a smaller dt.
  /// Transient peak TCASE exceeded the rack's limit (the trajectory-level
  /// analogue of the steady JobOutcome flag; computed outside the cached
  /// segment so limit changes do not fragment the cache).
  bool tcase_limit_exceeded = false;
};

/// One interval of the transient timeline (same boundaries as the steady
/// fleet timeline).
struct TransientInterval {
  std::size_t interval = 0;
  double start_s = 0.0;
  double duration_s = 0.0;
  std::vector<TransientJobOutcome> jobs;  ///< In stream order.
};

/// Full transient fleet outcome.
struct TransientFleetResult {
  /// The steady fleet plan the transient ran under (placement, setpoints,
  /// energy/PUE accounting).
  FleetResult steady;
  std::vector<TransientInterval> intervals;
  double duration_s = 0.0;
  double peak_tcase_c = 0.0;             ///< Fleet-wide transient peak.
  std::uint64_t total_steps = 0;
  std::uint64_t total_rejected_steps = 0;
  /// Segments whose transient peak broke their rack's TCASE limit.
  std::size_t qos_violations = 0;
};

/// Adaptive-step transient engine over a fleet.
///
/// `run` is bit-identical for any thread count.  The only cross-segment
/// state is a stream's carried field, so each stream's chain of segments
/// is one fixed-grain `parallel_map` task that runs its segments in
/// interval order on one thread, with no barrier between intervals.  Every
/// segment value is a pure function of its cache key (integration from the
/// keyed initial field), each result lands in its own (interval, job)
/// slot, and the rollup into totals runs serially in interval and stream
/// order after every chain has finished.
class TransientFleetEngine {
 public:
  TransientFleetEngine(FleetConfig fleet, TransientEngineConfig config);

  [[nodiscard]] const TransientEngineConfig& engine_config() const noexcept {
    return config_;
  }
  [[nodiscard]] const FleetConfig& fleet_config() const noexcept {
    return fleet_.config();
  }

  /// Steady fleet pass + transient segment integration, end to end.
  [[nodiscard]] TransientFleetResult run(
      const std::vector<workload::WorkloadTrace>& streams);

 private:
  FleetModel fleet_;
  TransientEngineConfig config_;
};

/// Order-sensitive FNV-1a digest over every numeric field of the transient
/// result, including the embedded steady digest — the transient bench
/// compares runs across thread counts with this.
[[nodiscard]] std::uint64_t transient_digest(const TransientFleetResult& result);

}  // namespace tpcool::datacenter
