#pragma once
/// \file server.hpp
/// \brief The complete server model: Xeon E5 floorplan + package power model
///        + 3D thermal grid + two-phase thermosyphon, with the coupled
///        steady-state solve used by every experiment.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tpcool/floorplan/xeon_e5.hpp"
#include "tpcool/power/package_power.hpp"
#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/metrics.hpp"
#include "tpcool/thermosyphon/thermosyphon.hpp"
#include "tpcool/workload/profiler.hpp"

namespace tpcool::core {

class SolveCache;

/// Forcing-term CG tolerances of the steady coupling loop (Eisenstat &
/// Walker, SIAM J. Sci. Comput. 1996).  Every pass but the last only feeds
/// the next pass's evaporator heat map, so it solves to
/// clamp(kForcingFactor · Δ, kForcingFloor, kForcingCeiling), where Δ is
/// the max-norm field change of the previous pass [°C]; kForcingCeiling
/// while no Δ is known.  The last pass solves to
/// thermal::kSteadyCgTolerance, which no pass undercuts.
inline constexpr double kForcingFactor = 1e-4;
inline constexpr double kForcingFloor = thermal::kSteadyCgTolerance;
inline constexpr double kForcingCeiling = 1e-3;

/// Pass cap of the transient engine's per-trial coupling loop
/// (datacenter/transient.cpp explains why the loop exists).
inline constexpr int kTransientCouplingPasses = 8;
/// Under-relaxation of the evaporator heat-map update in that loop.
inline constexpr double kTransientCouplingRelaxation = 0.5;
/// That loop stops early once successive trial fields agree to this
/// fraction of the step tolerance.
inline constexpr double kTransientCouplingAgreement = 0.1;
/// Forcing factor of that loop's inexact passes: once a trial has a pass
/// difference Δ (max-norm change of the trial field [°C]), each later
/// pass's half steps solve to clamp(kTransientForcingFactor · Δ,
/// thermal::kTransientCgTolerance, kForcingCeiling); the first two passes
/// and the full step stay at thermal::kTransientCgTolerance.  Measured on
/// seed-1 perfbench transient_day: CG iterations per round 199,405 →
/// 156,271 with accepted and rejected steps unchanged.  Over 72 segments
/// of three generated diurnal days at 4 mm, every segment keeps its step
/// and rejection counts and its peak die temperature moves at most
/// 2.8e-4 °C; a factor of 1e-4 changes step and rejection counts and
/// moves one peak die by 0.21 °C.
inline constexpr double kTransientForcingFactor = 1e-5;

/// Server construction parameters.
struct ServerConfig {
  thermal::PackageStackConfig stack;            ///< Package + grid geometry.
  thermosyphon::ThermosyphonDesign design;      ///< Cooling-device design.
  thermosyphon::OperatingPoint operating_point; ///< Water valve + setpoint.
  double board_htc_w_m2k = 10.0;   ///< Weak secondary path to the board.
  double board_ambient_c = 40.0;   ///< In-chassis air temperature.
  int coupling_iterations = 4;     ///< Thermosyphon<->thermal fixed point.
  /// Warm-start each coupled solve from the previous temperature field.
  /// Consecutive solves in a sweep (benchmarks, QoS levels, bisection on
  /// the operating point) differ by a few degrees, so the CG iteration
  /// count collapses; converged results are identical within the solver
  /// tolerance regardless of the start.
  bool reuse_thermal_state = true;
};

/// Transient-segment outcome carried inside a SimulationResult when the
/// result was produced by the adaptive transient engine (see
/// datacenter/transient.hpp) instead of a steady coupled solve.  Steady
/// results leave it default-initialized (empty end state, zero counters),
/// which serializes to a few bytes in cache snapshots.
struct TransientSegmentInfo {
  /// Full 3D temperature field at segment end (ThermalModel cell order);
  /// the next chained segment starts from it.  Empty for steady solves.
  std::vector<double> end_state_c;
  double peak_tcase_c = 0.0;   ///< Max TCASE over the segment's steps.
  double peak_die_c = 0.0;     ///< Max die temperature over the segment.
  double sim_time_s = 0.0;     ///< Accepted-dt sum; equals the duration.
  std::uint64_t steps = 0;           ///< Accepted adaptive steps.
  std::uint64_t rejected_steps = 0;  ///< Trials redone at a smaller dt.
};

/// Result of one coupled steady-state simulation (or, via the transient
/// engine, one cached transient segment — see `transient`).
struct SimulationResult {
  thermal::ThermalMetrics die;        ///< Metrics over the die region.
  thermal::ThermalMetrics package;    ///< Metrics over the IHS (package top).
  double tcase_c = 0.0;               ///< Centre-of-spreader temperature.
  double total_power_w = 0.0;
  power::PackagePowerBreakdown power;
  thermosyphon::ThermosyphonState syphon;
  util::Grid2D<double> die_field_c;       ///< Die-layer temperature map.
  util::Grid2D<double> package_field_c;   ///< IHS-layer temperature map.
  std::vector<int> active_cores;
  TransientSegmentInfo transient;     ///< Segment payload; empty if steady.
};

/// A server with a thermosyphon on its package.
///
/// The model owns all substrate objects; `simulate()` runs the coupled
/// fixed point: power map -> thermosyphon HTC map -> thermal solve ->
/// evaporator heat map -> thermosyphon ... until the boundary stabilizes.
class ServerModel {
 public:
  explicit ServerModel(ServerConfig config);

  // The power model and profiler point back into this object, so a move
  // would leave them referencing the source. Factories returning prvalues
  // (make_proposed_server) still work via guaranteed copy elision; anything
  // else must heap-allocate.
  ServerModel(const ServerModel&) = delete;
  ServerModel& operator=(const ServerModel&) = delete;
  ServerModel(ServerModel&&) = delete;
  ServerModel& operator=(ServerModel&&) = delete;

  [[nodiscard]] const floorplan::Floorplan& floorplan() const {
    return floorplan_;
  }
  [[nodiscard]] const power::PackagePowerModel& power_model() const {
    return power_model_;
  }
  [[nodiscard]] const workload::Profiler& profiler() const {
    return profiler_;
  }
  [[nodiscard]] const thermosyphon::ThermosyphonDesign& design() const {
    return config_.design;
  }
  [[nodiscard]] const thermosyphon::OperatingPoint& operating_point() const {
    return config_.operating_point;
  }
  [[nodiscard]] const thermal::StackModel& stack() const {
    return thermal_.stack();
  }
  [[nodiscard]] const ServerConfig& config() const { return config_; }

  /// Change the runtime-adjustable coolant parameters (§VI-C).
  void set_operating_point(const thermosyphon::OperatingPoint& op);

  /// Run the coupled steady solve for a benchmark in a configuration mapped
  /// onto `active_cores` (ids from a MappingPolicy), idle cores at
  /// `idle_state`.
  [[nodiscard]] SimulationResult simulate(
      const workload::BenchmarkProfile& bench,
      const workload::Configuration& config_pt,
      const std::vector<int>& active_cores, power::CState idle_state);

  /// Coupled solve for an explicit per-unit power assignment (used by the
  /// motivation experiments and tests).
  [[nodiscard]] SimulationResult simulate_powers(
      const floorplan::UnitPowers& powers);

  /// Route `simulate()` through a shared memo of solve results.
  ///
  /// `scope_key` must uniquely identify everything this ServerModel was
  /// constructed from (design + stack + board + coupling settings) among
  /// all users of `cache`; the operating point and the per-solve inputs are
  /// appended automatically.  Use `solve_scope()` (parallel.hpp) for
  /// pipeline-built servers.
  ///
  /// While a cache is attached, cache-miss solves start cold and the
  /// warm-start chain (ServerConfig::reuse_thermal_state) is suspended, so
  /// every cached value is a pure function of its key.  This is what makes
  /// cached sweeps bit-identical for any thread count and task order: a
  /// duplicate compute of a key reproduces the identical bits, so races
  /// between cache writers are unobservable.
  void enable_solve_cache(std::shared_ptr<SolveCache> cache,
                          std::string scope_key);

  /// Detach the cache and restore warm-start chaining.
  void disable_solve_cache() { solve_cache_.reset(); }

  [[nodiscard]] bool solve_cache_enabled() const noexcept {
    return solve_cache_ != nullptr;
  }

  /// Access to the thermal model (e.g. for transient stepping).
  [[nodiscard]] thermal::ThermalModel& thermal() { return thermal_; }
  [[nodiscard]] const thermal::ThermalModel& thermal() const {
    return thermal_;
  }
  [[nodiscard]] const thermosyphon::Thermosyphon& thermosyphon_model() const {
    return syphon_;
  }

 private:
  /// `reuse_state` gates the cross-solve warm start; cached solves pass
  /// false so their results are independent of solve history.
  [[nodiscard]] SimulationResult coupled_solve(
      const floorplan::UnitPowers& powers, bool reuse_state);

  ServerConfig config_;
  floorplan::Floorplan floorplan_;
  power::PackagePowerModel power_model_;
  workload::Profiler profiler_;
  thermal::ThermalModel thermal_;
  thermosyphon::Thermosyphon syphon_;
  /// Temperature field of the previous coupled solve; warm-start hint for
  /// the next one (see ServerConfig::reuse_thermal_state).
  std::vector<double> last_temperature_;
  std::shared_ptr<SolveCache> solve_cache_;  ///< Null = no memoization.
  std::string cache_scope_;  ///< Key prefix identifying this server's config.
};

/// Factory: the paper's proposed, workload-aware design (§VI): east-west
/// channels, R236fa at 55 % fill, 7 kg/h of 30 °C water.
[[nodiscard]] ServerModel make_proposed_server();

/// Factory: the state-of-the-art design of [8], which assumed a uniform heat
/// flux: north-south channels, R236fa at 50 % fill, same water loop.
[[nodiscard]] ServerModel make_soa_server();

/// Default evaporator geometry matched to the default stack config.
[[nodiscard]] thermosyphon::EvaporatorGeometry default_evaporator_geometry(
    thermosyphon::Orientation orientation);

}  // namespace tpcool::core
