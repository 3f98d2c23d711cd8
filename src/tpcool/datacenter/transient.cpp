#include "tpcool/datacenter/transient.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "tpcool/core/parallel.hpp"
#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/floorplan/power_map.hpp"
#include "tpcool/thermal/metrics.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::datacenter {

namespace {

/// One stream chain per chunk: chains are independent of each other, and
/// a chain's segments run in interval order on the thread that claimed it.
constexpr std::size_t kChainGrain = 1;

// Inner thermosyphon coupling per adaptive trial step (the transient
// analogue of ServerModel::coupled_solve's fixed point; its pass cap,
// relaxation and agreement test are the core::kTransientCoupling*
// constants).  A boundary lagged one whole step behind sustains a
// discrete limit cycle on high-power segments — the boiling HTC's strong
// heat-flux feedback re-excites the package's fast surface mode at every
// commit, which puts a dt-independent floor under the step-doubling
// error estimate and locks the controller at millisecond steps.  Converging the boundary against the trial's end
// state (the two committed half steps) breaks the cycle; iteration stops
// early once successive trial fields agree to a tenth of the step
// tolerance.  Converging it against the full step instead, and taking the
// half steps once afterwards, brings the cycle back.  The heat-map update
// is under-relaxed: at high heat flux the boiling HTC's feedback loop has
// gain above one, so plain substitution oscillates between two boundary
// states instead of converging; averaging successive heat maps halves the
// effective gain and makes the iteration contract.  Passes past the
// second only shape the next pass's heat map unless they turn out to be
// the last, so their half steps solve to a forcing term
// (core::kTransientForcingFactor times the last pass difference, Eisenstat
// & Walker 1996), not to the committed-step tolerance.

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double max = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max = std::max(max, std::abs(a[i] - b[i]));
  }
  return max;
}

/// CG tolerance of a coupling pass's half steps once the trial has a pass
/// difference `delta_c` [°C].
double transient_forcing_tolerance(double delta_c) {
  return std::clamp(core::kTransientForcingFactor * delta_c,
                    thermal::kTransientCgTolerance, core::kForcingCeiling);
}

/// Everything one segment integration needs, resolved by its stream chain
/// from shared read-only state and the chain's own carried field.
struct SegmentTask {
  const JobOutcome* job = nullptr;
  const workload::BenchmarkProfile* bench = nullptr;
  thermosyphon::OperatingPoint op;
  double duration_s = 0.0;
  std::vector<double> initial_field_c;  ///< Stream state entering the interval.
  std::string cache_key;
};

/// Integrate one transient segment on a leased pipeline.  A pure function
/// of (pipeline config, task, engine config): the boundary and power map
/// are rebuilt from the task, the state starts at the task's initial
/// field, and every numeric step is the same fixed-order double arithmetic
/// on any thread — which is what makes the cached value sound.
core::SimulationResult integrate_segment(core::ApproachPipeline& pipeline,
                                         const SegmentTask& task,
                                         const TransientEngineConfig& config) {
  // Runs on whatever pool thread claimed the chunk: these spans are the
  // repo's cross-thread nesting exercise (cg spans nest under them on
  // worker rings).  Cache hits replay the value without re-entering here,
  // so transient.segments counts cold integrations only.
  util::TraceSpan span("transient.segment");
  if (util::telemetry_enabled()) {
    static util::TelemetryCounter& segments =
        util::Telemetry::instance().counter("transient.segments");
    segments.add(1.0);
  }
  core::ServerModel& server = pipeline.server();
  server.set_operating_point(task.op);
  thermal::ThermalModel& thermal = server.thermal();
  const thermal::StackModel& stack = thermal.stack();
  const floorplan::Rect package_region{0.0, 0.0, stack.grid.width(),
                                       stack.grid.height()};

  // The phase's power map, constant over the segment (same rasterization
  // as the steady solve and the TraceRunner).
  power::PackagePowerRequest req = server.profiler().request_for(
      *task.bench, task.job->decision.point.config,
      task.job->decision.idle_state);
  req.active_cores = task.job->decision.cores;
  const power::PackagePowerBreakdown breakdown =
      server.power_model().breakdown(req);
  thermal.set_power_map(floorplan::rasterize_power(
      server.floorplan(), server.power_model().unit_powers(req), stack.grid,
      stack.die_offset_x, stack.die_offset_y));

  std::vector<double> t = task.initial_field_c;
  TPCOOL_REQUIRE(t.size() == thermal.cell_count(),
                 "segment initial field does not match the thermal grid");

  const auto set_boundary = [&](const util::Grid2D<double>& heat) {
    const thermosyphon::ThermosyphonState syphon =
        server.thermosyphon_model().solve(heat, task.op);
    thermal::TopBoundary top;
    top.htc_w_m2k = syphon.htc_map;
    top.fluid_temp_c = syphon.fluid_temp_map;
    thermal.set_top_boundary(std::move(top));
  };
  // Per-cell evaporator heat extracted from a field (clamp the handful of
  // fringe cells that can run slightly negative at low loads).
  const auto clamped_top_heat = [&](const std::vector<double>& field) {
    util::Grid2D<double> heat = thermal.top_heat_flow_map_w(field);
    for (double& q : heat.data()) {
      if (q < 0.0) q = 0.0;
    }
    return heat;
  };

  // Seed the thermosyphon coupling from the initial field itself: a
  // zero-heat syphon solve gives a boundary, whose heat extraction over
  // the field is the first evaporator map — derived, not carried in, so
  // the segment stays a pure function of its key.
  util::Grid2D<double> evap_heat(stack.grid.nx, stack.grid.ny, 0.0);
  set_boundary(evap_heat);
  evap_heat = clamped_top_heat(t);

  core::SimulationResult result;
  result.power = breakdown;
  result.total_power_w = breakdown.total_w();
  result.active_cores = task.job->decision.cores;
  core::TransientSegmentInfo& seg = result.transient;
  thermal::StepController controller(config.step_control);
  std::size_t coupling_passes = 0;  // adaptive passes, 2 solves each
  std::size_t linear_solves = 0;    // backward-Euler CG solves
  // Trials that hit the pass cap without meeting the agreement test.
  std::size_t capped_trials = 0;

  while (seg.sim_time_s < task.duration_s) {
    const double remaining_s = task.duration_s - seg.sim_time_s;
    double dt_s = 0.0;
    if (config.fixed_dt_s > 0.0) {
      // Fixed-period baseline: TraceRunner-style stepping — the boundary
      // lags one step behind — with the final step clamped to the
      // remainder.
      set_boundary(evap_heat);
      dt_s = std::min(config.fixed_dt_s, remaining_s);
      thermal.step_transient(t, dt_s);
      ++linear_solves;
      evap_heat = clamped_top_heat(t);
    } else {
      // Adaptive: shrink the proposal until the step-doubling estimate
      // passes.  Each trial converges the boundary against its own end
      // state, the two committed half steps (see the coupling note at the
      // top of this file), so the estimate measures the segment's real
      // dynamics, not boundary-lag noise.
      while (true) {
        dt_s = controller.propose(remaining_s);
        const double half_dt_s = 0.5 * dt_s;
        // Every CG starts from the nearest field at hand: a pass's first
        // half step from the previous pass's first half step, its second
        // from the previous pass's trial end, and the full step from this
        // trial's end.  The guesses change no step beyond the CG
        // tolerance.
        std::vector<double> half = t;
        std::vector<double> trial;
        std::vector<double> prev_trial;
        util::Grid2D<double> trial_heat = evap_heat;
        double pass_tolerance = thermal::kTransientCgTolerance;
        bool agreed = false;
        for (int k = 0; k < core::kTransientCouplingPasses; ++k) {
          set_boundary(trial_heat);
          thermal.step_transient(t, half, half_dt_s, pass_tolerance);
          if (k == 0) trial = half;
          thermal.step_transient(half, trial, half_dt_s, pass_tolerance);
          ++coupling_passes;
          linear_solves += 2;
          const util::Grid2D<double> next_heat = clamped_top_heat(trial);
          for (std::size_t i = 0; i < trial_heat.data().size(); ++i) {
            trial_heat.data()[i] += core::kTransientCouplingRelaxation *
                                    (next_heat.data()[i] -
                                     trial_heat.data()[i]);
          }
          if (!prev_trial.empty()) {
            const double delta_c = max_abs_diff(trial, prev_trial);
            if (delta_c <= core::kTransientCouplingAgreement *
                               config.step_control.tolerance_c) {
              agreed = true;
              break;
            }
            pass_tolerance = transient_forcing_tolerance(delta_c);
          }
          prev_trial = trial;
        }
        if (!agreed) ++capped_trials;
        // The full step of the step doubling, once per trial, under the
        // boundary the last pass set (the relaxed heat map is not applied):
        // a step depends on nothing but its operands, so this is the full
        // step that pass would have taken.  Backward Euler is first order,
        // so the estimate scales as dt².
        std::vector<double> full = trial;
        thermal.step_transient(t, full, dt_s);
        ++linear_solves;
        const double error_c = max_abs_diff(full, trial);
        if (controller.evaluate(dt_s, error_c)) {
          t = std::move(trial);
          evap_heat = std::move(trial_heat);
          break;
        }
        ++seg.rejected_steps;
      }
    }
    // Landing on the boundary is exact by assignment, not accumulation.
    seg.sim_time_s =
        dt_s == remaining_s ? task.duration_s : seg.sim_time_s + dt_s;
    ++seg.steps;

    const util::Grid2D<double> ihs = thermal.layer_field(t, stack.ihs_layer);
    const util::Grid2D<double> die = thermal.layer_field(t, stack.die_layer);
    const double tcase =
        thermal::case_temperature(ihs, stack.grid, package_region);
    seg.peak_tcase_c = std::max(seg.peak_tcase_c, tcase);
    seg.peak_die_c = std::max(
        seg.peak_die_c,
        thermal::compute_metrics(die, stack.grid, stack.die_region).max_c);
    result.tcase_c = tcase;
  }
  TPCOOL_ENSURE(seg.sim_time_s == task.duration_s,
                "transient segment must land exactly on its boundary");
  seg.end_state_c = std::move(t);
  span.arg("duration_s", task.duration_s);
  span.arg("steps", static_cast<double>(seg.steps));
  span.arg("rejected_steps", static_cast<double>(seg.rejected_steps));
  span.arg("coupling_passes", static_cast<double>(coupling_passes));
  span.arg("linear_solves", static_cast<double>(linear_solves));
  span.arg("capped_trials", static_cast<double>(capped_trials));
  if (util::telemetry_enabled()) {
    static util::TelemetryCounter& passes =
        util::Telemetry::instance().counter("transient.coupling_passes");
    static util::TelemetryCounter& capped =
        util::Telemetry::instance().counter("transient.coupling_capped");
    passes.add(static_cast<double>(coupling_passes));
    capped.add(static_cast<double>(capped_trials));
  }
  return result;
}

}  // namespace

TransientFleetEngine::TransientFleetEngine(FleetConfig fleet,
                                           TransientEngineConfig config)
    : fleet_(std::move(fleet)), config_(config) {
  TPCOOL_REQUIRE(config_.fixed_dt_s >= 0.0,
                 "fixed dt must be zero (adaptive) or positive");
  // Validate the controller tuning at construction, not mid-fan-out.
  (void)thermal::StepController(config_.step_control);
}

TransientFleetResult TransientFleetEngine::run(
    const std::vector<workload::WorkloadTrace>& streams) {
  TransientFleetResult result;
  result.steady = fleet_.run(streams);
  result.duration_s = result.steady.duration_s;

  const FleetConfig& config = fleet_.config();
  const std::shared_ptr<core::SolveCache>& cache = core::SolveCache::global();

  // Per-rack constants: design water flow, cache scope, and grid size (for
  // sizing fresh stream states), resolved once, serially.
  std::vector<double> design_flow_kg_h(config.racks.size());
  std::vector<std::string> scope(config.racks.size());
  std::vector<std::size_t> cell_count(config.racks.size());
  for (std::size_t r = 0; r < config.racks.size(); ++r) {
    const RackSpec& spec = config.racks[r];
    design_flow_kg_h[r] =
        core::server_config_for(spec.approach, spec.cell_size_m)
            .operating_point.water_flow_kg_h;
    scope[r] = core::solve_scope(spec.approach, spec.cell_size_m);
    const core::PipelinePool::Lease lease = core::PipelinePool::global()
        .checkout(spec.approach, spec.cell_size_m, cache);
    cell_count[r] = lease->server().thermal().cell_count();
  }

  const std::vector<FleetInterval>& intervals = result.steady.intervals;
  if (util::telemetry_enabled()) {
    static util::TelemetryCounter& interval_count =
        util::Telemetry::instance().counter("transient.intervals");
    interval_count.add(static_cast<double>(intervals.size()));
  }

  // Group the jobs into one chain per stream, in interval order.  Thermal
  // state follows the stream across intervals (the history a migrating
  // job's server accumulates — a modeling choice; see the header doc), so
  // a segment depends only on its stream's previous end state: the chains
  // are independent and need no barrier between intervals.
  struct StreamChain {
    std::size_t stream = 0;
    std::vector<std::pair<std::size_t, std::size_t>> links;  // (interval, job)
  };
  std::vector<StreamChain> chains(streams.size());
  for (std::size_t s = 0; s < chains.size(); ++s) chains[s].stream = s;
  std::vector<std::vector<core::SimulationResult>> segments(intervals.size());
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    segments[i].resize(intervals[i].jobs.size());
    for (std::size_t j = 0; j < intervals[i].jobs.size(); ++j) {
      chains[intervals[i].jobs[j].stream].links.emplace_back(i, j);
    }
  }
  std::erase_if(chains,
                [](const StreamChain& chain) { return chain.links.empty(); });

  // One task per chain on pooled pipelines, each segment memoized under its
  // key (a warm rerun replays every segment from the cache) and written to
  // its pre-sized (interval, job) slot.  The chain carries its stream's
  // end state; a rack move that changes the grid resets it to the start
  // temperature.
  (void)core::parallel_map<std::size_t>(
      chains.size(), kChainGrain, [](std::size_t chunk) { return chunk; },
      [&](std::size_t /*chunk*/, std::size_t c) {
        const StreamChain& chain = chains[c];
        util::TraceSpan chain_span("transient.chain");
        chain_span.arg("stream", static_cast<double>(chain.stream));
        chain_span.arg("segments", static_cast<double>(chain.links.size()));
        std::vector<double> carried;
        for (const auto& [i, j] : chain.links) {
          const FleetInterval& interval = intervals[i];
          const JobOutcome& job = interval.jobs[j];
          const std::size_t r = job.rack;
          SegmentTask task;
          task.job = &job;
          task.bench = &workload::find_benchmark(job.benchmark);
          task.op = {.water_flow_kg_h = design_flow_kg_h[r],
                     .water_inlet_c = interval.racks[r].cooling.supply_temp_c};
          task.duration_s = interval.duration_s;
          if (carried.size() == cell_count[r]) {
            task.initial_field_c = std::move(carried);
          } else {
            task.initial_field_c.assign(cell_count[r],
                                        config_.start_temperature_c);
          }
          task.cache_key = core::segment_request_key(
              scope[r], *task.bench, job.decision.point.config,
              job.decision.cores, job.decision.idle_state, task.op,
              task.duration_s, config_.step_control, config_.fixed_dt_s,
              task.initial_field_c);
          const RackSpec& spec = config.racks[r];
          core::PipelinePool::Lease pipeline =
              core::PipelinePool::global().checkout(spec.approach,
                                                    spec.cell_size_m, cache);
          core::SimulationResult& segment = segments[i][j];
          segment = cache->get_or_compute(task.cache_key, [&] {
            return integrate_segment(*pipeline, task, config_);
          });
          carried = std::move(segment.transient.end_state_c);
        }
        return chain.links.size();
      });

  // Serial rollup, in interval and job (stream) order.
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const FleetInterval& interval = intervals[i];
    TransientInterval out;
    out.interval = interval.interval;
    out.start_s = interval.start_s;
    out.duration_s = interval.duration_s;
    out.jobs.reserve(interval.jobs.size());
    for (std::size_t j = 0; j < interval.jobs.size(); ++j) {
      const JobOutcome& job = interval.jobs[j];
      const core::SimulationResult& segment = segments[i][j];
      const core::TransientSegmentInfo& seg = segment.transient;
      TPCOOL_ENSURE(seg.sim_time_s == interval.duration_s,
                    "transient segment drifted off the interval boundary");
      TransientJobOutcome outcome;
      outcome.stream = job.stream;
      outcome.rack = job.rack;
      outcome.benchmark = job.benchmark;
      outcome.peak_tcase_c = seg.peak_tcase_c;
      outcome.peak_die_c = seg.peak_die_c;
      outcome.end_tcase_c = segment.tcase_c;
      outcome.steps = seg.steps;
      outcome.rejected_steps = seg.rejected_steps;
      outcome.tcase_limit_exceeded =
          seg.peak_tcase_c > config.racks[job.rack].tcase_limit_c;
      if (outcome.tcase_limit_exceeded) ++result.qos_violations;
      result.peak_tcase_c = std::max(result.peak_tcase_c, seg.peak_tcase_c);
      result.total_steps += seg.steps;
      result.total_rejected_steps += seg.rejected_steps;
      out.jobs.push_back(std::move(outcome));
    }
    result.intervals.push_back(std::move(out));
  }
  return result;
}

std::uint64_t transient_digest(const TransientFleetResult& result) {
  using util::fnv_f64;
  using util::fnv_u64;
  std::uint64_t digest = fleet_digest(result.steady);
  fnv_u64(digest, result.intervals.size());
  for (const TransientInterval& interval : result.intervals) {
    fnv_f64(digest, interval.start_s);
    fnv_f64(digest, interval.duration_s);
    for (const TransientJobOutcome& job : interval.jobs) {
      fnv_u64(digest, job.stream);
      fnv_u64(digest, job.rack);
      fnv_f64(digest, job.peak_tcase_c);
      fnv_f64(digest, job.peak_die_c);
      fnv_f64(digest, job.end_tcase_c);
      fnv_u64(digest, job.steps);
      fnv_u64(digest, job.rejected_steps);
      fnv_u64(digest, job.tcase_limit_exceeded ? 1 : 0);
    }
  }
  fnv_f64(digest, result.duration_s);
  fnv_f64(digest, result.peak_tcase_c);
  fnv_u64(digest, result.total_steps);
  fnv_u64(digest, result.total_rejected_steps);
  fnv_u64(digest, result.qos_violations);
  return digest;
}

}  // namespace tpcool::datacenter
