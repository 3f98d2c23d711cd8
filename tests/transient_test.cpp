// Tests for the adaptive-step transient path: StepController units (the
// error-estimate and step-to-boundary choosers), the embedded
// step-doubling error step, and the TransientFleetEngine — exact boundary
// landing, fewer steps than the fixed-period baseline on smooth traces,
// bit-identity across thread counts (more stream chains than threads,
// streams that end early, rack moves that reset the state), inexact
// coupling passes against all-tight ones, snapshot-warm replay with zero
// misses, and per-stream thermal-state chaining.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/pipelines.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/transient.hpp"
#include "tpcool/floorplan/power_map.hpp"
#include "tpcool/thermal/grid.hpp"
#include "tpcool/thermal/metrics.hpp"
#include "tpcool/thermal/stack.hpp"
#include "tpcool/thermal/step_control.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool {
namespace {

// ---------------------------------------------------------- StepController --

thermal::StepControlConfig tight_config() {
  thermal::StepControlConfig config;
  config.tolerance_c = 0.05;
  config.min_dt_s = 1.0e-3;
  config.max_dt_s = 900.0;
  config.initial_dt_s = 0.5;
  config.max_growth = 4.0;
  config.safety = 0.9;
  return config;
}

TEST(StepController, ValidatesConfig) {
  auto bad = tight_config();
  bad.tolerance_c = 0.0;
  EXPECT_THROW(thermal::StepController{bad}, util::PreconditionError);
  bad = tight_config();
  bad.min_dt_s = -1.0;
  EXPECT_THROW(thermal::StepController{bad}, util::PreconditionError);
  bad = tight_config();
  bad.max_dt_s = bad.min_dt_s / 2.0;
  EXPECT_THROW(thermal::StepController{bad}, util::PreconditionError);
  bad = tight_config();
  bad.initial_dt_s = 2.0 * bad.max_dt_s;
  EXPECT_THROW(thermal::StepController{bad}, util::PreconditionError);
  bad = tight_config();
  bad.max_growth = 1.0;
  EXPECT_THROW(thermal::StepController{bad}, util::PreconditionError);
  bad = tight_config();
  bad.safety = 1.5;
  EXPECT_THROW(thermal::StepController{bad}, util::PreconditionError);
}

TEST(StepController, ProposeAppliesTheStepToBoundaryRules) {
  const thermal::StepController controller(tight_config());
  // Far from the boundary: the error-controlled proposal runs unclamped.
  EXPECT_EQ(controller.propose(10.0), 0.5);
  // Reaching the boundary: exactly the remainder (land by assignment).
  EXPECT_EQ(controller.propose(0.4), 0.4);
  EXPECT_EQ(controller.propose(0.5), 0.5);
  // Past the halfway mark: split evenly, never set up a sliver.
  EXPECT_EQ(controller.propose(0.8), 0.4);
  EXPECT_EQ(controller.propose(0.9999), 0.5 * 0.9999);
  EXPECT_THROW((void)controller.propose(0.0), util::PreconditionError);
  EXPECT_THROW((void)controller.propose(-1.0), util::PreconditionError);
}

TEST(StepController, EvaluateRunsTheDeadBeatUpdate) {
  const auto config = tight_config();
  thermal::StepController controller(config);

  // Error at tolerance: accepted, next proposal shrinks by safety.
  EXPECT_TRUE(controller.evaluate(0.5, config.tolerance_c));
  EXPECT_DOUBLE_EQ(controller.current_proposal_s(), 0.5 * config.safety);

  // Zero error (an equilibrated field): grows at the cap.
  thermal::StepController growing(config);
  EXPECT_TRUE(growing.evaluate(0.5, 0.0));
  EXPECT_DOUBLE_EQ(growing.current_proposal_s(), 0.5 * config.max_growth);

  // 4x over tolerance: rejected, retried at 0.9 * sqrt(1/4) = 0.45x.
  thermal::StepController shrinking(config);
  EXPECT_FALSE(shrinking.evaluate(0.5, 4.0 * config.tolerance_c));
  EXPECT_DOUBLE_EQ(shrinking.current_proposal_s(),
                   0.5 * config.safety * 0.5);

  // Wildly over tolerance: the shrink factor floors at 0.1, not at min_dt.
  thermal::StepController floored(config);
  EXPECT_FALSE(floored.evaluate(0.5, 1.0e9));
  EXPECT_DOUBLE_EQ(floored.current_proposal_s(), 0.05);

  // At the dt floor any error is accepted (progress guarantee).
  thermal::StepController at_floor(config);
  EXPECT_TRUE(at_floor.evaluate(config.min_dt_s, 1.0e9));
  EXPECT_DOUBLE_EQ(at_floor.current_proposal_s(), config.min_dt_s);

  EXPECT_THROW((void)at_floor.evaluate(0.0, 0.0), util::PreconditionError);
  EXPECT_THROW((void)at_floor.evaluate(0.5, -1.0), util::PreconditionError);
}

TEST(StepController, AcceptedStepsLandExactlyOnAwkwardDurations) {
  // Drive the controller over durations that do not divide by any power of
  // two of the initial dt; land-by-assignment plus the half-split rule
  // must reach every boundary exactly, with no sliver steps.
  const auto config = tight_config();
  for (const double duration_s : {1.1, 0.7, 86400.0 / 7.0, 3.0 + 1e-13}) {
    SCOPED_TRACE(duration_s);
    thermal::StepController controller(config);
    double sim_time_s = 0.0;
    double min_dt_s = 1.0e9;
    int steps = 0;
    while (sim_time_s < duration_s) {
      const double remaining_s = duration_s - sim_time_s;
      const double dt_s = controller.propose(remaining_s);
      // Alternate small errors so the proposal keeps moving.
      EXPECT_TRUE(controller.evaluate(
          dt_s, (steps % 2 == 0 ? 0.4 : 0.9) * config.tolerance_c));
      sim_time_s = dt_s == remaining_s ? duration_s : sim_time_s + dt_s;
      min_dt_s = std::min(min_dt_s, dt_s);
      ++steps;
      ASSERT_LT(steps, 100000);
    }
    EXPECT_EQ(sim_time_s, duration_s);  // bitwise exact landing
    // The half-split rule keeps every step above half the floor.
    EXPECT_GE(min_dt_s, 0.5 * config.min_dt_s);
  }
}

// ------------------------------------------------------------ embedded step --

thermal::StackModel make_slab(std::size_t nx, std::size_t ny) {
  thermal::StackModel model;
  model.grid.x0 = 0.0;
  model.grid.y0 = 0.0;
  model.grid.dx = 1.0e-3;
  model.grid.dy = 1.0e-3;
  model.grid.nx = nx;
  model.grid.ny = ny;
  const auto layer = [&](const std::string& name) {
    thermal::StackLayer l;
    l.name = name;
    l.thickness_m = 1.0e-3;
    l.conductivity_w_mk = util::Grid2D<double>(nx, ny, 100.0);
    l.vol_heat_cap_j_m3k = util::Grid2D<double>(nx, ny, 2.0e6);
    return l;
  };
  model.layers.push_back(layer("bottom"));
  model.layers.push_back(layer("top"));
  model.die_layer = 0;
  model.ihs_layer = 1;
  model.top_layer = 1;
  model.die_region =
      floorplan::Rect{0.0, 0.0, static_cast<double>(nx) * 1.0e-3,
                      static_cast<double>(ny) * 1.0e-3};
  model.evaporator_region = model.die_region;
  return model;
}

/// The engine's step doubling on a bare model: two committed half steps,
/// then one full step from the same start; returns their max-norm
/// distance and leaves the half-step state in `t`.
double step_doubling(const thermal::ThermalModel& model,
                     std::vector<double>& t, double dt_s) {
  std::vector<double> full = t;
  model.step_transient(t, 0.5 * dt_s);
  model.step_transient(t, 0.5 * dt_s);
  model.step_transient(full, dt_s);
  double error_c = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    error_c = std::max(error_c, std::abs(full[i] - t[i]));
  }
  return error_c;
}

TEST(EmbeddedStep, CommitsTheTwoHalfStepsAndReturnsTheirDistance) {
  thermal::ThermalModel model(make_slab(6, 6));
  model.set_top_boundary_uniform(4000.0, 30.0);
  model.set_bottom_boundary(0.0, 0.0);
  model.set_power_map(util::Grid2D<double>(6, 6, 0.2));
  const std::vector<double> t0(model.cell_count(), 30.0);

  // The committed state is exactly the two-half-step path, and the full
  // step taken after the halves is the one taken before them: a step
  // depends only on its operands, which is what lets the engine take the
  // full step once per trial, after its coupling passes.
  std::vector<double> embedded = t0;
  const double error_c = step_doubling(model, embedded, 0.2);
  std::vector<double> full_first = t0;
  model.step_transient(full_first, 0.2);
  std::vector<double> manual = t0;
  model.step_transient(manual, 0.1);
  model.step_transient(manual, 0.1);
  EXPECT_EQ(embedded, manual);  // bitwise
  double distance_c = 0.0;
  for (std::size_t i = 0; i < manual.size(); ++i) {
    distance_c = std::max(distance_c, std::abs(full_first[i] - manual[i]));
  }
  EXPECT_EQ(error_c, distance_c);  // bitwise

  // A heating transient has a nonzero estimate, and halving dt cuts it
  // about 4x (backward Euler is first order: the step-doubling estimate
  // scales as dt^2).
  EXPECT_GT(error_c, 0.0);
  std::vector<double> halved = t0;
  const double error_half_c = step_doubling(model, halved, 0.1);
  EXPECT_LT(error_half_c, error_c);
  EXPECT_NEAR(error_c / error_half_c, 4.0, 2.0);

  EXPECT_THROW(model.step_transient(embedded, 0.0), util::PreconditionError);
}

// ---------------------------------------------------- TransientFleetEngine --

constexpr double kCell = 2.0e-3;

class TransientEngineTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::ThreadPool::set_global_thread_count(0);
    core::SolveCache::global()->clear();
    core::PipelinePool::global().clear();
  }
};

datacenter::FleetConfig small_fleet() {
  return datacenter::make_heterogeneous_fleet(2, 2, kCell);
}

std::vector<workload::WorkloadTrace> smooth_streams() {
  // Two phases per stream with awkward durations: the engine must land on
  // 1.1, 1.8 (stream 0) and 1.1 + 0.7 interior boundaries exactly.
  return {workload::WorkloadTrace(
              {{"x264", {2.0}, 1.1}, {"canneal", {3.0}, 0.7}}),
          workload::WorkloadTrace({{"vips", {2.0}, 1.8}})};
}

TEST_F(TransientEngineTest, ValidatesEngineConfig) {
  datacenter::TransientEngineConfig bad;
  bad.fixed_dt_s = -0.5;
  EXPECT_THROW(datacenter::TransientFleetEngine(small_fleet(), bad),
               util::PreconditionError);
  datacenter::TransientEngineConfig bad_controller;
  bad_controller.step_control.tolerance_c = -1.0;
  EXPECT_THROW(
      datacenter::TransientFleetEngine(small_fleet(), bad_controller),
      util::PreconditionError);
}

TEST_F(TransientEngineTest, AdaptiveTakesFewerStepsThanTheFixedBaseline) {
  // A long smooth phase — where a fixed control period burns steps on a
  // plateau the adaptive controller crosses in a handful of growing steps.
  // (On *short* bursty phases the adaptive run rightly spends extra steps
  // on the steep warm-up; the win is on smooth stretches.)
  const std::vector<workload::WorkloadTrace> streams{
      workload::WorkloadTrace({{"x264", {2.0}, 180.0}})};

  datacenter::TransientEngineConfig fixed;
  fixed.fixed_dt_s = 0.5;  // the TraceRunner-style reference integrator
  const datacenter::TransientFleetResult fixed_run =
      datacenter::TransientFleetEngine(small_fleet(), fixed).run(streams);

  core::SolveCache::global()->clear();
  const datacenter::TransientEngineConfig adaptive;  // defaults
  const datacenter::TransientFleetResult adaptive_run =
      datacenter::TransientFleetEngine(small_fleet(), adaptive).run(streams);

  // Both integrate the same single 180 s interval.
  ASSERT_EQ(fixed_run.intervals.size(), 1u);
  ASSERT_EQ(adaptive_run.intervals.size(), 1u);
  EXPECT_EQ(fixed_run.total_steps, 360u);  // 180 s / 0.5 s
  EXPECT_EQ(fixed_run.total_rejected_steps, 0u);

  // The adaptive controller grows dt over the smooth stretch: measurably
  // fewer total trials (accepted + rejected) for the same simulated time.
  EXPECT_LT(adaptive_run.total_steps + adaptive_run.total_rejected_steps,
            fixed_run.total_steps / 2);
  EXPECT_GT(adaptive_run.total_steps, 0u);

  // Same physics: the trajectories agree on the transient peak to within
  // a few times the step tolerance.
  EXPECT_NEAR(adaptive_run.peak_tcase_c, fixed_run.peak_tcase_c, 1.0);
  EXPECT_EQ(adaptive_run.qos_violations, 0u);
}

TEST_F(TransientEngineTest, BitIdenticalAcrossThreadCounts) {
  const datacenter::TransientEngineConfig config;

  util::ThreadPool::set_global_thread_count(1);
  core::SolveCache::global()->clear();
  const datacenter::TransientFleetResult serial =
      datacenter::TransientFleetEngine(small_fleet(), config)
          .run(smooth_streams());
  const std::uint64_t serial_digest = datacenter::transient_digest(serial);

  for (const std::size_t threads : {2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    core::SolveCache::global()->clear();  // recompute, don't replay bits
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const datacenter::TransientFleetResult parallel =
        datacenter::TransientFleetEngine(small_fleet(), config)
            .run(smooth_streams());
    EXPECT_EQ(datacenter::transient_digest(parallel), serial_digest);
  }
}

TEST_F(TransientEngineTest, ChainsAreBitIdenticalWithMoreChainsThanThreads) {
  // Five stream chains on one, two and four threads.  Rack 1 runs a
  // coarser grid than rack 0, so a job that round-robin moves between
  // them restarts from the start temperature, while a job that stays
  // carries its field.  Stream 4's trace ends after the first interval.
  datacenter::FleetConfig fleet = datacenter::make_heterogeneous_fleet(
      2, 3, kCell);
  fleet.racks[1].cell_size_m = 2.0 * kCell;
  const std::vector<workload::WorkloadTrace> streams{
      workload::WorkloadTrace(
          {{"x264", {2.0}, 1.5}, {"canneal", {3.0}, 1.5}}),
      workload::WorkloadTrace({{"vips", {2.0}, 3.0}}),
      workload::WorkloadTrace(
          {{"bodytrack", {2.0}, 1.0}, {"x264", {2.0}, 2.0}}),
      workload::WorkloadTrace({{"canneal", {3.0}, 3.0}}),
      workload::WorkloadTrace({{"vips", {2.0}, 1.0}})};
  const datacenter::TransientEngineConfig config;

  std::uint64_t serial_digest = 0;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool::set_global_thread_count(threads);
    core::SolveCache::global()->clear();  // recompute, don't replay bits
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const datacenter::TransientFleetResult result =
        datacenter::TransientFleetEngine(fleet, config).run(streams);
    if (threads == 1) {
      serial_digest = datacenter::transient_digest(result);
      // The scenario has the shape the test is about.
      ASSERT_EQ(result.intervals.size(), 3u);  // edges at 1.0 and 1.5 s
      EXPECT_EQ(result.intervals[0].jobs.size(), 5u);
      for (std::size_t i = 1; i < result.intervals.size(); ++i) {
        ASSERT_EQ(result.intervals[i].jobs.size(), 4u);
        for (const datacenter::TransientJobOutcome& job :
             result.intervals[i].jobs) {
          EXPECT_NE(job.stream, 4u);
        }
      }
      std::size_t moved = 0;
      std::size_t stayed = 0;
      for (std::size_t i = 1; i < result.intervals.size(); ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
          const bool same_rack = result.intervals[i].jobs[j].rack ==
                                 result.intervals[i - 1].jobs[j].rack;
          ++(same_rack ? stayed : moved);
        }
      }
      EXPECT_GT(moved, 0u);
      EXPECT_GT(stayed, 0u);
    } else {
      EXPECT_EQ(datacenter::transient_digest(result), serial_digest);
    }
  }
}

double span_arg(const util::SpanRecord& span, const std::string& key) {
  for (const auto& [name, value] : span.args) {
    if (name == key) return value;
  }
  ADD_FAILURE() << span.name << " has no arg " << key;
  return -1.0;
}

TEST_F(TransientEngineTest, SegmentSpansCountTheirCouplingPassesAndSolves) {
  util::Telemetry& telemetry = util::Telemetry::instance();
  telemetry.enable();
  telemetry.reset();
  util::ThreadPool::set_global_thread_count(2);
  core::SolveCache::global()->clear();  // every segment integrates cold
  (void)datacenter::TransientFleetEngine(small_fleet(), {})
      .run(smooth_streams());
  const std::vector<util::SpanRecord> spans = telemetry.merged_spans();
  const util::MetricsSnapshot metrics = telemetry.metrics();
  telemetry.reset();
  telemetry.disable();
  ASSERT_EQ(metrics.dropped_spans, 0u);

  std::size_t segments = 0;
  double total_passes = 0.0;
  for (const util::SpanRecord& segment : spans) {
    if (segment.name != "transient.segment") continue;
    ++segments;
    const double passes = span_arg(segment, "coupling_passes");
    const double solves = span_arg(segment, "linear_solves");
    const double trials =
        span_arg(segment, "steps") + span_arg(segment, "rejected_steps");
    // Two half steps per coupling pass, one full step per trial.
    EXPECT_EQ(solves, 2.0 * passes + trials);
    EXPECT_GE(passes, trials);
    // Every one of them is a CG solve recorded under the segment.
    const auto under_segment = [&](const util::SpanRecord& cg) {
      return cg.name == "cg" && cg.tid == segment.tid &&
             cg.start_ns >= segment.start_ns &&
             cg.start_ns + cg.dur_ns <= segment.start_ns + segment.dur_ns;
    };
    EXPECT_EQ(static_cast<double>(
                  std::count_if(spans.begin(), spans.end(), under_segment)),
              solves);
    total_passes += passes;
  }
  EXPECT_EQ(segments, 4u);  // two intervals x two streams
  const auto counter = std::find_if(
      metrics.counters.begin(), metrics.counters.end(),
      [](const auto& c) { return c.first == "transient.coupling_passes"; });
  ASSERT_NE(counter, metrics.counters.end());
  EXPECT_EQ(counter->second, total_passes);
}

TEST_F(TransientEngineTest, ChainSpansHoldTheirStreamsSegments) {
  // One transient.chain span per stream, recorded on the pool thread that
  // ran the chain; every transient.segment nests inside its stream's
  // chain span.  Stream 2 repeats stream 0 on the same racks, so its
  // segments share stream 0's keys.  With a thread per chain, its lookups
  // usually find them in flight and wait; waiting or finding the stored
  // entry, a lookup counts a hit and records no segment span.  So every
  // cache miss is one solve or one segment span.
  std::vector<workload::WorkloadTrace> streams = smooth_streams();
  streams.push_back(streams[0]);
  util::Telemetry& telemetry = util::Telemetry::instance();
  telemetry.enable();
  telemetry.reset();
  util::ThreadPool::set_global_thread_count(3);
  core::SolveCache::global()->clear();  // every segment integrates cold
  const datacenter::TransientFleetResult result =
      datacenter::TransientFleetEngine(small_fleet(), {}).run(streams);
  const core::SolveCache::Stats stats = core::SolveCache::global()->stats();
  const std::vector<util::SpanRecord> spans = telemetry.merged_spans();
  const util::MetricsSnapshot metrics = telemetry.metrics();
  telemetry.reset();
  telemetry.disable();
  ASSERT_EQ(metrics.dropped_spans, 0u);

  std::vector<util::SpanRecord> chains;
  std::size_t segments = 0;
  std::size_t solves = 0;
  for (const util::SpanRecord& span : spans) {
    if (span.name == "transient.chain") chains.push_back(span);
    if (span.name == "transient.segment") ++segments;
    if (span.name == "solve") ++solves;
  }
  ASSERT_EQ(chains.size(), streams.size());
  std::vector<double> chain_streams;
  for (const util::SpanRecord& chain : chains) {
    chain_streams.push_back(span_arg(chain, "stream"));
    // Each stream has a job in both intervals.
    EXPECT_EQ(span_arg(chain, "segments"),
              static_cast<double>(result.intervals.size()));
  }
  std::sort(chain_streams.begin(), chain_streams.end());
  EXPECT_EQ(chain_streams, (std::vector<double>{0.0, 1.0, 2.0}));
  for (std::size_t i = 0; i < result.intervals.size(); ++i) {
    const std::vector<datacenter::TransientJobOutcome>& jobs =
        result.intervals[i].jobs;
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_EQ(jobs[2].rack, jobs[0].rack);
    EXPECT_EQ(jobs[2].peak_die_c, jobs[0].peak_die_c);
  }

  EXPECT_EQ(segments, 4u);  // two intervals x two distinct streams
  for (const util::SpanRecord& segment : spans) {
    if (segment.name != "transient.segment") continue;
    const auto holds_segment = [&](const util::SpanRecord& chain) {
      return chain.tid == segment.tid && chain.start_ns <= segment.start_ns &&
             segment.start_ns + segment.dur_ns <=
                 chain.start_ns + chain.dur_ns;
    };
    EXPECT_EQ(std::count_if(chains.begin(), chains.end(), holds_segment), 1);
  }

  double misses = 0.0;
  double intervals = -1.0;
  for (const auto& [name, value] : metrics.counters) {
    if (name.starts_with("cache.shard") && name.ends_with(".misses")) {
      misses += value;
    }
    if (name == "transient.intervals") intervals = value;
  }
  EXPECT_EQ(misses, static_cast<double>(solves + segments));
  EXPECT_EQ(misses, static_cast<double>(stats.misses));
  // Stream 2's two segments are hits on top of the steady fleet's.
  EXPECT_GE(stats.hits, 2u);
  EXPECT_EQ(intervals, static_cast<double>(result.intervals.size()));
}

TEST_F(TransientEngineTest, CappedTrialsCounterSumsTheSegmentSpans) {
  // A trial whose coupling loop runs all core::kTransientCouplingPasses
  // passes without meeting the agreement test counts once, both in its
  // segment span's capped_trials arg and in transient.coupling_capped.
  util::Telemetry& telemetry = util::Telemetry::instance();
  telemetry.enable();
  telemetry.reset();
  core::SolveCache::global()->clear();  // every segment integrates cold
  (void)datacenter::TransientFleetEngine(small_fleet(), {})
      .run(smooth_streams());
  const std::vector<util::SpanRecord> spans = telemetry.merged_spans();
  const util::MetricsSnapshot metrics = telemetry.metrics();
  telemetry.reset();
  telemetry.disable();
  ASSERT_EQ(metrics.dropped_spans, 0u);

  double capped = 0.0;
  for (const util::SpanRecord& segment : spans) {
    if (segment.name != "transient.segment") continue;
    const double segment_capped = span_arg(segment, "capped_trials");
    const double trials =
        span_arg(segment, "steps") + span_arg(segment, "rejected_steps");
    EXPECT_LE(segment_capped, trials);
    // A capped trial ran every pass the cap allows.
    EXPECT_LE(segment_capped * core::kTransientCouplingPasses,
              span_arg(segment, "coupling_passes"));
    capped += segment_capped;
  }
  EXPECT_GT(capped, 0.0);  // these segments do hit the cap
  const auto counter = std::find_if(
      metrics.counters.begin(), metrics.counters.end(),
      [](const auto& c) { return c.first == "transient.coupling_capped"; });
  ASSERT_NE(counter, metrics.counters.end());
  EXPECT_EQ(counter->second, capped);
}

/// What a test-local copy of the engine's adaptive segment loop reports.
struct TightSegment {
  std::uint64_t steps = 0;
  std::uint64_t rejected_steps = 0;
  double peak_tcase_c = 0.0;
  double peak_die_c = 0.0;
  double cg_iterations = 0.0;
};

/// The engine's adaptive trial loop (datacenter/transient.cpp,
/// integrate_segment) with every coupling pass at the committed-step CG
/// tolerance: the reference the inexact passes are measured against.
TightSegment tight_segment(core::ServerModel& server,
                           const datacenter::JobOutcome& job,
                           const thermosyphon::OperatingPoint& op,
                           double duration_s, double start_c,
                           const thermal::StepControlConfig& control) {
  server.set_operating_point(op);
  thermal::ThermalModel& thermal = server.thermal();
  const thermal::StackModel& stack = thermal.stack();
  const floorplan::Rect package_region{0.0, 0.0, stack.grid.width(),
                                       stack.grid.height()};
  power::PackagePowerRequest req = server.profiler().request_for(
      workload::find_benchmark(job.benchmark), job.decision.point.config,
      job.decision.idle_state);
  req.active_cores = job.decision.cores;
  thermal.set_power_map(floorplan::rasterize_power(
      server.floorplan(), server.power_model().unit_powers(req), stack.grid,
      stack.die_offset_x, stack.die_offset_y));

  const auto set_boundary = [&](const util::Grid2D<double>& heat) {
    const thermosyphon::ThermosyphonState syphon =
        server.thermosyphon_model().solve(heat, op);
    thermal::TopBoundary top;
    top.htc_w_m2k = syphon.htc_map;
    top.fluid_temp_c = syphon.fluid_temp_map;
    thermal.set_top_boundary(std::move(top));
  };
  const auto clamped_top_heat = [&](const std::vector<double>& field) {
    util::Grid2D<double> heat = thermal.top_heat_flow_map_w(field);
    for (double& q : heat.data()) q = std::max(q, 0.0);
    return heat;
  };
  const auto max_abs_diff = [](const std::vector<double>& a,
                               const std::vector<double>& b) {
    double max = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      max = std::max(max, std::abs(a[i] - b[i]));
    }
    return max;
  };

  TightSegment out;
  std::vector<double> t(thermal.cell_count(), start_c);
  util::Grid2D<double> evap_heat(stack.grid.nx, stack.grid.ny, 0.0);
  set_boundary(evap_heat);
  evap_heat = clamped_top_heat(t);
  const auto step = [&](const std::vector<double>& from,
                        std::vector<double>& to, double dt_s) {
    thermal.step_transient(from, to, dt_s);  // kTransientCgTolerance
    out.cg_iterations +=
        static_cast<double>(thermal.last_solve_stats().iterations);
  };
  thermal::StepController controller(control);
  double sim_time_s = 0.0;
  while (sim_time_s < duration_s) {
    const double remaining_s = duration_s - sim_time_s;
    double dt_s = 0.0;
    while (true) {
      dt_s = controller.propose(remaining_s);
      std::vector<double> half = t;
      std::vector<double> trial;
      std::vector<double> prev_trial;
      util::Grid2D<double> trial_heat = evap_heat;
      for (int k = 0; k < core::kTransientCouplingPasses; ++k) {
        set_boundary(trial_heat);
        step(t, half, 0.5 * dt_s);
        if (k == 0) trial = half;
        step(half, trial, 0.5 * dt_s);
        const util::Grid2D<double> next_heat = clamped_top_heat(trial);
        for (std::size_t i = 0; i < trial_heat.data().size(); ++i) {
          trial_heat.data()[i] += core::kTransientCouplingRelaxation *
                                  (next_heat.data()[i] - trial_heat.data()[i]);
        }
        if (!prev_trial.empty() &&
            max_abs_diff(trial, prev_trial) <=
                core::kTransientCouplingAgreement * control.tolerance_c) {
          break;
        }
        prev_trial = trial;
      }
      std::vector<double> full = trial;
      step(t, full, dt_s);
      if (controller.evaluate(dt_s, max_abs_diff(full, trial))) {
        t = std::move(trial);
        evap_heat = std::move(trial_heat);
        break;
      }
      ++out.rejected_steps;
    }
    sim_time_s = dt_s == remaining_s ? duration_s : sim_time_s + dt_s;
    ++out.steps;
    out.peak_tcase_c = std::max(
        out.peak_tcase_c,
        thermal::case_temperature(thermal.layer_field(t, stack.ihs_layer),
                                  stack.grid, package_region));
    out.peak_die_c = std::max(
        out.peak_die_c,
        thermal::compute_metrics(thermal.layer_field(t, stack.die_layer),
                                 stack.grid, stack.die_region)
            .max_c);
  }
  return out;
}

TEST_F(TransientEngineTest, ForcingTermPassesKeepStepsAndPeaks) {
  // A cold-start x264 segment at full power hits the coupling pass cap, so
  // many of its trials run passes past the second at the forcing-term
  // tolerance.  Against the same loop with every pass at the committed
  // 1e-9: the same accepted and rejected steps, peaks within 1e-3 °C, and
  // strictly less CG work.
  const datacenter::FleetConfig fleet = small_fleet();
  const std::vector<workload::WorkloadTrace> streams{
      workload::WorkloadTrace({{"x264", {1.0}, 4.0}})};
  const datacenter::TransientEngineConfig config;
  util::Telemetry& telemetry = util::Telemetry::instance();
  telemetry.enable();
  telemetry.reset();
  core::SolveCache::global()->clear();  // the segment integrates cold
  const datacenter::TransientFleetResult engine =
      datacenter::TransientFleetEngine(fleet, config).run(streams);
  const std::vector<util::SpanRecord> spans = telemetry.merged_spans();
  const util::MetricsSnapshot metrics = telemetry.metrics();
  telemetry.reset();
  telemetry.disable();
  ASSERT_EQ(metrics.dropped_spans, 0u);

  const auto segment =
      std::find_if(spans.begin(), spans.end(), [](const util::SpanRecord& s) {
        return s.name == "transient.segment";
      });
  ASSERT_NE(segment, spans.end());
  EXPECT_GT(span_arg(*segment, "capped_trials"), 0.0);
  double engine_iterations = 0.0;
  for (const util::SpanRecord& cg : spans) {
    if (cg.name == "cg" && cg.tid == segment->tid &&
        cg.start_ns >= segment->start_ns &&
        cg.start_ns + cg.dur_ns <= segment->start_ns + segment->dur_ns) {
      engine_iterations += span_arg(cg, "iterations");
    }
  }

  ASSERT_EQ(engine.intervals.size(), 1u);
  ASSERT_EQ(engine.intervals[0].jobs.size(), 1u);
  const datacenter::TransientJobOutcome& out = engine.intervals[0].jobs[0];
  const datacenter::JobOutcome& job = engine.steady.intervals[0].jobs[0];
  EXPECT_EQ(job.decision.cores.size(), 8u);
  const datacenter::RackSpec& rack = fleet.racks[job.rack];
  core::ApproachPipeline pipeline(rack.approach, rack.cell_size_m);
  const thermosyphon::OperatingPoint op{
      .water_flow_kg_h =
          core::server_config_for(rack.approach, rack.cell_size_m)
              .operating_point.water_flow_kg_h,
      .water_inlet_c =
          engine.steady.intervals[0].racks[job.rack].cooling.supply_temp_c};
  const TightSegment tight =
      tight_segment(pipeline.server(), job, op, 4.0,
                    config.start_temperature_c, config.step_control);

  EXPECT_EQ(out.steps, tight.steps);
  EXPECT_EQ(out.rejected_steps, tight.rejected_steps);
  EXPECT_NEAR(out.peak_tcase_c, tight.peak_tcase_c, 1e-3);
  EXPECT_NEAR(out.peak_die_c, tight.peak_die_c, 1e-3);
  EXPECT_LT(engine_iterations, tight.cg_iterations);
}

TEST_F(TransientEngineTest, SnapshotWarmRerunReplaysWithZeroMisses) {
  // Cold run, snapshot, reload into an empty cache: the rerun must serve
  // every solve — steady fleet AND chained transient segments (whose keys
  // include the initial-field digest) — from the snapshot, bit-identically.
  const datacenter::TransientEngineConfig config;
  util::ThreadPool::set_global_thread_count(2);
  core::SolveCache::global()->clear();
  const datacenter::TransientFleetResult cold =
      datacenter::TransientFleetEngine(small_fleet(), config)
          .run(smooth_streams());

  const std::string path = ::testing::TempDir() + "tpcool_transient_snap.bin";
  core::SolveCache::global()->save(path);
  core::SolveCache::global()->clear();
  core::SolveCache::global()->load(path);
  const datacenter::TransientFleetResult warm =
      datacenter::TransientFleetEngine(small_fleet(), config)
          .run(smooth_streams());
  const core::SolveCache::Stats stats = core::SolveCache::global()->stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(datacenter::transient_digest(warm),
            datacenter::transient_digest(cold));
  std::remove(path.c_str());
}

TEST_F(TransientEngineTest, ThermalStateFollowsTheStreamAcrossIntervals) {
  // Heavy phase then light phase on one stream: the light phase starts
  // warm (inherited field), so its peak is at its beginning and it cools
  // toward its end — only observable if the segment chain carries state.
  const std::vector<workload::WorkloadTrace> streams{workload::WorkloadTrace(
      {{"x264", {1.0}, 8.0}, {"canneal", {3.0}, 8.0}})};
  const datacenter::TransientEngineConfig config;
  const datacenter::TransientFleetResult result =
      datacenter::TransientFleetEngine(small_fleet(), config).run(streams);

  ASSERT_EQ(result.intervals.size(), 2u);
  ASSERT_EQ(result.intervals[1].jobs.size(), 1u);
  const datacenter::TransientJobOutcome& light = result.intervals[1].jobs[0];
  EXPECT_GT(light.peak_tcase_c, light.end_tcase_c + 0.2);
  // And the heavy phase heated up from the uniform start.
  const datacenter::TransientJobOutcome& heavy = result.intervals[0].jobs[0];
  EXPECT_GT(heavy.end_tcase_c, 36.0);
  EXPECT_GE(heavy.peak_die_c, heavy.peak_tcase_c);
}

TEST_F(TransientEngineTest, TransientPeaksAboveTheLimitCountViolations) {
  datacenter::FleetConfig config = small_fleet();
  for (datacenter::RackSpec& rack : config.racks) rack.tcase_limit_c = 30.0;
  const datacenter::TransientFleetResult result =
      datacenter::TransientFleetEngine(config, {})
          .run({workload::WorkloadTrace({{"x264", {1.0}, 2.0}})});
  EXPECT_GE(result.qos_violations, 1u);
  ASSERT_EQ(result.intervals.size(), 1u);
  EXPECT_TRUE(result.intervals[0].jobs[0].tcase_limit_exceeded);
}

}  // namespace
}  // namespace tpcool
