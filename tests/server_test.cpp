// Tests for tpcool::core::ServerModel — the coupled thermosyphon + thermal
// solve: energy consistency, boundary sanity, monotone responses, and the
// forcing-term pass tolerances against every pass solved tight.
// Coarse grids keep the suite fast; the physics is resolution-stable.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "tpcool/core/pipelines.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/floorplan/power_map.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::core {
namespace {

ServerConfig coarse_config() {
  ServerConfig config;
  config.stack.cell_size_m = 1.5e-3;
  config.design.evaporator =
      default_evaporator_geometry(thermosyphon::Orientation::kEastWest);
  config.design.filling_ratio = 0.55;
  return config;
}

class ServerTest : public ::testing::Test {
 protected:
  ServerModel server_{coarse_config()};
  const workload::BenchmarkProfile& bench_ = workload::find_benchmark("x264");
};

TEST_F(ServerTest, SimulationProducesConsistentResult) {
  const workload::Configuration config{4, 2, 3.2};
  const SimulationResult sim = server_.simulate(
      bench_, config, {5, 4, 7, 2}, power::CState::kC1);

  // Power bookkeeping.
  EXPECT_NEAR(sim.total_power_w, sim.power.total_w(), 1e-9);
  EXPECT_GT(sim.total_power_w, 30.0);
  EXPECT_LT(sim.total_power_w, 90.0);

  // Thermal sanity: die ≥ package ≥ saturation ≥ water inlet.
  EXPECT_GT(sim.die.max_c, sim.package.max_c);
  EXPECT_GT(sim.package.max_c, sim.syphon.t_sat_c);
  EXPECT_GT(sim.syphon.t_sat_c,
            server_.operating_point().water_inlet_c);

  // Almost all heat leaves through the evaporator (weak board path).
  EXPECT_NEAR(sim.syphon.q_total_w, sim.total_power_w,
              0.15 * sim.total_power_w);
  EXPECT_EQ(sim.active_cores, (std::vector<int>{5, 4, 7, 2}));
}

TEST_F(ServerTest, DieAmplifiesPackageProfile) {
  // The Fig. 2 observation: hot spots and gradients on the die are a
  // scaled-up version of those on the package.
  const workload::Configuration config{6, 2, 3.2};
  const SimulationResult sim = server_.simulate(
      bench_, config, {5, 6, 7, 1, 2, 3}, power::CState::kPoll);
  EXPECT_GT(sim.die.max_c, sim.package.max_c + 5.0);
  EXPECT_GT(sim.die.grad_max_c_per_mm, 2.0 * sim.package.grad_max_c_per_mm);
}

TEST_F(ServerTest, MorePowerMeansHotter) {
  const SimulationResult low = server_.simulate(
      bench_, {4, 2, 2.6}, {5, 4, 7, 2}, power::CState::kC1E);
  const SimulationResult high = server_.simulate(
      bench_, {4, 2, 3.2}, {5, 4, 7, 2}, power::CState::kC1E);
  EXPECT_GT(high.total_power_w, low.total_power_w);
  EXPECT_GT(high.die.max_c, low.die.max_c);
  EXPECT_GT(high.tcase_c, low.tcase_c);
}

TEST_F(ServerTest, ColderWaterCoolsEverything) {
  const workload::Configuration config{8, 2, 3.2};
  const std::vector<int> all{1, 2, 3, 4, 5, 6, 7, 8};
  server_.set_operating_point({.water_flow_kg_h = 7.0, .water_inlet_c = 30.0});
  const SimulationResult warm =
      server_.simulate(bench_, config, all, power::CState::kPoll);
  server_.set_operating_point({.water_flow_kg_h = 7.0, .water_inlet_c = 20.0});
  const SimulationResult cold =
      server_.simulate(bench_, config, all, power::CState::kPoll);
  EXPECT_GT(warm.die.max_c, cold.die.max_c);
  EXPECT_GT(warm.tcase_c, cold.tcase_c);
  EXPECT_NEAR(warm.die.max_c - cold.die.max_c, 10.0, 4.0);
}

TEST_F(ServerTest, HigherFlowNeverHurts) {
  const workload::Configuration config{8, 2, 3.2};
  const std::vector<int> all{1, 2, 3, 4, 5, 6, 7, 8};
  server_.set_operating_point({.water_flow_kg_h = 4.0, .water_inlet_c = 30.0});
  const SimulationResult slow =
      server_.simulate(bench_, config, all, power::CState::kPoll);
  server_.set_operating_point({.water_flow_kg_h = 20.0, .water_inlet_c = 30.0});
  const SimulationResult fast =
      server_.simulate(bench_, config, all, power::CState::kPoll);
  EXPECT_GE(slow.die.max_c, fast.die.max_c - 0.1);
  EXPECT_GT(slow.syphon.t_sat_c, fast.syphon.t_sat_c);
}

TEST_F(ServerTest, WorstCaseStaysUnderTcaseLimit) {
  // §VI: the design must hold TCASE ≤ 85 °C for the worst-case workload at
  // the selected operating point (7 kg/h @ 30 °C).
  const auto& worst = workload::worst_case_benchmark();
  const SimulationResult sim = server_.simulate(
      worst, {8, 2, 3.2}, {1, 2, 3, 4, 5, 6, 7, 8}, power::CState::kPoll);
  EXPECT_LE(sim.tcase_c, 85.0);
  EXPECT_LE(sim.die.max_c, 100.0);
}

TEST_F(ServerTest, MappingSizeMismatchThrows) {
  EXPECT_THROW(server_.simulate(bench_, {4, 2, 3.2}, {1, 2},
                                power::CState::kPoll),
               util::PreconditionError);
}

TEST_F(ServerTest, ExplicitPowersSimulation) {
  floorplan::UnitPowers powers{{"core1", 8.0}, {"core5", 8.0}, {"llc", 2.0},
                               {"memctrl", 5.0}, {"uncore_io", 6.0}};
  const SimulationResult sim = server_.simulate_powers(powers);
  EXPECT_NEAR(sim.total_power_w, 29.0, 1e-9);
  EXPECT_GT(sim.die.max_c, sim.syphon.t_sat_c);
}

TEST(ServerFactories, ProposedAndSoaDiffer) {
  const ServerConfig proposed = server_config_for(Approach::kProposed, 1.5e-3);
  const ServerConfig soa = server_config_for(Approach::kSoaBalancing, 1.5e-3);
  EXPECT_EQ(proposed.design.evaporator.orientation,
            thermosyphon::Orientation::kEastWest);
  EXPECT_EQ(soa.design.evaporator.orientation,
            thermosyphon::Orientation::kNorthSouth);
  EXPECT_GT(proposed.design.filling_ratio, soa.design.filling_ratio);
}

TEST(ServerConfigValidation, RejectsBadCouplingIterations) {
  ServerConfig config = coarse_config();
  config.coupling_iterations = 0;
  EXPECT_THROW(ServerModel{config}, util::PreconditionError);
}

// Grid-resolution stability: metrics must not change wildly with the cell
// size (a property check on the finite-volume discretization).
TEST(ServerResolution, MetricsStableAcrossGrids) {
  const auto run = [](double cell) {
    ServerConfig config = coarse_config();
    config.stack.cell_size_m = cell;
    ServerModel server(std::move(config));
    const auto& bench = workload::find_benchmark("x264");
    return server.simulate(bench, {8, 2, 3.2}, {1, 2, 3, 4, 5, 6, 7, 8},
                           power::CState::kPoll);
  };
  const SimulationResult coarse = run(2.0e-3);
  const SimulationResult fine = run(1.0e-3);
  EXPECT_NEAR(coarse.die.max_c, fine.die.max_c, 6.0);
  EXPECT_NEAR(coarse.tcase_c, fine.tcase_c, 3.0);
  EXPECT_NEAR(coarse.syphon.t_sat_c, fine.syphon.t_sat_c, 0.5);
}

// ----------------------------------------- forcing-term pass tolerances --

struct ReferenceSolve {
  double tcase_c = 0.0;
  double die_max_c = 0.0;
  std::size_t cg_iterations = 0;
};

/// coupled_solve's four passes rebuilt from the public thermal and
/// thermosyphon API, every pass solved to the final 1e-8 residual: what
/// simulate() computed before non-final passes got forcing-term
/// tolerances.
ReferenceSolve tight_reference(ServerModel& server,
                               const workload::BenchmarkProfile& bench,
                               const workload::Configuration& config,
                               const std::vector<int>& cores,
                               power::CState idle) {
  power::PackagePowerRequest req =
      server.profiler().request_for(bench, config, idle);
  req.active_cores = cores;
  thermal::ThermalModel& thermal = server.thermal();
  const thermal::StackModel& stack = thermal.stack();
  const floorplan::UnitPowers powers = server.power_model().unit_powers(req);
  thermal.set_power_map(floorplan::rasterize_power(
      server.floorplan(), powers, stack.grid, stack.die_offset_x,
      stack.die_offset_y));

  // Total power spread uniformly over the evaporator footprint cells.
  util::Grid2D<double> heat(stack.grid.nx, stack.grid.ny, 0.0);
  std::vector<std::pair<std::size_t, std::size_t>> footprint;
  for (std::size_t iy = 0; iy < stack.grid.ny; ++iy) {
    for (std::size_t ix = 0; ix < stack.grid.nx; ++ix) {
      const floorplan::Rect cell = stack.grid.cell_rect(ix, iy);
      if (stack.evaporator_region.contains(cell.center_x(), cell.center_y()))
        footprint.emplace_back(ix, iy);
    }
  }
  for (const auto& [ix, iy] : footprint) {
    heat(ix, iy) = floorplan::total_power(powers) /
                   static_cast<double>(footprint.size());
  }

  ReferenceSolve out;
  std::vector<double> t;
  for (int pass = 0; pass < server.config().coupling_iterations; ++pass) {
    const thermosyphon::ThermosyphonState syphon =
        server.thermosyphon_model().solve(heat, server.operating_point());
    thermal.set_top_boundary({syphon.htc_map, syphon.fluid_temp_map});
    t = thermal.solve_steady(t, thermal::kSteadyCgTolerance);
    out.cg_iterations += thermal.last_solve_stats().iterations;
    heat = thermal.top_heat_flow_map_w(t);
    for (double& q : heat.data()) q = std::max(q, 0.0);
  }
  const floorplan::Rect package_region{0.0, 0.0, stack.grid.width(),
                                       stack.grid.height()};
  out.tcase_c = thermal::case_temperature(
      thermal.layer_field(t, stack.ihs_layer), stack.grid, package_region);
  out.die_max_c =
      thermal::compute_metrics(thermal.layer_field(t, stack.die_layer),
                               stack.grid, stack.die_region)
          .max_c;
  return out;
}

/// The "cg_iterations" arg of the last recorded "solve" span.
double last_solve_span_cg_iterations() {
  double iterations = -1.0;
  for (const util::SpanRecord& span :
       util::Telemetry::instance().merged_spans()) {
    if (span.name != "solve") continue;
    for (const auto& [name, value] : span.args) {
      if (name == "cg_iterations") iterations = value;
    }
  }
  return iterations;
}

TEST(ForcingTermPasses, MatchTightPassesWithFarFewerCgIterations) {
  // Non-final coupling passes only feed the next pass's heat map, so they
  // solve to clamp(1e-4 · Δ, 1e-8, 1e-3).  Against every pass at 1e-8,
  // over all 13 benchmarks on both designs at the fast (2 mm) and the
  // figure (0.75 mm) pitch: TCASE and die max move by at most 5e-3 °C —
  // two orders below the 4-pass truncation itself — the last pass still
  // meets 1e-8, and CG does at least 35% less work.
  const std::vector<workload::Configuration> configs{{8, 2, 3.2},
                                                     {4, 1, 2.6}};
  const std::vector<std::vector<int>> core_sets{{1, 2, 3, 4, 5, 6, 7, 8},
                                                {2, 4, 5, 7}};
  util::Telemetry& telemetry = util::Telemetry::instance();
  telemetry.enable();
  std::size_t solves = 0;
  double forcing_iterations = 0.0;
  double tight_iterations = 0.0;
  for (const Approach approach :
       {Approach::kProposed, Approach::kSoaBalancing}) {
    for (const double cell_m : {2.0e-3, 0.75e-3}) {
      ServerConfig config = server_config_for(approach, cell_m);
      config.reuse_thermal_state = false;  // both sides start cold
      ServerModel server(std::move(config));
      const std::vector<workload::BenchmarkProfile>& benches =
          workload::parsec_benchmarks();
      for (std::size_t b = 0; b < benches.size(); ++b) {
        const workload::Configuration& point = configs[b % 2];
        const std::vector<int>& cores = core_sets[b % 2];
        const power::CState idle =
            b % 2 == 0 ? power::CState::kPoll : power::CState::kC1;
        telemetry.reset();
        const SimulationResult sim =
            server.simulate(benches[b], point, cores, idle);
        const double sim_iterations = last_solve_span_cg_iterations();
        ASSERT_GT(sim_iterations, 0.0);
        EXPECT_LE(server.thermal().last_solve_stats().residual,
                  thermal::kSteadyCgTolerance);
        const ReferenceSolve ref =
            tight_reference(server, benches[b], point, cores, idle);
        const std::string where = std::string(to_string(approach)) + " " +
                                  std::to_string(cell_m) + " " +
                                  benches[b].name;
        EXPECT_NEAR(sim.tcase_c, ref.tcase_c, 5e-3) << where;
        EXPECT_NEAR(sim.die.max_c, ref.die_max_c, 5e-3) << where;
        forcing_iterations += sim_iterations;
        tight_iterations += static_cast<double>(ref.cg_iterations);
        ++solves;
      }
    }
  }
  telemetry.disable();
  telemetry.reset();
  EXPECT_GE(solves, 50u);
  EXPECT_LE(forcing_iterations, 0.65 * tight_iterations)
      << forcing_iterations << " vs " << tight_iterations;
}

}  // namespace
}  // namespace tpcool::core
