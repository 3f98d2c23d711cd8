/// \file perf_microbench.cpp
/// \brief google-benchmark microbenchmarks for the numerical substrates:
///        steady-state thermal solves vs grid resolution, the CG kernels
///        (SpMV, SSOR sweep, one PCG iteration) in ns per cell,
///        thermosyphon solves, top-boundary re-assembly, and the full
///        coupled server simulation.

#include <benchmark/benchmark.h>

#include <random>

#include "bench_flags.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/mapping/config_select.hpp"
#include "tpcool/util/linear_solver.hpp"
#include "tpcool/util/stencil_operator.hpp"

namespace {

using namespace tpcool;

core::ServerConfig config_with_cell(double cell_m) {
  core::ServerConfig config;
  config.stack.cell_size_m = cell_m;
  config.design.evaporator = core::default_evaporator_geometry(
      thermosyphon::Orientation::kEastWest);
  return config;
}

/// Steady-state solve (including boundary assembly) vs grid resolution.
void BM_ThermalSteadySolve(benchmark::State& state) {
  const double cell = 1e-3 * static_cast<double>(state.range(0)) / 10.0;
  thermal::PackageStackConfig stack_config;
  stack_config.cell_size_m = cell;
  thermal::ThermalModel model(thermal::make_package_stack(stack_config));
  model.set_top_boundary_uniform(1.2e4, 40.0);
  util::Grid2D<double> power(model.nx(), model.ny(), 0.0);
  power(model.nx() / 2, model.ny() / 2) = 60.0;
  model.set_power_map(power);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.solve_steady());
  }
  state.counters["cells"] = static_cast<double>(model.cell_count());
}
BENCHMARK(BM_ThermalSteadySolve)->Arg(20)->Arg(15)->Arg(10)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// One transient backward-Euler step.
void BM_ThermalTransientStep(benchmark::State& state) {
  thermal::PackageStackConfig stack_config;
  stack_config.cell_size_m = 1.5e-3;
  thermal::ThermalModel model(thermal::make_package_stack(stack_config));
  model.set_top_boundary_uniform(1.2e4, 40.0);
  model.set_power_map(util::Grid2D<double>(model.nx(), model.ny(), 0.02));
  std::vector<double> t(model.cell_count(), 40.0);
  for (auto _ : state) {
    model.step_transient(t, 0.1);
  }
}
BENCHMARK(BM_ThermalTransientStep)->Unit(benchmark::kMillisecond);

/// Thermosyphon loop + channel solve (the coupling loop's boundary update)
/// with 60 W spread over the die, at `state.range(0)` micrometre pitch.
void BM_ThermosyphonSolve(benchmark::State& state) {
  core::ServerModel server(
      config_with_cell(1e-6 * static_cast<double>(state.range(0))));
  const thermal::StackModel& stack = server.stack();
  util::Grid2D<double> heat(stack.grid.nx, stack.grid.ny, 0.0);
  std::size_t die_cells = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t iy = 0; iy < stack.grid.ny; ++iy) {
      for (std::size_t ix = 0; ix < stack.grid.nx; ++ix) {
        const auto cell = stack.grid.cell_rect(ix, iy);
        if (!stack.die_region.contains(cell.center_x(), cell.center_y())) {
          continue;
        }
        if (pass == 0) {
          ++die_cells;
        } else {
          heat(ix, iy) = 60.0 / static_cast<double>(die_cells);
        }
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server.thermosyphon_model().solve(heat, server.operating_point()));
  }
  state.counters["cells"] = static_cast<double>(heat.size());
}
BENCHMARK(BM_ThermosyphonSolve)->Arg(4000)->Arg(2000)
    ->Unit(benchmark::kMicrosecond);

/// Full coupled server simulation (the unit of every experiment).
void BM_CoupledServerSimulation(benchmark::State& state) {
  core::ServerModel server(
      config_with_cell(1e-3 * static_cast<double>(state.range(0)) / 10.0));
  const auto& bench = workload::find_benchmark("x264");
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.simulate(
        bench, {4, 2, 3.2}, {5, 4, 7, 2}, power::CState::kC1));
  }
}
BENCHMARK(BM_CoupledServerSimulation)->Arg(15)->Arg(10)
    ->Unit(benchmark::kMillisecond);

/// Synthetic 7-point operator with thermal-like couplings on an
/// nx x ny x nz cell grid (the package stack is ~70x60x6 at paper pitch).
util::StencilOperator stencil_like_thermal(std::size_t nx, std::size_t ny,
                                           std::size_t nz) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> g(0.01, 0.2);
  util::StencilOperator op(nx, ny, nz);
  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = op.cell_index(ix, iy, iz);
        if (ix + 1 < nx)
          op.add_coupling(i, util::StencilBand::kXPlus, g(rng));
        if (iy + 1 < ny)
          op.add_coupling(i, util::StencilBand::kYPlus, g(rng));
        if (iz + 1 < nz)
          op.add_coupling(i, util::StencilBand::kZPlus, g(rng));
        op.add_to_diagonal(i, g(rng));
      }
    }
  }
  return op;
}

/// Counter reporting seconds per unit of `work_per_iteration` (cells, or
/// cells x CG iterations) of one benchmark iteration; the console shows
/// it with an SI prefix (e.g. "6.9ns").
benchmark::Counter time_per(double work_per_iteration) {
  return benchmark::Counter(work_per_iteration,
                            benchmark::Counter::kIsIterationInvariantRate |
                                benchmark::Counter::kInvert);
}

/// SpMV on the banded stencil representation (matrix-free; inline up to
/// util::kVectorGrain cells, threaded above).
void BM_SpmvStencil(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const util::StencilOperator op = stencil_like_thermal(n, n, 6);
  std::vector<double> x(op.size(), 1.0), y;
  for (auto _ : state) {
    op.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["cells"] = static_cast<double>(op.size());
  state.counters["time_per_cell"] = time_per(static_cast<double>(op.size()));
}
BENCHMARK(BM_SpmvStencil)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

/// Full SSOR-PCG solve on the stencil.
void BM_StencilCgSolve(benchmark::State& state) {
  const util::StencilOperator op = stencil_like_thermal(70, 60, 6);
  const std::vector<double> b(op.size(), 1.0);
  std::size_t iterations = 0;
  for (auto _ : state) {
    std::vector<double> x;
    const util::CgResult r = util::solve_cg(op, b, x, {.tolerance = 1e-8});
    iterations = r.iterations;
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["iterations"] = static_cast<double>(iterations);
}
BENCHMARK(BM_StencilCgSolve)->Unit(benchmark::kMillisecond);

/// The package-stack thermal model at `state.range(0)` micrometre pitch
/// with the steady solve's boundary and a hot spot on the die.
thermal::ThermalModel thermal_model_at_pitch(const benchmark::State& state) {
  thermal::PackageStackConfig stack_config;
  stack_config.cell_size_m = 1e-6 * static_cast<double>(state.range(0));
  thermal::ThermalModel model(thermal::make_package_stack(stack_config));
  model.set_top_boundary_uniform(1.2e4, 40.0);
  util::Grid2D<double> power(model.nx(), model.ny(), 0.0);
  power(model.nx() / 2, model.ny() / 2) = 60.0;
  model.set_power_map(power);
  return model;
}

/// One SSOR preconditioner application (forward + backward wavefront
/// sweep) on the thermal operator, at the steady solve's omega.
void BM_SsorApply(benchmark::State& state) {
  const thermal::ThermalModel model = thermal_model_at_pitch(state);
  const util::StencilOperator& op = model.conductance_operator();
  const std::vector<double> r(op.size(), 1.0);
  std::vector<double> z;
  for (auto _ : state) {
    op.ssor_apply(r, z, 1.7);
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  state.counters["cells"] = static_cast<double>(op.size());
  state.counters["time_per_cell"] = time_per(static_cast<double>(op.size()));
}
BENCHMARK(BM_SsorApply)->Arg(2000)->Arg(750)->Unit(benchmark::kMicrosecond);

/// Cost of one SSOR-PCG iteration (SpMV, two dots, the fused x/r update
/// with its norm, one SSOR application, the p update) on the thermal
/// operator: a cold steady solve (the thermal model's own system and
/// initial guess) divided by its iteration count and cell count, the
/// same quantity the trace ledger reports as util.cg.ns_per_cell_iter.
void BM_CgIteration(benchmark::State& state) {
  const thermal::ThermalModel model = thermal_model_at_pitch(state);
  std::size_t iterations = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.solve_steady());
    iterations = model.last_solve_stats().iterations;
  }
  const auto cells = static_cast<double>(model.cell_count());
  state.counters["cells"] = cells;
  state.counters["iterations"] = static_cast<double>(iterations);
  state.counters["time_per_cell_iter"] =
      time_per(cells * static_cast<double>(iterations));
}
BENCHMARK(BM_CgIteration)->Arg(2000)->Arg(750)->Unit(benchmark::kMillisecond);

/// A new top boundary (alternating between two HTC maps) followed by the
/// re-assembly the next solve triggers.  range(1) = 0 is the top-only path
/// every coupling pass takes; 1 also resets the bottom boundary, which
/// forces the full assembly of every band, for comparison.
void BM_TopBoundaryReassemble(benchmark::State& state) {
  thermal::ThermalModel model = thermal_model_at_pitch(state);
  const bool full = state.range(1) != 0;
  thermal::TopBoundary boundaries[2];
  for (std::size_t k = 0; k < 2; ++k) {
    boundaries[k].htc_w_m2k =
        util::Grid2D<double>(model.nx(), model.ny(), 1.0e4 + 2.0e3 * k);
    boundaries[k].fluid_temp_c =
        util::Grid2D<double>(model.nx(), model.ny(), 40.0);
  }
  std::size_t k = 0;
  for (auto _ : state) {
    model.set_top_boundary(boundaries[k]);
    if (full) model.set_bottom_boundary(10.0, 40.0);
    benchmark::DoNotOptimize(&model.conductance_operator());
    k ^= 1;
  }
  state.counters["cells"] = static_cast<double>(model.cell_count());
  state.SetLabel(full ? "full" : "top-only");
}
BENCHMARK(BM_TopBoundaryReassemble)
    ->Args({2000, 0})->Args({2000, 1})->Args({750, 0})->Args({750, 1})
    ->Unit(benchmark::kMicrosecond);

/// Scheduling decision only (profiling + selection + placement).
void BM_ScheduleDecision(benchmark::State& state) {
  core::ServerModel server(config_with_cell(1.5e-3));
  workload::Profiler profiler(server.power_model());
  const auto& bench = workload::find_benchmark("ferret");
  for (auto _ : state) {
    const auto profile = profiler.profile(bench, power::CState::kC1E);
    benchmark::DoNotOptimize(
        mapping::algorithm1_select(profile, workload::QoSRequirement{2.0}));
  }
}
BENCHMARK(BM_ScheduleDecision)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): strip --threads (shared bench
// flag) before Google Benchmark sees the command line.
int main(int argc, char** argv) {
  tpcool::bench::apply_threads_flag(argc, argv);
  tpcool::bench::apply_trace_file_flag(argc, argv);
  tpcool::bench::apply_cache_file_flag(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
