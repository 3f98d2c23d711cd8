#pragma once
/// \file grid.hpp
/// \brief 3D finite-volume thermal model: conductance assembly and boundary
///        conditions over a StackModel.
///
/// Discretization: one cell per (ix, iy, layer); 7-point stencil with
/// harmonic-mean interface conductances (exactly the compact model family of
/// 3D-ICE / HotSpot).  Temperatures are in °C (the system is linear, so the
/// Kelvin offset cancels).

#include <cstddef>
#include <vector>

#include "tpcool/thermal/stack.hpp"
#include "tpcool/util/grid2d.hpp"
#include "tpcool/util/linear_solver.hpp"
#include "tpcool/util/stencil_operator.hpp"

namespace tpcool::thermal {

/// Relative CG residual of a committed steady solve (the default of
/// ThermalModel::solve_steady; non-final coupling passes pass a looser one).
inline constexpr double kSteadyCgTolerance = 1e-8;
/// SSOR relaxation of the steady solve (swept empirically).
inline constexpr double kSteadySsorOmega = 1.7;
/// Relative CG residual of a committed backward-Euler step (the default of
/// ThermalModel::step_transient; non-final coupling passes pass a looser
/// one).
inline constexpr double kTransientCgTolerance = 1e-9;
/// SSOR relaxation of the backward-Euler step solve.
inline constexpr double kTransientSsorOmega = 1.5;

/// Convective boundary on the top surface: per-cell heat-transfer coefficient
/// and per-cell fluid temperature (the thermosyphon writes both).
struct TopBoundary {
  util::Grid2D<double> htc_w_m2k;   ///< h per cell; 0 = adiabatic cell.
  util::Grid2D<double> fluid_temp_c;
};

/// Assembled finite-volume model. Construction discretizes geometry;
/// boundary conditions and sources may be changed between solves.
class ThermalModel {
 public:
  explicit ThermalModel(StackModel stack);

  [[nodiscard]] const StackModel& stack() const noexcept { return stack_; }
  [[nodiscard]] std::size_t nx() const noexcept { return stack_.grid.nx; }
  [[nodiscard]] std::size_t ny() const noexcept { return stack_.grid.ny; }
  [[nodiscard]] std::size_t nz() const noexcept { return stack_.layer_count(); }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return nx() * ny() * nz();
  }

  [[nodiscard]] std::size_t cell_index(std::size_t ix, std::size_t iy,
                                       std::size_t iz) const {
    return (iz * ny() + iy) * nx() + ix;
  }

  /// Set the heat sources [W per cell] on the die layer.
  void set_power_map(const util::Grid2D<double>& watts);

  /// Convective top boundary (thermosyphon evaporator side).  Only the
  /// top-layer diagonal and boundary RHS depend on it, so the next solve
  /// re-assembles just those entries (bit-identical to a full assembly).
  void set_top_boundary(TopBoundary boundary);

  /// Uniform convective top boundary helper.
  void set_top_boundary_uniform(double htc_w_m2k, double fluid_temp_c);

  /// Weak convection from the substrate bottom to board ambient (a full
  /// re-assembly on the next solve).
  void set_bottom_boundary(double htc_w_m2k, double ambient_c);

  /// Solve steady state G·T = P; returns the temperature of every cell [°C].
  /// `hint` (if non-empty) warm-starts the CG iteration, which stops at the
  /// relative residual `tolerance`.
  [[nodiscard]] std::vector<double> solve_steady(
      const std::vector<double>& hint = {},
      double tolerance = kSteadyCgTolerance) const;

  /// The steady conductance operator G, assembled on demand from the
  /// current boundary state (solver microbenchmarks time kernels on it).
  [[nodiscard]] const util::StencilOperator& conductance_operator() const;

  /// Iteration/residual statistics of the most recent steady or transient
  /// solve (feeds the solver benchmarks).
  [[nodiscard]] const util::CgResult& last_solve_stats() const noexcept {
    return last_stats_;
  }

  /// Advance one backward-Euler step of length `dt_s` from state `t`
  /// (modified in place; the CG starts from `t`).  The result depends only
  /// on `t`, `dt_s` and the current boundary and power state, never on
  /// earlier calls, so a step doubling may take its full and half steps in
  /// either order.
  void step_transient(std::vector<double>& t, double dt_s) const {
    step_transient(t, t, dt_s);
  }

  /// The same step from state `from` into `t`, whose entry value is only
  /// the CG initial guess (a nearby field, e.g. the previous coupling
  /// pass's result, saves iterations).  `t` may alias `from`.  Any guess
  /// gives the same step to within the CG tolerance, the relative residual
  /// `tolerance` (a non-final transient coupling pass passes a looser one).
  void step_transient(const std::vector<double>& from, std::vector<double>& t,
                      double dt_s,
                      double tolerance = kTransientCgTolerance) const;

  /// Extract one layer of a solution as a 2D field [°C].
  [[nodiscard]] util::Grid2D<double> layer_field(const std::vector<double>& t,
                                                 std::size_t layer) const;

  /// Total heat flowing out through the top boundary for a solution [W]
  /// (energy-conservation checks).
  [[nodiscard]] double top_heat_flow_w(const std::vector<double>& t) const;

  /// Per-cell heat flow out through the top boundary [W per cell]; feeds the
  /// thermosyphon channel model in the coupled fixed-point iteration.
  [[nodiscard]] util::Grid2D<double> top_heat_flow_map_w(
      const std::vector<double>& t) const;

  /// Total source power [W].
  [[nodiscard]] double source_power_w() const;

 private:
  void assemble() const;  // lazy; depends on boundary state
  /// Rewrite the top-layer diagonal (from the cached pre-boundary values)
  /// and boundary RHS from `top_`.
  void apply_top_boundary() const;

  StackModel stack_;
  util::Grid2D<double> power_w_;
  TopBoundary top_;
  double bottom_htc_w_m2k_ = 10.0;
  double bottom_ambient_c_ = 40.0;

  // Lazily assembled operator; mutable because assembly is a cache. The
  // 7-point conductance operator is stored banded (StencilOperator), not
  // CSR: matrix-free SpMV plus SSOR sweeps over the bands.
  mutable bool dirty_ = true;       // everything needs assembly
  mutable bool top_dirty_ = false;  // only the top boundary changed
  mutable util::StencilOperator operator_{1, 1, 1};
  mutable std::vector<double> boundary_rhs_;  // G_b·T_fluid terms
  // Top-layer diagonal before the top-boundary term (nx·ny, row-major):
  // that term is the last addition to those entries in a full assembly,
  // so adding it to these values reproduces the full assembly exactly.
  mutable std::vector<double> top_base_diag_;
  mutable util::CgResult last_stats_;
  // Transient step operator (G + C/dt): bands cached from operator_, only
  // the diagonal is re-shifted per step.
  mutable util::StencilOperator step_operator_{1, 1, 1};
  mutable bool step_operator_valid_ = false;
};

}  // namespace tpcool::thermal
