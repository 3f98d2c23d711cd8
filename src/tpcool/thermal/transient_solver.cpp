#include "tpcool/thermal/grid.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::thermal {

void ThermalModel::step_transient(const std::vector<double>& from,
                                  std::vector<double>& t, double dt_s,
                                  double tolerance) const {
  TPCOOL_REQUIRE(dt_s > 0.0, "time step must be positive");
  // A counter, not a span: adaptive segments take thousands of steps and
  // each one already shows up as a "cg" span underneath.
  if (util::telemetry_enabled()) {
    static util::TelemetryCounter& steps =
        util::Telemetry::instance().counter("thermal.transient_steps");
    steps.add(1.0);
  }
  assemble();
  const std::size_t n = cell_count();
  TPCOOL_REQUIRE(from.size() == n && t.size() == n,
                 "state vector size mismatch");

  // Backward Euler: (C/dt + G)·T⁺ = C/dt·T + P + boundary.
  // G is the assembled steady operator; C/dt is diagonal, so the step
  // operator is the same 7-point stencil with a shifted diagonal — copy
  // the bands and augment, then reuse the shared PCG path.
  const double cell_area = stack_.grid.dx * stack_.grid.dy;
  std::vector<double> cdiag(n, 0.0);
  std::vector<double> rhs = boundary_rhs_;
  for (std::size_t iz = 0; iz < nz(); ++iz) {
    const double vol = cell_area * stack_.layers[iz].thickness_m;
    for (std::size_t iy = 0; iy < ny(); ++iy) {
      for (std::size_t ix = 0; ix < nx(); ++ix) {
        const std::size_t i = cell_index(ix, iy, iz);
        cdiag[i] = stack_.layers[iz].vol_heat_cap_j_m3k(ix, iy) * vol / dt_s;
        rhs[i] += cdiag[i] * from[i];
        if (iz == stack_.die_layer) rhs[i] += power_w_(ix, iy);
      }
    }
  }

  if (!step_operator_valid_) {
    step_operator_ = operator_;  // copies the bands once per assembly
    step_operator_valid_ = true;
  }
  step_operator_.set_shifted_diagonal(operator_, cdiag);

  // The CG starts from the caller's guess in `t` (the state itself for the
  // in-place form: consecutive steps differ little).  `from` is not read
  // again past this point, so it may alias `t`.
  last_stats_ = util::solve_cg(step_operator_, rhs, t,
                               {.tolerance = tolerance,
                                .max_iterations = 20000,
                                .ssor_omega = kTransientSsorOmega});
}

}  // namespace tpcool::thermal
