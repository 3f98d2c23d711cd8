#include "tpcool/thermal/grid.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/telemetry.hpp"

namespace tpcool::thermal {

std::vector<double> ThermalModel::solve_steady(
    const std::vector<double>& hint, double tolerance) const {
  util::TraceSpan span("steady_solve");
  assemble();
  const std::size_t n = cell_count();
  std::vector<double> rhs = boundary_rhs_;
  for (std::size_t iy = 0; iy < ny(); ++iy) {
    for (std::size_t ix = 0; ix < nx(); ++ix) {
      rhs[cell_index(ix, iy, stack_.die_layer)] += power_w_(ix, iy);
    }
  }
  std::vector<double> t = hint;
  const bool warm = t.size() == n;
  if (!warm) t.assign(n, 40.0);  // rough initial guess [°C]
  // SSOR-preconditioned CG over the banded operator; warm starts from
  // `hint` (previous fixed-point iterate or previous sweep point) cut the
  // iteration count.
  last_stats_ = util::solve_cg(
      operator_, rhs, t,
      {.tolerance = tolerance,
       .max_iterations = 50000,
       .ssor_omega = kSteadySsorOmega});
  span.arg("cells", static_cast<double>(n));
  span.arg("iterations", static_cast<double>(last_stats_.iterations));
  span.arg("residual", last_stats_.residual);
  span.arg("tolerance", tolerance);
  span.arg("warm", warm ? 1.0 : 0.0);
  return t;
}

}  // namespace tpcool::thermal
