#include "tpcool/thermosyphon/loop.hpp"

#include <cmath>

#include "tpcool/util/error.hpp"
#include "tpcool/util/interp.hpp"
#include "tpcool/util/rootfind.hpp"

namespace tpcool::thermosyphon {

namespace {

constexpr double kGravity = 9.80665;  // m/s²

// The saturated densities as operands, so solve_loop's bisection
// evaluates them once per solve rather than once per step.
double void_fraction(double rho_l, double rho_v, double quality) {
  const double x = util::clamp(quality, 0.0, 1.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double rho_ratio = rho_v / rho_l;
  return 1.0 / (1.0 + ((1.0 - x) / x) * rho_ratio);
}

double riser_density(double rho_l, double rho_v, double quality) {
  const double alpha = void_fraction(rho_l, rho_v, quality);
  return alpha * rho_v + (1.0 - alpha) * rho_l;
}

}  // namespace

double void_fraction(const materials::Refrigerant& fluid, double t_sat_c,
                     double quality) {
  return void_fraction(fluid.liquid_density_kg_m3(t_sat_c),
                       fluid.vapor_density_kg_m3(t_sat_c), quality);
}

double riser_density_kg_m3(const materials::Refrigerant& fluid,
                           double t_sat_c, double quality) {
  return riser_density(fluid.liquid_density_kg_m3(t_sat_c),
                       fluid.vapor_density_kg_m3(t_sat_c), quality);
}

LoopState solve_loop(const materials::Refrigerant& fluid, double t_sat_c,
                     double q_total_w, double filling_ratio,
                     const LoopDesign& design) {
  TPCOOL_REQUIRE(q_total_w >= 0.0, "negative heat load");
  TPCOOL_REQUIRE(filling_ratio > 0.0 && filling_ratio <= 1.0,
                 "filling ratio outside (0, 1]");
  TPCOOL_REQUIRE(design.riser_height_m > 0.0 && design.friction_coeff > 0.0,
                 "invalid loop design");

  const double h_fg = fluid.latent_heat_j_kg(t_sat_c);
  const double rho_l = fluid.liquid_density_kg_m3(t_sat_c);
  const double rho_v = fluid.vapor_density_kg_m3(t_sat_c);

  LoopState state;
  if (q_total_w < 1e-9) {
    // No load: no vapor, no circulation.
    return state;
  }

  // Undercharge shortens the liquid downcomer column that drives the flow.
  const double fill_factor = util::clamp(filling_ratio / 0.55, 0.30, 1.10);

  const auto exit_quality = [&](double m_dot) {
    return util::clamp(q_total_w / (m_dot * h_fg), 0.0, 1.0);
  };
  const auto imbalance = [&](double m_dot) {
    const double x = exit_quality(m_dot);
    const double drive = kGravity * design.riser_height_m *
                         (rho_l - riser_density(rho_l, rho_v, x)) *
                         fill_factor;
    const double phi_tp = 1.0 + 0.25 * x * (rho_l / rho_v - 1.0);
    const double friction =
        design.friction_coeff * m_dot * m_dot / rho_l * phi_tp;
    return drive - friction;
  };

  // drive − friction is strictly decreasing in ṁ (more flow → less quality
  // → heavier riser; and more friction), so the root is unique.
  const double m_lo = 1e-7;
  double m_hi = 1.0;
  TPCOOL_ENSURE(imbalance(m_lo) > 0.0,
                "loop cannot start: no driving head at minimum flow");
  while (imbalance(m_hi) > 0.0 && m_hi < 1e3) m_hi *= 2.0;
  const double m_dot = util::bisect(imbalance, m_lo, m_hi,
                                    {.tolerance = 1e-10, .max_iterations = 200});

  state.mass_flow_kg_s = m_dot;
  state.exit_quality = exit_quality(m_dot);
  const double x = state.exit_quality;
  state.driving_pa = kGravity * design.riser_height_m *
                     (rho_l - riser_density(rho_l, rho_v, x)) *
                     fill_factor;
  state.friction_pa = design.friction_coeff * m_dot * m_dot / rho_l *
                      (1.0 + 0.25 * x * (rho_l / rho_v - 1.0));
  return state;
}

}  // namespace tpcool::thermosyphon
