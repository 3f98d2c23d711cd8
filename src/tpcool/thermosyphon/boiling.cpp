#include "tpcool/thermosyphon/boiling.hpp"

#include <algorithm>
#include <cmath>

#include "tpcool/util/error.hpp"
#include "tpcool/util/interp.hpp"

namespace tpcool::thermosyphon {

namespace {

/// Cooper's correlation without its flux factor.  The full product is
/// evaluated left to right, so prefactor · q^0.67 is the same double.
double cooper_prefactor(double reduced_pressure, double molar_mass_g_mol) {
  TPCOOL_REQUIRE(reduced_pressure > 0.0 && reduced_pressure < 1.0,
                 "reduced pressure outside (0, 1)");
  TPCOOL_REQUIRE(molar_mass_g_mol > 0.0, "molar mass must be positive");
  return 55.0 * std::pow(reduced_pressure, 0.12) *
         std::pow(-std::log10(reduced_pressure), -0.55) *
         std::pow(molar_mass_g_mol, -0.5);
}

double cooper_flux_factor(double heat_flux_w_m2) {
  const double q = std::max(heat_flux_w_m2, 1.0e3);
  return std::pow(q, 0.67);
}

}  // namespace

double cooper_htc(double reduced_pressure, double molar_mass_g_mol,
                  double heat_flux_w_m2) {
  return cooper_prefactor(reduced_pressure, molar_mass_g_mol) *
         cooper_flux_factor(heat_flux_w_m2);
}

double convective_enhancement(double quality) {
  TPCOOL_REQUIRE(quality >= 0.0 && quality <= 1.0, "quality outside [0, 1]");
  // Monotone increase while wetted; calibrated so the enhancement roughly
  // doubles the nucleate HTC near x ≈ 0.6 (typical of HFC micro-channels).
  return 1.0 + 2.0 * std::pow(quality, 0.85);
}

double near_dryout_suppression(double quality, double dryout_q) {
  TPCOOL_REQUIRE(dryout_q > 0.0, "dry-out quality must be positive");
  const double r = util::clamp(quality / dryout_q, 0.0, 1.0);
  if (r <= 0.45) return 1.0;
  const double t = (r - 0.45) / 0.55;
  return 1.0 - 0.7 * t * t;
}

double dryout_quality(double filling_ratio, double mass_flux_kg_m2s) {
  TPCOOL_REQUIRE(filling_ratio > 0.0 && filling_ratio <= 1.0,
                 "filling ratio outside (0, 1]");
  TPCOOL_REQUIRE(mass_flux_kg_m2s >= 0.0, "negative mass flux");
  // Low charge starves the evaporator (earlier dry-out); more flux re-wets.
  const double base = 0.28 + 0.40 * filling_ratio;
  const double flux_bonus = 0.10 * std::min(mass_flux_kg_m2s / 200.0, 1.0);
  return util::clamp(base + flux_bonus, 0.25, 0.95);
}

double post_dryout_htc(double wet_htc_w_m2k, double quality,
                       double dryout_q) {
  TPCOOL_REQUIRE(quality >= dryout_q, "not past dry-out");
  const double decay = std::exp(-(quality - dryout_q) / 0.08);
  return std::max(wet_htc_w_m2k * decay, kVaporHtcW_m2K);
}

double single_phase_liquid_htc(const materials::Refrigerant& fluid,
                               double t_sat_c, double hydraulic_diameter_m) {
  TPCOOL_REQUIRE(hydraulic_diameter_m > 0.0, "diameter must be positive");
  constexpr double kNuLaminar = 4.36;  // constant-flux laminar duct flow
  return kNuLaminar * fluid.liquid_conductivity_w_mk(t_sat_c) /
         hydraulic_diameter_m;
}

double local_htc(const materials::Refrigerant& fluid, double t_sat_c,
                 double quality, double heat_flux_w_m2,
                 double mass_flux_kg_m2s, double filling_ratio,
                 double hydraulic_diameter_m) {
  const SaturationTerms saturation =
      saturation_terms(fluid, t_sat_c, hydraulic_diameter_m);
  const double x_dry = dryout_quality(filling_ratio, mass_flux_kg_m2s);
  return local_htc(saturation, quality, heat_flux_w_m2, x_dry);
}

SaturationTerms saturation_terms(const materials::Refrigerant& fluid,
                                 double t_sat_c,
                                 double hydraulic_diameter_m) {
  SaturationTerms terms;
  terms.cooper_prefactor = cooper_prefactor(fluid.reduced_pressure(t_sat_c),
                                            fluid.molar_mass_g_mol());
  terms.liquid_htc_w_m2k =
      single_phase_liquid_htc(fluid, t_sat_c, hydraulic_diameter_m);
  return terms;
}

double local_htc(const SaturationTerms& saturation, double quality,
                 double heat_flux_w_m2, double x_dry) {
  const double q = util::clamp(quality, 0.0, 1.0);
  const double h_nucleate =
      saturation.cooper_prefactor * cooper_flux_factor(heat_flux_w_m2);
  const double h_liquid = saturation.liquid_htc_w_m2k;
  if (q < 1e-6) {
    // Subcooled/incipient region: nucleate term blended with liquid floor.
    return std::max(h_nucleate, h_liquid);
  }
  const double h_wet = h_nucleate *
                       convective_enhancement(std::min(q, x_dry)) *
                       near_dryout_suppression(std::min(q, x_dry), x_dry);
  if (q <= x_dry) return std::max(h_wet, h_liquid);
  return post_dryout_htc(h_wet, q, x_dry);
}

}  // namespace tpcool::thermosyphon
