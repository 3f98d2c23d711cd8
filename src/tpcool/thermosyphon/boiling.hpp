#pragma once
/// \file boiling.hpp
/// \brief Flow-boiling heat-transfer correlations for the micro-channel
///        evaporator: Cooper pool-boiling nucleate term, convective
///        enhancement with vapor quality, and dry-out degradation.
///
/// These give the two-phase transfer function the mapping strategy exploits:
/// HTC rises with quality while wetted, then collapses past the dry-out
/// quality — so a channel that absorbs the heat of two active cores reaches
/// dry-out and forms a hot spot (paper §VII).

#include "tpcool/materials/refrigerant.hpp"

namespace tpcool::thermosyphon {

/// Cooper (1984) nucleate pool-boiling HTC [W/(m²·K)]:
///   h = 55 · p_r^0.12 · (−log10 p_r)^−0.55 · M^−0.5 · q''^0.67
/// \param reduced_pressure p_sat/p_crit in (0, 1).
/// \param molar_mass_g_mol fluid molar mass [g/mol].
/// \param heat_flux_w_m2 wall heat flux [W/m²]; floored at 1 kW/m².
[[nodiscard]] double cooper_htc(double reduced_pressure,
                                double molar_mass_g_mol,
                                double heat_flux_w_m2);

/// Convective-boiling enhancement factor E(x) ≥ 1 applied to the nucleate
/// term while the wall is wetted (x < x_dry).
[[nodiscard]] double convective_enhancement(double quality);

/// Partial-dryout suppression S(x/x_dry) ∈ (0, 1]: thin-film breakdown
/// degrades the wetted HTC as the quality approaches dry-out (before the
/// full post-dry-out collapse). S = 1 below 65 % of x_dry, falling to 0.3
/// at x = x_dry.
[[nodiscard]] double near_dryout_suppression(double quality,
                                             double dryout_quality);

/// Dry-out quality threshold as a function of filling ratio and channel
/// mass flux G [kg/(m²·s)]: low fill or low flux dries out earlier.
[[nodiscard]] double dryout_quality(double filling_ratio,
                                    double mass_flux_kg_m2s);

/// Post-dry-out HTC decay: multiplies the wetted HTC by a factor that decays
/// exponentially past x_dry, floored at the vapor-phase convection HTC.
[[nodiscard]] double post_dryout_htc(double wet_htc_w_m2k, double quality,
                                     double dryout_quality);

/// Single-phase liquid laminar convection HTC in the channel (Nu = 4.36).
[[nodiscard]] double single_phase_liquid_htc(
    const materials::Refrigerant& fluid, double t_sat_c,
    double hydraulic_diameter_m);

/// Mist/vapor-phase convection floor after complete dry-out [W/(m²·K)]
/// (micro-channel mist flow retains a few kW/m²K of droplet cooling).
inline constexpr double kVaporHtcW_m2K = 4000.0;

/// Local two-phase HTC combining all regimes.
[[nodiscard]] double local_htc(const materials::Refrigerant& fluid,
                               double t_sat_c, double quality,
                               double heat_flux_w_m2, double mass_flux_kg_m2s,
                               double filling_ratio,
                               double hydraulic_diameter_m);

/// The terms of local_htc that depend only on the saturation temperature
/// (and the fixed fluid and channel section), evaluated once per
/// saturation state instead of once per channel segment.
struct SaturationTerms {
  /// Cooper's flux-independent factor 55 · p_r^0.12 · (−log10 p_r)^−0.55
  /// · M^−0.5, multiplied in that order, as cooper_htc does.
  double cooper_prefactor = 0.0;
  double liquid_htc_w_m2k = 0.0;  ///< single_phase_liquid_htc at t_sat.
};

/// Evaluate the saturation terms, running the same checks as cooper_htc
/// and single_phase_liquid_htc.
[[nodiscard]] SaturationTerms saturation_terms(
    const materials::Refrigerant& fluid, double t_sat_c,
    double hydraulic_diameter_m);

/// local_htc from precomputed saturation terms and dry-out quality:
/// bit-identical to the fluid-level overload at the same state.
[[nodiscard]] double local_htc(const SaturationTerms& saturation,
                               double quality, double heat_flux_w_m2,
                               double dryout_quality);

}  // namespace tpcool::thermosyphon
