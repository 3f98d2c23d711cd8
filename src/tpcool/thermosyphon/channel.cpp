#include "tpcool/thermosyphon/channel.hpp"

#include <cmath>

#include "tpcool/thermosyphon/boiling.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/interp.hpp"

namespace tpcool::thermosyphon {

namespace {

void require_valid(const ChannelConditions& conditions,
                   const EvaporatorGeometry& geometry,
                   const std::vector<double>& heat_per_segment_w) {
  TPCOOL_REQUIRE(conditions.fluid != nullptr, "channel needs a refrigerant");
  TPCOOL_REQUIRE(conditions.mass_flow_kg_s > 0.0,
                 "channel mass flow must be positive");
  TPCOOL_REQUIRE(conditions.inlet_quality >= 0.0 &&
                     conditions.inlet_quality < 1.0,
                 "inlet quality outside [0, 1)");
  TPCOOL_REQUIRE(!heat_per_segment_w.empty(), "channel needs segments");
  geometry.validate();
}

ChannelProfile march(const ChannelConditions& conditions,
                     const EvaporatorGeometry& geometry,
                     const std::vector<double>& heat_per_segment_w,
                     const SaturationTerms& saturation) {
  const materials::Refrigerant& fluid = *conditions.fluid;
  const double h_fg = fluid.latent_heat_j_kg(conditions.t_sat_c);
  const double seg_len =
      geometry.channel_length_m() / static_cast<double>(heat_per_segment_w.size());
  const double seg_base_area = geometry.heated_width_m() * seg_len;
  const double mass_flux =
      conditions.mass_flow_kg_s / geometry.channel_flow_area_m2();

  ChannelProfile profile;
  profile.quality.reserve(heat_per_segment_w.size());
  profile.htc_w_m2k.reserve(heat_per_segment_w.size());

  const double x_dry =
      dryout_quality(conditions.filling_ratio, mass_flux);

  double x = conditions.inlet_quality;
  for (const double q_w : heat_per_segment_w) {
    TPCOOL_REQUIRE(q_w >= 0.0, "negative segment heat");
    // Quality at the segment centre, then advance across the segment.
    const double dx = q_w / (conditions.mass_flow_kg_s * h_fg);
    const double x_mid = util::clamp(x + 0.5 * dx, 0.0, 1.0);
    const double flux = q_w / seg_base_area;
    profile.quality.push_back(x_mid);
    profile.htc_w_m2k.push_back(local_htc(saturation, x_mid, flux, x_dry));
    if (x_mid > x_dry) profile.dried_out = true;
    x = util::clamp(x + dx, 0.0, 1.0);
    profile.absorbed_w += q_w;
  }
  profile.exit_quality = x;
  return profile;
}

}  // namespace

ChannelProfile march_channel(const ChannelConditions& conditions,
                             const EvaporatorGeometry& geometry,
                             const std::vector<double>& heat_per_segment_w) {
  require_valid(conditions, geometry, heat_per_segment_w);
  return march(conditions, geometry, heat_per_segment_w,
               saturation_terms(*conditions.fluid, conditions.t_sat_c,
                                geometry.hydraulic_diameter_m()));
}

ChannelProfile march_channel(const ChannelConditions& conditions,
                             const EvaporatorGeometry& geometry,
                             const std::vector<double>& heat_per_segment_w,
                             const SaturationTerms& saturation) {
  require_valid(conditions, geometry, heat_per_segment_w);
  return march(conditions, geometry, heat_per_segment_w, saturation);
}

}  // namespace tpcool::thermosyphon
