#pragma once
/// \file channel.hpp
/// \brief 1D marching model of a single evaporator micro-channel: vapor
///        quality and local HTC along the flow direction.

#include <cstddef>
#include <vector>

#include "tpcool/materials/refrigerant.hpp"
#include "tpcool/thermosyphon/boiling.hpp"
#include "tpcool/thermosyphon/geometry.hpp"

namespace tpcool::thermosyphon {

/// Per-segment state of one channel after a march.
struct ChannelProfile {
  std::vector<double> quality;      ///< Vapor quality at segment centre.
  std::vector<double> htc_w_m2k;    ///< Local base-area HTC.
  double exit_quality = 0.0;
  bool dried_out = false;           ///< Any segment past the dry-out quality.
  double absorbed_w = 0.0;          ///< Total heat absorbed by the channel.
};

/// Inputs of a channel march.
struct ChannelConditions {
  const materials::Refrigerant* fluid = nullptr;
  double t_sat_c = 35.0;
  double mass_flow_kg_s = 1e-3;     ///< Flow through this channel.
  double inlet_quality = 0.0;       ///< Usually ~0 (saturated liquid return).
  double filling_ratio = 0.55;
};

/// March a channel through `heat_per_segment_w` (W absorbed per segment,
/// ordered inlet→outlet). Quality grows as dx = q/(ṁ·h_fg); local HTC uses
/// the flow-boiling correlations of boiling.hpp evaluated at each segment's
/// local heat flux (segment base area = heated_width × segment length).
[[nodiscard]] ChannelProfile march_channel(
    const ChannelConditions& conditions, const EvaporatorGeometry& geometry,
    const std::vector<double>& heat_per_segment_w);

/// The same march with the saturation terms precomputed (by
/// saturation_terms at the conditions' fluid, t_sat and the geometry's
/// hydraulic diameter), so channels sharing a saturation state share one
/// evaluation.  Bit-identical to the overload above.
[[nodiscard]] ChannelProfile march_channel(
    const ChannelConditions& conditions, const EvaporatorGeometry& geometry,
    const std::vector<double>& heat_per_segment_w,
    const SaturationTerms& saturation);

}  // namespace tpcool::thermosyphon
