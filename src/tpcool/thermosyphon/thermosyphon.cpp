#include "tpcool/thermosyphon/thermosyphon.hpp"

#include <cmath>

#include "tpcool/thermosyphon/boiling.hpp"
#include "tpcool/util/error.hpp"

namespace tpcool::thermosyphon {

Thermosyphon::Thermosyphon(ThermosyphonDesign design, floorplan::GridSpec grid,
                           floorplan::Rect footprint)
    : design_(std::move(design)), grid_(grid), footprint_(footprint) {
  TPCOOL_REQUIRE(design_.refrigerant != nullptr, "design needs a refrigerant");
  TPCOOL_REQUIRE(footprint_.valid(), "invalid footprint");
  design_.evaporator.validate();
  TPCOOL_REQUIRE(design_.filling_ratio > 0.0 && design_.filling_ratio <= 1.0,
                 "filling ratio outside (0, 1]");
  // The geometry's footprint must match the rectangle the stack reserved.
  TPCOOL_REQUIRE(
      std::abs(design_.evaporator.footprint_width_m - footprint_.width()) <
              1e-6 &&
          std::abs(design_.evaporator.footprint_height_m -
                   footprint_.height()) < 1e-6,
      "evaporator geometry footprint does not match the stack footprint");

  n_channels_ = design_.evaporator.channel_count();

  // Segments follow the grid so each cell maps to exactly one segment.
  const bool east_west =
      design_.evaporator.orientation == Orientation::kEastWest;
  const double along = east_west ? footprint_.width() : footprint_.height();
  const double pitch = east_west ? grid_.dx : grid_.dy;
  n_segments_ = static_cast<std::size_t>(std::ceil(along / pitch));
  TPCOOL_ENSURE(n_segments_ >= 2, "footprint spans too few grid cells");

  column_routes_.resize(grid_.nx);
  for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
    column_routes_[ix] = column_index(ix);
  }
  row_routes_.resize(grid_.ny);
  for (std::size_t iy = 0; iy < grid_.ny; ++iy) row_routes_[iy] = row_index(iy);
}

std::optional<Thermosyphon::CellRoute> Thermosyphon::route(
    std::size_t ix, std::size_t iy) const {
  const std::optional<std::size_t>& column = column_routes_[ix];
  const std::optional<std::size_t>& row = row_routes_[iy];
  if (!column || !row) return std::nullopt;
  if (design_.evaporator.orientation == Orientation::kEastWest) {
    return CellRoute{*row, *column};
  }
  return CellRoute{*column, *row};
}

// The transverse coordinate picks the channel, clamping the fringe cells
// beyond the last full pitch into the last channel; the along-flow
// coordinate picks the segment.  Design 1 flows eastward (inlet on the
// west); design 2 flows southward (inlet on the north).
std::optional<std::size_t> Thermosyphon::column_index(std::size_t ix) const {
  const double cx = grid_.cell_rect(ix, 0).center_x();
  if (!(cx >= footprint_.x0 && cx < footprint_.x1)) return std::nullopt;
  if (design_.evaporator.orientation == Orientation::kEastWest) {
    return segment_index((cx - footprint_.x0) / footprint_.width());
  }
  return channel_index(cx - footprint_.x0);
}

std::optional<std::size_t> Thermosyphon::row_index(std::size_t iy) const {
  const double cy = grid_.cell_rect(0, iy).center_y();
  if (!(cy >= footprint_.y0 && cy < footprint_.y1)) return std::nullopt;
  if (design_.evaporator.orientation == Orientation::kEastWest) {
    return channel_index(cy - footprint_.y0);
  }
  return segment_index((footprint_.y1 - cy) / footprint_.height());
}

std::size_t Thermosyphon::channel_index(double transverse_m) const {
  auto channel =
      static_cast<std::size_t>(transverse_m / design_.evaporator.pitch_m());
  return channel >= n_channels_ ? n_channels_ - 1 : channel;
}

std::size_t Thermosyphon::segment_index(double along_frac) const {
  auto segment = static_cast<std::size_t>(
      along_frac * static_cast<double>(n_segments_));
  return segment >= n_segments_ ? n_segments_ - 1 : segment;
}

ThermosyphonState Thermosyphon::solve(const util::Grid2D<double>& heat_w,
                                      const OperatingPoint& op) const {
  TPCOOL_REQUIRE(heat_w.nx() == grid_.nx && heat_w.ny() == grid_.ny,
                 "heat map grid mismatch");
  TPCOOL_REQUIRE(op.water_flow_kg_h > 0.0, "water flow must be positive");

  ThermosyphonState state;
  state.htc_map = util::Grid2D<double>(grid_.nx, grid_.ny, 0.0);
  state.fluid_temp_map = util::Grid2D<double>(grid_.nx, grid_.ny, 0.0);

  // 1. Total load and condenser balance -> saturation temperature.
  double q_total = 0.0;
  for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
    for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
      const double q = heat_w(ix, iy);
      if (q == 0.0) continue;
      TPCOOL_REQUIRE(q >= 0.0, "negative cell heat");
      TPCOOL_REQUIRE(route(ix, iy).has_value(),
                     "heat assigned outside the evaporator footprint");
      q_total += q;
    }
  }
  state.q_total_w = q_total;

  const double c_w =
      materials::water_capacity_rate_w_k(op.water_flow_kg_h, op.water_inlet_c);
  state.t_sat_c =
      saturation_temperature_c(design_.condenser, design_.filling_ratio,
                               q_total, op.water_inlet_c, c_w);
  state.water_outlet_c = water_outlet_c(q_total, op.water_inlet_c, c_w);

  // 2. Natural-circulation mass flow at this saturation state.
  const LoopState loop = solve_loop(*design_.refrigerant, state.t_sat_c,
                                    q_total, design_.filling_ratio,
                                    design_.loop);
  state.refrigerant_flow_kg_s = loop.mass_flow_kg_s;
  state.loop_exit_quality = loop.exit_quality;

  // 3. Distribute cell heat into per-channel segment arrays (inlet→outlet).
  std::vector<std::vector<double>> channel_heat(
      n_channels_, std::vector<double>(n_segments_, 0.0));
  for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
    for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
      const double q = heat_w(ix, iy);
      if (q <= 0.0) continue;
      const auto r = route(ix, iy);
      channel_heat[r->channel][r->segment] += q;
    }
  }

  // 4. March every channel with an equal share of the loop flow (parallel
  //    channels fed from a common header).
  //    The saturation terms are shared by every channel segment.
  state.channels.resize(n_channels_);
  std::vector<ChannelProfile> profiles(n_channels_);
  const bool boiling = q_total > 1e-9 && loop.mass_flow_kg_s > 0.0;
  if (boiling) {
    const double m_ch =
        loop.mass_flow_kg_s / static_cast<double>(n_channels_);
    ChannelConditions cond;
    cond.fluid = design_.refrigerant;
    cond.t_sat_c = state.t_sat_c;
    cond.mass_flow_kg_s = m_ch;
    cond.filling_ratio = design_.filling_ratio;
    const SaturationTerms saturation =
        saturation_terms(*design_.refrigerant, state.t_sat_c,
                         design_.evaporator.hydraulic_diameter_m());
    for (std::size_t ch = 0; ch < n_channels_; ++ch) {
      profiles[ch] = march_channel(cond, design_.evaporator,
                                   channel_heat[ch], saturation);
      state.channels[ch].exit_quality = profiles[ch].exit_quality;
      state.channels[ch].absorbed_w = profiles[ch].absorbed_w;
      state.channels[ch].dried_out = profiles[ch].dried_out;
      state.any_dryout = state.any_dryout || profiles[ch].dried_out;
    }
  }

  // 5. Paint the HTC and fluid-temperature maps.  An idle loop is a
  //    stagnant liquid pool: one convection HTC everywhere.
  const double idle_htc =
      boiling ? 0.0
              : single_phase_liquid_htc(
                    *design_.refrigerant, state.t_sat_c,
                    design_.evaporator.hydraulic_diameter_m());
  for (std::size_t iy = 0; iy < grid_.ny; ++iy) {
    for (std::size_t ix = 0; ix < grid_.nx; ++ix) {
      const auto r = route(ix, iy);
      if (!r.has_value()) continue;
      state.fluid_temp_map(ix, iy) = state.t_sat_c;
      state.htc_map(ix, iy) =
          boiling ? profiles[r->channel].htc_w_m2k[r->segment] : idle_htc;
    }
  }
  return state;
}

}  // namespace tpcool::thermosyphon
