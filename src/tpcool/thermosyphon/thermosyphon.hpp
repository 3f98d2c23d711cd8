#pragma once
/// \file thermosyphon.hpp
/// \brief The complete two-phase thermosyphon model: given a heat map into
///        the evaporator and a coolant operating point, compute the loop
///        state and the per-cell heat-transfer coefficient map that the
///        thermal solver uses as its top boundary condition.

#include <optional>
#include <vector>

#include "tpcool/floorplan/power_map.hpp"
#include "tpcool/materials/refrigerant.hpp"
#include "tpcool/materials/water.hpp"
#include "tpcool/thermosyphon/channel.hpp"
#include "tpcool/thermosyphon/condenser.hpp"
#include "tpcool/thermosyphon/geometry.hpp"
#include "tpcool/thermosyphon/loop.hpp"
#include "tpcool/util/grid2d.hpp"

namespace tpcool::thermosyphon {

/// Design-time parameters (fixed once the device is manufactured, §VI).
struct ThermosyphonDesign {
  EvaporatorGeometry evaporator;
  const materials::Refrigerant* refrigerant = &materials::r236fa();
  double filling_ratio = 0.55;   ///< Paper's selected charge for R236fa.
  CondenserDesign condenser;
  LoopDesign loop;
};

/// Runtime-adjustable parameters (valve + chiller setpoint, §VI-C).
struct OperatingPoint {
  double water_flow_kg_h = 7.0;   ///< Paper's design flow rate.
  double water_inlet_c = 30.0;    ///< Paper's design water temperature.
};

/// Per-channel diagnostic after a solve.
struct ChannelSummary {
  double exit_quality = 0.0;
  double absorbed_w = 0.0;
  bool dried_out = false;
};

/// Converged thermosyphon state for one heat map.
struct ThermosyphonState {
  double t_sat_c = 0.0;                ///< Loop saturation temperature.
  double refrigerant_flow_kg_s = 0.0;
  double loop_exit_quality = 0.0;
  double water_outlet_c = 0.0;
  double q_total_w = 0.0;
  util::Grid2D<double> htc_map;        ///< Per-cell top HTC [W/m²K].
  util::Grid2D<double> fluid_temp_map; ///< Per-cell fluid temperature [°C].
  std::vector<ChannelSummary> channels;
  bool any_dryout = false;
};

/// Thermosyphon bound to a thermal-grid footprint.
///
/// Construction fixes the design, the package-plane grid, and the evaporator
/// footprint rectangle (package coordinates). `solve()` may then be called
/// with any heat map on that grid.
class Thermosyphon {
 public:
  Thermosyphon(ThermosyphonDesign design, floorplan::GridSpec grid,
               floorplan::Rect footprint);

  [[nodiscard]] const ThermosyphonDesign& design() const noexcept {
    return design_;
  }
  [[nodiscard]] const floorplan::Rect& footprint() const noexcept {
    return footprint_;
  }
  /// Along-flow segments per channel (one per grid pitch).
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return n_segments_;
  }

  /// Solve the loop for `heat_w` (W per grid cell entering the evaporator;
  /// cells outside the footprint must carry no heat).
  [[nodiscard]] ThermosyphonState solve(const util::Grid2D<double>& heat_w,
                                        const OperatingPoint& op) const;

  /// The channel and along-flow segment a grid cell feeds.
  struct CellRoute {
    std::size_t channel;
    std::size_t segment;
    bool operator==(const CellRoute&) const = default;
  };
  /// Channel/segment of cell (ix < nx, iy < ny), or nullopt when its centre
  /// lies outside the footprint.  Routing is separable — a cell's column
  /// decides the x half of the footprint test and one of its two indices,
  /// its row the rest — so this reads two tables built at construction.
  [[nodiscard]] std::optional<CellRoute> route(std::size_t ix,
                                               std::size_t iy) const;

 private:
  /// The column and row halves of a route: nullopt when the cell centre
  /// lies outside the footprint on that axis, else the channel or segment
  /// index the axis picks.
  [[nodiscard]] std::optional<std::size_t> column_index(std::size_t ix) const;
  [[nodiscard]] std::optional<std::size_t> row_index(std::size_t iy) const;
  [[nodiscard]] std::size_t channel_index(double transverse_m) const;
  [[nodiscard]] std::size_t segment_index(double along_frac) const;

  ThermosyphonDesign design_;
  floorplan::GridSpec grid_;
  floorplan::Rect footprint_;
  std::size_t n_channels_;
  std::size_t n_segments_;
  std::vector<std::optional<std::size_t>> column_routes_;  ///< Per ix.
  std::vector<std::optional<std::size_t>> row_routes_;     ///< Per iy.
};

}  // namespace tpcool::thermosyphon
