// Tests for tpcool::thermosyphon — geometry, boiling correlations, channel
// marching, condenser, natural-circulation loop, and the bound Thermosyphon
// model including dry-out behaviour and the filling-ratio optimum.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tpcool/thermosyphon/boiling.hpp"
#include "tpcool/thermosyphon/channel.hpp"
#include "tpcool/thermosyphon/condenser.hpp"
#include "tpcool/thermosyphon/geometry.hpp"
#include "tpcool/thermosyphon/loop.hpp"
#include "tpcool/thermosyphon/thermosyphon.hpp"
#include "tpcool/util/error.hpp"

namespace tpcool::thermosyphon {
namespace {

using materials::r236fa;

// --------------------------------------------------------------- geometry --

TEST(Geometry, ChannelCountDependsOnOrientation) {
  EvaporatorGeometry g;  // 44 × 42 mm footprint, 1.2 mm pitch
  g.orientation = Orientation::kEastWest;
  const std::size_t ew = g.channel_count();
  g.orientation = Orientation::kNorthSouth;
  const std::size_t ns = g.channel_count();
  EXPECT_EQ(ew, 35u);  // 42 mm transverse / 1.2 mm
  EXPECT_EQ(ns, 36u);  // 44 mm transverse / 1.2 mm
  EXPECT_NE(ew, ns);   // §VI-A: orientation changes the channel count
}

TEST(Geometry, ChannelLengthFollowsFlowDirection) {
  EvaporatorGeometry g;
  g.orientation = Orientation::kEastWest;
  EXPECT_DOUBLE_EQ(g.channel_length_m(), 44.0e-3);
  g.orientation = Orientation::kNorthSouth;
  EXPECT_DOUBLE_EQ(g.channel_length_m(), 42.0e-3);
}

TEST(Geometry, HydraulicDiameter) {
  EvaporatorGeometry g;
  const double expected = 2.0 * 0.8e-3 * 1.5e-3 / (0.8e-3 + 1.5e-3);
  EXPECT_NEAR(g.hydraulic_diameter_m(), expected, 1e-12);
}

// ---------------------------------------------------------------- boiling --

TEST(Boiling, CooperIncreasesWithFlux) {
  const double low = cooper_htc(0.1, 152.0, 5.0e4);
  const double high = cooper_htc(0.1, 152.0, 2.0e5);
  EXPECT_GT(high, low);
  // q^0.67 scaling.
  EXPECT_NEAR(high / low, std::pow(4.0, 0.67), 1e-9);
}

TEST(Boiling, CooperMagnitudeReasonable) {
  // R236fa-class fluid at typical evaporator flux: 5–30 kW/m²K.
  const double h = cooper_htc(r236fa().reduced_pressure(40.0),
                              r236fa().molar_mass_g_mol(), 1.0e5);
  EXPECT_GT(h, 5.0e3);
  EXPECT_LT(h, 3.0e4);
}

TEST(Boiling, CooperIsTheLeftToRightProductBitwise) {
  // The hoisted solve multiplies a cached ((55·a)·b)·c by q^0.67; that is
  // only the same double because cooper_htc evaluates left to right.
  for (const double pr : {0.05, 0.1, 0.3}) {
    for (const double q : {10.0, 5.0e4, 2.0e5}) {
      const double literal = 55.0 * std::pow(pr, 0.12) *
                             std::pow(-std::log10(pr), -0.55) *
                             std::pow(152.04, -0.5) *
                             std::pow(std::max(q, 1.0e3), 0.67);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(cooper_htc(pr, 152.04, q)),
                std::bit_cast<std::uint64_t>(literal));
    }
  }
}

TEST(Boiling, CooperRejectsBadInputs) {
  EXPECT_THROW((void)cooper_htc(0.0, 152.0, 1e5), util::PreconditionError);
  EXPECT_THROW((void)cooper_htc(1.0, 152.0, 1e5), util::PreconditionError);
  EXPECT_THROW((void)cooper_htc(0.1, -1.0, 1e5), util::PreconditionError);
}

TEST(Boiling, EnhancementMonotoneInQuality) {
  double prev = convective_enhancement(0.0);
  EXPECT_DOUBLE_EQ(prev, 1.0);
  for (double x = 0.1; x <= 1.0; x += 0.1) {
    const double e = convective_enhancement(x);
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST(Boiling, DryoutQualityGrowsWithFillAndFlux) {
  EXPECT_LT(dryout_quality(0.35, 50.0), dryout_quality(0.55, 50.0));
  EXPECT_LT(dryout_quality(0.55, 20.0), dryout_quality(0.55, 300.0));
  EXPECT_GE(dryout_quality(0.05, 0.0), 0.25);
  EXPECT_LE(dryout_quality(1.0, 1e4), 0.95);
}

TEST(Boiling, SuppressionKicksInNearDryout) {
  const double x_dry = 0.5;
  EXPECT_DOUBLE_EQ(near_dryout_suppression(0.1, x_dry), 1.0);
  EXPECT_DOUBLE_EQ(near_dryout_suppression(0.2, x_dry), 1.0);
  EXPECT_LT(near_dryout_suppression(0.4, x_dry), 1.0);
  EXPECT_NEAR(near_dryout_suppression(0.5, x_dry), 0.3, 1e-9);
}

TEST(Boiling, LocalHtcCollapsesPastDryout) {
  const double x_dry = dryout_quality(0.55, 50.0);
  const double wet = local_htc(r236fa(), 40.0, x_dry * 0.5, 1e5, 50.0, 0.55,
                               1.0e-3);
  const double dry = local_htc(r236fa(), 40.0,
                               std::min(x_dry + 0.25, 1.0), 1e5, 50.0, 0.55,
                               1.0e-3);
  EXPECT_GT(wet, 3.0 * dry);
  EXPECT_GE(dry, kVaporHtcW_m2K);
}

TEST(Boiling, SinglePhaseLaminarFloor) {
  const double h = single_phase_liquid_htc(r236fa(), 35.0, 1.0e-3);
  EXPECT_NEAR(h, 4.36 * r236fa().liquid_conductivity_w_mk(35.0) / 1.0e-3,
              1e-9);
}

// ---------------------------------------------------------------- channel --

TEST(Channel, QualityGrowsMonotonically) {
  ChannelConditions cond;
  cond.fluid = &r236fa();
  cond.t_sat_c = 40.0;
  cond.mass_flow_kg_s = 5e-5;
  EvaporatorGeometry geom;
  const std::vector<double> heat(20, 0.2);  // 4 W total
  const ChannelProfile p = march_channel(cond, geom, heat);
  ASSERT_EQ(p.quality.size(), 20u);
  for (std::size_t i = 1; i < p.quality.size(); ++i) {
    EXPECT_GE(p.quality[i], p.quality[i - 1]);
  }
  EXPECT_DOUBLE_EQ(p.absorbed_w, 4.0);
}

TEST(Channel, EnergyBalanceSetsExitQuality) {
  ChannelConditions cond;
  cond.fluid = &r236fa();
  cond.t_sat_c = 40.0;
  cond.mass_flow_kg_s = 1e-4;
  EvaporatorGeometry geom;
  const double q_total = 2.0;
  const std::vector<double> heat(10, q_total / 10.0);
  const ChannelProfile p = march_channel(cond, geom, heat);
  const double expected =
      q_total / (cond.mass_flow_kg_s * r236fa().latent_heat_j_kg(40.0));
  EXPECT_NEAR(p.exit_quality, expected, 1e-9);
}

TEST(Channel, OverloadedChannelDriesOut) {
  ChannelConditions cond;
  cond.fluid = &r236fa();
  cond.t_sat_c = 40.0;
  cond.mass_flow_kg_s = 2e-5;  // starved channel
  EvaporatorGeometry geom;
  const std::vector<double> heat(10, 0.5);  // 5 W >> ṁ·h_fg margin
  const ChannelProfile p = march_channel(cond, geom, heat);
  EXPECT_TRUE(p.dried_out);
  // HTC in the dried tail must be far below the wetted peak.
  EXPECT_GT(*std::max_element(p.htc_w_m2k.begin(), p.htc_w_m2k.end()),
            3.0 * p.htc_w_m2k.back());
}

TEST(Channel, ZeroHeatKeepsLiquid) {
  ChannelConditions cond;
  cond.fluid = &r236fa();
  cond.mass_flow_kg_s = 1e-4;
  EvaporatorGeometry geom;
  const ChannelProfile p = march_channel(cond, geom, std::vector<double>(5, 0.0));
  EXPECT_DOUBLE_EQ(p.exit_quality, 0.0);
  EXPECT_FALSE(p.dried_out);
}

// -------------------------------------------------------------- condenser --

TEST(Condenser, EffectivenessInUnitRange) {
  const CondenserDesign d;
  const double eff = condenser_effectiveness(d, 0.55, 8.1);
  EXPECT_GT(eff, 0.8);  // NTU ≈ 3 at the paper's 7 kg/h
  EXPECT_LT(eff, 1.0);
}

TEST(Condenser, SaturationRisesWithLoad) {
  const CondenserDesign d;
  const double t1 = saturation_temperature_c(d, 0.55, 40.0, 30.0, 8.1);
  const double t2 = saturation_temperature_c(d, 0.55, 80.0, 30.0, 8.1);
  EXPECT_GT(t2, t1);
  EXPECT_GT(t1, 30.0);
}

TEST(Condenser, OverchargeDeratesUa) {
  const CondenserDesign d;
  EXPECT_DOUBLE_EQ(d.effective_ua_w_k(0.55), d.ua_w_k);
  EXPECT_LT(d.effective_ua_w_k(0.85), d.ua_w_k);
  EXPECT_GE(d.effective_ua_w_k(1.0), 0.20 * d.ua_w_k);
  // Flooding raises the required saturation temperature.
  EXPECT_GT(saturation_temperature_c(d, 0.9, 60.0, 30.0, 8.1),
            saturation_temperature_c(d, 0.55, 60.0, 30.0, 8.1));
}

TEST(Condenser, WaterOutletEnergyBalance) {
  // 7 kg/h picking up 49 W: ΔT ≈ 6 °C (the paper's §VIII-B figure).
  const double c_w = materials::water_capacity_rate_w_k(7.0, 30.0);
  EXPECT_NEAR(water_outlet_c(49.0, 30.0, c_w) - 30.0, 6.0, 0.3);
}

// ------------------------------------------------------------------- loop --

TEST(Loop, VoidFractionBounds) {
  EXPECT_DOUBLE_EQ(void_fraction(r236fa(), 40.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(void_fraction(r236fa(), 40.0, 1.0), 1.0);
  const double mid = void_fraction(r236fa(), 40.0, 0.2);
  EXPECT_GT(mid, 0.5);  // vapor occupies most volume even at modest quality
  EXPECT_LT(mid, 1.0);
}

TEST(Loop, RiserDensityDecreasesWithQuality) {
  double prev = riser_density_kg_m3(r236fa(), 40.0, 0.0);
  for (double x = 0.1; x <= 1.0; x += 0.1) {
    const double rho = riser_density_kg_m3(r236fa(), 40.0, x);
    EXPECT_LT(rho, prev);
    prev = rho;
  }
}

TEST(Loop, BalancesDriveAndFriction) {
  const LoopState s = solve_loop(r236fa(), 40.0, 79.0, 0.55);
  EXPECT_GT(s.mass_flow_kg_s, 0.0);
  EXPECT_GT(s.exit_quality, 0.0);
  EXPECT_LT(s.exit_quality, 1.0);
  EXPECT_NEAR(s.driving_pa, s.friction_pa, 1e-3 * s.driving_pa);
}

TEST(Loop, ZeroLoadNoCirculation) {
  const LoopState s = solve_loop(r236fa(), 40.0, 0.0, 0.55);
  EXPECT_DOUBLE_EQ(s.mass_flow_kg_s, 0.0);
}

TEST(Loop, UnderchargeReducesFlow) {
  const LoopState full = solve_loop(r236fa(), 40.0, 60.0, 0.55);
  const LoopState low = solve_loop(r236fa(), 40.0, 60.0, 0.25);
  EXPECT_GT(full.mass_flow_kg_s, low.mass_flow_kg_s);
}

TEST(Loop, RejectsBadArguments) {
  EXPECT_THROW((void)solve_loop(r236fa(), 40.0, -1.0, 0.55),
               util::PreconditionError);
  EXPECT_THROW((void)solve_loop(r236fa(), 40.0, 10.0, 0.0),
               util::PreconditionError);
}

// ------------------------------------------------------------ thermosyphon --

class ThermosyphonTest : public ::testing::Test {
 protected:
  static ThermosyphonDesign design(Orientation o = Orientation::kEastWest,
                                   double fr = 0.55) {
    ThermosyphonDesign d;
    d.evaporator.orientation = o;
    d.refrigerant = &r236fa();
    d.filling_ratio = fr;
    return d;
  }

  static floorplan::GridSpec grid() {
    floorplan::GridSpec g;
    g.dx = 1e-3;
    g.dy = 1e-3;
    g.nx = 45;
    g.ny = 43;
    return g;
  }

  static floorplan::Rect footprint() {
    // 44 × 42 mm footprint matching the default geometry, offset so that
    // the grid's border cells (centres at 0.5 mm) stay outside.
    return {1.0e-3, 1.0e-3, 45.0e-3, 43.0e-3};
  }

  /// Heat map with `watts` spread over a centred square block.
  static util::Grid2D<double> block_heat(double watts, std::size_t half = 8) {
    util::Grid2D<double> heat(45, 43, 0.0);
    const std::size_t cx = 22, cy = 21;
    const std::size_t n = (2 * half) * (2 * half);
    for (std::size_t iy = cy - half; iy < cy + half; ++iy) {
      for (std::size_t ix = cx - half; ix < cx + half; ++ix) {
        heat(ix, iy) = watts / static_cast<double>(n);
      }
    }
    return heat;
  }
};

TEST_F(ThermosyphonTest, EnergyAccountingConsistent) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState s = ts.solve(block_heat(60.0), {});
  EXPECT_NEAR(s.q_total_w, 60.0, 1e-9);
  double absorbed = 0.0;
  for (const auto& ch : s.channels) absorbed += ch.absorbed_w;
  EXPECT_NEAR(absorbed, 60.0, 1e-9);
  // Water-side balance: ΔT = Q / (ṁ·cp).
  const double c_w = materials::water_capacity_rate_w_k(7.0, 30.0);
  EXPECT_NEAR(s.water_outlet_c - 30.0, 60.0 / c_w, 1e-9);
}

TEST_F(ThermosyphonTest, HtcOnlyInsideFootprint) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState s = ts.solve(block_heat(40.0), {});
  // Probe the footprint interior and the package corner.
  EXPECT_GT(s.htc_map(22, 21), 1.0e3);
  EXPECT_DOUBLE_EQ(s.htc_map(0, 0), 0.0);
}

TEST_F(ThermosyphonTest, SaturationAboveWaterInlet) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState s = ts.solve(block_heat(50.0), {});
  EXPECT_GT(s.t_sat_c, 30.0);
  EXPECT_LT(s.t_sat_c, 60.0);
}

TEST_F(ThermosyphonTest, MoreWaterFlowLowersSaturation) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState slow =
      ts.solve(block_heat(50.0), {.water_flow_kg_h = 4.0});
  const ThermosyphonState fast =
      ts.solve(block_heat(50.0), {.water_flow_kg_h = 20.0});
  EXPECT_GT(slow.t_sat_c, fast.t_sat_c);
}

TEST_F(ThermosyphonTest, ConcentratedHeatDriesOutStarvedChannels) {
  const Thermosyphon ts(design(), grid(), footprint());
  // Same power, concentrated into a narrow band of channels.
  const ThermosyphonState spread = ts.solve(block_heat(60.0, 12), {});
  const ThermosyphonState tight = ts.solve(block_heat(60.0, 3), {});
  int spread_dry = 0, tight_dry = 0;
  double spread_max = 0.0, tight_max = 0.0;
  for (const auto& ch : spread.channels) {
    spread_dry += ch.dried_out;
    spread_max = std::max(spread_max, ch.exit_quality);
  }
  for (const auto& ch : tight.channels) {
    tight_dry += ch.dried_out;
    tight_max = std::max(tight_max, ch.exit_quality);
  }
  EXPECT_GT(tight_max, spread_max);
  EXPECT_GE(tight_dry, spread_dry);
  EXPECT_TRUE(tight.any_dryout);
}

TEST_F(ThermosyphonTest, FillingRatioOptimumNearPaperChoice) {
  // §VI-B: the paper charges at 55 %. Under-charge starves the loop (less
  // circulation, higher exit quality, earlier dry-out margin); over-charge
  // floods the condenser (higher saturation temperature). The nominal
  // charge beats both extremes on the combined figure of merit.
  const auto solve_at = [&](double fr) {
    const Thermosyphon ts(design(Orientation::kEastWest, fr), grid(),
                          footprint());
    return ts.solve(block_heat(70.0, 6), {});
  };
  const auto max_exit = [](const ThermosyphonState& s) {
    double x = 0.0;
    for (const auto& ch : s.channels) x = std::max(x, ch.exit_quality);
    return x;
  };
  const ThermosyphonState nominal = solve_at(0.55);
  const ThermosyphonState under = solve_at(0.25);
  const ThermosyphonState over = solve_at(0.95);

  // Under-charge: less circulation, deeper into dry-out.
  EXPECT_LT(under.refrigerant_flow_kg_s, nominal.refrigerant_flow_kg_s);
  EXPECT_GT(under.loop_exit_quality, nominal.loop_exit_quality);
  // Over-charge: flooded condenser raises the whole loop temperature.
  EXPECT_GT(over.t_sat_c, nominal.t_sat_c + 1.0);

  // Combined °C-equivalent score: T_sat plus a dry-out-margin penalty.
  const auto score = [&](const ThermosyphonState& s) {
    return s.t_sat_c + 10.0 * s.loop_exit_quality + 2.0 * max_exit(s);
  };
  EXPECT_LT(score(nominal), score(under));
  EXPECT_LT(score(nominal), score(over));
}

TEST_F(ThermosyphonTest, HeatOutsideFootprintRejected) {
  const Thermosyphon ts(design(), grid(), footprint());
  util::Grid2D<double> heat(45, 43, 0.0);
  heat(0, 0) = 5.0;  // package corner, outside the evaporator
  EXPECT_THROW(ts.solve(heat, {}), util::PreconditionError);
}

TEST_F(ThermosyphonTest, MismatchedFootprintRejected) {
  ThermosyphonDesign d = design();
  d.evaporator.footprint_width_m = 30e-3;  // smaller than the stack's rect
  EXPECT_THROW(Thermosyphon(d, grid(), footprint()), util::PreconditionError);
}

TEST_F(ThermosyphonTest, TabulatedRouteMatchesTheGeometricRoute) {
  // The reference: route each cell from its centre, as a per-cell
  // computation (Thermosyphon tabulates columns and rows instead).
  for (const Orientation o :
       {Orientation::kEastWest, Orientation::kNorthSouth}) {
    const Thermosyphon ts(design(o), grid(), footprint());
    const floorplan::Rect fp = footprint();
    const bool east_west = o == Orientation::kEastWest;
    const double pitch = ts.design().evaporator.pitch_m();
    const std::size_t n_channels = ts.design().evaporator.channel_count();
    const std::size_t n_segments = ts.segment_count();
    std::size_t routed = 0;
    for (std::size_t iy = 0; iy < grid().ny; ++iy) {
      for (std::size_t ix = 0; ix < grid().nx; ++ix) {
        const floorplan::Rect cell = grid().cell_rect(ix, iy);
        const double cx = cell.center_x();
        const double cy = cell.center_y();
        std::optional<Thermosyphon::CellRoute> expected;
        if (fp.contains(cx, cy)) {
          const double transverse = east_west ? cy - fp.y0 : cx - fp.x0;
          const double along_frac = east_west ? (cx - fp.x0) / fp.width()
                                              : (fp.y1 - cy) / fp.height();
          expected = Thermosyphon::CellRoute{
              std::min(static_cast<std::size_t>(transverse / pitch),
                       n_channels - 1),
              std::min(static_cast<std::size_t>(
                           along_frac * static_cast<double>(n_segments)),
                       n_segments - 1)};
          ++routed;
        }
        EXPECT_EQ(ts.route(ix, iy), expected) << "cell (" << ix << ", " << iy
                                              << ")";
      }
    }
    EXPECT_EQ(routed, 44u * 42u);  // every cell centre in the footprint
  }
}

TEST_F(ThermosyphonTest, HtcMapMatchesThePerSegmentLocalHtcBitwise) {
  // The solve hoists every saturation-state term out of the channel march;
  // the reference rebuilds each segment's HTC with the fluid-level
  // local_htc, from march_channel's qualities, over the idle loop, normal
  // boiling and dry-out.
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const Orientation o :
       {Orientation::kEastWest, Orientation::kNorthSouth}) {
    const Thermosyphon ts(design(o), grid(), footprint());
    const EvaporatorGeometry& geom = ts.design().evaporator;
    const std::size_t n_channels = geom.channel_count();
    const std::size_t n_segments = ts.segment_count();
    const double d_h = geom.hydraulic_diameter_m();
    int regime = 0;  // 0 idle, 1 boiling, 2 dry-out
    for (const util::Grid2D<double>& heat :
         {util::Grid2D<double>(45, 43, 0.0), block_heat(20.0, 12),
          block_heat(60.0, 3)}) {
      SCOPED_TRACE("regime " + std::to_string(regime));
      const ThermosyphonState s = ts.solve(heat, {});
      EXPECT_EQ(s.q_total_w > 0.0, regime > 0);
      EXPECT_EQ(s.any_dryout, regime == 2);
      ++regime;

      std::vector<std::vector<double>> reference(n_channels);
      if (s.q_total_w > 0.0) {
        std::vector<std::vector<double>> channel_heat(
            n_channels, std::vector<double>(n_segments, 0.0));
        for (std::size_t iy = 0; iy < grid().ny; ++iy) {
          for (std::size_t ix = 0; ix < grid().nx; ++ix) {
            const auto r = ts.route(ix, iy);
            if (heat(ix, iy) > 0.0) {
              channel_heat[r->channel][r->segment] += heat(ix, iy);
            }
          }
        }
        ChannelConditions cond;
        cond.fluid = &r236fa();
        cond.t_sat_c = s.t_sat_c;
        cond.mass_flow_kg_s =
            s.refrigerant_flow_kg_s / static_cast<double>(n_channels);
        cond.filling_ratio = 0.55;
        const double seg_area =
            geom.heated_width_m() *
            (geom.channel_length_m() / static_cast<double>(n_segments));
        const double mass_flux =
            cond.mass_flow_kg_s / geom.channel_flow_area_m2();
        for (std::size_t ch = 0; ch < n_channels; ++ch) {
          const ChannelProfile profile =
              march_channel(cond, geom, channel_heat[ch]);
          for (std::size_t seg = 0; seg < n_segments; ++seg) {
            reference[ch].push_back(local_htc(
                r236fa(), s.t_sat_c, profile.quality[seg],
                channel_heat[ch][seg] / seg_area, mass_flux, 0.55, d_h));
          }
        }
      }
      const double idle = single_phase_liquid_htc(r236fa(), s.t_sat_c, d_h);
      for (std::size_t iy = 0; iy < grid().ny; ++iy) {
        for (std::size_t ix = 0; ix < grid().nx; ++ix) {
          const auto r = ts.route(ix, iy);
          const double expected =
              !r ? 0.0
                 : (s.q_total_w > 0.0 ? reference[r->channel][r->segment]
                                      : idle);
          ASSERT_EQ(bits(s.htc_map(ix, iy)), bits(expected))
              << "cell (" << ix << ", " << iy << ")";
        }
      }
    }
  }
}

TEST_F(ThermosyphonTest, ZeroLoadGivesStagnantPoolHtc) {
  const Thermosyphon ts(design(), grid(), footprint());
  const ThermosyphonState s = ts.solve(util::Grid2D<double>(45, 43, 0.0), {});
  EXPECT_DOUBLE_EQ(s.q_total_w, 0.0);
  EXPECT_GT(s.htc_map(22, 21), 100.0);   // liquid-pool convection floor
  EXPECT_LT(s.htc_map(22, 21), 2000.0);
}

}  // namespace
}  // namespace tpcool::thermosyphon
