// Tests for tpcool::util — grids, the dense solver, root finding,
// interpolation, CSV and table output. CG over the stencil operator is
// covered by stencil_solver_test.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "tpcool/util/csv.hpp"
#include "tpcool/util/error.hpp"
#include "tpcool/util/grid2d.hpp"
#include "tpcool/util/interp.hpp"
#include "tpcool/util/linear_solver.hpp"
#include "tpcool/util/rootfind.hpp"
#include "tpcool/util/table.hpp"

namespace tpcool::util {
namespace {

// ----------------------------------------------------------------- Grid2D --

TEST(Grid2D, StoresAndRetrieves) {
  Grid2D<double> g(4, 3, 1.5);
  EXPECT_EQ(g.nx(), 4u);
  EXPECT_EQ(g.ny(), 3u);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_DOUBLE_EQ(g.at(0, 0), 1.5);
  g.at(3, 2) = 7.0;
  EXPECT_DOUBLE_EQ(g(3, 2), 7.0);
}

TEST(Grid2D, RowMajorLayout) {
  Grid2D<int> g(3, 2, 0);
  g(1, 0) = 10;
  g(0, 1) = 20;
  EXPECT_EQ(g.data()[1], 10);   // x varies fastest
  EXPECT_EQ(g.data()[3], 20);
}

TEST(Grid2D, OutOfRangeThrows) {
  Grid2D<double> g(2, 2);
  EXPECT_THROW((void)g.at(2, 0), PreconditionError);
  EXPECT_THROW((void)g.at(0, 2), PreconditionError);
}

TEST(Grid2D, ZeroSizeThrows) {
  EXPECT_THROW(Grid2D<double>(0, 3), PreconditionError);
  EXPECT_THROW(Grid2D<double>(3, 0), PreconditionError);
}

TEST(Grid2D, SumMinMax) {
  Grid2D<double> g(2, 2, 1.0);
  g(1, 1) = 5.0;
  g(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(grid_sum(g), 5.0);
  EXPECT_DOUBLE_EQ(grid_max(g), 5.0);
  EXPECT_DOUBLE_EQ(grid_min(g), -2.0);
}

TEST(Grid2D, ApplyTransformsAllElements) {
  Grid2D<double> g(3, 3, 2.0);
  g.apply([](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(grid_sum(g), 9 * 4.0);
}

// ------------------------------------------------------------ solve_dense --

TEST(SolveDense, SingularThrows) {
  EXPECT_THROW(solve_dense({1.0, 2.0, 2.0, 4.0}, {1.0, 2.0}), InvariantError);
}

TEST(SolveDense, SolvesWithPivoting) {
  // Requires a row swap: the first pivot is zero.
  const std::vector<double> x = solve_dense({0.0, 1.0, 1.0, 0.0}, {3.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

// --------------------------------------------------------------- rootfind --

TEST(Bisect, FindsRootOfCubic) {
  const double r = bisect([](double x) { return x * x * x - 8.0; }, 0.0, 10.0);
  EXPECT_NEAR(r, 2.0, 1e-7);
}

TEST(Bisect, EndpointRootReturned) {
  EXPECT_DOUBLE_EQ(bisect([](double x) { return x; }, 0.0, 1.0), 0.0);
}

TEST(Bisect, NonBracketingThrows) {
  EXPECT_THROW((void)bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               PreconditionError);
}

TEST(FixedPoint, ConvergesToSqrt) {
  // Babylonian iteration for sqrt(2).
  const double r =
      fixed_point([](double x) { return 0.5 * (x + 2.0 / x); }, 1.0,
                  {.tolerance = 1e-12});
  EXPECT_NEAR(r, std::sqrt(2.0), 1e-9);
}

TEST(FixedPoint, DivergentThrows) {
  EXPECT_THROW((void)fixed_point([](double x) { return 2.0 * x + 1.0; }, 1.0,
                           {.max_iterations = 20}),
               ConvergenceError);
}

// ----------------------------------------------------------------- interp --

TEST(LinearTable, InterpolatesAndClamps) {
  const LinearTable t{{0.0, 0.0}, {1.0, 10.0}, {2.0, 40.0}};
  EXPECT_DOUBLE_EQ(t(0.5), 5.0);
  EXPECT_DOUBLE_EQ(t(1.5), 25.0);
  EXPECT_DOUBLE_EQ(t(-1.0), 0.0);   // clamped
  EXPECT_DOUBLE_EQ(t(3.0), 40.0);   // clamped
}

TEST(LinearTable, RejectsUnsortedOrDuplicateX) {
  EXPECT_THROW(LinearTable({{1.0, 0.0}, {0.0, 1.0}}), PreconditionError);
  EXPECT_THROW(LinearTable({{1.0, 0.0}, {1.0, 1.0}}), PreconditionError);
}

TEST(Clamp, Bounds) {
  EXPECT_DOUBLE_EQ(clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_THROW((void)clamp(0.0, 1.0, 0.0), PreconditionError);
}

// -------------------------------------------------------------------- csv --

TEST(CsvWriter, QuotesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b,c", "d\"e"});
  w.field(1.5).field(std::string("x"));
  w.end_row();
  const std::string out = os.str();
  EXPECT_NE(out.find("\"b,c\""), std::string::npos);
  EXPECT_NE(out.find("\"d\"\"e\""), std::string::npos);
  EXPECT_NE(out.find("1.5,x"), std::string::npos);
}

TEST(CsvWriter, GridDumpHasOneRowPerY) {
  Grid2D<double> g(3, 2, 0.0);
  std::ostringstream os;
  write_grid_csv(os, g);
  std::size_t lines = 0;
  for (const char c : os.str()) lines += (c == '\n');
  EXPECT_EQ(lines, 2u);
}

// ------------------------------------------------------------------ table --

TEST(TablePrinter, AlignsAndCounts) {
  TablePrinter t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("longer-name"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one-column"}), PreconditionError);
}

TEST(TablePrinter, FormatsDoubles) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt(10.0, 1), "10.0");
}

TEST(TablePrinter, EmptyTablePrintsHeaderOnly) {
  TablePrinter t({"alpha", "beta"});
  EXPECT_EQ(t.rows(), 0u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  // Header + underline, no data rows.
  std::size_t lines = 0;
  for (const char c : out) lines += (c == '\n');
  EXPECT_EQ(lines, 2u);
}

TEST(TablePrinter, SingleRowWiderThanHeader) {
  TablePrinter t({"h"});
  t.add_row({"a-much-wider-cell"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a-much-wider-cell"), std::string::npos);
  std::size_t lines = 0;
  for (const char c : out) lines += (c == '\n');
  EXPECT_EQ(lines, 3u);
}

// Round-trip: values written by write_grid_csv parse back to the exact grid.
TEST(CsvWriter, GridRoundTripPreservesValues) {
  Grid2D<double> g(3, 2, 0.0);
  for (std::size_t iy = 0; iy < 2; ++iy) {
    for (std::size_t ix = 0; ix < 3; ++ix) {
      g.at(ix, iy) = 10.0 * static_cast<double>(iy) +
                     static_cast<double>(ix) + 0.0625;  // exact in binary
    }
  }
  std::ostringstream os;
  write_grid_csv(os, g);

  std::istringstream is(os.str());
  std::vector<std::vector<double>> parsed;
  std::string line;
  while (std::getline(is, line)) {
    std::vector<double> row;
    std::istringstream ls(line);
    std::string cell;
    while (std::getline(ls, cell, ',')) row.push_back(std::stod(cell));
    parsed.push_back(row);
  }
  ASSERT_EQ(parsed.size(), g.ny());
  for (auto& row : parsed) ASSERT_EQ(row.size(), g.nx());
  // North row first: the last parsed line is iy = 0.
  for (std::size_t iy = 0; iy < g.ny(); ++iy) {
    for (std::size_t ix = 0; ix < g.nx(); ++ix) {
      EXPECT_DOUBLE_EQ(parsed[g.ny() - 1 - iy][ix], g.at(ix, iy))
          << "ix=" << ix << " iy=" << iy;
    }
  }
}

// Round-trip through the field API: numeric fields re-parse exactly and
// quoted strings keep their separators.
TEST(CsvWriter, FieldRowRoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.field(std::string("label,with,commas")).field(-1.25).field(3.0);
  w.end_row();
  w.row({0.5, 2.0, 100.0});
  std::istringstream is(os.str());
  std::string first, second;
  ASSERT_TRUE(static_cast<bool>(std::getline(is, first)));
  ASSERT_TRUE(static_cast<bool>(std::getline(is, second)));
  EXPECT_EQ(first.substr(0, 20), "\"label,with,commas\",");
  EXPECT_NE(first.find("-1.25"), std::string::npos);
  std::istringstream ls(second);
  std::string cell;
  std::vector<double> values;
  while (std::getline(ls, cell, ',')) values.push_back(std::stod(cell));
  EXPECT_EQ(values, (std::vector<double>{0.5, 2.0, 100.0}));
}

}  // namespace
}  // namespace tpcool::util
