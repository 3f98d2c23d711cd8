// Tests for the structured solver core: StencilOperator against a dense
// matrix assembled from its bands, ThreadPool determinism, and SSOR-PCG
// behavior on the banded operator (cross-checked against solve_dense).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "tpcool/util/error.hpp"
#include "tpcool/util/linear_solver.hpp"
#include "tpcool/util/parallel_map.hpp"
#include "tpcool/util/stencil_operator.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::util {
namespace {

/// Build a random SPD 7-point operator on an nx×ny×nz grid: random positive
/// couplings on every interior face plus a boundary-leak diagonal term, the
/// same structure the thermal assembler produces.
StencilOperator random_stencil(std::size_t nx, std::size_t ny, std::size_t nz,
                               unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> g_dist(0.1, 2.0);
  StencilOperator op(nx, ny, nz);
  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = op.cell_index(ix, iy, iz);
        if (ix + 1 < nx) op.add_coupling(i, StencilBand::kXPlus, g_dist(rng));
        if (iy + 1 < ny) op.add_coupling(i, StencilBand::kYPlus, g_dist(rng));
        if (iz + 1 < nz) op.add_coupling(i, StencilBand::kZPlus, g_dist(rng));
        op.add_to_diagonal(i, g_dist(rng));  // boundary leak keeps it SPD
      }
    }
  }
  return op;
}

std::vector<double> random_vector(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Row-major dense copy of `op`, read entry by entry through diag() and
/// offdiag(): the independent reference for multiply() and solve_cg. Each
/// band is placed only where its grid neighbour exists.
std::vector<double> to_dense(const StencilOperator& op) {
  const std::size_t n = op.size();
  const std::size_t nx = op.nx(), ny = op.ny(), nz = op.nz();
  std::vector<double> a(n * n, 0.0);
  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = op.cell_index(ix, iy, iz);
        const auto set = [&](bool exists, StencilBand band, std::size_t j) {
          if (exists) a[i * n + j] = op.offdiag(i, band);
        };
        a[i * n + i] = op.diag(i);
        set(ix > 0, StencilBand::kXMinus, i - 1);
        set(ix + 1 < nx, StencilBand::kXPlus, i + 1);
        set(iy > 0, StencilBand::kYMinus, i - nx);
        set(iy + 1 < ny, StencilBand::kYPlus, i + nx);
        set(iz > 0, StencilBand::kZMinus, i - nx * ny);
        set(iz + 1 < nz, StencilBand::kZPlus, i + nx * ny);
      }
    }
  }
  return a;
}

// ------------------------------------------- StencilOperator vs dense --

TEST(StencilOperator, MultiplyMatchesDenseOnRandomStencils) {
  for (const unsigned seed : {1u, 2u, 3u}) {
    const StencilOperator op = random_stencil(5, 4, 3, seed);
    const std::size_t n = op.size();
    const std::vector<double> a = to_dense(op);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        ASSERT_EQ(a[i * n + j], a[j * n + i]) << i << "," << j;
      }
    }
    const std::vector<double> x = random_vector(n, seed + 100);
    std::vector<double> y_stencil;
    op.multiply(x, y_stencil);
    for (std::size_t i = 0; i < n; ++i) {
      double y_dense = 0.0;
      for (std::size_t j = 0; j < n; ++j) y_dense += a[i * n + j] * x[j];
      // The entries are identical; only the accumulation order differs
      // (the dense row sums columns ascending, the stencil band-by-band),
      // so agreement is to rounding, not bitwise.
      EXPECT_NEAR(y_stencil[i], y_dense, 1e-13) << "cell " << i;
    }
  }
}

TEST(StencilOperator, BoundaryCellsHaveNoWrapAroundCoupling) {
  // A 2x2x2 grid: every cell is a boundary cell; check bands at the edges
  // are exactly zero and x-row ends do not couple across rows.
  const StencilOperator op = random_stencil(2, 2, 2, 9);
  for (std::size_t iz = 0; iz < 2; ++iz) {
    for (std::size_t iy = 0; iy < 2; ++iy) {
      EXPECT_EQ(op.offdiag(op.cell_index(0, iy, iz), StencilBand::kXMinus),
                0.0);
      EXPECT_EQ(op.offdiag(op.cell_index(1, iy, iz), StencilBand::kXPlus),
                0.0);
    }
  }
  // Cell (1,0,0) = index 1 and cell (0,1,0) = index 2 are adjacent in
  // memory but not in the grid: A e_2 must be 0 in row 1.
  std::vector<double> e2(op.size(), 0.0), y;
  e2[2] = 1.0;
  op.multiply(e2, y);
  EXPECT_EQ(y[1], 0.0);
}

TEST(StencilOperator, CouplingAtGridEdgeThrows) {
  StencilOperator op(2, 2, 1);
  EXPECT_THROW(op.add_coupling(0, StencilBand::kXMinus, 1.0),
               PreconditionError);
  EXPECT_THROW(op.add_coupling(1, StencilBand::kXPlus, 1.0),
               PreconditionError);
  EXPECT_THROW(op.add_coupling(0, StencilBand::kZPlus, 1.0),
               PreconditionError);
}

// ------------------------------------------------------ SSOR sweeps --

/// The lexicographic SSOR loop StencilOperator::ssor_apply replaced, kept
/// verbatim (bands read through the public accessors) as the bit-identity
/// reference for the wavefront sweeps.
void reference_ssor_apply(const StencilOperator& op,
                          const std::vector<double>& r, std::vector<double>& z,
                          double omega) {
  const std::size_t nx_ = op.nx(), ny_ = op.ny();
  const std::size_t n = op.size();
  const std::size_t plane = nx_ * ny_;
  const auto bands_ = [&](std::size_t band, std::size_t i) {
    return op.offdiag(i, static_cast<StencilBand>(band));
  };
  z.resize(n);

  // Forward sweep: (D + ωL) t = r.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t ix = i % nx_;
    double acc = r[i];
    if (ix > 0) acc -= omega * bands_(0, i) * z[i - 1];
    if (i >= nx_ && (i / nx_) % ny_ > 0) acc -= omega * bands_(2, i) * z[i - nx_];
    if (i >= plane) acc -= omega * bands_(4, i) * z[i - plane];
    z[i] = acc / op.diag(i);
  }
  // Scale by D: s = D t (in place).
  for (std::size_t i = 0; i < n; ++i) z[i] *= op.diag(i);
  // Backward sweep: (D + ωU) z = s.
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t ix = i % nx_;
    double acc = z[i];
    if (ix + 1 < nx_) acc -= omega * bands_(1, i) * z[i + 1];
    if ((i / nx_) % ny_ + 1 < ny_) acc -= omega * bands_(3, i) * z[i + nx_];
    if (i + plane < n) acc -= omega * bands_(5, i) * z[i + plane];
    z[i] = acc / op.diag(i);
  }
}

TEST(StencilSsor, WavefrontSweepIsBitIdenticalToLexicographicLoop) {
  struct Shape {
    std::size_t nx, ny, nz;
  };
  // ny % 4 in {0, 1, 2, 3}, each axis of length 1, x-rows shorter than the
  // wavefront, and a thermal-sized 60x61x6 grid.
  const Shape shapes[] = {{7, 8, 3},  {7, 9, 3},  {7, 10, 3}, {7, 11, 3},
                          {1, 9, 4},  {9, 1, 4},  {9, 6, 1},  {1, 1, 1},
                          {2, 7, 2},  {3, 5, 2},  {1, 1, 5},  {60, 61, 6}};
  unsigned seed = 101;
  for (const Shape& shape : shapes) {
    const StencilOperator op =
        random_stencil(shape.nx, shape.ny, shape.nz, seed++);
    const std::vector<double> r = random_vector(op.size(), seed++);
    for (const double omega : {1.0, 1.7}) {
      std::vector<double> expected, actual;
      reference_ssor_apply(op, r, expected, omega);
      op.ssor_apply(r, actual, omega);
      ASSERT_EQ(actual.size(), expected.size());
      EXPECT_EQ(std::memcmp(actual.data(), expected.data(),
                            expected.size() * sizeof(double)),
                0)
          << shape.nx << "x" << shape.ny << "x" << shape.nz
          << " omega=" << omega;
    }
  }
}

TEST(StencilSsor, RejectsZeroAndNanDiagonals) {
  const std::vector<double> r = random_vector(5 * 6 * 2, 7);
  std::vector<double> z;
  StencilOperator zero = random_stencil(5, 6, 2, 3);
  zero.add_to_diagonal(17, -zero.diag(17));
  ASSERT_EQ(zero.diag(17), 0.0);
  EXPECT_THROW(zero.ssor_apply(r, z, 1.5), InvariantError);

  StencilOperator nan = random_stencil(5, 6, 2, 3);
  nan.add_to_diagonal(59, std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(nan.ssor_apply(r, z, 1.5), InvariantError);
}

// --------------------------------------------------- CG on the stencil --

/// The package stack's shape: thin along z, with vertical conductances two
/// orders of magnitude above the lateral ones and the only boundary sink
/// on the top layer.
StencilOperator stack_like_stencil(std::size_t nx, std::size_t ny,
                                   std::size_t nz, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> g_dist(0.1, 2.0);
  StencilOperator op(nx, ny, nz);
  for (std::size_t iz = 0; iz < nz; ++iz) {
    for (std::size_t iy = 0; iy < ny; ++iy) {
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = op.cell_index(ix, iy, iz);
        if (ix + 1 < nx) op.add_coupling(i, StencilBand::kXPlus, g_dist(rng));
        if (iy + 1 < ny) op.add_coupling(i, StencilBand::kYPlus, g_dist(rng));
        if (iz + 1 < nz) {
          op.add_coupling(i, StencilBand::kZPlus, 100.0 * g_dist(rng));
        } else {
          op.add_to_diagonal(i, g_dist(rng));
        }
      }
    }
  }
  return op;
}

TEST(StencilCg, MatchesDenseSolve) {
  // SSOR-PCG against dense Gaussian elimination on a random SPD stencil
  // and on a stack-shaped one, at the transient and steady ω.
  for (const StencilOperator& op :
       {random_stencil(6, 5, 4, 11), stack_like_stencil(7, 5, 3, 42)}) {
    const std::vector<double> b = random_vector(op.size(), 13);
    const std::vector<double> x_dense = solve_dense(to_dense(op), b);
    for (const double omega : {1.5, 1.7}) {
      std::vector<double> x;
      const CgResult r =
          solve_cg(op, b, x, {.tolerance = 1e-12, .ssor_omega = omega});
      EXPECT_LE(r.residual, 1e-12);
      for (std::size_t i = 0; i < op.size(); ++i) {
        EXPECT_NEAR(x[i], x_dense[i], 1e-9 * (1.0 + std::abs(x_dense[i])))
            << op.nx() << "x" << op.ny() << "x" << op.nz() << " omega "
            << omega << " cell " << i;
      }
    }
  }
}

TEST(StencilCg, NonSpdDiagonalThrows) {
  StencilOperator op(2, 1, 1);
  op.add_to_diagonal(0, -1.0);
  op.add_to_diagonal(1, 1.0);
  std::vector<double> x;
  try {
    (void)solve_cg(op, {1.0, 1.0}, x);
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("solve_cg: non-positive diagonal"),
              std::string::npos)
        << e.what();
  }
}

TEST(StencilCg, WarmStartAtExactSolutionConvergesInZeroIterations) {
  const StencilOperator op = random_stencil(4, 4, 3, 23);
  const std::vector<double> b = random_vector(op.size(), 29);
  std::vector<double> x;
  (void)solve_cg(op, b, x, {.tolerance = 1e-12});
  std::vector<double> warm = x;
  const CgResult r = solve_cg(op, b, warm, {.tolerance = 1e-10});
  EXPECT_EQ(r.iterations, 0u);
  EXPECT_EQ(warm, x);  // untouched: already converged
}

TEST(StencilCg, ZeroRhsGivesZero) {
  const StencilOperator op = random_stencil(3, 3, 2, 31);
  std::vector<double> x(op.size(), 99.0);
  const CgResult r = solve_cg(op, std::vector<double>(op.size(), 0.0), x);
  EXPECT_EQ(r.iterations, 0u);
  for (const double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(StencilCg, OneByOneSystem) {
  StencilOperator op(1, 1, 1);
  op.add_to_diagonal(0, 4.0);
  std::vector<double> x;
  const CgResult r = solve_cg(op, {8.0}, x);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_LE(r.iterations, 1u);
}

TEST(StencilCg, NonConvergenceNamesIterationCount) {
  // An SPD system solved with an absurdly small iteration budget and an
  // unreachable tolerance must throw, and the message must carry the
  // iteration count (the satellite fix for the old silent throw path).
  const StencilOperator op = random_stencil(8, 8, 4, 37);
  const std::vector<double> b = random_vector(op.size(), 41);
  std::vector<double> x;
  try {
    (void)solve_cg(op, b, x, {.tolerance = 1e-15, .max_iterations = 2});
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("after 2 iterations"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------- ThreadPool behavior --

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, hits.size(), 37, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ReduceIsIdenticalForOneAndManyThreads) {
  // Chunked reduction with fixed boundaries: bit-identical sums no matter
  // how many threads execute the chunks.
  const std::vector<double> v = random_vector(100000, 43);
  const auto partial = [&](std::size_t lo, std::size_t hi) {
    double s = 0.0;
    for (std::size_t i = lo; i < hi; ++i) s += v[i] * 1.0000001;
    return s;
  };
  ThreadPool serial(1), threaded(4);
  const double s1 = serial.parallel_reduce(0, v.size(), 1 << 10, partial);
  const double s4 = threaded.parallel_reduce(0, v.size(), 1 << 10, partial);
  EXPECT_EQ(s1, s4);  // exact, not NEAR
}

TEST(ThreadPool, CgResultsAreIdenticalForOneAndManyThreads) {
  // End-to-end determinism: solve the same large stencil system with the
  // global pool at 1 and at 4 threads; every temperature must match
  // bitwise, and so must the iteration count.
  const StencilOperator op = random_stencil(20, 20, 6, 47);
  const std::vector<double> b = random_vector(op.size(), 53);

  ThreadPool::set_global_thread_count(1);
  std::vector<double> x1;
  const CgResult r1 = solve_cg(
      op, b, x1, {.tolerance = 1e-10});

  ThreadPool::set_global_thread_count(4);
  std::vector<double> x4;
  const CgResult r4 = solve_cg(
      op, b, x4, {.tolerance = 1e-10});
  ThreadPool::set_global_thread_count(0);  // restore default

  EXPECT_EQ(r1.iterations, r4.iterations);
  EXPECT_EQ(x1, x4);  // bitwise
}

TEST(ThreadPool, NestedParallelForCoversRangeExactlyOnce) {
  // A parallel_for issued from inside a chunk finds the pool busy and runs
  // its chunks serially on that thread.
  ThreadPool pool(4);
  std::vector<int> hits(8 * 500, 0);
  pool.parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t outer = lo; outer < hi; ++outer) {
      pool.parallel_for(
          outer * 500, (outer + 1) * 500, 37,
          [&](std::size_t a, std::size_t b) {
            for (std::size_t i = a; i < b; ++i) ++hits[i];
          });
    }
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

/// SSOR-PCG on `op` with the global pool at `threads` threads.
CgResult solve_with_threads(std::size_t threads, const StencilOperator& op,
                            const std::vector<double>& b,
                            std::vector<double>& x) {
  ThreadPool::set_global_thread_count(threads);
  return solve_cg(op, b, x,
                  {.tolerance = 1e-10});
}

TEST(ThreadPool, CgAboveVectorGrainIsIdenticalForOneAndManyThreads) {
  // 40x40x11 = 17,600 cells > kVectorGrain: the pooled SpMV and the
  // chunked dot/update reductions run, and must not depend on the thread
  // count.
  const StencilOperator op = random_stencil(40, 40, 11, 59);
  ASSERT_GT(op.size(), kVectorGrain);
  const std::vector<double> b = random_vector(op.size(), 61);
  std::vector<double> x1, x4;
  const CgResult r1 = solve_with_threads(1, op, b, x1);
  const CgResult r4 = solve_with_threads(4, op, b, x4);
  ThreadPool::set_global_thread_count(0);  // restore default

  EXPECT_EQ(r1.iterations, r4.iterations);
  EXPECT_EQ(x1, x4);  // bitwise
}

TEST(ThreadPool, CgNestedInParallelMapMatchesTopLevelSolve) {
  // Solves running inside util::parallel_map chunks (the experiment
  // engines' shape) find the pool busy and run their pooled kernels
  // serially; above and below the grain they must match a top-level
  // single-thread solve bitwise.
  for (const StencilOperator& op :
       {random_stencil(40, 40, 11, 67), random_stencil(20, 20, 6, 71)}) {
    const std::vector<double> b = random_vector(op.size(), 73);
    std::vector<double> reference;
    const CgResult top = solve_with_threads(1, op, b, reference);

    ThreadPool::set_global_thread_count(4);
    struct Solve {
      CgResult stats;
      std::vector<double> x;
    };
    const std::vector<Solve> nested = parallel_map<Solve>(
        4, 1, [](std::size_t) { return 0; },
        [&](int, std::size_t) {
          Solve solve;
          solve.stats = solve_cg(
              op, b, solve.x,
              {.tolerance = 1e-10});
          return solve;
        });
    ThreadPool::set_global_thread_count(0);  // restore default

    for (const Solve& solve : nested) {
      EXPECT_EQ(solve.stats.iterations, top.iterations);
      EXPECT_EQ(solve.x, reference);  // bitwise
    }
  }
}

TEST(ThreadPool, EnvOverrideParsesPositiveIntegers) {
  // default_thread_count() must never return 0, whatever the env says.
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

}  // namespace
}  // namespace tpcool::util
