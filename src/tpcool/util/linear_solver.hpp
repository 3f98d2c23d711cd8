#pragma once
/// \file linear_solver.hpp
/// \brief Linear solvers used by the thermal finite-volume model: SSOR-
///        preconditioned CG over the banded 7-point StencilOperator, and a
///        small dense solver.
///
/// The thermal grid produces symmetric positive-definite systems with a
/// 7-point stencil, which SSOR-preconditioned conjugate gradient handles
/// well. A dense Gaussian-elimination solver is provided for small
/// auxiliary systems and as the independent reference CG is checked
/// against in tests.

#include <cstddef>
#include <vector>

#include "tpcool/util/error.hpp"

namespace tpcool::util {

class StencilOperator;

/// Options controlling the iterative solver.
struct CgOptions {
  double tolerance = 1e-9;      ///< Relative residual ||r||/||b|| target.
  std::size_t max_iterations = 20000;
  double ssor_omega = 1.5;      ///< SSOR relaxation factor, in (0, 2).
};

/// Result statistics of an iterative solve.
struct CgResult {
  std::size_t iterations = 0;
  double residual = 0.0;  ///< Final relative residual.
};

/// Solve A x = b with SSOR-preconditioned conjugate gradient over the
/// banded 7-point operator. A must be symmetric positive definite. A
/// non-empty `x` warm-starts the iteration (an exact warm start converges
/// in 0 iterations). Throws ConvergenceError (naming the iteration count)
/// if the iteration limit is reached without meeting the tolerance.
///
/// Systems of at most kVectorGrain cells run SpMV and every vector kernel
/// as plain inline loops that never reach the thread pool; larger ones
/// split them into fixed chunks on util::ThreadPool (deterministic for any
/// thread count). The SSOR sweeps are single-threaded at every size. One
/// SSOR application costs ~7-10 ns per cell against ~3-4 ns for the SpMV,
/// and a whole SSOR-PCG iteration ~13-14 ns per cell (perf_microbench
/// BM_SsorApply / BM_SpmvStencil / BM_CgIteration, 4-core 2 GHz x86-64).
CgResult solve_cg(const StencilOperator& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& options = {});

/// Dense Gaussian elimination with partial pivoting; for small systems and
/// cross-checks. `a` is row-major n-by-n and is consumed (modified).
std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b);

}  // namespace tpcool::util
