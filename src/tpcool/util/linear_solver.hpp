#pragma once
/// \file linear_solver.hpp
/// \brief Sparse (CSR) and small dense linear algebra used by the thermal
///        finite-volume solver.
///
/// The thermal grid produces symmetric positive-definite systems with a
/// 7-point stencil, which preconditioned conjugate gradient handles well.
/// A dense Gaussian-elimination solver is provided for small auxiliary
/// systems and for cross-checking CG in tests.

#include <cstddef>
#include <vector>

#include "tpcool/util/error.hpp"

namespace tpcool::util {

/// Triplet-assembled sparse matrix finalized to CSR.
///
/// Usage: construct with the dimension, `add(i, j, v)` (duplicates
/// accumulate), then `finalize()`. After finalization the matrix is
/// read-only and `multiply()`/solvers may be used.
class SparseMatrix {
 public:
  explicit SparseMatrix(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// Accumulate `value` into entry (row, col). Only valid before finalize().
  void add(std::size_t row, std::size_t col, double value);

  /// Sort/merge triplets into CSR storage. Idempotent.
  void finalize();

  /// y = A x. Requires finalize().
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// Diagonal entries (zero where absent). Requires finalize().
  [[nodiscard]] std::vector<double> diagonal() const;

  /// Number of stored nonzeros. Requires finalize().
  [[nodiscard]] std::size_t nonzeros() const;

  /// Symmetry check within tolerance (O(nnz log) via lookups); test helper.
  [[nodiscard]] bool is_symmetric(double tol = 1e-9) const;

  /// Entry lookup (0 if absent). Requires finalize().
  [[nodiscard]] double coeff(std::size_t row, std::size_t col) const;

  /// Visit the nonzeros of one row: f(col, value). Requires finalize().
  template <typename F>
  void for_each_in_row(std::size_t row, F&& f) const {
    TPCOOL_REQUIRE(finalized_ && row < n_, "bad row access");
    for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      f(col_idx_[k], values_[k]);
    }
  }

 private:
  struct Triplet {
    std::size_t row, col;
    double value;
  };

  std::size_t n_;
  bool finalized_ = false;
  std::vector<Triplet> triplets_;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

class StencilOperator;

/// Preconditioner applied inside the CG iteration.
enum class Preconditioner {
  kJacobi,  ///< Diagonal scaling; cheapest per iteration.
  kSsor,    ///< Symmetric SOR sweeps; ~3-5x fewer iterations on the
            ///< thermal stencil. One application costs ~7-10 ns per
            ///< cell against ~3-4 ns for the SpMV, and a whole SSOR-PCG
            ///< iteration ~13-14 ns per cell (perf_microbench
            ///< BM_SsorApply / BM_SpmvStencil / BM_CgIteration, 4-core
            ///< 2 GHz x86-64).
};

/// Options controlling the iterative solver.
struct CgOptions {
  double tolerance = 1e-9;      ///< Relative residual ||r||/||b|| target.
  std::size_t max_iterations = 20000;
  Preconditioner preconditioner = Preconditioner::kJacobi;
  double ssor_omega = 1.5;      ///< SSOR relaxation factor, in (0, 2).
};

/// Result statistics of an iterative solve.
struct CgResult {
  std::size_t iterations = 0;
  double residual = 0.0;  ///< Final relative residual.
};

/// Solve A x = b with preconditioned conjugate gradient.
/// A must be symmetric positive definite. A non-empty `x` warm-starts the
/// iteration (an exact warm start converges in 0 iterations). Throws
/// ConvergenceError (naming the iteration count) if the iteration limit is
/// reached without meeting the tolerance.
CgResult solve_cg(const SparseMatrix& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& options = {});

/// solve_cg over the banded 7-point operator. Systems of at most
/// kVectorGrain cells run SpMV and every vector kernel as plain inline
/// loops that never reach the thread pool; larger ones split them into
/// fixed chunks on util::ThreadPool (deterministic for any thread count).
/// The SSOR sweeps are single-threaded at every size.
CgResult solve_cg(const StencilOperator& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& options = {});

/// Dense Gaussian elimination with partial pivoting; for small systems and
/// cross-checks. `a` is row-major n-by-n and is consumed (modified).
std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b);

/// Options for the stationary SOR iteration.
struct SorOptions {
  double relaxation = 1.5;      ///< ω in (0, 2); 1.0 = Gauss-Seidel.
  double tolerance = 1e-9;      ///< Relative residual target.
  std::size_t max_iterations = 50000;
};

/// Solve A x = b by successive over-relaxation. Converges for SPD matrices
/// with ω in (0, 2); used to cross-validate the CG solver on the thermal
/// operator. Throws ConvergenceError on iteration exhaustion.
CgResult solve_sor(const SparseMatrix& a, const std::vector<double>& b,
                   std::vector<double>& x, const SorOptions& options = {});

}  // namespace tpcool::util
