#include "tpcool/util/linear_solver.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tpcool/util/stencil_operator.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::util {

SparseMatrix::SparseMatrix(std::size_t n) : n_(n) {
  TPCOOL_REQUIRE(n > 0, "matrix dimension must be positive");
}

void SparseMatrix::add(std::size_t row, std::size_t col, double value) {
  TPCOOL_REQUIRE(!finalized_, "add() after finalize()");
  TPCOOL_REQUIRE(row < n_ && col < n_, "matrix index out of range");
  triplets_.push_back({row, col, value});
}

void SparseMatrix::finalize() {
  if (finalized_) return;
  std::sort(triplets_.begin(), triplets_.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  row_ptr_.assign(n_ + 1, 0);
  col_idx_.clear();
  values_.clear();
  col_idx_.reserve(triplets_.size());
  values_.reserve(triplets_.size());
  std::size_t k = 0;
  for (std::size_t row = 0; row < n_; ++row) {
    row_ptr_[row] = col_idx_.size();
    while (k < triplets_.size() && triplets_[k].row == row) {
      const std::size_t col = triplets_[k].col;
      double v = 0.0;
      while (k < triplets_.size() && triplets_[k].row == row &&
             triplets_[k].col == col) {
        v += triplets_[k].value;
        ++k;
      }
      col_idx_.push_back(col);
      values_.push_back(v);
    }
  }
  row_ptr_[n_] = col_idx_.size();
  triplets_.clear();
  triplets_.shrink_to_fit();
  finalized_ = true;
}

void SparseMatrix::multiply(const std::vector<double>& x,
                            std::vector<double>& y) const {
  TPCOOL_REQUIRE(finalized_, "multiply() before finalize()");
  TPCOOL_REQUIRE(x.size() == n_, "vector size mismatch");
  y.assign(n_, 0.0);
  for (std::size_t row = 0; row < n_; ++row) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[row] = acc;
  }
}

std::vector<double> SparseMatrix::diagonal() const {
  TPCOOL_REQUIRE(finalized_, "diagonal() before finalize()");
  std::vector<double> d(n_, 0.0);
  for (std::size_t row = 0; row < n_; ++row) {
    for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      if (col_idx_[k] == row) d[row] = values_[k];
    }
  }
  return d;
}

std::size_t SparseMatrix::nonzeros() const {
  TPCOOL_REQUIRE(finalized_, "nonzeros() before finalize()");
  return values_.size();
}

double SparseMatrix::coeff(std::size_t row, std::size_t col) const {
  TPCOOL_REQUIRE(finalized_, "coeff() before finalize()");
  TPCOOL_REQUIRE(row < n_ && col < n_, "matrix index out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it != end && *it == col) {
    return values_[static_cast<std::size_t>(it - col_idx_.begin())];
  }
  return 0.0;
}

bool SparseMatrix::is_symmetric(double tol) const {
  TPCOOL_REQUIRE(finalized_, "is_symmetric() before finalize()");
  for (std::size_t row = 0; row < n_; ++row) {
    for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
      const std::size_t col = col_idx_[k];
      if (std::abs(values_[k] - coeff(col, row)) > tol) return false;
    }
  }
  return true;
}

namespace {

/// Sum of `partial(lo, hi)` over [0, n). Up to kVectorGrain elements this
/// is one inline call; above it, fixed kVectorGrain chunks on the global
/// pool summed in chunk order, so the result is the same for any thread
/// count.
template <typename F>
double reduce_elements(std::size_t n, F&& partial) {
  if (n <= kVectorGrain) return partial(0, n);
  return ThreadPool::global().parallel_reduce(0, n, kVectorGrain, partial);
}

/// Element-wise kernel over [0, n): disjoint writes, deterministic. Inline
/// up to kVectorGrain elements.
template <typename F>
void foreach_element(std::size_t n, F&& f) {
  if (n <= kVectorGrain) {
    for (std::size_t i = 0; i < n; ++i) f(i);
    return;
  }
  ThreadPool::global().parallel_for(0, n, kVectorGrain,
                                    [&](std::size_t lo, std::size_t hi) {
                                      for (std::size_t i = lo; i < hi; ++i)
                                        f(i);
                                    });
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  return reduce_elements(a.size(), [&](std::size_t lo, std::size_t hi) {
    return std::inner_product(a.begin() + static_cast<std::ptrdiff_t>(lo),
                              a.begin() + static_cast<std::ptrdiff_t>(hi),
                              b.begin() + static_cast<std::ptrdiff_t>(lo),
                              0.0);
  });
}

double norm2(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

/// x += αp and r -= αAp, returning r·r from the same pass. The chunks and
/// the per-chunk summation order are dot()'s, so the sum is bit-identical
/// to a separate dot(r, r) after the update.
double update_solution(double alpha, const std::vector<double>& p,
                       const std::vector<double>& ap, std::vector<double>& x,
                       std::vector<double>& r) {
  return reduce_elements(x.size(), [&](std::size_t lo, std::size_t hi) {
    double rr = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      rr += r[i] * r[i];
    }
    return rr;
  });
}

/// SSOR application for the general CSR matrix (CSR columns are sorted, so
/// the forward/backward triangular sweeps just split each row at the
/// diagonal). Used when callers request SSOR on a SparseMatrix system.
void ssor_apply(const SparseMatrix& a, const std::vector<double>& diag,
                const std::vector<double>& r, std::vector<double>& z,
                double omega) {
  const std::size_t n = a.size();
  z.resize(n);
  for (std::size_t i = 0; i < n; ++i) {  // (D + ωL) t = r
    double acc = r[i];
    a.for_each_in_row(i, [&](std::size_t j, double v) {
      if (j < i) acc -= omega * v * z[j];
    });
    z[i] = acc / diag[i];
  }
  for (std::size_t i = 0; i < n; ++i) z[i] *= diag[i];
  for (std::size_t i = n; i-- > 0;) {  // (D + ωU) z = D t
    double acc = z[i];
    a.for_each_in_row(i, [&](std::size_t j, double v) {
      if (j > i) acc -= omega * v * z[j];
    });
    z[i] = acc / diag[i];
  }
}

void ssor_apply(const StencilOperator& a, const std::vector<double>& /*diag*/,
                const std::vector<double>& r, std::vector<double>& z,
                double omega) {
  a.ssor_apply(r, z, omega);
}

/// Preconditioned CG over any operator providing size()/multiply()/
/// diagonal() plus an ssor_apply overload above. The convergence check
/// runs after each update, so the final residual is never recomputed and
/// `iterations` is always populated — including on the throw path.
template <typename Op>
CgResult cg_impl(const Op& a, const std::vector<double>& b,
                 std::vector<double>& x, const CgOptions& options) {
  const std::size_t n = a.size();
  TPCOOL_REQUIRE(b.size() == n, "solve_cg: rhs size mismatch");
  TPCOOL_REQUIRE(options.ssor_omega > 0.0 && options.ssor_omega < 2.0,
                 "solve_cg: SSOR omega outside (0, 2)");
  if (x.size() != n) x.assign(n, 0.0);

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    x.assign(n, 0.0);
    return {0, 0.0};
  }

  // A reference for the stencil (its diagonal band), a copy for CSR.
  const std::vector<double>& diag = a.diagonal();
  for (std::size_t i = 0; i < n; ++i) {
    TPCOOL_ENSURE(diag[i] > 0.0,
                  "solve_cg: non-positive diagonal (matrix not SPD?)");
  }
  const bool ssor = options.preconditioner == Preconditioner::kSsor;
  std::vector<double> inv_diag;
  if (!ssor) {
    inv_diag.resize(n);
    for (std::size_t i = 0; i < n; ++i) inv_diag[i] = 1.0 / diag[i];
  }
  const auto precondition = [&](const std::vector<double>& r,
                                std::vector<double>& z) {
    if (ssor) {
      ssor_apply(a, diag, r, z, options.ssor_omega);
    } else {
      z.resize(n);
      foreach_element(n, [&](std::size_t i) { z[i] = inv_diag[i] * r[i]; });
    }
  };

  std::vector<double> r(n), z(n), p(n), ap(n);
  a.multiply(x, ap);
  foreach_element(n, [&](std::size_t i) { r[i] = b[i] - ap[i]; });

  CgResult result;
  result.residual = norm2(r) / bnorm;
  if (result.residual <= options.tolerance) return result;  // warm-start hit

  precondition(r, z);
  p = z;
  double rz = dot(r, z);

  for (std::size_t it = 1; it <= options.max_iterations; ++it) {
    a.multiply(p, ap);
    const double pap = dot(p, ap);
    TPCOOL_ENSURE(pap > 0.0,
                  "solve_cg: curvature non-positive (matrix not SPD?)");
    const double alpha = rz / pap;
    const double rr = update_solution(alpha, p, ap, x, r);
    result.iterations = it;
    result.residual = std::sqrt(rr) / bnorm;
    if (result.residual <= options.tolerance) return result;
    precondition(r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    foreach_element(n, [&](std::size_t i) { p[i] = z[i] + beta * p[i]; });
  }
  if (result.residual <= options.tolerance * 10.0) {
    // Accept near-converged solutions rather than failing outright.
    return result;
  }
  throw ConvergenceError("solve_cg: failed to converge (residual " +
                         std::to_string(result.residual) + " after " +
                         std::to_string(result.iterations) + " iterations)");
}

}  // namespace

CgResult solve_cg(const SparseMatrix& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& options) {
  TPCOOL_REQUIRE(a.finalized(), "solve_cg: matrix not finalized");
  TraceSpan span("cg");
  const CgResult result = cg_impl(a, b, x, options);
  span.arg("n", static_cast<double>(b.size()));
  span.arg("iterations", static_cast<double>(result.iterations));
  span.arg("residual", result.residual);
  Telemetry::instance().histogram_record(
      "cg.iterations", static_cast<double>(result.iterations));
  return result;
}

CgResult solve_cg(const StencilOperator& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& options) {
  TraceSpan span("cg");
  const CgResult result = cg_impl(a, b, x, options);
  span.arg("n", static_cast<double>(b.size()));
  span.arg("iterations", static_cast<double>(result.iterations));
  span.arg("residual", result.residual);
  Telemetry::instance().histogram_record(
      "cg.iterations", static_cast<double>(result.iterations));
  return result;
}

CgResult solve_sor(const SparseMatrix& a, const std::vector<double>& b,
                   std::vector<double>& x, const SorOptions& options) {
  TPCOOL_REQUIRE(a.finalized(), "solve_sor: matrix not finalized");
  TPCOOL_REQUIRE(options.relaxation > 0.0 && options.relaxation < 2.0,
                 "solve_sor: relaxation outside (0, 2)");
  const std::size_t n = a.size();
  TPCOOL_REQUIRE(b.size() == n, "solve_sor: rhs size mismatch");
  if (x.size() != n) x.assign(n, 0.0);

  const std::vector<double> diag = a.diagonal();
  for (const double d : diag) {
    TPCOOL_ENSURE(d > 0.0, "solve_sor: non-positive diagonal");
  }
  double bnorm = norm2(b);
  if (bnorm == 0.0) {
    x.assign(n, 0.0);
    return {0, 0.0};
  }

  CgResult result;
  std::vector<double> r(n);
  // Warm-start check: an already-converged initial guess costs one SpMV,
  // not a full block of sweeps.
  a.multiply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  result.residual = norm2(r) / bnorm;
  if (result.residual <= options.tolerance) return result;

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    // One SOR sweep.
    for (std::size_t i = 0; i < n; ++i) {
      double sigma = 0.0;
      a.for_each_in_row(i, [&](std::size_t j, double v) {
        if (j != i) sigma += v * x[j];
      });
      const double gs = (b[i] - sigma) / diag[i];
      x[i] += options.relaxation * (gs - x[i]);
    }
    // Residual check every few sweeps (it is as expensive as a sweep).
    if (it % 4 == 3 || it + 1 == options.max_iterations) {
      a.multiply(x, r);
      for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
      result.residual = norm2(r) / bnorm;
      result.iterations = it + 1;
      if (result.residual <= options.tolerance) return result;
    }
  }
  throw ConvergenceError("solve_sor: failed to converge (residual " +
                         std::to_string(result.residual) + ")");
}

std::vector<double> solve_dense(std::vector<double> a, std::vector<double> b) {
  const std::size_t n = b.size();
  TPCOOL_REQUIRE(a.size() == n * n, "solve_dense: matrix/vector size mismatch");
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col]))
        pivot = row;
    }
    TPCOOL_ENSURE(std::abs(a[pivot * n + col]) > 1e-300,
                  "solve_dense: singular matrix");
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(a[col * n + j], a[pivot * n + j]);
      std::swap(b[col], b[pivot]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double f = a[row * n + col] / a[col * n + col];
      if (f == 0.0) continue;
      for (std::size_t j = col; j < n; ++j) a[row * n + j] -= f * a[col * n + j];
      b[row] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t j = i + 1; j < n; ++j) acc -= a[i * n + j] * x[j];
    x[i] = acc / a[i * n + i];
  }
  return x;
}

}  // namespace tpcool::util
