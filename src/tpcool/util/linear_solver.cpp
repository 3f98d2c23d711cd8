#include "tpcool/util/linear_solver.hpp"

#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "tpcool/util/stencil_operator.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::util {

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

}  // namespace

// The convergence check runs after each update, so the final residual is
// never recomputed and `iterations` is always populated — including on the
// throw path.
CgResult solve_cg(const StencilOperator& a, const std::vector<double>& b,
                  std::vector<double>& x, const CgOptions& options) {
  TraceSpan span("cg");
  const auto done = [&](const CgResult& result) {
    span.arg("n", static_cast<double>(b.size()));
    span.arg("iterations", static_cast<double>(result.iterations));
    span.arg("residual", result.residual);
    Telemetry::instance().histogram_record(
        "cg.iterations", static_cast<double>(result.iterations));
    return result;
  };

  const std::size_t n = a.size();
  TPCOOL_REQUIRE(b.size() == n, "solve_cg: rhs size mismatch");
  TPCOOL_REQUIRE(options.ssor_omega > 0.0 && options.ssor_omega < 2.0,
                 "solve_cg: SSOR omega outside (0, 2)");
  if (x.size() != n) x.assign(n, 0.0);

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    x.assign(n, 0.0);
    return done({0, 0.0});
  }

  for (const double d : a.diagonal()) {
    TPCOOL_ENSURE(d > 0.0,
                  "solve_cg: non-positive diagonal (matrix not SPD?)");
  }

  std::vector<double> r(n), z(n), p(n), ap(n);
  a.multiply(x, ap);
  foreach_element(n, [&](std::size_t i) { r[i] = b[i] - ap[i]; });

  CgResult result;
  result.residual = norm2(r) / bnorm;
  if (result.residual <= options.tolerance) return done(result);  // warm hit

  a.ssor_apply(r, z, options.ssor_omega);
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
    if (result.residual <= options.tolerance) return done(result);
    a.ssor_apply(r, z, options.ssor_omega);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    foreach_element(n, [&](std::size_t i) { p[i] = z[i] + beta * p[i]; });
  }
  if (result.residual <= options.tolerance * 10.0) {
    // Accept near-converged solutions rather than failing outright.
    return done(result);
  }
  throw ConvergenceError("solve_cg: failed to converge (residual " +
                         std::to_string(result.residual) + " after " +
                         std::to_string(result.iterations) + " iterations)");
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
