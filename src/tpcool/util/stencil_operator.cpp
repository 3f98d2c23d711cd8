#include "tpcool/util/stencil_operator.hpp"

#include <algorithm>

#include "tpcool/util/error.hpp"
#include "tpcool/util/thread_pool.hpp"

namespace tpcool::util {

namespace {

/// Rows of cells (nx indices each) per parallel chunk of a multiply above
/// kVectorGrain: chunks of a few thousand cells whose boundaries never
/// split an x-row.
constexpr std::size_t kRowsPerChunk = 64;

StencilBand opposite(StencilBand band) {
  switch (band) {
    case StencilBand::kXMinus: return StencilBand::kXPlus;
    case StencilBand::kXPlus: return StencilBand::kXMinus;
    case StencilBand::kYMinus: return StencilBand::kYPlus;
    case StencilBand::kYPlus: return StencilBand::kYMinus;
    case StencilBand::kZMinus: return StencilBand::kZPlus;
    case StencilBand::kZPlus: return StencilBand::kZMinus;
  }
  TPCOOL_ENSURE(false, "invalid stencil band");
  return StencilBand::kXMinus;
}

/// x-rows one SSOR wavefront carries (Lamport's hyperplane ordering): row
/// k of a group runs one cell behind row k-1, so the group's dependency
/// chains overlap in the pipeline instead of running back to back.
constexpr std::size_t kWavefrontRows = 4;

/// Raw views of one triangle of the operator for the SSOR sweeps:
/// `band[0..2]` are the x, y, z neighbour bands of that triangle (lower
/// for the forward sweep, upper for the backward sweep).
struct SweepView {
  const double* diag;
  const double* band[3];
  std::size_t nx, ny, nz;
  double omega;
};

/// Forward sweep (D + ωL) t = r over x-rows iy0 .. iy0+rows-1 of plane iz.
/// Step s updates row k at ix = s - k; its lower neighbours (x-1 on the
/// same row, y-1 on row k-1, z-1 on the plane below) were all written in
/// earlier steps. Each cell subtracts its x, y, z terms in that order and
/// then divides, exactly as the lexicographic loop does, so every z[i] is
/// bit-identical to it.
void forward_rows(const SweepView& v, const double* r, double* z,
                  std::size_t iy0, std::size_t rows, std::size_t iz) {
  const std::size_t nx = v.nx;
  const std::size_t plane = nx * v.ny;
  const std::size_t base = (iz * v.ny + iy0) * nx;
  const bool has_zm = iz > 0;
  for (std::size_t s = 0; s + 1 < nx + rows; ++s) {
    for (std::size_t k = 0; k < rows; ++k) {
      if (s < k || s - k >= nx) continue;
      const std::size_t ix = s - k;
      const std::size_t i = base + k * nx + ix;
      double acc = r[i];
      if (ix > 0) acc -= v.omega * v.band[0][i] * z[i - 1];
      if (iy0 + k > 0) acc -= v.omega * v.band[1][i] * z[i - nx];
      if (has_zm) acc -= v.omega * v.band[2][i] * z[i - plane];
      z[i] = acc / v.diag[i];
    }
  }
}

/// Backward sweep (D + ωU) z = D t over x-rows iy_top, iy_top-1, ...,
/// iy_top-rows+1 of plane iz, walking x downwards: the mirror image of
/// forward_rows. The D scaling s = D t is each cell's first operation
/// (`acc = t[i] * diag[i]`), rounded exactly as a separate scaling pass.
void backward_rows(const SweepView& v, double* z, std::size_t iy_top,
                   std::size_t rows, std::size_t iz) {
  const std::size_t nx = v.nx;
  const std::size_t plane = nx * v.ny;
  const std::size_t top = (iz * v.ny + iy_top) * nx;
  const bool has_zp = iz + 1 < v.nz;
  for (std::size_t s = 0; s + 1 < nx + rows; ++s) {
    for (std::size_t k = 0; k < rows; ++k) {
      if (s < k || s - k >= nx) continue;
      const std::size_t ix = nx - 1 - (s - k);
      const std::size_t i = top - k * nx + ix;
      double acc = z[i] * v.diag[i];
      if (ix + 1 < nx) acc -= v.omega * v.band[0][i] * z[i + 1];
      if (iy_top - k + 1 < v.ny) acc -= v.omega * v.band[1][i] * z[i + nx];
      if (has_zp) acc -= v.omega * v.band[2][i] * z[i + plane];
      z[i] = acc / v.diag[i];
    }
  }
}

}  // namespace

StencilOperator::StencilOperator(std::size_t nx, std::size_t ny,
                                 std::size_t nz)
    : nx_(nx), ny_(ny), nz_(nz) {
  TPCOOL_REQUIRE(nx > 0 && ny > 0 && nz > 0,
                 "stencil dimensions must be positive");
  const std::size_t n = nx * ny * nz;
  diag_.assign(n, 0.0);
  for (auto& band : bands_) band.assign(n, 0.0);
}

std::size_t StencilOperator::neighbor_index(std::size_t i,
                                            StencilBand band) const {
  const std::size_t ix = i % nx_;
  const std::size_t iy = (i / nx_) % ny_;
  const std::size_t iz = i / (nx_ * ny_);
  switch (band) {
    case StencilBand::kXMinus:
      TPCOOL_REQUIRE(ix > 0, "no x- neighbour at grid edge");
      return i - 1;
    case StencilBand::kXPlus:
      TPCOOL_REQUIRE(ix + 1 < nx_, "no x+ neighbour at grid edge");
      return i + 1;
    case StencilBand::kYMinus:
      TPCOOL_REQUIRE(iy > 0, "no y- neighbour at grid edge");
      return i - nx_;
    case StencilBand::kYPlus:
      TPCOOL_REQUIRE(iy + 1 < ny_, "no y+ neighbour at grid edge");
      return i + nx_;
    case StencilBand::kZMinus:
      TPCOOL_REQUIRE(iz > 0, "no z- neighbour at grid edge");
      return i - nx_ * ny_;
    case StencilBand::kZPlus:
      TPCOOL_REQUIRE(iz + 1 < nz_, "no z+ neighbour at grid edge");
      return i + nx_ * ny_;
  }
  TPCOOL_ENSURE(false, "invalid stencil band");
  return i;
}

void StencilOperator::add_coupling(std::size_t i, StencilBand band, double g) {
  TPCOOL_REQUIRE(i < size(), "cell index out of range");
  const std::size_t j = neighbor_index(i, band);
  bands_[static_cast<std::size_t>(band)][i] -= g;
  bands_[static_cast<std::size_t>(opposite(band))][j] -= g;
  diag_[i] += g;
  diag_[j] += g;
}

void StencilOperator::add_to_diagonal(std::size_t i, double value) {
  TPCOOL_REQUIRE(i < size(), "cell index out of range");
  diag_[i] += value;
}

void StencilOperator::set_diagonal_entry(std::size_t i, double value) {
  TPCOOL_REQUIRE(i < size(), "cell index out of range");
  diag_[i] = value;
}

void StencilOperator::add_diagonal(const std::vector<double>& values) {
  TPCOOL_REQUIRE(values.size() == size(), "diagonal size mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) diag_[i] += values[i];
}

void StencilOperator::set_shifted_diagonal(const StencilOperator& base,
                                           const std::vector<double>& shift) {
  TPCOOL_REQUIRE(base.nx_ == nx_ && base.ny_ == ny_ && base.nz_ == nz_,
                 "grid mismatch");
  TPCOOL_REQUIRE(shift.size() == size(), "diagonal size mismatch");
  for (std::size_t i = 0; i < size(); ++i) diag_[i] = base.diag_[i] + shift[i];
}

void StencilOperator::multiply_rows(const double* x, double* y,
                                    std::size_t row_begin,
                                    std::size_t row_end) const {
  const std::size_t plane = nx_ * ny_;
  for (std::size_t row = row_begin; row < row_end; ++row) {
    const std::size_t iy = row % ny_;
    const std::size_t iz = row / ny_;
    const std::size_t base = row * nx_;
    const bool has_ym = iy > 0;
    const bool has_yp = iy + 1 < ny_;
    const bool has_zm = iz > 0;
    const bool has_zp = iz + 1 < nz_;
    for (std::size_t ix = 0; ix < nx_; ++ix) {
      const std::size_t i = base + ix;
      double acc = diag_[i] * x[i];
      if (ix > 0) acc += bands_[0][i] * x[i - 1];
      if (ix + 1 < nx_) acc += bands_[1][i] * x[i + 1];
      if (has_ym) acc += bands_[2][i] * x[i - nx_];
      if (has_yp) acc += bands_[3][i] * x[i + nx_];
      if (has_zm) acc += bands_[4][i] * x[i - plane];
      if (has_zp) acc += bands_[5][i] * x[i + plane];
      y[i] = acc;
    }
  }
}

void StencilOperator::multiply(const std::vector<double>& x,
                               std::vector<double>& y) const {
  TPCOOL_REQUIRE(x.size() == size(), "vector size mismatch");
  y.resize(size());
  const std::size_t row_count = ny_ * nz_;
  if (size() <= kVectorGrain) {
    multiply_rows(x.data(), y.data(), 0, row_count);
    return;
  }
  // Disjoint x-rows per chunk: deterministic for any thread count.
  ThreadPool::global().parallel_for(
      0, row_count, kRowsPerChunk,
      [&](std::size_t row_begin, std::size_t row_end) {
        multiply_rows(x.data(), y.data(), row_begin, row_end);
      });
}

void StencilOperator::ssor_apply(const std::vector<double>& r,
                                 std::vector<double>& z, double omega) const {
  TPCOOL_REQUIRE(r.size() == size(), "vector size mismatch");
  TPCOOL_REQUIRE(omega > 0.0 && omega < 2.0, "SSOR omega outside (0, 2)");
  // Checked once, before either sweep; `!(d > 0)` also rejects NaN.
  TPCOOL_ENSURE(std::none_of(diag_.begin(), diag_.end(),
                             [](double d) { return !(d > 0.0); }),
                "ssor_apply: non-positive diagonal");
  z.resize(size());

  // Forward sweep: (D + ωL) t = r, plane by plane, x-row groups ascending.
  const SweepView lower{diag_.data(),
                        {bands_[0].data(), bands_[2].data(), bands_[4].data()},
                        nx_, ny_, nz_, omega};
  for (std::size_t iz = 0; iz < nz_; ++iz) {
    for (std::size_t iy0 = 0; iy0 < ny_; iy0 += kWavefrontRows) {
      forward_rows(lower, r.data(), z.data(), iy0,
                   std::min(kWavefrontRows, ny_ - iy0), iz);
    }
  }
  // Backward sweep: (D + ωU) z = D t, everything mirrored.
  const SweepView upper{diag_.data(),
                        {bands_[1].data(), bands_[3].data(), bands_[5].data()},
                        nx_, ny_, nz_, omega};
  for (std::size_t iz = nz_; iz-- > 0;) {
    for (std::size_t done = 0; done < ny_; done += kWavefrontRows) {
      backward_rows(upper, z.data(), ny_ - 1 - done,
                    std::min(kWavefrontRows, ny_ - done), iz);
    }
  }
}

}  // namespace tpcool::util
