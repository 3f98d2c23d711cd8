#pragma once
/// \file stencil_operator.hpp
/// \brief Structured 7-point stencil operator for the thermal finite-volume
///        grid: banded per-cell coefficients with a matrix-free multiply.
///
/// Every system the thermal grid assembles couples cell (ix, iy, iz) to at
/// most its six axis neighbours. Storing the operator as seven coefficient
/// arrays (one per band) needs no column indices, keeps the memory access
/// pattern sequential, and gives the SSOR preconditioner its forward/
/// backward sweeps for free (lower bands are exactly {x-, y-, z-}, upper
/// bands {x+, y+, z+}).

#include <cstddef>
#include <vector>

namespace tpcool::util {

/// The six neighbour bands of the 7-point stencil.
enum class StencilBand : std::size_t {
  kXMinus = 0,  ///< (ix-1, iy, iz)
  kXPlus = 1,   ///< (ix+1, iy, iz)
  kYMinus = 2,  ///< (ix, iy-1, iz)
  kYPlus = 3,   ///< (ix, iy+1, iz)
  kZMinus = 4,  ///< (ix, iy, iz-1)
  kZPlus = 5,   ///< (ix, iy, iz+1)
};

/// Symmetric 7-point operator on an nx×ny×nz cell grid, indexed like
/// ThermalModel::cell_index: i = (iz*ny + iy)*nx + ix.
class StencilOperator {
 public:
  StencilOperator(std::size_t nx, std::size_t ny, std::size_t nz);

  [[nodiscard]] std::size_t nx() const noexcept { return nx_; }
  [[nodiscard]] std::size_t ny() const noexcept { return ny_; }
  [[nodiscard]] std::size_t nz() const noexcept { return nz_; }
  [[nodiscard]] std::size_t size() const noexcept { return diag_.size(); }

  [[nodiscard]] std::size_t cell_index(std::size_t ix, std::size_t iy,
                                       std::size_t iz) const noexcept {
    return (iz * ny_ + iy) * nx_ + ix;
  }

  /// Add the symmetric conductance coupling `g` between cell `i` and its
  /// neighbour in `band`: both off-diagonals get -g, both diagonals +g.
  /// The neighbour must exist (no wrap-around across grid edges).
  void add_coupling(std::size_t i, StencilBand band, double g);

  /// Accumulate a boundary (or mass) term onto the diagonal of cell `i`.
  void add_to_diagonal(std::size_t i, double value);

  /// Overwrite the diagonal entry of cell `i` (boundary-only re-assembly:
  /// the bands keep their values).
  void set_diagonal_entry(std::size_t i, double value);

  /// Add `values[i]` to every diagonal entry (backward-Euler mass matrix).
  void add_diagonal(const std::vector<double>& values);

  /// Overwrite the diagonal with base.diag + shift. Bands are untouched;
  /// `base` must share this operator's grid. Lets a cached copy of a base
  /// operator be re-shifted every transient step without re-copying the
  /// six neighbour bands.
  void set_shifted_diagonal(const StencilOperator& base,
                            const std::vector<double>& shift);

  [[nodiscard]] double diag(std::size_t i) const { return diag_[i]; }
  [[nodiscard]] double offdiag(std::size_t i, StencilBand band) const {
    return bands_[static_cast<std::size_t>(band)][i];
  }

  /// y = A x, matrix-free over the bands. Systems of at most kVectorGrain
  /// cells run inline; larger ones are split over grid rows on the global
  /// ThreadPool.
  void multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// The diagonal band.
  [[nodiscard]] const std::vector<double>& diagonal() const { return diag_; }

  /// z = M⁻¹ r for the SSOR preconditioner
  /// M = (D + ωL) D⁻¹ (D + ωU) (up to a positive scale, which PCG ignores).
  ///
  /// The triangular solves run single-threaded in wavefront (hyperplane)
  /// order: four x-rows of a plane at a time, row k one cell behind row
  /// k-1. A cell's lower (upper) neighbours are still written before it,
  /// so the order only changes when each cell is computed, not what it
  /// computes: every cell subtracts its x, y, z terms in that order and
  /// divides by its diagonal, exactly like the lexicographic loop, and the
  /// result is bit-identical to it. The four rows' dependency chains
  /// (mul, sub, sub, sub, div per cell) overlap, which is where the speed
  /// comes from. Throws InvariantError if any diagonal entry is not
  /// positive (including NaN).
  void ssor_apply(const std::vector<double>& r, std::vector<double>& z,
                  double omega) const;

 private:
  [[nodiscard]] std::size_t neighbor_index(std::size_t i,
                                           StencilBand band) const;
  /// y = A x over x-rows [row_begin, row_end) (row = iz*ny + iy).
  void multiply_rows(const double* x, double* y, std::size_t row_begin,
                     std::size_t row_end) const;

  std::size_t nx_, ny_, nz_;
  std::vector<double> diag_;
  // Band order matches StencilBand. Boundary entries stay exactly 0.
  std::vector<double> bands_[6];
};

}  // namespace tpcool::util
