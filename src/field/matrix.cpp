#include "field/matrix.h"

#include "support/check.h"

namespace ssbft {

std::optional<std::vector<std::uint64_t>> solve_linear(
    const PrimeField& F, Matrix A, std::vector<std::uint64_t> b) {
  SSBFT_REQUIRE(A.rows() == b.size());
  // Gauss-Jordan elimination on the augmented system [A | b], recording
  // the pivot columns.
  std::vector<std::size_t> pivot_cols;
  std::size_t row = 0;
  for (std::size_t col = 0; col < A.cols() && row < A.rows(); ++col) {
    // Find a pivot.
    std::size_t piv = row;
    while (piv < A.rows() && A.at(piv, col) == 0) ++piv;
    if (piv == A.rows()) continue;
    // Swap into place.
    if (piv != row) {
      for (std::size_t c = 0; c < A.cols(); ++c)
        std::swap(A.at(piv, c), A.at(row, c));
      std::swap(b[piv], b[row]);
    }
    // Normalize pivot row.
    const std::uint64_t inv = F.inv(A.at(row, col));
    F.scale_vec(A.row(row) + col, inv, A.row(row) + col, A.cols() - col);
    b[row] = F.mul(b[row], inv);
    // Clear the column below and above.
    for (std::size_t r = 0; r < A.rows(); ++r) {
      if (r == row || A.at(r, col) == 0) continue;
      const std::uint64_t factor = A.at(r, col);
      F.submul_vec(A.row(r) + col, A.row(row) + col, factor, A.cols() - col);
      b[r] = F.sub(b[r], F.mul(factor, b[row]));
    }
    pivot_cols.push_back(col);
    ++row;
  }
  // Inconsistent iff some zero row has nonzero rhs.
  for (std::size_t r = pivot_cols.size(); r < A.rows(); ++r) {
    if (b[r] != 0) return std::nullopt;
  }
  std::vector<std::uint64_t> x(A.cols(), 0);
  for (std::size_t i = 0; i < pivot_cols.size(); ++i) x[pivot_cols[i]] = b[i];
  return x;
}

}  // namespace ssbft
