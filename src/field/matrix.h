// Dense linear algebra over Z_p: Gaussian elimination for solving the
// Berlekamp-Welch key equation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "field/fp.h"

namespace ssbft {

// Row-major dense matrix of canonical field elements.
class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  std::uint64_t& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  std::uint64_t at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  // Raw row storage, for the field's batch kernels.
  std::uint64_t* row(std::size_t r) { return data_.data() + r * cols_; }
  const std::uint64_t* row(std::size_t r) const { return data_.data() + r * cols_; }

 private:
  std::size_t rows_, cols_;
  std::vector<std::uint64_t> data_;
};

// Solves A x = b over F. Returns one solution if the system is consistent
// (free variables are set to zero), std::nullopt if inconsistent.
std::optional<std::vector<std::uint64_t>> solve_linear(
    const PrimeField& F, Matrix A, std::vector<std::uint64_t> b);

}  // namespace ssbft
