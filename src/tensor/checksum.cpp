#include "tensor/checksum.h"

#include <stdexcept>

#include "tensor/checksum_kernels.h"

namespace realm::tensor {

std::vector<std::int64_t> col_sums(const MatI8& m) {
  std::vector<std::int64_t> sums(m.cols());
  kernels::col_sums_i8(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> col_sums(const MatI32& m) {
  std::vector<std::int64_t> sums(m.cols());
  kernels::col_sums_i32(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> row_sums(const MatI8& m) {
  std::vector<std::int64_t> sums(m.rows());
  kernels::row_sums_i8(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> row_sums(const MatI32& m) {
  std::vector<std::int64_t> sums(m.rows());
  kernels::row_sums_i32(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> weighted_col_sums(const MatI8& m) {
  std::vector<std::int64_t> sums(m.cols());
  kernels::weighted_col_sums_i8(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> weighted_col_sums(const MatI32& m) {
  std::vector<std::int64_t> sums(m.cols());
  kernels::weighted_col_sums_i32(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> weighted_row_sums(const MatI8& m) {
  std::vector<std::int64_t> sums(m.rows());
  kernels::weighted_row_sums_i8(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> weighted_row_sums(const MatI32& m) {
  std::vector<std::int64_t> sums(m.rows());
  kernels::weighted_row_sums_i32(m.data(), m.rows(), m.cols(), sums.data());
  return sums;
}

std::vector<std::int64_t> predict_col_checksum(const MatI8& a, const MatI8& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("predict_col_checksum: dim mismatch");
  const std::vector<std::int64_t> ea = col_sums(a);  // 1 x k
  std::vector<std::int64_t> out(b.cols());
  kernels::predict_col_checksum(ea.data(), b.data(), b.rows(), b.cols(), out.data());
  return out;
}

std::vector<std::int64_t> predict_row_checksum(const MatI8& a,
                                               const std::vector<std::int64_t>& b_row_basis) {
  if (a.cols() != b_row_basis.size()) {
    throw std::invalid_argument("predict_row_checksum: basis length mismatch");
  }
  std::vector<std::int64_t> out(a.rows());
  kernels::predict_row_checksum(a.data(), a.rows(), a.cols(), b_row_basis.data(), out.data());
  return out;
}

std::vector<std::int64_t> predict_row_checksum(const MatI8& a, const MatI8& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("predict_row_checksum: dim mismatch");
  return predict_row_checksum(a, row_sums(b));
}

}  // namespace realm::tensor
