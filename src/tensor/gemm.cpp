#include "tensor/gemm.h"

#include <stdexcept>

#include "tensor/gemm_kernels.h"

namespace realm::tensor {

namespace {

void check_gemm_dims(std::size_t ak, std::size_t bk) {
  if (ak != bk) throw std::invalid_argument("gemm: inner dimensions disagree");
}

// Int8 paths only — the float reference accumulates in float and has no such
// bound. Worst-case |dot| = 128*128*k = 2^14*k (raw MatI8 can hold -128, not
// just the quantizer's ±127); 2^14 * 2^16 = 2^30 fits int32, 2^14 * 2^17 =
// 2^31 does not. Enforced in release builds too: a silently wrapped
// accumulator is indistinguishable from the faults this repo exists to detect.
void check_i8_k_bound(std::size_t k) {
  if (k > kMaxK) {
    throw std::invalid_argument("gemm: k exceeds 2^16, int32 accumulation could overflow");
  }
}

}  // namespace

namespace {

std::int64_t* fused_buffer(std::vector<std::int64_t>* fused, std::size_t n) {
  if (!fused) return nullptr;
  fused->resize(n);
  return fused->data();
}

}  // namespace

void gemm_i8(const MatI8& a, const MatI8& b, MatI32& c,
             std::vector<std::int64_t>* fused_col_sums) {
  check_gemm_dims(a.cols(), b.rows());
  check_i8_k_bound(a.cols());
  const std::size_t m = a.rows();
  const std::size_t n = b.cols();
  if (c.rows() != m || c.cols() != n) c = MatI32(m, n);
  kernels::gemm_i8(a.data(), b.data(), c.data(), m, a.cols(), n,
                   fused_buffer(fused_col_sums, n));
}

MatI32 gemm_i8(const MatI8& a, const MatI8& b) {
  MatI32 c(a.rows(), b.cols());
  gemm_i8(a, b, c);
  return c;
}

void gemm_i8_prepacked(const MatI8& a, const MatI8& b, const kernels::PackedB& pb, MatI32& c,
                       std::vector<std::int64_t>* fused_col_sums) {
  check_gemm_dims(a.cols(), b.rows());
  check_i8_k_bound(a.cols());
  const std::size_t m = a.rows();
  const std::size_t n = b.cols();
  if (c.rows() != m || c.cols() != n) c = MatI32(m, n);
  kernels::gemm_i8_prepacked(a.data(), b.data(), pb, c.data(), m, a.cols(), n,
                             fused_buffer(fused_col_sums, n));
}

MatF gemm_f32(const MatF& a, const MatF& b) {
  check_gemm_dims(a.cols(), b.rows());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  MatF c(m, n, 0.0f);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* crow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

}  // namespace realm::tensor
