#include "tensor/gemm.h"

#include <cstdint>
#include <stdexcept>

#include "realm_test.h"
#include "tensor/tensor.h"
#include "util/rng.h"

using namespace realm::tensor;

namespace {

MatI8 random_i8(std::size_t rows, std::size_t cols, realm::util::Rng& rng) {
  MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return m;
}

/// Naive j-indexed reference with int64 accumulation.
MatI32 reference_gemm(const MatI8& a, const MatI8& b) {
  MatI32 c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      std::int64_t acc = 0;
      for (std::size_t kk = 0; kk < a.cols(); ++kk) {
        acc += static_cast<std::int64_t>(a(i, kk)) * static_cast<std::int64_t>(b(kk, j));
      }
      c(i, j) = static_cast<std::int32_t>(acc);
    }
  }
  return c;
}

}  // namespace

REALM_TEST(gemm_matches_reference) {
  realm::util::Rng rng(1);
  // Sizes straddling the k-block boundary (64) and non-square shapes.
  const std::size_t shapes[][3] = {{1, 1, 1}, {3, 5, 7}, {17, 64, 9}, {8, 130, 33}};
  for (const auto& s : shapes) {
    const MatI8 a = random_i8(s[0], s[1], rng);
    const MatI8 b = random_i8(s[1], s[2], rng);
    REALM_CHECK(gemm_i8(a, b) == reference_gemm(a, b));
  }
}

REALM_TEST(gemm_k_bound_enforced) {
  // k = 2^16 is the largest overflow-safe inner dimension; one past must
  // throw in every build type, not just assert in debug.
  const std::size_t k_bad = kMaxK + 1;
  const MatI8 a(1, k_bad), b(k_bad, 1);
  REALM_CHECK_THROWS(gemm_i8(a, b), std::invalid_argument);
  REALM_CHECK_THROWS(gemm_i8(MatI8(1, 3), MatI8(4, 1)), std::invalid_argument);
  // k = kMaxK exactly is allowed.
  const MatI8 a_ok(1, kMaxK, 1), b_ok(kMaxK, 1, 1);
  REALM_CHECK_EQ(gemm_i8(a_ok, b_ok)(0, 0), static_cast<std::int32_t>(kMaxK));
  // The float reference accumulates in float and is NOT subject to the int32
  // bound — large-k golden comparisons must keep working.
  const MatF fa(1, k_bad, 1.0f), fb(k_bad, 1, 1.0f);
  REALM_CHECK_EQ(gemm_f32(fa, fb)(0, 0), static_cast<float>(k_bad));
}

REALM_TEST_MAIN()
