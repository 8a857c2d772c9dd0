// GEMM entry points: INT8 x INT8 -> INT32 (the accelerator datapath under
// test) plus an FP32 reference. The integer variants validate shapes and the
// overflow bound here, then route through tensor::kernels — the tiered
// SIMD/portable implementations with runtime CPU dispatch and row-sharded
// threading (see gemm_kernels.h). Every tier and every thread count produces
// bit-identical results, because fault injection compares accumulators bit by
// bit: a scheduling- or ISA-dependent output would be indistinguishable from
// the faults this repository exists to detect.
//
// Output contract: `c` is resized if mis-shaped, then FULLY OVERWRITTEN
// without ever being read — callers never need to zero it.
//
// Each variant optionally emits the fused eᵀC column reduction: pass
// `fused_col_sums` and it is resized to n and filled with col_sums of the C
// this call writes, accumulated in the kernels' store phase (no second pass
// over C). Bit-identical to tensor::col_sums(c) at every tier/thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/gemm_kernels.h"
#include "tensor/tensor.h"

namespace realm::tensor {

/// Largest inner dimension for which int8 x int8 -> int32 accumulation cannot
/// overflow for ANY int8 operands: worst case is (-128)*(-128)*k = 2^14*k,
/// and 2^14 * 2^16 = 2^30 < 2^31 - 1, while 2^14 * 2^17 = 2^31 overflows.
/// (Quantizer-produced operands clamp to ±127 and would be safe to 2^17, but
/// raw MatI8 can hold -128, so the bound must cover it.) All gemm_i8 variants
/// throw std::invalid_argument beyond this bound, in release builds too.
inline constexpr std::size_t kMaxK = std::size_t{1} << 16;

/// C[m x n] = A[m x k] * B[k x n], int8 inputs, int32 accumulation.
/// Throws std::invalid_argument if k > kMaxK.
void gemm_i8(const MatI8& a, const MatI8& b, MatI32& c,
             std::vector<std::int64_t>* fused_col_sums = nullptr);

/// Convenience allocating overload.
[[nodiscard]] MatI32 gemm_i8(const MatI8& a, const MatI8& b);

/// Stationary-B variant: reuses panels packed once via kernels::pack_b
/// (ProtectedGemm keeps them resident with the weights). Bit-exact with
/// gemm_i8(a, b, c); `pb` that mismatches the active tier or B's shape is
/// ignored and the call packs fresh.
void gemm_i8_prepacked(const MatI8& a, const MatI8& b, const kernels::PackedB& pb, MatI32& c,
                       std::vector<std::int64_t>* fused_col_sums = nullptr);

/// FP32 reference GEMM (tests and golden comparisons only).
[[nodiscard]] MatF gemm_f32(const MatF& a, const MatF& b);

}  // namespace realm::tensor
