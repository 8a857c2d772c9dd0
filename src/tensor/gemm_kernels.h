// Tiered INT8 GEMM kernels with runtime CPU dispatch.
//
// Three implementations of the same bit-exact contract, best one picked per
// process by probing CPUID at first use (overridable for tests and A/B runs):
//
//  * kAvx512 — 512-bit vpdpbusd (VNNI) microkernel over int8 k-quads (8 rows
//    x 32 cols of int32 accumulators), for CPUs with AVX-512F + AVX-512BW +
//    AVX-512 VNNI. A CPU with AVX-512 but no VNNI runs the avx2 tier.
//  * kAvx2   — 256-bit vpmaddwd microkernel over int16 k-pairs (4 rows x 16
//    cols).
//  * kPortable — the blocked scalar i-k-j loop (autovectorizable), always
//    available; the reference the SIMD tiers are cross-checked against.
//
// Both SIMD tiers pack B into column panels (32 columns on avx512, 16 on
// avx2) whose rows interleave the k-steps one multiply-add consumes:
//
//  * avx512: k-quads of raw int8, panel[q][4j+t] = b(4q+t, j0+j), so one
//    vpdpbusd against a broadcast A quad retires four k-steps. vpdpbusd
//    multiplies u8 by s8, so A is fed as a + 128 (a ^ 0x80) and each panel
//    ends in one int32 bias row, 128·Σₖ b(k, j) per padded column, which
//    the kernel subtracts before the store and the fused eᵀC reduction.
//    The non-saturating form never clamps, and the biased sum stays inside
//    int32 at k ≤ 2^16 (extreme 255·(−128)·2^16 = −2 139 095 040).
//  * avx2: k-pairs sign-extended to int16, pair (b[2kp][j], b[2kp+1][j])
//    contiguous for vpmaddwd against a broadcast A pair: |a*b| <= 2^14, a
//    pair sums to <= 2^15, and no saturation anywhere.
//
// Either way the true sum has |Σ a·b| <= 2^30 at k <= 2^16 (see
// tensor::kMaxK). Entries past the k or n edge pack as 0.
//
// Every tier produces bit-identical results to every other tier and at every
// thread count: integer addition is associative, each output element's
// k-reduction is computed in full by exactly one thread, and row shards are
// disjoint. The macro-loop is row-sharded across util::global_pool().
//
// C is FULLY OVERWRITTEN and never read — callers need not (and should not)
// zero it first. This is the contract tensor::gemm_i8 exposes.
//
// Fused eᵀC reduction: every entry point takes an optional `col_sums` buffer
// (length n). When non-null it is fully overwritten with the per-column int64
// sums of the C this call writes, accumulated in the microkernel store phase
// from the register tiles — the checksum screen's observed/predicted column
// reduction without a second pass over C. Row shards accumulate into private
// partials merged under a lock; int64 addition is associative and
// commutative, so the fused sums are bit-identical to col_sums(C) at every
// tier, thread count, and merge order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace realm::tensor::kernels {

enum class Tier : std::uint8_t {
  kPortable = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

[[nodiscard]] const char* to_string(Tier t) noexcept;

/// Best tier the running CPU (and OS state-save support) can execute,
/// probed once via CPUID/XGETBV. Always at least kPortable.
[[nodiscard]] Tier best_supported_tier() noexcept;

/// Tier used by gemm_i8. Defaults to best_supported_tier(); the
/// REALM_KERNEL environment variable (portable|avx2|avx512) overrides the
/// default at first use.
[[nodiscard]] Tier active_tier() noexcept;

/// Force a tier (tests cross-checking SIMD vs scalar drive this). Throws
/// std::invalid_argument if the CPU cannot execute it.
void set_active_tier(Tier t);

/// c[m x n] = a[m x k] * b[k x n], all row-major, int8 inputs, int32
/// accumulation. c is fully overwritten. Dimension/overflow validation is the
/// caller's job (tensor::gemm_i8 enforces kMaxK). Non-null `col_sums`
/// (length n) receives the fused eᵀC reduction (see file comment).
void gemm_i8(const std::int8_t* a, const std::int8_t* b, std::int32_t* c, std::size_t m,
             std::size_t k, std::size_t n, std::int64_t* col_sums = nullptr);

/// Pre-packed SIMD panels of a stationary B operand (the accelerator's
/// weight-resident model: pay the O(k*n) pack once per weight tile, not once
/// per GEMM). Opaque; tied to the tier it was packed for — a tier or shape
/// mismatch at use time simply falls back to packing fresh. Cheap to move,
/// empty (and always a fallback) on the portable tier.
///
/// Immutability contract (load-bearing for realm::serve): pack_b is the only
/// writer — once returned, a PackedB is never mutated by any gemm_i8_*
/// call, so any number of concurrent GEMMs (every worker of a serving
/// engine, plus recompute replays) may read the same panels with no
/// synchronization. Destroying or reassigning it while a GEMM reads it is,
/// of course, a race — ProtectedGemm keeps panels alive with the weights.
class PackedB {
 public:
  PackedB() = default;

  [[nodiscard]] bool valid_for(Tier t, std::size_t k, std::size_t n) const noexcept {
    return !panels_.empty() && tier_ == t && k_ == k && n_ == n;
  }

  /// Raw panel words, for the memory-hierarchy fault model (at-rest panel
  /// corruption) and the repack-compare scrub: int16 pairs on avx2; on
  /// avx512 the int8 quad image plus its int32 bias rows, viewed as 16-bit
  /// words. Empty on the portable tier, which consumes B directly.
  [[nodiscard]] std::span<const std::int16_t> raw_panels() const noexcept { return panels_; }

  /// Mutable view for fault injection ONLY. Writing through this view on a
  /// PackedB that concurrent GEMMs read violates the immutability contract
  /// above — callers must hold an exclusively-owned copy (ProtectedGemm::
  /// corrupt_panels mutates its own member before the tile is shared).
  [[nodiscard]] std::span<std::int16_t> mutable_panels() noexcept { return panels_; }

 private:
  friend PackedB pack_b(const std::int8_t* b, std::size_t k, std::size_t n);
  friend void gemm_i8_prepacked(const std::int8_t* a, const std::int8_t* b, const PackedB& pb,
                                std::int32_t* c, std::size_t m, std::size_t k, std::size_t n,
                                std::int64_t* col_sums);

  Tier tier_ = Tier::kPortable;
  std::size_t k_ = 0;
  std::size_t n_ = 0;
  std::vector<std::int16_t> panels_;
};

/// Pack b[k x n] (row-major) for the active tier.
[[nodiscard]] PackedB pack_b(const std::int8_t* b, std::size_t k, std::size_t n);

/// gemm_i8 that reuses pre-packed panels when `pb` matches the active tier
/// and shape; otherwise identical to gemm_i8(a, b, c, ...). Bit-exact with
/// the non-prepacked path in every case.
void gemm_i8_prepacked(const std::int8_t* a, const std::int8_t* b, const PackedB& pb,
                       std::int32_t* c, std::size_t m, std::size_t k, std::size_t n,
                       std::int64_t* col_sums = nullptr);

}  // namespace realm::tensor::kernels
