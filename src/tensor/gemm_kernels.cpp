#include "tensor/gemm_kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tensor/checksum_kernels.h"
#include "util/compiler.h"
#include "util/threadpool.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define REALM_X86 1
#else
#define REALM_X86 0
#endif

// GCC 12 copies the tied accumulator of _mm512_dpbusd_epi32 in and out of a
// scratch register around every call (about 30 zmm moves and two stack stores
// per 16 vpdpbusd in the 8-row avx512 k-loop), and does the same to the
// avx2 tier's _mm256_add_epi32. On GCC the k-loops therefore accumulate
// through "+v"/"+x" inline asm (dpbusd, madd_acc) and keep each panel row
// live until every row has consumed it. Other compilers get the intrinsics.
#if defined(__GNUC__) && !defined(__clang__)
#define REALM_GCC_ASM 1
#else
#define REALM_GCC_ASM 0
#endif

namespace realm::tensor::kernels {

namespace {

// Microkernel footprints. The register budget drives the shapes: AVX-512 has
// 32 zmm registers, so an 8x32 tile holds 16 accumulators plus temporaries;
// AVX2's 16 ymm registers fit a 4x16 tile (8 accumulators).
constexpr std::size_t kMr512 = 8, kNr512 = 32;
constexpr std::size_t kMr256 = 4, kNr256 = 16;
/// Rows of A converted (u8 on avx512, int16 on avx2) at a time; keeps the
/// converted block L2-resident for typical k (64 rows x 1024 x 1B = 64 KiB
/// as u8), 4 MiB as u8 (8 MiB as int16) at the kMaxK worst case. The block
/// lives in per-thread scratch that keeps the largest size its thread saw.
constexpr std::size_t kRowBlock = 64;
/// parallel_for grain: at least one full microkernel tile of rows per chunk.
constexpr std::size_t kRowGrain = 8;
/// How far ahead of the microkernel's k-loop the panel stream is prefetched:
/// 32 avx512 panel rows of 128 B, or 64 avx2 rows of 64 B. Without it a
/// decode-sized tile (few rows of A against a long panel) stalls on every
/// L3 line; the hardware prefetchers do not run far enough ahead.
constexpr std::size_t kPrefetchBytes = 4096;

#if REALM_X86

// ---------------------------------------------------------------------------
// Packing. B is split into column panels of width nr (32 on avx512, 16 on
// avx2). Each tier interleaves the k-steps one multiply-add consumes, so one
// panel row (2*nr int16 words) feeds one k-group of a microkernel:
//
//   avx2   — k-pairs sign-extended to int16 for vpmaddwd:
//              panel[kp][2*j+t] = b(2kp+t, j0+j)        t in {0,1}
//   avx512 — k-quads of raw int8 bytes for vpdpbusd, then one bias row of
//            int32 (A enters that kernel offset by +128; see kern_avx512):
//              panel[q][4*j+t]  = b(4q+t, j0+j)         t in {0..3}
//              bias[j]          = 128 * sum_k b(k, j0+j)
//
// Entries past the k or n edge are 0, and so is a padded column's bias.
// ---------------------------------------------------------------------------

std::size_t nr_for(Tier t) noexcept { return t == Tier::kAvx512 ? kNr512 : kNr256; }

/// Panel rows (of 2*nr int16 words each) per column panel.
std::size_t panel_rows(Tier t, std::size_t k) noexcept {
  return t == Tier::kAvx512 ? (k + 3) / 4 + 1 : (k + 1) / 2;
}

std::size_t packed_words(Tier t, std::size_t k, std::size_t n) noexcept {
  const std::size_t nr = nr_for(t);
  return (n + nr - 1) / nr * panel_rows(t, k) * 2 * nr;
}

void pack_b_pairs(const std::int8_t* b, std::size_t k, std::size_t n, std::int16_t* out) {
  const std::size_t kpairs = (k + 1) / 2;
  const std::size_t panels = (n + kNr256 - 1) / kNr256;
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t j0 = p * kNr256;
    const std::size_t jw = std::min(kNr256, n - j0);
    std::int16_t* po = out + p * kpairs * 2 * kNr256;
    for (std::size_t kp = 0; kp < kpairs; ++kp) {
      const std::size_t k0 = 2 * kp;
      const std::int8_t* r0 = b + k0 * n;
      const std::int8_t* r1 = (k0 + 1 < k) ? r0 + n : nullptr;
      std::int16_t* dst = po + kp * 2 * kNr256;
      for (std::size_t j = 0; j < jw; ++j) {
        dst[2 * j] = r0[j0 + j];
        dst[2 * j + 1] = r1 ? r1[j0 + j] : std::int16_t{0};
      }
      for (std::size_t j = jw; j < kNr256; ++j) {
        dst[2 * j] = 0;
        dst[2 * j + 1] = 0;
      }
    }
  }
}

/// Bytes in one avx512 panel row: 32 columns of one k-quad, or 32 int32 biases.
constexpr std::size_t kQuadRow = 4 * kNr512;

/// Interleave columns [j0, j0 + 32) of four B rows into one k-quad panel
/// row, 16 columns at a time: unpack{lo,hi}_epi8 makes pairs,
/// unpack{lo,hi}_epi16 makes quads.
void interleave_quad(const std::int8_t* const rows[4], std::size_t j0, unsigned char* dst) {
  for (std::size_t g = j0; g < j0 + kNr512; g += 16) {
    const __m128i x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[0] + g));
    const __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[1] + g));
    const __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[2] + g));
    const __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[3] + g));
    const __m128i lo01 = _mm_unpacklo_epi8(x0, x1), hi01 = _mm_unpackhi_epi8(x0, x1);
    const __m128i lo23 = _mm_unpacklo_epi8(x2, x3), hi23 = _mm_unpackhi_epi8(x2, x3);
    auto* out = reinterpret_cast<__m128i*>(dst + 4 * (g - j0));
    _mm_storeu_si128(out, _mm_unpacklo_epi16(lo01, lo23));
    _mm_storeu_si128(out + 1, _mm_unpackhi_epi16(lo01, lo23));
    _mm_storeu_si128(out + 2, _mm_unpacklo_epi16(hi01, hi23));
    _mm_storeu_si128(out + 3, _mm_unpackhi_epi16(hi01, hi23));
  }
}

/// The avx512 image, written as bytes into the int16 storage. B is read row
/// by row (one k-quad across every panel); rows past k read a zero row and
/// the ragged last panel reads a zero-padded copy.
void pack_b_quads(const std::int8_t* b, std::size_t k, std::size_t n, std::int16_t* out) {
  const std::size_t kquads = (k + 3) / 4;
  const std::size_t full = n / kNr512;
  const std::size_t jtail = n - full * kNr512;
  const std::size_t panel_bytes = (kquads + 1) * kQuadRow;
  auto* bytes = reinterpret_cast<unsigned char*>(out);
  const std::vector<std::int8_t> zero_row(n, 0);
  std::int8_t edge[4][kNr512] = {};
  const std::int8_t* const edge_rows[4] = {edge[0], edge[1], edge[2], edge[3]};
  for (std::size_t q = 0; q < kquads; ++q) {
    const std::int8_t* rows[4];
    for (std::size_t t = 0; t < 4; ++t) {
      rows[t] = 4 * q + t < k ? b + (4 * q + t) * n : zero_row.data();
    }
    for (std::size_t p = 0; p < full; ++p) {
      interleave_quad(rows, p * kNr512, bytes + p * panel_bytes + q * kQuadRow);
    }
    if (jtail != 0) {
      for (std::size_t t = 0; t < 4; ++t) std::memcpy(edge[t], rows[t] + full * kNr512, jtail);
      interleave_quad(edge_rows, 0, bytes + full * panel_bytes + q * kQuadRow);
    }
  }
  // Bias rows: |128 * sum_k b| <= 128 * 128 * kMaxK = 2^30 fits int32.
  std::vector<std::int64_t> sums(n);
  col_sums_i8(b, k, n, sums.data());
  for (std::size_t p = 0; p * kNr512 < n; ++p) {
    std::int32_t bias[kNr512] = {};
    for (std::size_t j = 0; j < kNr512 && p * kNr512 + j < n; ++j) {
      bias[j] = static_cast<std::int32_t>(128 * sums[p * kNr512 + j]);
    }
    std::memcpy(bytes + p * panel_bytes + kquads * kQuadRow, bias, sizeof(bias));
  }
}

/// Pack b[k x n] for SIMD tier t into `out` (resized to packed_words).
void pack_panels(Tier t, const std::int8_t* b, std::size_t k, std::size_t n,
                 std::vector<std::int16_t>& out) {
  out.resize(packed_words(t, k, n));
  if (t == Tier::kAvx512) {
    pack_b_quads(b, k, n, out.data());
  } else {
    pack_b_pairs(b, k, n, out.data());
  }
}

/// Sign-extend rows [i0, i1) of A to int16, zero-padding odd k to kpad.
void pack_a_i16(const std::int8_t* a, std::size_t k, std::size_t kpad, std::size_t i0,
                std::size_t i1, std::int16_t* out) {
  for (std::size_t i = i0; i < i1; ++i) {
    std::int16_t* dst = out + (i - i0) * kpad;
    const std::int8_t* src = a + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) dst[kk] = src[kk];
    for (std::size_t kk = k; kk < kpad; ++kk) dst[kk] = 0;
  }
}

/// Rows [i0, i1) of A as u8 a + 128 (a ^ 0x80), padding k to kpad with the
/// encoding of 0 (the padded B bytes are 0, so any value would do).
void pack_a_u8(const std::int8_t* a, std::size_t k, std::size_t kpad, std::size_t i0,
               std::size_t i1, std::uint8_t* out) {
  for (std::size_t i = i0; i < i1; ++i) {
    std::uint8_t* dst = out + (i - i0) * kpad;
    const std::int8_t* src = a + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      dst[kk] = static_cast<std::uint8_t>(static_cast<std::uint8_t>(src[kk]) ^ 0x80u);
    }
    for (std::size_t kk = k; kk < kpad; ++kk) dst[kk] = 0x80;
  }
}

/// Prefetch the `Bytes`-long panel row that lies kPrefetchBytes past `row`,
/// one 64 B cache line at a time. A prefetch is a hint that cannot fault, so
/// running past the last panel needs no clamp; the address is formed as an
/// integer because a pointer past the end of an allocation may not be formed.
template <std::size_t Bytes>
inline void prefetch_row(const void* row) noexcept {
  const std::uintptr_t ahead = reinterpret_cast<std::uintptr_t>(row) + kPrefetchBytes;
  for (std::size_t line = 0; line < Bytes; line += 64) {
    _mm_prefetch(reinterpret_cast<const char*>(ahead + line), _MM_HINT_T0);
  }
}

/// Broadcastable A group (an int16 pair or a u8 quad) read without alignment
/// or aliasing UB; compiles to a single 32-bit load.
inline std::int32_t a_group(const void* p) noexcept {
  std::int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

#endif  // REALM_X86

// ---------------------------------------------------------------------------
// Portable tier: the blocked scalar i-k-j loop (gcc/clang autovectorize the
// inner j loop). Also the reference the SIMD tiers are cross-checked against.
// ---------------------------------------------------------------------------

/// Fused eᵀC for the portable tier and the SIMD edge cases that already
/// spilled the tile to memory: fold finished C rows into the shard's partial
/// column sums (the rows are still cache-hot from the store).
void csum_rows(const std::int32_t* c, std::size_t n, std::size_t i0, std::size_t i1,
               std::int64_t* csum) {
  for (std::size_t i = i0; i < i1; ++i) {
    const std::int32_t* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) csum[j] += crow[j];
  }
}

void portable_rows(const std::int8_t* a, const std::int8_t* b, std::int32_t* c, std::size_t k,
                   std::size_t n, std::size_t i0, std::size_t i1, std::int64_t* csum) {
  constexpr std::size_t kBlock = 64;
  std::memset(c + i0 * n, 0, (i1 - i0) * n * sizeof(std::int32_t));
  for (std::size_t kb = 0; kb < k; kb += kBlock) {
    const std::size_t ke = std::min(k, kb + kBlock);
    for (std::size_t i = i0; i < i1; ++i) {
      const std::int8_t* arow = a + i * k;
      std::int32_t* crow = c + i * n;
      for (std::size_t kk = kb; kk < ke; ++kk) {
        const std::int32_t av = arow[kk];
        if (av == 0) continue;
        const std::int8_t* brow = b + kk * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * static_cast<std::int32_t>(brow[j]);
      }
    }
  }
  if (csum) csum_rows(c, n, i0, i1, csum);
}

#if REALM_X86

// ---------------------------------------------------------------------------
// AVX2 tier: 4x16 int32 accumulator tile, two vpmaddwd per A pair.
// ---------------------------------------------------------------------------

/// acc + vpmaddwd(a, b), accumulated in place (see REALM_GCC_ASM).
__attribute__((target("avx2"), always_inline)) inline __m256i madd_acc(__m256i acc, __m256i a,
                                                                       __m256i b) noexcept {
  const __m256i prod = _mm256_madd_epi16(a, b);
#if REALM_GCC_ASM
  __asm__("vpaddd {%1, %0, %0|%0, %0, %1}" : "+x"(acc) : "x"(prod));
  return acc;
#else
  return _mm256_add_epi32(acc, prod);
#endif
}

/// One MR x 16 tile over a panel's k-pairs; same store and fused-eᵀC scheme
/// as kern_avx512.
template <std::size_t MR>
__attribute__((target("avx2"))) void kern_avx2(const std::int16_t* a16, std::size_t lda,
                                               const std::int16_t* pb, std::size_t kpairs,
                                               std::int32_t* c, std::size_t ldc, std::size_t jw,
                                               std::int64_t* csum) {
  __m256i acc[MR][2];
  for (std::size_t r = 0; r < MR; ++r) {
    acc[r][0] = _mm256_setzero_si256();
    acc[r][1] = _mm256_setzero_si256();
  }
  for (std::size_t kp = 0; kp < kpairs; ++kp) {
    prefetch_row<2 * kNr256 * sizeof(std::int16_t)>(pb + kp * 2 * kNr256);
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + kp * 2 * kNr256));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pb + kp * 2 * kNr256 + 16));
#pragma GCC unroll 4
    for (std::size_t r = 0; r < MR; ++r) {
      const __m256i av = _mm256_set1_epi32(a_group(a16 + r * lda + 2 * kp));
      acc[r][0] = madd_acc(acc[r][0], av, b0);
      acc[r][1] = madd_acc(acc[r][1], av, b1);
    }
#if REALM_GCC_ASM
    __asm__("" : : "xm"(b0), "xm"(b1));  // see kern_avx512
#endif
  }
  if (jw < kNr256) {
    alignas(32) std::int32_t tmp[kNr256];
    for (std::size_t r = 0; r < MR; ++r) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc[r][0]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + 8), acc[r][1]);
      std::memcpy(c + r * ldc, tmp, jw * sizeof(std::int32_t));
      if (csum) {
        for (std::size_t j = 0; j < jw; ++j) csum[j] += tmp[j];
      }
    }
    return;
  }
  for (std::size_t r = 0; r < MR; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + r * ldc), acc[r][0]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + r * ldc + 8), acc[r][1]);
  }
  if (csum) {
    // Fused eᵀC: fold the tile's rows into per-column int64 sums straight
    // from the accumulator registers (int32 row sums could overflow: four
    // values of magnitude 2^30 exceed int32, so widen before the row fold).
    for (std::size_t h = 0; h < 2; ++h) {
      __m256i lo = _mm256_setzero_si256(), hi = _mm256_setzero_si256();
      for (std::size_t r = 0; r < MR; ++r) {
        lo = _mm256_add_epi64(lo, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(acc[r][h])));
        hi = _mm256_add_epi64(hi,
                              _mm256_cvtepi32_epi64(_mm256_extracti128_si256(acc[r][h], 1)));
      }
      std::int64_t* cs = csum + h * 8;
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(cs),
          _mm256_add_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(cs)), lo));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(cs + 4),
          _mm256_add_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(cs + 4)), hi));
    }
  }
}

using KernAvx2 = void (*)(const std::int16_t*, std::size_t, const std::int16_t*, std::size_t,
                          std::int32_t*, std::size_t, std::size_t, std::int64_t*);

/// kern_avx2<R + 1> at index R.
constexpr std::array<KernAvx2, kMr256> kKernAvx2 = {&kern_avx2<1>, &kern_avx2<2>, &kern_avx2<3>,
                                                    &kern_avx2<4>};

__attribute__((target("avx2"))) void avx2_rows(const std::int8_t* a, const std::int16_t* pb,
                                               std::int32_t* c, std::size_t k, std::size_t n,
                                               std::size_t i0, std::size_t i1,
                                               std::int64_t* csum) {
  const std::size_t kpairs = (k + 1) / 2;
  const std::size_t kpad = 2 * kpairs;
  const std::size_t panels = (n + kNr256 - 1) / kNr256;
  // Per-thread and grow-only, so a steady-state call allocates nothing.
  thread_local std::vector<std::int16_t> a16_buf;
  a16_buf.resize(std::max(a16_buf.size(), std::min(kRowBlock, i1 - i0) * kpad));
  std::int16_t* const a16 = a16_buf.data();
  for (std::size_t ib = i0; ib < i1; ib += kRowBlock) {
    const std::size_t ie = std::min(i1, ib + kRowBlock);
    pack_a_i16(a, k, kpad, ib, ie, a16);
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t j0 = p * kNr256;
      const std::size_t jw = std::min(kNr256, n - j0);
      const std::int16_t* pbp = pb + p * kpairs * 2 * kNr256;
      for (std::size_t i = ib; i < ie; i += kMr256) {
        const std::size_t mr = std::min(kMr256, ie - i);
        const std::int16_t* arows = a16 + (i - ib) * kpad;
        std::int64_t* cs = csum ? csum + j0 : nullptr;
        kKernAvx2[mr - 1](arows, kpad, pbp, kpairs, c + i * n + j0, n, jw, cs);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AVX-512 tier (F + BW + VNNI): 8x32 tile, one vpdpbusd per k-quad and half
// tile. vpdpbusd multiplies unsigned by signed bytes, so A enters as
// a + 128 and each panel's bias row undoes the offset before the store:
//   sum_k (a+128)*b - 128*sum_k b = sum_k a*b.
// The non-saturating form never clamps, and the biased sum stays inside
// int32 anyway: |(a+128)*b| <= 255*128, so at k = 2^16 the extreme is
// 255*(-128)*2^16 = -2 139 095 040 > INT32_MIN.
// ---------------------------------------------------------------------------

// Suppresses the GCC PR105593 -Wmaybe-uninitialized false positive from the
// vpmovsxdq widening in the fused store phase; see src/util/compiler.h.
REALM_BEGIN_AVX512_SECTION

/// acc + vpdpbusd(a, b), accumulated in place (see REALM_GCC_ASM); `b` may
/// stay in memory, an L1-hot panel row.
__attribute__((target("avx512f,avx512vnni"), always_inline)) inline __m512i dpbusd(
    __m512i acc, __m512i a, __m512i b) noexcept {
#if REALM_GCC_ASM
  __asm__("vpdpbusd {%2, %1, %0|%0, %1, %2}" : "+v"(acc) : "v"(a), "vm"(b));
  return acc;
#else
  return _mm512_dpbusd_epi32(acc, a, b);
#endif
}

/// One MR x 32 tile over a panel's k-quads. A full-width tile stores and
/// reduces eᵀC straight from the registers; the ragged last panel (jw < 32)
/// spills through a stack tile.
template <std::size_t MR>
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void kern_avx512(
    const std::uint8_t* au8, std::size_t lda, const unsigned char* pb, std::size_t kquads,
    std::int32_t* c, std::size_t ldc, std::size_t jw, std::int64_t* csum) {
  __m512i acc[MR][2];
  for (std::size_t r = 0; r < MR; ++r) {
    acc[r][0] = _mm512_setzero_si512();
    acc[r][1] = _mm512_setzero_si512();
  }
  for (std::size_t q = 0; q < kquads; ++q) {
    prefetch_row<kQuadRow>(pb + q * kQuadRow);
    const __m512i b0 = _mm512_loadu_si512(pb + q * kQuadRow);
    const __m512i b1 = _mm512_loadu_si512(pb + q * kQuadRow + 64);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < MR; ++r) {
      const __m512i av = _mm512_set1_epi32(a_group(au8 + r * lda + 4 * q));
      acc[r][0] = dpbusd(acc[r][0], av, b0);
      acc[r][1] = dpbusd(acc[r][1], av, b1);
    }
#if REALM_GCC_ASM
    // Keep the panel row live to here; otherwise GCC hands its register to
    // the last accumulator and copies that one in and out instead.
    __asm__("" : : "vm"(b0), "vm"(b1));
#endif
  }
  const __m512i bias0 = _mm512_loadu_si512(pb + kquads * kQuadRow);
  const __m512i bias1 = _mm512_loadu_si512(pb + kquads * kQuadRow + 64);
  for (std::size_t r = 0; r < MR; ++r) {
    acc[r][0] = _mm512_sub_epi32(acc[r][0], bias0);
    acc[r][1] = _mm512_sub_epi32(acc[r][1], bias1);
  }
  if (jw < kNr512) {
    alignas(64) std::int32_t tmp[kNr512];
    for (std::size_t r = 0; r < MR; ++r) {
      _mm512_store_si512(tmp, acc[r][0]);
      _mm512_store_si512(tmp + 16, acc[r][1]);
      std::memcpy(c + r * ldc, tmp, jw * sizeof(std::int32_t));
      if (csum) {
        for (std::size_t j = 0; j < jw; ++j) csum[j] += tmp[j];
      }
    }
    return;
  }
  for (std::size_t r = 0; r < MR; ++r) {
    _mm512_storeu_si512(c + r * ldc, acc[r][0]);
    _mm512_storeu_si512(c + r * ldc + 16, acc[r][1]);
  }
  if (csum) {
    // Fused eᵀC from the register tile; widen to int64 before the row fold
    // (eight int32 values of magnitude 2^30 overflow an int32 sum).
    for (std::size_t h = 0; h < 2; ++h) {
      __m512i lo = _mm512_setzero_si512(), hi = _mm512_setzero_si512();
      for (std::size_t r = 0; r < MR; ++r) {
        lo = _mm512_add_epi64(lo, _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc[r][h])));
        hi = _mm512_add_epi64(hi,
                              _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc[r][h], 1)));
      }
      std::int64_t* cs = csum + h * 16;
      _mm512_storeu_si512(cs, _mm512_add_epi64(_mm512_loadu_si512(cs), lo));
      _mm512_storeu_si512(cs + 8, _mm512_add_epi64(_mm512_loadu_si512(cs + 8), hi));
    }
  }
}

using KernAvx512 = void (*)(const std::uint8_t*, std::size_t, const unsigned char*, std::size_t,
                            std::int32_t*, std::size_t, std::size_t, std::int64_t*);

/// kern_avx512<R + 1> at index R: one instantiation per tile height, so a
/// short tile (decode's m = 1) keeps its accumulators in registers.
template <std::size_t... R>
constexpr std::array<KernAvx512, sizeof...(R)> kernels_by_rows(std::index_sequence<R...>) {
  return {&kern_avx512<R + 1>...};
}
constexpr auto kKernAvx512 = kernels_by_rows(std::make_index_sequence<kMr512>{});

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void avx512_rows(
    const std::int8_t* a, const std::int16_t* pb, std::int32_t* c, std::size_t k, std::size_t n,
    std::size_t i0, std::size_t i1, std::int64_t* csum) {
  const std::size_t kquads = (k + 3) / 4;
  const std::size_t kpad = 4 * kquads;
  const std::size_t panels = (n + kNr512 - 1) / kNr512;
  const auto* pbytes = reinterpret_cast<const unsigned char*>(pb);
  thread_local std::vector<std::uint8_t> au8_buf;  // as in avx2_rows
  au8_buf.resize(std::max(au8_buf.size(), std::min(kRowBlock, i1 - i0) * kpad));
  std::uint8_t* const au8 = au8_buf.data();
  for (std::size_t ib = i0; ib < i1; ib += kRowBlock) {
    const std::size_t ie = std::min(i1, ib + kRowBlock);
    pack_a_u8(a, k, kpad, ib, ie, au8);
    for (std::size_t p = 0; p < panels; ++p) {
      const std::size_t j0 = p * kNr512;
      const std::size_t jw = std::min(kNr512, n - j0);
      const unsigned char* pbp = pbytes + p * (kquads + 1) * kQuadRow;
      for (std::size_t i = ib; i < ie; i += kMr512) {
        const std::size_t mr = std::min(kMr512, ie - i);
        const std::uint8_t* arows = au8 + (i - ib) * kpad;
        std::int64_t* cs = csum ? csum + j0 : nullptr;
        kKernAvx512[mr - 1](arows, kpad, pbp, kquads, c + i * n + j0, n, jw, cs);
      }
    }
  }
}

REALM_END_AVX512_SECTION

#endif  // REALM_X86

// ---------------------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------------------

Tier detect_best() noexcept {
#if REALM_X86
  // __builtin_cpu_supports consults libgcc's CPUID+XGETBV probe, so OS
  // state-save support for ymm/zmm is already folded in.
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vnni")) {
    return Tier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kPortable;
}

Tier initial_tier() noexcept {
  const Tier best = best_supported_tier();
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once during tier_slot()'s static init
  if (const char* env = std::getenv("REALM_KERNEL")) {
    const std::string v(env);
    if (v == "portable") return Tier::kPortable;
    if (v == "avx2" && best >= Tier::kAvx2) return Tier::kAvx2;
    if (v == "avx512" && best >= Tier::kAvx512) return Tier::kAvx512;
    // An override that silently fell back would let a user attribute fast-path
    // numbers to the tier they typed; say what actually happens.
    std::fprintf(stderr,
                 "realm: REALM_KERNEL=%s %s; using \"%s\"\n", env,
                 (v == "portable" || v == "avx2" || v == "avx512")
                     ? "is not supported by this CPU"
                     : "is not a known tier (portable|avx2|avx512)",
                 to_string(best));
  }
  return best;
}

std::atomic<Tier>& tier_slot() {
  static std::atomic<Tier> slot{initial_tier()};
  return slot;
}

/// Row-shard `rows(i0, i1, shard_csum)` across the global pool. With a fused
/// `csum` requested, each shard reduces into a private partial merged under a
/// lock — int64 addition is associative and commutative, so the merged sums
/// are bit-identical at every thread count and merge order. A single chunk
/// covering every row reduces straight into `csum`.
template <typename Rows>
void shard_rows_fused(std::size_t m, std::size_t n, std::int64_t* csum, const Rows& rows) {
  if (!csum) {
    util::global_pool().parallel_for(
        m, kRowGrain, [&](std::size_t i0, std::size_t i1) { rows(i0, i1, nullptr); });
    return;
  }
  std::mutex mu;
  util::global_pool().parallel_for(m, kRowGrain, [&](std::size_t i0, std::size_t i1) {
    if (i1 - i0 == m) {  // one chunk (a serial pool or a nested call): no merge
      rows(i0, i1, csum);
      return;
    }
    std::vector<std::int64_t> local(n, 0);
    rows(i0, i1, local.data());
    const std::lock_guard<std::mutex> lock(mu);
    for (std::size_t j = 0; j < n; ++j) csum[j] += local[j];
  });
}

#if REALM_X86
/// Row-shard the macro-loop over already-packed panels.
void run_simd_rows(Tier t, const std::int8_t* a, const std::int16_t* pb, std::int32_t* c,
                   std::size_t m, std::size_t k, std::size_t n, std::int64_t* csum) {
  shard_rows_fused(m, n, csum, [&](std::size_t i0, std::size_t i1, std::int64_t* cs) {
    if (t == Tier::kAvx512) {
      avx512_rows(a, pb, c, k, n, i0, i1, cs);
    } else {
      avx2_rows(a, pb, c, k, n, i0, i1, cs);
    }
  });
}
#endif

}  // namespace

const char* to_string(Tier t) noexcept {
  switch (t) {
    case Tier::kPortable: return "portable";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "?";
}

Tier best_supported_tier() noexcept {
  static const Tier best = detect_best();
  return best;
}

Tier active_tier() noexcept { return tier_slot().load(std::memory_order_relaxed); }

void set_active_tier(Tier t) {
  if (t > best_supported_tier()) {
    throw std::invalid_argument(std::string("kernels: tier ") + to_string(t) +
                                " not supported by this CPU");
  }
  tier_slot().store(t, std::memory_order_relaxed);
}

void gemm_i8(const std::int8_t* a, const std::int8_t* b, std::int32_t* c, std::size_t m,
             std::size_t k, std::size_t n, std::int64_t* col_sums) {
  if (col_sums) std::fill_n(col_sums, n, std::int64_t{0});
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::memset(c, 0, m * n * sizeof(std::int32_t));
    return;
  }
#if REALM_X86
  const Tier t = active_tier();
  if (t != Tier::kPortable) {
    // Pack B once (O(k*n)), then row-shard the macro-loop.
    std::vector<std::int16_t> pb;
    pack_panels(t, b, k, n, pb);
    run_simd_rows(t, a, pb.data(), c, m, k, n, col_sums);
    return;
  }
#endif
  shard_rows_fused(m, n, col_sums, [&](std::size_t i0, std::size_t i1, std::int64_t* cs) {
    portable_rows(a, b, c, k, n, i0, i1, cs);
  });
}

PackedB pack_b(const std::int8_t* b, std::size_t k, std::size_t n) {
  PackedB p;
  p.tier_ = active_tier();
  p.k_ = k;
  p.n_ = n;
#if REALM_X86
  if (p.tier_ != Tier::kPortable && k > 0 && n > 0) pack_panels(p.tier_, b, k, n, p.panels_);
#else
  (void)b;
#endif
  return p;
}

void gemm_i8_prepacked(const std::int8_t* a, const std::int8_t* b, const PackedB& pb,
                       std::int32_t* c, std::size_t m, std::size_t k, std::size_t n,
                       std::int64_t* col_sums) {
  if (m == 0 || n == 0) {
    if (col_sums) std::fill_n(col_sums, n, std::int64_t{0});
    return;
  }
#if REALM_X86
  const Tier t = active_tier();
  if (k > 0 && t != Tier::kPortable && pb.valid_for(t, k, n)) {
    if (col_sums) std::fill_n(col_sums, n, std::int64_t{0});
    run_simd_rows(t, a, pb.panels_.data(), c, m, k, n, col_sums);
    return;
  }
#else
  (void)pb;
#endif
  gemm_i8(a, b, c, m, k, n, col_sums);
}

}  // namespace realm::tensor::kernels
