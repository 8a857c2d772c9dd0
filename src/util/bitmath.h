// Small integer/bit helpers shared by the fault models and the hardware-style
// statistical unit (which uses integer log2 the way an RTL priority encoder
// would).
#pragma once

#include <bit>
#include <cstdint>
#include <cstdlib>

namespace realm::util {

/// Integer floor(log2(x)) for x >= 1; ilog2(0) is defined as 0 so hardware
/// models never see a poison value (matches a priority encoder with a
/// zero-input bypass).
[[nodiscard]] constexpr int ilog2_u64(std::uint64_t x) noexcept {
  return x == 0 ? 0 : 63 - std::countl_zero(x);
}

/// |x| as an unsigned value; well-defined for INT64_MIN (where std::llabs is
/// UB because the result is unrepresentable as int64).
[[nodiscard]] constexpr std::uint64_t abs_u64(std::int64_t x) noexcept {
  return x < 0 ? static_cast<std::uint64_t>(-(x + 1)) + 1ULL : static_cast<std::uint64_t>(x);
}

/// floor(log2(|x|)) of a signed value, 0 for x == 0.
[[nodiscard]] constexpr int ilog2_abs(std::int64_t x) noexcept {
  return ilog2_u64(abs_u64(x));
}

/// Saturating signed 64-bit addition (the statistical unit's MSD accumulator
/// saturates instead of wrapping; wrap-around would alias a huge deviation to
/// a small one and mask an error burst).
[[nodiscard]] constexpr std::int64_t sat_add_i64(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) {
    return b > 0 ? INT64_MAX : INT64_MIN;
  }
  return out;
}

/// Saturating unsigned 64-bit addition (the L1 deviation aggregate must not
/// wrap for the same reason the signed MSD must not).
[[nodiscard]] constexpr std::uint64_t sat_add_u64(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) return UINT64_MAX;
  return out;
}

/// Saturating signed 64-bit subtraction (same rationale as sat_add_i64; the
/// per-column deviation observed − predicted must not wrap either).
[[nodiscard]] constexpr std::int64_t sat_sub_i64(std::int64_t a, std::int64_t b) noexcept {
  std::int64_t out = 0;
  if (__builtin_sub_overflow(a, b, &out)) {
    return b < 0 ? INT64_MAX : INT64_MIN;
  }
  return out;
}

/// Clamp a 64-bit value into n-bit signed range (models reduced-width
/// checksum datapaths, e.g. the 16-bit eTW row of Fig. 7). bits >= 64 is the
/// identity (the value already fits the datapath); bits <= 0 models a
/// zero-width bus and clamps everything to 0. Both extremes previously hit
/// shift UB (1LL << 63 / negative shift counts).
[[nodiscard]] constexpr std::int64_t clamp_to_bits(std::int64_t v, int bits) noexcept {
  if (bits >= 64) return v;
  if (bits <= 0) return 0;
  const std::int64_t hi = (1LL << (bits - 1)) - 1;
  const std::int64_t lo = -hi - 1;
  return v > hi ? hi : (v < lo ? lo : v);
}

/// Wrap a 64-bit value into n-bit two's-complement range: keep the low n bits
/// and sign-extend — the carries out of an n-bit register are dropped. This is
/// the other overflow semantics a reduced-width checksum register can have
/// (realm::sa models both); its failure mode is aliasing, where an error mass
/// that is a multiple of 2^n screens as zero. bits >= 64 is the identity,
/// bits <= 0 a zero-width bus (always 0).
[[nodiscard]] constexpr std::int64_t wrap_to_bits(std::int64_t v, int bits) noexcept {
  if (bits >= 64) return v;
  if (bits <= 0) return 0;
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  const std::uint64_t low = static_cast<std::uint64_t>(v) & mask;
  const std::uint64_t sign = std::uint64_t{1} << (bits - 1);
  return static_cast<std::int64_t>(low ^ sign) - static_cast<std::int64_t>(sign);
}

/// a − b through an n-bit register of either overflow semantics. Wrap
/// subtracts mod 2^64 first (unsigned arithmetic: the int64 difference could
/// overflow at bits == 64) and keeps the low n bits; saturate clamps at the
/// rails. At bits == 64 with saturate this is exactly sat_sub_i64.
[[nodiscard]] constexpr std::int64_t width_sub(std::int64_t a, std::int64_t b, int bits,
                                               bool saturate) noexcept {
  if (saturate) return clamp_to_bits(sat_sub_i64(a, b), bits);
  const std::uint64_t d = static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b);
  return wrap_to_bits(static_cast<std::int64_t>(d), bits);
}

/// a + b through an n-bit register of either overflow semantics, the
/// accumulate step of every width-limited register (the MSD accumulator, the
/// weighted drains of realm::sa). Same wrap/saturate rules as width_sub; at
/// bits == 64 with saturate this is exactly sat_add_i64.
[[nodiscard]] constexpr std::int64_t width_add(std::int64_t a, std::int64_t b, int bits,
                                               bool saturate) noexcept {
  if (saturate) return clamp_to_bits(sat_add_i64(a, b), bits);
  // Unsigned: the int64 sum could overflow at bits == 64.
  const std::uint64_t s = static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b);
  return wrap_to_bits(static_cast<std::int64_t>(s), bits);
}

}  // namespace realm::util
