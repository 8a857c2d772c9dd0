// Fault models for transient computational errors (paper Sec. III).
//
// The paper's error model: timing violations in the systolic array datapath
// manifest as bit flips in the INT32 GEMM accumulation results; memory is
// assumed ECC-protected and permanent faults are screened offline, so only
// the compute path is attacked. Two injector families are provided:
//
//  * RandomBitFlipInjector — the runtime model: each (element, bit) pair in a
//    configurable bit range flips independently with probability BER. Timing
//    errors preferentially hit high-order bits (long carry chains miss
//    timing first), hence the default high-bit range.
//  * MagFreqInjector — the characterization model of Sec. III-B: exactly
//    `freq` elements receive an identical additive error of magnitude `mag`,
//    so MSD = freq × mag is controlled exactly. Used to map the critical
//    region of Fig. 6.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace realm::fault {

/// Where in the memory hierarchy a fault strikes. The accumulator is the
/// paper's original compute-path model (post-GEMM INT32 bit flips); the other
/// three are the at-rest SRAM/DRAM strikes the memory-hierarchy model in
/// fault/memory.h adds: stationary INT8 weights corrupted once at load,
/// packed weight panels (16-bit words) corrupted at rest between requests,
/// and INT8 activations corrupted per request before they feed the GEMM.
enum class Component : std::uint8_t {
  kWeights = 0,       ///< resident quantized weight tile (flipped at load)
  kPackedPanels = 1,  ///< packed B panels at rest between requests
  kActivations = 2,   ///< per-request activation operand, pre-GEMM
  kAccumulator = 3,   ///< post-GEMM INT32 results (the FaultInjector path)
};

inline constexpr std::size_t kComponentCount = 4;

/// Stable lowercase name ("weights", "panels", "activations", "accumulator").
[[nodiscard]] const char* to_string(Component c) noexcept;

/// Parse a component name as emitted by to_string. Returns false (leaving
/// `out` untouched) on anything else.
[[nodiscard]] bool parse_component(std::string_view name, Component& out) noexcept;

/// Per-component bit-flip tallies, indexed by static_cast<size_t>(Component).
using ComponentFlips = std::array<std::uint64_t, kComponentCount>;

/// Outcome of one injection pass over a tensor.
struct InjectionReport {
  std::uint64_t flipped_bits = 0;      ///< number of individual bit flips applied
  std::uint64_t corrupted_values = 0;  ///< number of distinct elements touched
};

/// One recorded mutation: flat element `index` went `before` -> `after`.
/// `bit` is the flipped bit position for bit-flip injectors, or kAdditiveBit
/// for magnitude-model injectors that add rather than flip. Records are
/// emitted in application order, so replaying them in REVERSE (writing each
/// record's `before` back) reconstructs the fault-free tensor exactly — even
/// when two flips land on the same element. The realm::sa coverage harness
/// consumes them as injected ground truth (which bits actually flipped, and
/// whether the net effect was nonzero).
///
/// `bit` is int16_t: wide enough for any conceivable word size (a 0–63 index
/// once 64-bit accumulators land) while still leaving room for the negative
/// kAdditiveBit sentinel, which an unsigned field could not represent.
struct FlipRecord {
  static constexpr std::int16_t kAdditiveBit = -1;

  std::uint64_t index = 0;
  std::int32_t before = 0;
  std::int32_t after = 0;
  std::int16_t bit = kAdditiveBit;
  /// Which memory-hierarchy component the mutation struck. Defaults to the
  /// accumulator so the original FaultInjector family (which predates the
  /// component axis) stays source-compatible; the MemoryFaultModel streams
  /// stamp their own component. For INT8 and 16-bit word components,
  /// before/after hold the sign-extended element values.
  Component component = Component::kAccumulator;
};

/// Interface for anything that can corrupt an INT32 accumulator tensor.
///
/// When `record` is non-null it is cleared and filled with one FlipRecord per
/// applied mutation; passing nullptr (the default, and the serving hot path)
/// keeps injection allocation-free. The default argument lives on the base
/// class and every call site holds a FaultInjector&, so the binding is
/// unambiguous.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual InjectionReport inject(std::span<std::int32_t> data, util::Rng& rng,
                                 std::vector<FlipRecord>* record = nullptr) const = 0;
};

/// Bit flips with independent per-bit probability `ber` over bits
/// [bit_lo, bit_hi] inclusive of each element.
class RandomBitFlipInjector final : public FaultInjector {
 public:
  /// @param ber      per-bit flip probability (0 disables injection)
  /// @param bit_lo   lowest attackable bit (0 = LSB)
  /// @param bit_hi   highest attackable bit (31 = sign bit of int32)
  RandomBitFlipInjector(double ber, int bit_lo = 16, int bit_hi = 31);

  InjectionReport inject(std::span<std::int32_t> data, util::Rng& rng,
                         std::vector<FlipRecord>* record = nullptr) const override;

  [[nodiscard]] double ber() const noexcept { return ber_; }
  [[nodiscard]] int bit_lo() const noexcept { return bit_lo_; }
  [[nodiscard]] int bit_hi() const noexcept { return bit_hi_; }

 private:
  double ber_;
  int bit_lo_;
  int bit_hi_;
};

/// Single-bit variant: attacks exactly one bit position with per-element
/// probability `ber` (the protocol of research questions Q1.1–Q2.2, which pin
/// the 30th bit).
class SingleBitFlipInjector final : public FaultInjector {
 public:
  SingleBitFlipInjector(double ber, int bit);

  InjectionReport inject(std::span<std::int32_t> data, util::Rng& rng,
                         std::vector<FlipRecord>* record = nullptr) const override;

  [[nodiscard]] int bit() const noexcept { return bit_; }

 private:
  double ber_;
  int bit_;
};

/// Adds +mag to exactly `freq` distinct uniformly chosen elements (clamped to
/// tensor size). Matches the Sec. III-B protocol: identical errors, exact
/// MSD = freq * mag.
class MagFreqInjector final : public FaultInjector {
 public:
  MagFreqInjector(std::int64_t mag, std::uint64_t freq);

  InjectionReport inject(std::span<std::int32_t> data, util::Rng& rng,
                         std::vector<FlipRecord>* record = nullptr) const override;

  [[nodiscard]] std::int64_t mag() const noexcept { return mag_; }
  [[nodiscard]] std::uint64_t freq() const noexcept { return freq_; }

 private:
  std::int64_t mag_;
  std::uint64_t freq_;
};

/// No-op injector (golden runs).
class NullInjector final : public FaultInjector {
 public:
  InjectionReport inject(std::span<std::int32_t>, util::Rng&,
                         std::vector<FlipRecord>* record = nullptr) const override {
    if (record != nullptr) record->clear();
    return {};
  }
};

}  // namespace realm::fault
