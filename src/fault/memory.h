// Memory-hierarchy fault model (ROADMAP open item 3).
//
// The original injectors attack only the post-GEMM accumulator — the paper's
// compute-path error model. Production silent data corruption also strikes
// data AT REST: the stationary quantized weight tile (hit once when loaded at
// set_weights/swap_tile time), the packed B panel image sitting in SRAM
// between requests (16-bit words holding int16 k-pairs on avx2, and int8
// k-quads plus each panel's int32 bias row on avx512), and the INT8
// activations staged in DRAM/SRAM before they feed the GEMM. This model
// covers those three components with independent BER / retention-time
// parameters per component.
//
// Stream discipline (the replay contract): every corruption draw comes from
// the counter-based stream
//
//     component_stream(seed, component, op) =
//         Rng(seed).fork(kComponentTagBase + component).fork(op)
//
// a pure function of (seed, component, op_id). No global generator state is
// consumed, so a given (component, op) replays bit-identically regardless of
// thread count, scheduling, or which OTHER components are enabled — the same
// counter-based-RNG rule realm-lint already enforces for parallel_for bodies,
// extended to component-stream construction sites. Composite op ids (e.g.
// per-tile within a request, per-epoch at rest) are derived with compose_op.
//
// Retention model: `rest_epochs` multiplies the exposure — each epoch draws
// an independent binomial flip set from the same stream, so a tensor resting
// twice as long sees twice the expected upsets (and flips may land twice and
// cancel, exactly like physical re-upsets of the same cell).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.h"
#include "util/rng.h"

namespace realm::fault {

/// Per-component fault parameters. Bit positions index within an 8-bit lane:
/// INT8 components attack bits [bit_lo, bit_hi] of each byte; the panel
/// component (16-bit words) attacks the same window in BOTH byte lanes of
/// each word.
struct ComponentParams {
  double ber = 0.0;               ///< per-bit upset probability per epoch (0 disables)
  int bit_lo = 0;                 ///< lowest attackable bit of the 8-bit lane
  int bit_hi = 7;                 ///< highest attackable bit of the 8-bit lane
  std::uint64_t rest_epochs = 1;  ///< retention epochs of exposure (>= 1)
};

/// Full model configuration. The accumulator component keeps riding the
/// FaultInjector path (it is a compute-path fault, not an at-rest one), so it
/// has no entry here.
struct MemoryFaultConfig {
  std::uint64_t seed = 0;  ///< root of every component stream
  ComponentParams weights;
  ComponentParams packed_panels;
  ComponentParams activations;

  /// Parameters for an at-rest component; throws std::invalid_argument for
  /// kAccumulator, which this model does not own.
  [[nodiscard]] const ComponentParams& params(Component c) const;
};

/// Tag offset separating component streams from every other fork tag in the
/// repo (cell indices, tile indices, stream ids are all small integers).
inline constexpr std::uint64_t kComponentTagBase = 0xc0317a60'00000000ULL;

/// The counter-based component stream: a pure function of its arguments.
[[nodiscard]] util::Rng component_stream(std::uint64_t seed, Component c, std::uint64_t op);

/// Mix two counters into one op id (splitmix-style finalizer), for composite
/// stream coordinates like (request stream, tile) or (rest epoch, tile).
/// Injective enough in practice: 64-bit avalanche keeps distinct pairs from
/// colliding at any plausible op volume.
[[nodiscard]] std::uint64_t compose_op(std::uint64_t hi, std::uint64_t lo) noexcept;

/// Applies per-component at-rest corruption to byte (INT8) or 16-bit word
/// images. Stateless between calls: every corruption is fully determined by
/// (config, component, op).
class MemoryFaultModel {
 public:
  /// Validates every component's parameters (BER in [0,1], 0 <= bit_lo <=
  /// bit_hi <= 7, rest_epochs >= 1); throws std::invalid_argument otherwise.
  explicit MemoryFaultModel(MemoryFaultConfig cfg);

  /// Corrupt an INT8 image (weights or activations) in place. Returns the
  /// number of physical bit flips applied (re-upsets of the same bit count
  /// each time). BER >= 1 flips every eligible bit exactly once per epoch —
  /// the deterministic saturation edge case. When `record` is non-null it is
  /// cleared and filled with component-stamped FlipRecords in application
  /// order (reverse replay reconstructs the clean image).
  std::uint64_t corrupt(Component c, std::uint64_t op, std::span<std::int8_t> bytes,
                        std::vector<FlipRecord>* record = nullptr) const;

  /// Same for a 16-bit word image (the packed panel buffer: int16 pairs on
  /// avx2, int8 quads plus the int32 bias rows on avx512): the component's
  /// [bit_lo, bit_hi] lane window applies to both bytes of every word.
  std::uint64_t corrupt16(Component c, std::uint64_t op, std::span<std::int16_t> words,
                          std::vector<FlipRecord>* record = nullptr) const;

  /// True when the component's BER is nonzero (the model can touch it).
  [[nodiscard]] bool enabled(Component c) const { return cfg_.params(c).ber > 0.0; }

  [[nodiscard]] const MemoryFaultConfig& config() const noexcept { return cfg_; }

 private:
  MemoryFaultConfig cfg_;
};

}  // namespace realm::fault
