#include "fault/memory.h"

#include <stdexcept>

namespace realm::fault {

const ComponentParams& MemoryFaultConfig::params(Component c) const {
  switch (c) {
    case Component::kWeights:
      return weights;
    case Component::kPackedPanels:
      return packed_panels;
    case Component::kActivations:
      return activations;
    case Component::kAccumulator:
      break;
  }
  throw std::invalid_argument(
      "MemoryFaultConfig::params: accumulator faults ride the FaultInjector path");
}

util::Rng component_stream(std::uint64_t seed, Component c, std::uint64_t op) {
  return util::Rng(seed).fork(kComponentTagBase + static_cast<std::uint64_t>(c)).fork(op);
}

std::uint64_t compose_op(std::uint64_t hi, std::uint64_t lo) noexcept {
  std::uint64_t sm = (hi * 0x9e3779b97f4a7c15ULL) ^ lo;
  return util::splitmix64(sm);
}

MemoryFaultModel::MemoryFaultModel(MemoryFaultConfig cfg) : cfg_(cfg) {
  for (const ComponentParams* p : {&cfg_.weights, &cfg_.packed_panels, &cfg_.activations}) {
    if (p->ber < 0.0 || p->ber > 1.0) {
      throw std::invalid_argument("component BER must be in [0,1]");
    }
    if (p->bit_lo < 0 || p->bit_hi > 7 || p->bit_lo > p->bit_hi) {
      throw std::invalid_argument("component bit range must satisfy 0 <= lo <= hi <= 7");
    }
    if (p->rest_epochs == 0) throw std::invalid_argument("rest_epochs must be >= 1");
  }
}

std::uint64_t MemoryFaultModel::corrupt(Component c, std::uint64_t op,
                                        std::span<std::int8_t> bytes,
                                        std::vector<FlipRecord>* record) const {
  if (record != nullptr) record->clear();
  const ComponentParams& p = cfg_.params(c);  // throws for kAccumulator
  if (p.ber <= 0.0 || bytes.empty()) return 0;
  util::Rng rng = component_stream(cfg_.seed, c, op);
  const auto bits = static_cast<std::uint64_t>(p.bit_hi - p.bit_lo + 1);
  const std::uint64_t trials = bytes.size() * bits;
  const auto flip = [&](std::size_t elem, int bit) {
    auto word = static_cast<std::uint8_t>(bytes[elem]);
    word ^= static_cast<std::uint8_t>(1u << bit);
    const auto after = static_cast<std::int8_t>(word);
    if (record != nullptr) {
      record->push_back({elem, bytes[elem], after, static_cast<std::int16_t>(bit), c});
    }
    bytes[elem] = after;
  };
  std::uint64_t total = 0;
  for (std::uint64_t epoch = 0; epoch < p.rest_epochs; ++epoch) {
    if (p.ber >= 1.0) {
      // Deterministic saturation: every eligible bit flips exactly once per
      // epoch. The sampled path below draws WITH replacement, which would
      // leave ~1/e of the bits untouched even at BER = 1.
      for (std::size_t e = 0; e < bytes.size(); ++e) {
        for (int b = p.bit_lo; b <= p.bit_hi; ++b) flip(e, b);
      }
      total += trials;
      continue;
    }
    // Same binomial-then-scatter protocol as RandomBitFlipInjector:
    // collisions (a cell re-upset, undoing itself) are physical.
    const std::uint64_t flips = rng.binomial(trials, p.ber);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t pos = rng.uniform_u64(trials);
      flip(static_cast<std::size_t>(pos / bits), p.bit_lo + static_cast<int>(pos % bits));
    }
    total += flips;
  }
  return total;
}

std::uint64_t MemoryFaultModel::corrupt16(Component c, std::uint64_t op,
                                          std::span<std::int16_t> words,
                                          std::vector<FlipRecord>* record) const {
  if (record != nullptr) record->clear();
  const ComponentParams& p = cfg_.params(c);  // throws for kAccumulator
  if (p.ber <= 0.0 || words.empty()) return 0;
  util::Rng rng = component_stream(cfg_.seed, c, op);
  // The 8-bit lane window applies to both byte lanes of every 16-bit word.
  const auto bits = static_cast<std::uint64_t>(p.bit_hi - p.bit_lo + 1);
  const std::uint64_t bits_per_word = 2 * bits;
  const std::uint64_t trials = words.size() * bits_per_word;
  const auto flip = [&](std::size_t elem, int bit) {
    auto word = static_cast<std::uint16_t>(words[elem]);
    word ^= static_cast<std::uint16_t>(1u << bit);
    const auto after = static_cast<std::int16_t>(word);
    if (record != nullptr) {
      record->push_back({elem, words[elem], after, static_cast<std::int16_t>(bit), c});
    }
    words[elem] = after;
  };
  std::uint64_t total = 0;
  for (std::uint64_t epoch = 0; epoch < p.rest_epochs; ++epoch) {
    if (p.ber >= 1.0) {
      for (std::size_t e = 0; e < words.size(); ++e) {
        for (int lane = 0; lane < 2; ++lane) {
          for (int b = p.bit_lo; b <= p.bit_hi; ++b) flip(e, lane * 8 + b);
        }
      }
      total += trials;
      continue;
    }
    const std::uint64_t flips = rng.binomial(trials, p.ber);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t pos = rng.uniform_u64(trials);
      const auto elem = static_cast<std::size_t>(pos / bits_per_word);
      const std::uint64_t rem = pos % bits_per_word;
      const int lane = static_cast<int>(rem / bits);
      flip(elem, lane * 8 + p.bit_lo + static_cast<int>(rem % bits));
    }
    total += flips;
  }
  return total;
}

}  // namespace realm::fault
