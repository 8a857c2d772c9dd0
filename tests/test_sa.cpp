#include "sa/datapath.h"

#include <array>
#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <vector>

#include "detect/correct.h"
#include "detect/detect.h"
#include "fault/fault.h"
#include "realm_test.h"
#include "tensor/checksum.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

using namespace realm;
using realm::sa::DatapathConfig;
using realm::sa::Overflow;
using realm::sa::Reg;
using realm::sa::SaProtectedGemm;
using realm::util::Rng;

namespace {

tensor::MatI8 random_i8(std::size_t rows, std::size_t cols, Rng& rng, int lo = -127,
                        int hi = 127) {
  tensor::MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(lo, hi));
  return m;
}

SaProtectedGemm make_model(std::vector<DatapathConfig> datapaths, std::size_t k, std::size_t n,
                           Rng& rng) {
  SaProtectedGemm model(std::move(datapaths));
  model.set_weights_quantized(random_i8(k, n, rng), tensor::QuantParams{0.02f});
  return model;
}

}  // namespace

REALM_TEST(wrap_and_saturate_register_semantics) {
  // Wrap: carries drop; two half-range adds alias back to zero.
  Reg wrap(16, Overflow::kWrap);
  wrap.add(0x8000);
  REALM_CHECK_EQ(wrap.value(), std::int64_t{-32768});
  wrap.add(0x8000);
  REALM_CHECK_EQ(wrap.value(), std::int64_t{0});

  // Saturate: every add clamps at the rails, and the rails are sticky only
  // until an opposite-sign add pulls the register back off them.
  Reg sat(16, Overflow::kSaturate);
  sat.add(40000);
  REALM_CHECK_EQ(sat.value(), std::int64_t{32767});
  sat.add(-100000);
  REALM_CHECK_EQ(sat.value(), std::int64_t{-32768});
  sat.add(5);
  REALM_CHECK_EQ(sat.value(), std::int64_t{-32763});

  // A 64-bit wrap register is plain two's-complement int64.
  Reg full(64, Overflow::kWrap);
  full.add(INT64_MAX);
  full.add(1);
  REALM_CHECK_EQ(full.value(), INT64_MIN);

  REALM_CHECK_THROWS(Reg(0, Overflow::kWrap), std::invalid_argument);
  REALM_CHECK_THROWS(Reg(65, Overflow::kWrap), std::invalid_argument);
}

REALM_TEST(width64_screen_matches_int64_reference) {
  // At 64 bits neither wrap nor saturate can truncate anything an int32
  // accumulator tensor produces, so both reduced-width screens must agree
  // with the int64 reference verdict run for run — including the MSD value.
  Rng rng(0x5a01);
  const SaProtectedGemm model = make_model({{64, Overflow::kWrap, 0, true},
                                            {64, Overflow::kSaturate, 0, true}},
                                           48, 64, rng);
  const fault::RandomBitFlipInjector inj(2e-4, 0, 31);
  std::size_t faulty_runs = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const tensor::MatI8 a8 = random_i8(8, 48, rng);
    const sa::SaRunResult r = model.run(a8, inj, rng);
    faulty_runs += r.truth_faulty ? 1 : 0;
    for (const sa::ScreenResult& s : r.by_width) {
      REALM_CHECK_EQ(s.flagged, r.reference.faulty());
      REALM_CHECK_EQ(s.msd, r.reference.msd_signed);
    }
    REALM_CHECK_EQ(r.flips.empty(), r.reference.injection.flipped_bits == 0);
  }
  REALM_CHECK(faulty_runs > 0);  // the sweep exercised real faults
}

REALM_TEST(aliasing_fault_missed_at_width16_caught_at_64) {
  // THE reduced-width failure mode, pinned: a single +2^16 upset is ≡ 0
  // (mod 2^16) in its column register, its row register, and the MSD, so a
  // 16-bit wrap datapath screens it as exactly clean — while the 64-bit
  // datapath and the int64 reference both flag it.
  Rng rng(0x5a02);
  const SaProtectedGemm model = make_model({{16, Overflow::kWrap, 0, true},
                                            {64, Overflow::kWrap, 0, true}},
                                           32, 48, rng);
  const fault::MagFreqInjector aliasing(std::int64_t{1} << 16, 1);
  const tensor::MatI8 a8 = random_i8(8, 32, rng, -16, 16);  // keep acc far from rails
  const sa::SaRunResult r = model.run(a8, aliasing, rng);

  REALM_CHECK(r.truth_faulty);
  REALM_CHECK_EQ(r.flips.size(), std::size_t{1});
  REALM_CHECK_EQ(static_cast<std::int64_t>(r.flips[0].after) - r.flips[0].before,
                 std::int64_t{1} << 16);  // injection did not clamp

  REALM_CHECK(r.reference.faulty());           // int64 reference catches it
  REALM_CHECK(!r.by_width[0].flagged);         // 16-bit wrap aliases to clean
  REALM_CHECK_EQ(r.by_width[0].msd, std::int64_t{0});
  REALM_CHECK_EQ(r.by_width[0].nonzero_cols, std::size_t{0});
  REALM_CHECK_EQ(r.by_width[0].nonzero_rows, std::size_t{0});
  REALM_CHECK(r.by_width[1].flagged);          // 64-bit sees the raw 2^16
  REALM_CHECK_EQ(r.by_width[1].msd, std::int64_t{1} << 16);
  REALM_CHECK(r.coverage_loss(0));
  REALM_CHECK(!r.coverage_loss(1));

  // The same upset shifted off the alias grid IS caught at width 16.
  const fault::MagFreqInjector offgrid((std::int64_t{1} << 16) + 3, 1);
  const sa::SaRunResult r2 = model.run(a8, offgrid, rng);
  REALM_CHECK(r2.truth_faulty);
  REALM_CHECK(r2.by_width[0].flagged);
}

REALM_TEST(saturating_rails_alias_when_both_sides_pin) {
  // Saturate's failure mode: all-maximal operands drive every column/row
  // register to the +32767 rail on BOTH the predicted and observed sides, so
  // their difference reads zero and the fault hides. The same-width wrap
  // register keeps the low bits and catches it.
  Rng rng(0x5a03);
  SaProtectedGemm model({{16, Overflow::kSaturate, 0, true},
                         {16, Overflow::kWrap, 0, true},
                         {64, Overflow::kWrap, 0, true}});
  const std::size_t k = 8, n = 8, m = 16;
  model.set_weights_quantized(tensor::MatI8(k, n, 127), tensor::QuantParams{0.02f});
  const tensor::MatI8 a8(m, k, 127);  // every acc element is 127*127*8 = 129032

  const fault::MagFreqInjector inj(12345, 1);
  const sa::SaRunResult r = model.run(a8, inj, rng);
  REALM_CHECK(r.truth_faulty);
  REALM_CHECK(r.reference.faulty());
  REALM_CHECK(!r.by_width[0].flagged);  // saturate: both sides pinned at the rail
  REALM_CHECK_EQ(r.by_width[0].msd, std::int64_t{0});
  REALM_CHECK(r.by_width[1].flagged);   // wrap at the same width still sees 12345
  REALM_CHECK(r.by_width[2].flagged);
}

REALM_TEST(run_scratch_recycling_and_misuse) {
  Rng rng(0x5a04);
  SaProtectedGemm unset({{16, Overflow::kWrap, 0, true}});
  const tensor::MatI8 a8 = random_i8(4, 24, rng);
  REALM_CHECK_THROWS(unset.run(a8, fault::NullInjector{}, rng), std::logic_error);
  REALM_CHECK_THROWS(SaProtectedGemm({{0, Overflow::kWrap, 0, true}}), std::invalid_argument);
  REALM_CHECK_THROWS(SaProtectedGemm({{72, Overflow::kWrap, 0, true}}), std::invalid_argument);

  const SaProtectedGemm model = make_model({{16, Overflow::kWrap, 0, true}}, 24, 32, rng);
  REALM_CHECK_THROWS(model.run(random_i8(4, 23, rng), fault::NullInjector{}, rng),
                     std::invalid_argument);
  REALM_CHECK_THROWS(
      sa::screen(tensor::MatI32(2, 3), tensor::MatI32(3, 2), {16, Overflow::kWrap, 0, true}),
      std::invalid_argument);

  // One scratch across runs and injector kinds: results identical to fresh
  // allocations (the recycled buffers are fully overwritten), and a golden
  // run is clean at every width with no flips recorded.
  sa::SaRunResult recycled;
  sa::SaRunScratch scratch;
  const fault::MagFreqInjector inj(999, 2);
  Rng r1(5), r2(5);
  model.run_into(a8, inj, r1, recycled, scratch);
  const sa::SaRunResult fresh = model.run(a8, inj, r2);
  REALM_CHECK_EQ(recycled.truth_faulty, fresh.truth_faulty);
  REALM_CHECK_EQ(recycled.flips.size(), fresh.flips.size());
  REALM_CHECK_EQ(recycled.by_width[0].flagged, fresh.by_width[0].flagged);
  REALM_CHECK_EQ(recycled.by_width[0].msd, fresh.by_width[0].msd);

  model.run_into(a8, fault::NullInjector{}, r1, recycled, scratch);
  REALM_CHECK(!recycled.truth_faulty);
  REALM_CHECK(recycled.flips.empty());
  REALM_CHECK(!recycled.reference.faulty());
  REALM_CHECK(!recycled.by_width[0].flagged);
}

namespace {

/// One (A, W) pair with everything both correctors read: the int64
/// corrector's resident bases and predicted checksum, and the fault-free
/// accumulator simulate_patch compares against.
struct PatchPair {
  detect::ProtectedGemm pg;
  tensor::MatI8 a8;
  std::vector<std::int64_t> predicted;
  tensor::MatI32 truth;

  PatchPair(std::size_t m, std::size_t k, std::size_t n, Rng& rng) {
    pg.set_weights_quantized(random_i8(k, n, rng), tensor::QuantParams{0.02f});
    a8 = random_i8(m, k, rng);
    predicted = tensor::predict_col_checksum(a8, pg.weights());
    truth = tensor::gemm_i8(a8, pg.weights());
  }

  [[nodiscard]] bool flagged(const tensor::MatI32& faulted) const {
    return detect::screen_accumulator(pg.config(), predicted, a8, pg.weight_row_basis(), faulted)
        .faulty();
  }

  /// Checks that the 64-bit patch simulation, under both overflow semantics,
  /// heals `faulted` exactly when correct::try_patch does; returns the verdict.
  bool expect_agreement(const tensor::MatI32& faulted) const {
    tensor::MatI32 acc = faulted;
    const detect::correct::PatchResult res = detect::correct::try_patch(
        pg.config(), predicted, a8, pg.weights(), pg.weight_row_basis(), pg.weight_row_wbasis(),
        acc);
    const bool healed = res.outcome == detect::correct::PatchOutcome::kPatched && acc == truth;
    REALM_CHECK_EQ(sa::simulate_patch(truth, faulted, {64, Overflow::kWrap, 0, true}), healed);
    REALM_CHECK_EQ(sa::simulate_patch(truth, faulted, {64, Overflow::kSaturate, 0, true}),
                   healed);
    return healed;
  }
};

}  // namespace

REALM_TEST(width64_patch_simulation_matches_the_corrector) {
  // reference.patched claims to be what the int64 in-place corrector
  // achieves. Both run the same solve, so at 64 bits (where no register
  // truncates) they must agree trial for trial: every flagged trial of a
  // seeded batch of 1–4 upsets at bits 16–30. Four-column tiles make the
  // patterns no solve can separate (faults on a rectangle's corners) common
  // enough that both outcomes occur.
  Rng rng(0x5a05);
  std::size_t healed = 0, failed = 0;
  for (const std::size_t m : {std::size_t{3}, std::size_t{8}, std::size_t{32}}) {
    const PatchPair pair(m, 32, 4, rng);
    for (int trial = 0; trial < 200; ++trial) {
      tensor::MatI32 faulted = pair.truth;
      const std::int64_t upsets = rng.uniform_int(1, 4);
      for (std::int64_t u = 0; u < upsets; ++u) {
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(faulted.flat().size()) - 1));
        const auto bit = static_cast<unsigned>(rng.uniform_int(16, 30));
        std::int32_t& x = faulted.flat()[idx];
        x = static_cast<std::int32_t>(static_cast<std::uint32_t>(x) ^ (1U << bit));
      }
      if (!pair.flagged(faulted)) continue;
      ++(pair.expect_agreement(faulted) ? healed : failed);
    }
  }
  REALM_CHECK(healed > 0);  // both outcomes were exercised
  REALM_CHECK(failed > 0);

  // The hand-built fault classes of test_correct.
  const PatchPair pair(8, 32, 16, rng);
  const auto with = [&](std::initializer_list<std::array<std::int64_t, 3>> faults) {
    tensor::MatI32 faulted = pair.truth;
    for (const auto& [i, j, delta] : faults) {
      faulted(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) +=
          static_cast<std::int32_t>(delta);
    }
    REALM_CHECK(pair.flagged(faulted));
    return faulted;
  };
  REALM_CHECK(pair.expect_agreement(with({{3, 2, 1 << 15}})));
  REALM_CHECK(pair.expect_agreement(with({{3, 2, 1 << 15}, {3, 11, -77}})));
  REALM_CHECK(pair.expect_agreement(with({{1, 5, 1 << 12}, {4, 5, 3 << 10}})));
  REALM_CHECK(pair.expect_agreement(with({{0, 7, 1 << 20}, {6, 7, -(1 << 20)}})));

  // A column-solve patch that leaves int32 (test_correct's 3-row case).
  const PatchPair tall(3, 32, 16, rng);
  std::size_t j = 0;
  while (j < tall.truth.cols() && tall.truth(1, j) >= 0) ++j;
  REALM_CHECK(j < tall.truth.cols());
  tensor::MatI32 faulted = tall.truth;
  faulted(0, j) += 1 << 30;
  faulted(2, j) += 1 << 30;
  REALM_CHECK(tall.expect_agreement(faulted));
}

REALM_TEST_MAIN()
