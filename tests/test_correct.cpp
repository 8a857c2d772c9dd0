#include "detect/correct.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "detect/detect.h"
#include "realm_test.h"
#include "tensor/checksum.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/threadpool.h"

using namespace realm::detect;
using namespace realm::detect::correct;
using namespace realm::tensor;
using namespace realm::fault;
using realm::util::Rng;

namespace {

MatI8 random_i8(std::size_t rows, std::size_t cols, Rng& rng) {
  MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return m;
}

/// Everything try_patch reads, derived once from a (A, W) pair the same way
/// the pipeline derives it: the ProtectedGemm owns the resident bases, the
/// predicted checksum comes from the fused-identity kernel, and `truth` is
/// the fault-free accumulator the patch must reconstruct bit for bit.
struct Fixture {
  ProtectedGemm pg;
  MatI8 a8;
  std::vector<std::int64_t> predicted;
  MatI32 truth;

  Fixture(std::size_t m, std::size_t k, std::size_t n, Rng& rng) {
    DetectionConfig cfg;
    cfg.recompute_on_detect = false;
    pg = ProtectedGemm(cfg);
    pg.set_weights_quantized(random_i8(k, n, rng), {0.02f});
    a8 = random_i8(m, k, rng);
    predicted = predict_col_checksum(a8, pg.weights());
    truth = gemm_i8(a8, pg.weights());
  }

  PatchResult patch(MatI32& acc) const {
    return try_patch(pg.config(), predicted, a8, pg.weights(), pg.weight_row_basis(),
                     pg.weight_row_wbasis(), acc);
  }
};

/// Restores the serial default even when a REALM_CHECK throws mid-case.
struct SerialGuard {
  ~SerialGuard() { realm::util::set_global_threads(1); }
};

}  // namespace

REALM_TEST(zero_deviation_input_is_a_noop) {
  // A "detected" handoff whose deviations are all zero has nothing to solve
  // against: the corrector must refuse to touch the accumulator rather than
  // invent a patch (the misuse mode where a caller passes a clean tile).
  Rng rng(70);
  const Fixture fx(8, 32, 16, rng);
  MatI32 acc = fx.truth;
  const PatchResult res = fx.patch(acc);
  REALM_CHECK(res.outcome == PatchOutcome::kNoFault);
  REALM_CHECK_EQ(res.patches_applied, std::size_t{0});
  REALM_CHECK(!res.used_row_solve);
  REALM_CHECK(acc == fx.truth);
}

REALM_TEST(checksum_line_fault_fails_without_touching_acc) {
  // A fault in the checksum datapath itself — the predicted column sums,
  // not the accumulator — shows a plain deviation with a zero weighted
  // deviation. The solve yields the impossible 0-based position -1, no
  // patch is accepted, the accumulator stays bit-identical, and the dirty
  // recheck routes the caller to recompute.
  Rng rng(71);
  const Fixture fx(8, 32, 16, rng);
  std::vector<std::int64_t> doctored = fx.predicted;
  doctored[5] += 999;
  MatI32 acc = fx.truth;
  const PatchResult res = try_patch(fx.pg.config(), doctored, fx.a8, fx.pg.weights(),
                                    fx.pg.weight_row_basis(), fx.pg.weight_row_wbasis(), acc);
  REALM_CHECK(res.outcome == PatchOutcome::kFailed);
  REALM_CHECK_EQ(res.patches_applied, std::size_t{0});
  REALM_CHECK(acc == fx.truth);
  REALM_CHECK(res.recheck.faulty());
}

REALM_TEST(two_faults_sharing_a_row_patch_independently) {
  // The per-column solve handles simultaneous faults in distinct columns,
  // including several on one row: each column's (plain, weighted) pair pins
  // its own (row, magnitude) independently.
  Rng rng(72);
  const Fixture fx(8, 32, 16, rng);
  MatI32 acc = fx.truth;
  acc(3, 2) += 1 << 15;
  acc(3, 11) -= 77;
  const PatchResult res = fx.patch(acc);
  REALM_CHECK(res.outcome == PatchOutcome::kPatched);
  REALM_CHECK_EQ(res.patches_applied, std::size_t{2});
  REALM_CHECK(!res.used_row_solve);  // the column solve alone covered both
  REALM_CHECK(acc == fx.truth);
  REALM_CHECK(res.recheck.verdict == Verdict::kClean);
}

REALM_TEST(faults_sharing_a_column_use_the_row_solve) {
  // Two faults in one column alias the column statistics (the weighted sum
  // no longer divides), so Plan A skips it; the row-side residual solve
  // separates them. Also covers the column-cancelling pair, where the
  // column side is completely blind (dc == 0).
  Rng rng(73);
  const Fixture fx(8, 32, 16, rng);
  {
    MatI32 acc = fx.truth;
    acc(1, 5) += 1 << 12;
    acc(4, 5) += 3 << 10;
    const PatchResult res = fx.patch(acc);
    REALM_CHECK(res.outcome == PatchOutcome::kPatched);
    REALM_CHECK_EQ(res.patches_applied, std::size_t{2});
    REALM_CHECK(res.used_row_solve);
    REALM_CHECK(acc == fx.truth);
  }
  {
    MatI32 acc = fx.truth;
    acc(0, 7) += 1 << 20;
    acc(6, 7) -= 1 << 20;
    const PatchResult res = fx.patch(acc);
    REALM_CHECK(res.outcome == PatchOutcome::kPatched);
    REALM_CHECK_EQ(res.patches_applied, std::size_t{2});
    REALM_CHECK(res.used_row_solve);
    REALM_CHECK(acc == fx.truth);
  }
}

REALM_TEST(plan_a_patch_outside_int32_is_not_charged_to_rows) {
  // Two +2^30 upsets in one column at rows 0 and 2 of a 3-row tile: the
  // column solve reads them as one fault of 2^31 at row 1, and with the true
  // row-1 value negative that patch leaves int32, so it is dropped. A dropped
  // patch must not be charged to the row residuals, or Plan B would also
  // "correct" the clean row-1 element. The row solve then heals both upsets.
  Rng rng(76);
  const Fixture fx(3, 32, 16, rng);
  std::size_t j = 0;
  while (j < fx.truth.cols() && fx.truth(1, j) >= 0) ++j;
  REALM_CHECK(j < fx.truth.cols());
  MatI32 acc = fx.truth;
  acc(0, j) += 1 << 30;
  acc(2, j) += 1 << 30;
  const PatchResult res = fx.patch(acc);
  REALM_CHECK(res.outcome == PatchOutcome::kPatched);
  REALM_CHECK_EQ(res.patches_applied, std::size_t{2});
  REALM_CHECK(res.used_row_solve);
  REALM_CHECK(acc == fx.truth);
}

namespace {

/// Adds a fixed delta to one fixed element — the minimal localized fault.
class DeltaAt final : public FaultInjector {
 public:
  DeltaAt(std::size_t index, std::int32_t delta) : index_(index), delta_(delta) {}
  InjectionReport inject(std::span<std::int32_t> data, realm::util::Rng&,
                         std::vector<realm::fault::FlipRecord>* record) const override {
    if (record != nullptr) record->clear();
    data[index_] += delta_;
    return {.flipped_bits = 1, .corrupted_values = 1};
  }

 private:
  std::size_t index_;
  std::int32_t delta_;
};

}  // namespace

REALM_TEST(patched_output_bit_identical_to_recompute_at_1_2_8_workers) {
  // The acceptance pin: the in-place patch and the full recompute replay
  // must produce the same bits — accumulator and dequantized output — at
  // every worker count, with the verdicts naming which path healed the run.
  Rng rng(74);
  SerialGuard guard;
  DetectionConfig patch_cfg;  // default: patch first
  DetectionConfig rec_cfg;
  rec_cfg.patch_on_detect = false;  // recompute-only reference
  const MatI8 w8 = random_i8(64, 48, rng);
  ProtectedGemm pg_patch(patch_cfg);
  ProtectedGemm pg_rec(rec_cfg);
  pg_patch.set_weights_quantized(w8, {0.02f});
  pg_rec.set_weights_quantized(w8, {0.02f});

  const MatI8 a8 = random_i8(16, 64, rng);
  const QuantParams qa{0.05f};
  const DeltaAt inj(9 * 48 + 17, 1 << 18);
  const NullInjector none;
  const ProtectedGemmResult golden = pg_patch.run_quantized(a8, qa, none, rng);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    realm::util::set_global_threads(threads);
    const ProtectedGemmResult patched = pg_patch.run_quantized(a8, qa, inj, rng);
    const ProtectedGemmResult recomputed = pg_rec.run_quantized(a8, qa, inj, rng);
    REALM_CHECK(patched.report.verdict == Verdict::kPatched);
    REALM_CHECK(recomputed.report.verdict == Verdict::kRecomputed);
    REALM_CHECK(patched.acc == golden.acc);
    REALM_CHECK(recomputed.acc == golden.acc);
    REALM_CHECK(patched.output == golden.output);
    REALM_CHECK(recomputed.output == golden.output);
  }
}

REALM_TEST(patch_disabled_falls_back_to_recompute) {
  // patch_on_detect=false must keep the pre-corrector pipeline semantics:
  // detected faults replay the tile and report kRecomputed; with both modes
  // off the verdict stays kDetected and the accumulator stays corrupted.
  Rng rng(75);
  DetectionConfig neither;
  neither.patch_on_detect = false;
  neither.recompute_on_detect = false;
  ProtectedGemm pg(neither);
  pg.set_weights_quantized(random_i8(32, 16, rng), {0.02f});
  const MatI8 a8 = random_i8(8, 32, rng);
  const DeltaAt inj(3 * 16 + 4, 4096);
  const ProtectedGemmResult r = pg.run_quantized(a8, {0.05f}, inj, rng);
  REALM_CHECK(r.report.verdict == Verdict::kDetected);
  REALM_CHECK(!corrected(r.report.verdict));
  const MatI32 clean = gemm_i8(a8, pg.weights());
  REALM_CHECK_EQ(r.acc(3, 4) - clean(3, 4), 4096);
}

REALM_TEST(misshapen_inputs_are_rejected) {
  // try_patch reads the predicted checksums, the activations and the weights
  // against the accumulator's shape; any mismatch throws before a buffer is
  // read past its end, and the accumulator stays untouched.
  Rng rng(76);
  const Fixture fx(8, 32, 16, rng);
  MatI32 acc = fx.truth;
  acc(2, 3) += 77;
  const MatI32 faulted = acc;
  const auto patch_with = [&](const std::vector<std::int64_t>& predicted, const MatI8& a8,
                              MatI32& target) {
    return try_patch(fx.pg.config(), predicted, a8, fx.pg.weights(), fx.pg.weight_row_basis(),
                     fx.pg.weight_row_wbasis(), target);
  };
  // Predicted column checksum shorter than the accumulator is wide.
  const std::vector<std::int64_t> short_pred(fx.predicted.begin(), fx.predicted.end() - 3);
  REALM_CHECK_THROWS(patch_with(short_pred, fx.a8, acc), std::invalid_argument);
  // More activation rows than accumulator rows (and fewer).
  REALM_CHECK_THROWS(patch_with(fx.predicted, random_i8(64, 32, rng), acc),
                     std::invalid_argument);
  REALM_CHECK_THROWS(patch_with(fx.predicted, random_i8(2, 32, rng), acc),
                     std::invalid_argument);
  // An accumulator narrower than the weights.
  MatI32 narrow(8, 4, 0);
  REALM_CHECK_THROWS(patch_with(std::vector<std::int64_t>(4, 0), fx.a8, narrow),
                     std::invalid_argument);
  REALM_CHECK(acc == faulted);
  // The well-shaped call still heals the same accumulator.
  REALM_CHECK(patch_with(fx.predicted, fx.a8, acc).outcome == PatchOutcome::kPatched);
  REALM_CHECK(acc == fx.truth);
}

REALM_TEST_MAIN()
