#include "serve/engine.h"
#include "serve/tile_grid.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "detect/detect.h"
#include "fault/fault.h"
#include "fault/memory.h"
#include "obs/metrics.h"
#include "realm_test.h"
#include "serve/ticket.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/clock.h"
#include "util/rng.h"

using namespace realm::serve;
using namespace realm::detect;
using namespace realm::fault;
using namespace realm::tensor;
using realm::util::Rng;

namespace {

MatI8 random_i8(std::size_t rows, std::size_t cols, Rng& rng) {
  MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return m;
}

/// Injector that corrupts nothing but parks the worker until released —
/// the deterministic control knob for "a worker is busy right now" in the
/// deadline, priority, and lifecycle tests. Use on single-tile grids so one
/// request means exactly one inject() call.
class GateInjector final : public FaultInjector {
 public:
  InjectionReport inject(std::span<std::int32_t> /*data*/, realm::util::Rng& /*rng*/,
                         std::vector<FlipRecord>* /*record*/) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    return {};
  }

  /// Block until `n` inject() calls have arrived (30s safety timeout).
  [[nodiscard]] bool wait_arrived(int n) const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30), [&] { return arrived_ >= n; });
  }

  void open() const {
    const std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int arrived_ = 0;
  mutable bool open_ = false;
};

/// Opens the gate on scope exit so a failing REALM_CHECK can never strand the
/// engine destructor behind a parked worker. Declare AFTER the engine.
struct GateOpener {
  const GateInjector& gate;
  ~GateOpener() { gate.open(); }
};

/// Corrupts nothing; appends its tag to a shared log on every inject() call.
/// On a single-tile grid the log is exactly the order workers claimed work.
class RecordingInjector final : public FaultInjector {
 public:
  RecordingInjector(int tag, std::vector<int>* log, std::mutex* mu)
      : tag_(tag), log_(log), mu_(mu) {}

  InjectionReport inject(std::span<std::int32_t> /*data*/, realm::util::Rng& /*rng*/,
                         std::vector<FlipRecord>* /*record*/) const override {
    const std::lock_guard<std::mutex> lock(*mu_);
    log_->push_back(tag_);
    return {};
  }

 private:
  int tag_;
  std::vector<int>* log_;
  std::mutex* mu_;
};

/// Batch helper on submit + wait: responses[i] answers requests[i], with the
/// fault stream pinned to the batch index i, so a batch is bit-identical to
/// any async run that pins the same streams, at any worker count. Every
/// ticket is consumed before the first worker exception is rethrown.
std::vector<Response> serve(ServeEngine& engine, const std::vector<Request>& requests) {
  std::vector<Ticket> tickets;
  tickets.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    SubmitOptions options;
    options.stream = i;
    tickets.push_back(engine.submit(requests[i], options));
  }
  std::vector<Response> responses(requests.size());
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    try {
      responses[i] = engine.wait(tickets[i]);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return responses;
}

/// Value of one series in a Prometheus exposition (`name{labels} value`
/// line); UINT64_MAX when the series is absent.
std::uint64_t series_value(const std::string& text, const std::string& series) {
  const std::string key = series + " ";
  std::size_t at = 0;
  while ((at = text.find(key, at)) != std::string::npos) {
    if (at == 0 || text[at - 1] == '\n') {
      return std::stoull(text.substr(at + key.size()));
    }
    at += key.size();
  }
  return UINT64_MAX;
}

/// Golden reference for one request: the exact fault-stream contract the
/// engine documents — seed forked by stream, then by tile inside the grid.
MatF grid_reference(const TileGrid& grid, const MatI8& a8, QuantParams qa, std::uint64_t seed,
                    std::uint64_t stream) {
  std::vector<ProtectedGemmResult> scratch;
  MatF out;
  BatchVerdict bv;
  const NullInjector none;
  grid.run_into(a8, qa, none, Rng(seed).fork(stream), scratch, out, bv);
  return out;
}

}  // namespace

REALM_TEST(batch_verdict_merge_rules) {
  BatchVerdict bv;
  bv.reset();

  DetectionVerdict clean;  // defaults to kClean
  DetectionVerdict patched;
  patched.verdict = Verdict::kPatched;
  patched.msd_abs = 100;
  patched.max_dev_pow2 = 7;
  patched.fault_cols = {1, 3};
  patched.fault_rows = {0, 2};
  patched.injection = {4, 2};
  DetectionVerdict recomputed;
  recomputed.verdict = Verdict::kRecomputed;
  recomputed.msd_abs = 80;
  recomputed.fault_cols = {2};
  recomputed.fault_rows = {0};
  recomputed.injection = {2, 1};
  DetectionVerdict detected;
  detected.verdict = Verdict::kDetected;
  detected.msd_abs = 50;
  detected.fault_cols = {0};
  detected.fault_rows = {2, 5};
  detected.injection = {1, 1};

  bv.merge_tile(clean, 0);
  REALM_CHECK(bv.verdict == Verdict::kClean);
  bv.merge_tile(patched, 16);
  REALM_CHECK(bv.verdict == Verdict::kPatched);  // patched outranks clean
  bv.merge_tile(recomputed, 32);
  REALM_CHECK(bv.verdict == Verdict::kRecomputed);  // replay (latency cliff) outranks patch
  bv.merge_tile(detected, 48);
  REALM_CHECK(bv.verdict == Verdict::kDetected);  // uncorrected outranks both heals
  bv.merge_tile(patched, 64);
  REALM_CHECK(bv.verdict == Verdict::kDetected);  // worst sticks
  bv.finalize();

  REALM_CHECK_EQ(bv.tiles, std::size_t{5});
  REALM_CHECK_EQ(bv.tiles_clean, std::size_t{1});
  REALM_CHECK_EQ(bv.tiles_patched, std::size_t{2});
  REALM_CHECK_EQ(bv.tiles_recomputed, std::size_t{1});
  REALM_CHECK_EQ(bv.tiles_corrected(), std::size_t{3});
  REALM_CHECK_EQ(bv.tiles_detected, std::size_t{1});
  REALM_CHECK_EQ(bv.msd_abs_max, std::uint64_t{100});
  REALM_CHECK_EQ(bv.max_dev_pow2, 7);
  // Columns carry each tile's origin; rows are the dedup'd union.
  const std::vector<std::size_t> want_cols{17, 19, 34, 48, 65, 67};
  REALM_CHECK(bv.fault_cols == want_cols);
  const std::vector<std::size_t> want_rows{0, 2, 5};
  REALM_CHECK(bv.fault_rows == want_rows);
  REALM_CHECK_EQ(bv.injection.flipped_bits, std::uint64_t{11});
  REALM_CHECK_EQ(bv.injection.corrupted_values, std::uint64_t{6});
  REALM_CHECK(bv.faulty());

  bv.reset();
  REALM_CHECK(!bv.faulty());
  REALM_CHECK_EQ(bv.tiles, std::size_t{0});
  REALM_CHECK(bv.fault_cols.empty() && bv.fault_rows.empty());
}

REALM_TEST(all_clean_grid_bit_identical_to_unsharded) {
  // Sharding is column-separable: the assembled multi-tile output must match
  // an unsharded ProtectedGemm on the same operands bit for bit, and every
  // tile must screen clean.
  Rng rng(101);
  const std::size_t k = 48, n = 100, m = 9;  // 100/32 -> tiles of 32,32,32,4
  const MatI8 w8 = random_i8(k, n, rng);
  const QuantParams qw{0.02f}, qa{0.05f};
  const MatI8 a8 = random_i8(m, k, rng);

  ProtectedGemm whole;
  whole.set_weights_quantized(w8, qw);
  const NullInjector none;
  Rng rng_whole(7);
  const ProtectedGemmResult ref = whole.run_quantized(a8, qa, none, rng_whole);

  TileGridConfig cfg;
  cfg.tile_cols = 32;
  const TileGrid grid(w8, qw, cfg);
  REALM_CHECK_EQ(grid.tile_count(), std::size_t{4});
  REALM_CHECK_EQ(grid.tile_width(3), std::size_t{4});
  REALM_CHECK_EQ(grid.tile_origin(3), std::size_t{96});
  REALM_CHECK(grid.verify_weight_integrity());
  REALM_CHECK_EQ(grid.swap_epoch(), std::uint64_t{0});

  std::vector<ProtectedGemmResult> scratch;
  MatF out;
  BatchVerdict bv;
  grid.run_into(a8, qa, none, Rng(7), scratch, out, bv);

  REALM_CHECK(bv.verdict == Verdict::kClean);
  REALM_CHECK_EQ(bv.tiles_clean, std::size_t{4});
  REALM_CHECK_EQ(bv.msd_abs_max, std::uint64_t{0});
  REALM_CHECK(out == ref.output);  // bit-identical floats, not approximate
  // The per-tile accumulators are exactly the column slices of the whole.
  for (std::size_t t = 0; t < grid.tile_count(); ++t) {
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < grid.tile_width(t); ++c) {
        REALM_CHECK_EQ(scratch[t].acc(r, c), ref.acc(r, grid.tile_origin(t) + c));
      }
    }
  }
}

REALM_TEST(single_tile_fault_localizes_to_globally_offset_columns) {
  Rng rng(102);
  const std::size_t k = 32, n = 64, m = 8;
  const MatI8 w8 = random_i8(k, n, rng);
  const QuantParams qw{0.02f}, qa{0.05f};
  const MatI8 a8 = random_i8(m, k, rng);

  TileGridConfig cfg;
  cfg.tile_cols = 16;  // 4 tiles
  const TileGrid grid(w8, qw, cfg);

  const NullInjector none;
  const MagFreqInjector mag(1 << 12, 2);
  const std::size_t hit = 2;  // attack only tile 2 (global columns [32, 48))
  std::vector<const FaultInjector*> per_tile(grid.tile_count(), &none);
  per_tile[hit] = &mag;

  std::vector<ProtectedGemmResult> scratch;
  MatF out;
  BatchVerdict bv;
  grid.run_into(a8, qa, per_tile, Rng(11), scratch, out, bv);

  // The fault heals (in-place patch, or replay when the solve aliases), but
  // its localization must point into the attacked tile's GLOBAL column range.
  REALM_CHECK(realm::detect::corrected(bv.verdict));
  REALM_CHECK_EQ(bv.tiles_corrected(), std::size_t{1});
  REALM_CHECK_EQ(bv.tiles_clean, grid.tile_count() - 1);
  REALM_CHECK(!bv.fault_cols.empty());
  for (const std::size_t c : bv.fault_cols) {
    REALM_CHECK(c >= grid.tile_origin(hit));
    REALM_CHECK(c < grid.tile_origin(hit) + grid.tile_width(hit));
  }
  REALM_CHECK_EQ(bv.injection.corrupted_values, std::uint64_t{2});

  // Corrected output equals a golden unsharded run bit for bit.
  ProtectedGemm whole;
  whole.set_weights_quantized(w8, qw);
  Rng rng_ref(99);
  const ProtectedGemmResult ref = whole.run_quantized(a8, qa, none, rng_ref);
  REALM_CHECK(out == ref.output);
}

REALM_TEST(multi_tile_faults_aggregate_worst_verdict) {
  Rng rng(103);
  const std::size_t k = 24, n = 48, m = 6;
  const MatI8 w8 = random_i8(k, n, rng);
  const QuantParams qw{0.02f}, qa{0.05f};
  const MatI8 a8 = random_i8(m, k, rng);

  TileGridConfig cfg;
  cfg.tile_cols = 16;  // 3 tiles
  cfg.detect.patch_on_detect = false;  // keep faults visible as kDetected
  cfg.detect.recompute_on_detect = false;
  const TileGrid grid(w8, qw, cfg);

  const NullInjector none;
  const MagFreqInjector mag(1 << 10, 1);
  std::vector<const FaultInjector*> per_tile{&mag, &none, &mag};

  std::vector<ProtectedGemmResult> scratch;
  MatF out;
  BatchVerdict bv;
  grid.run_into(a8, qa, per_tile, Rng(12), scratch, out, bv);

  REALM_CHECK(bv.verdict == Verdict::kDetected);
  REALM_CHECK_EQ(bv.tiles_detected, std::size_t{2});
  REALM_CHECK_EQ(bv.tiles_clean, std::size_t{1});
  REALM_CHECK_EQ(bv.msd_abs_max, std::uint64_t{1} << 10);
  // Both attacked tiles contribute globally-offset columns; the clean middle
  // tile contributes none.
  bool saw_tile0 = false, saw_tile2 = false;
  for (const std::size_t c : bv.fault_cols) {
    REALM_CHECK(c < 16 || c >= 32);  // never in the clean tile's range
    saw_tile0 = saw_tile0 || c < 16;
    saw_tile2 = saw_tile2 || c >= 32;
  }
  REALM_CHECK(saw_tile0 && saw_tile2);
}

REALM_TEST(engine_deterministic_at_1_2_8_workers) {
  // The whole point of per-request forked fault streams: verdicts and outputs
  // are a pure function of (seed, request, stream) — identical at any worker
  // count and any queue interleaving. This exercises the batch helper
  // (stream pinned to the batch index) across worker counts.
  Rng rng(104);
  const std::size_t k = 32, n = 96, m = 8, nreq = 12;
  const MatI8 w8 = random_i8(k, n, rng);
  const QuantParams qw{0.02f}, qa{0.05f};
  TileGridConfig gcfg;
  gcfg.tile_cols = 32;
  const TileGrid grid(w8, qw, gcfg);

  std::vector<MatI8> acts;
  acts.reserve(nreq);
  for (std::size_t i = 0; i < nreq; ++i) acts.push_back(random_i8(m, k, rng));
  const RandomBitFlipInjector flips(0.002, 20, 30);
  const NullInjector none;
  std::vector<Request> reqs(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    reqs[i].a8 = &acts[i];
    reqs[i].qa = qa;
    reqs[i].injector = (i % 3 == 0) ? static_cast<const FaultInjector*>(&flips) : &none;
  }

  std::vector<std::vector<Response>> runs;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ServeConfig scfg;
    scfg.workers = workers;
    scfg.queue_capacity = 3;  // force admission backpressure on the wider runs
    scfg.seed = 0xfeed;
    ServeEngine engine(grid, scfg);
    runs.push_back(serve(engine, reqs));
    const ServeStats st = engine.stats();
    REALM_CHECK_EQ(st.submitted, std::uint64_t{nreq});
    REALM_CHECK_EQ(st.completed, std::uint64_t{nreq});
    REALM_CHECK_EQ(st.expired, std::uint64_t{0});
    REALM_CHECK_EQ(st.tiles_screened, std::uint64_t{nreq * grid.tile_count()});
    REALM_CHECK_EQ(st.latency_ms.count(), std::size_t{nreq});
    REALM_CHECK_EQ(st.window_count, std::size_t{nreq});
    REALM_CHECK(st.window_p99_ms >= st.window_p50_ms);
  }
  for (std::size_t w = 1; w < runs.size(); ++w) {
    for (std::size_t i = 0; i < nreq; ++i) {
      const Response &a = runs[0][i], &b = runs[w][i];
      REALM_CHECK(a.output == b.output);
      REALM_CHECK(a.verdict.verdict == b.verdict.verdict);
      REALM_CHECK(a.verdict.fault_cols == b.verdict.fault_cols);
      REALM_CHECK(a.verdict.fault_rows == b.verdict.fault_rows);
      REALM_CHECK_EQ(a.verdict.msd_abs_max, b.verdict.msd_abs_max);
      REALM_CHECK_EQ(a.verdict.injection.flipped_bits, b.verdict.injection.flipped_bits);
    }
  }
}

REALM_TEST(async_submit_matches_shim_under_randomized_interleavings) {
  // Pinned streams make outputs independent of HOW requests reach the
  // engine: submit in seeded-random order, with random priorities and
  // tenants, at 1/2/8 workers — every run must match the batch helper bit
  // for bit, request for request.
  Rng rng(107);
  const std::size_t k = 32, n = 96, m = 8, nreq = 16;
  const MatI8 w8 = random_i8(k, n, rng);
  const QuantParams qw{0.02f}, qa{0.05f};
  TileGridConfig gcfg;
  gcfg.tile_cols = 32;
  const TileGrid grid(w8, qw, gcfg);

  std::vector<MatI8> acts;
  acts.reserve(nreq);
  for (std::size_t i = 0; i < nreq; ++i) acts.push_back(random_i8(m, k, rng));
  const RandomBitFlipInjector flips(0.002, 20, 30);
  std::vector<Request> reqs(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    reqs[i].a8 = &acts[i];
    reqs[i].qa = qa;
    reqs[i].injector = (i % 4 == 1) ? &flips : nullptr;
  }

  ServeConfig ref_cfg;
  ref_cfg.seed = 0xcafe;
  ServeEngine ref_engine(grid, ref_cfg);
  const std::vector<Response> ref = serve(ref_engine, reqs);

  Rng shuffle_rng(0x5eed);
  const Priority lanes[] = {Priority::kInteractive, Priority::kNormal, Priority::kBatch};
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    // Seeded Fisher–Yates: a different submit interleaving per worker count,
    // reproducible across runs.
    std::vector<std::size_t> order(nreq);
    for (std::size_t i = 0; i < nreq; ++i) order[i] = i;
    for (std::size_t i = nreq - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          shuffle_rng.uniform_int(0, static_cast<std::int64_t>(i)));
      std::swap(order[i], order[j]);
    }

    ServeConfig scfg;
    scfg.workers = workers;
    scfg.queue_capacity = 4;
    scfg.seed = 0xcafe;
    ServeEngine engine(grid, scfg);
    std::vector<Ticket> tickets(nreq);
    for (const std::size_t i : order) {
      SubmitOptions opt;
      opt.stream = i;  // pinned: the helper's stream for batch index i
      opt.priority = lanes[i % 3];
      opt.tenant = (i % 2 == 0) ? "even" : "odd";
      tickets[i] = engine.submit(reqs[i], opt);
    }
    for (std::size_t i = 0; i < nreq; ++i) {
      const Response rsp = engine.wait(tickets[i]);
      REALM_CHECK(!rsp.expired);
      REALM_CHECK(rsp.output == ref[i].output);
      REALM_CHECK(rsp.verdict.verdict == ref[i].verdict.verdict);
      REALM_CHECK(rsp.verdict.fault_cols == ref[i].verdict.fault_cols);
      REALM_CHECK(rsp.verdict.fault_rows == ref[i].verdict.fault_rows);
      REALM_CHECK_EQ(rsp.verdict.injection.flipped_bits, ref[i].verdict.injection.flipped_bits);
    }
    REALM_CHECK_EQ(engine.tenant_stats("even").completed, std::uint64_t{nreq / 2});
    REALM_CHECK_EQ(engine.tenant_stats("odd").completed, std::uint64_t{nreq / 2});
  }
}

REALM_TEST(deadline_expiry_edge_cases) {
  // ManualClock makes expiry a pure function of the script: a deadline in
  // the past expires at claim time, deadline == now does NOT (expiry is
  // strictly now > deadline), and a future deadline expires only if the
  // clock actually passes it while the request is still queued. Expired
  // requests never compute and never disturb other requests' fault streams.
  Rng rng(108);
  const std::size_t k = 16, n = 24, m = 4;
  const QuantParams qw{0.02f}, qa{0.05f};
  const MatI8 w8 = random_i8(k, n, rng);
  TileGridConfig gcfg;
  gcfg.tile_cols = n;  // single tile: one request == one inject() call
  const TileGrid grid(w8, qw, gcfg);
  const MatI8 a8 = random_i8(m, k, rng);

  realm::util::ManualClock clock;
  const GateInjector gate;
  ServeConfig scfg;
  scfg.workers = 1;
  scfg.queue_capacity = 8;
  scfg.seed = 0xd1e;
  scfg.clock = &clock;
  ServeEngine engine(grid, scfg);
  const GateOpener opener{gate};

  const auto t0 = clock.now();
  Request gated = Request::borrow(a8, qa, &gate);
  SubmitOptions gopt;
  gopt.stream = 100;
  const Ticket tg = engine.submit(gated, gopt);
  REALM_CHECK(gate.wait_arrived(1));  // worker is parked inside the gate

  // Queued while the worker is busy; claimed only after the gate opens.
  SubmitOptions past;   // deadline strictly in the past: must expire
  past.deadline = t0 - std::chrono::nanoseconds(1);
  past.stream = 101;
  SubmitOptions at_now;  // deadline == now: must NOT expire (strict >)
  at_now.deadline = t0;
  at_now.stream = 102;
  SubmitOptions none;   // no deadline
  none.stream = 103;
  const Ticket tpast = engine.submit(Request::borrow(a8, qa), past);
  const Ticket tnow = engine.submit(Request::borrow(a8, qa), at_now);
  const Ticket tnone = engine.submit(Request::borrow(a8, qa), none);
  REALM_CHECK(engine.poll(tpast) == TicketState::kQueued);

  gate.open();
  const Response rg = engine.wait(tg);
  REALM_CHECK(!rg.expired);

  const Response rpast = engine.wait(tpast);
  REALM_CHECK(rpast.expired);
  REALM_CHECK_EQ(rpast.output.rows(), std::size_t{0});  // never computed
  const Response rnow = engine.wait(tnow);
  REALM_CHECK(!rnow.expired);
  const Response rnone = engine.wait(tnone);
  REALM_CHECK(!rnone.expired);
  // Non-expired outputs are exactly their stream's golden runs — the expired
  // neighbour shifted nothing.
  REALM_CHECK(rnow.output == grid_reference(grid, a8, qa, scfg.seed, 102));
  REALM_CHECK(rnone.output == grid_reference(grid, a8, qa, scfg.seed, 103));

  // A future deadline expires iff the clock passes it while queued.
  const GateInjector gate2;
  const GateOpener opener2{gate2};
  SubmitOptions gopt2;
  gopt2.stream = 200;
  const Ticket tg2 = engine.submit(Request::borrow(a8, qa, &gate2), gopt2);
  REALM_CHECK(gate2.wait_arrived(1));
  SubmitOptions future;
  future.deadline = clock.now() + std::chrono::seconds(5);
  future.stream = 201;
  const Ticket tfuture = engine.submit(Request::borrow(a8, qa), future);
  clock.advance(std::chrono::seconds(10));  // sail past the deadline in-queue
  gate2.open();
  const Response rg2 = engine.wait(tg2);
  REALM_CHECK(!rg2.expired);
  const Response rfuture = engine.wait(tfuture);
  REALM_CHECK(rfuture.expired);

  const ServeStats st = engine.stats();
  REALM_CHECK_EQ(st.expired, std::uint64_t{2});
  REALM_CHECK_EQ(st.completed, std::uint64_t{4});
  REALM_CHECK_EQ(st.failed, std::uint64_t{0});
  const ServeStats ts = engine.tenant_stats(kDefaultTenant);
  REALM_CHECK_EQ(ts.expired, std::uint64_t{2});
  REALM_CHECK_EQ(ts.completed, std::uint64_t{4});
}

REALM_TEST(hot_swap_under_load_never_mixes_tiles) {
  // Swap every tile to new weights while traffic is in flight. Zero requests
  // may drop or mis-verdict, and every response's per-tile column slice must
  // bit-equal EITHER the all-old or the all-new reference for that tile —
  // a blend would mean a request observed a half-swapped tile.
  Rng rng(109);
  const std::size_t k = 32, n = 64, m = 8, nreq = 32;
  const QuantParams qw{0.02f}, qa{0.05f};
  const MatI8 w_old = random_i8(k, n, rng);
  const MatI8 w_new = random_i8(k, n, rng);
  TileGridConfig gcfg;
  gcfg.tile_cols = 16;  // 4 tiles
  const TileGrid grid_old(w_old, qw, gcfg);
  const TileGrid grid_new(w_new, qw, gcfg);

  std::vector<MatI8> acts;
  acts.reserve(nreq);
  for (std::size_t i = 0; i < nreq; ++i) acts.push_back(random_i8(m, k, rng));

  const std::uint64_t seed = 0x50ab;
  std::vector<MatF> ref_old, ref_new;
  ref_old.reserve(nreq);
  ref_new.reserve(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    ref_old.push_back(grid_reference(grid_old, acts[i], qa, seed, i));
    ref_new.push_back(grid_reference(grid_new, acts[i], qa, seed, i));
  }

  TileGrid grid(w_old, qw, gcfg);  // the live, hot-swapped grid
  ServeConfig scfg;
  scfg.workers = 4;
  scfg.queue_capacity = 8;
  scfg.seed = seed;
  ServeEngine engine(grid, scfg);

  std::vector<Ticket> tickets;
  tickets.reserve(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    if (i == nreq / 2) {
      // Roll every tile mid-stream, against live traffic.
      REALM_CHECK_EQ(grid.swap_weights(w_new, qw), grid.tile_count());
    }
    SubmitOptions opt;
    opt.stream = i;
    tickets.push_back(engine.submit(Request::borrow(acts[i], qa), opt));
  }

  for (std::size_t i = 0; i < nreq; ++i) {
    const Response rsp = engine.wait(tickets[i]);
    REALM_CHECK(!rsp.expired);
    REALM_CHECK(rsp.verdict.verdict == Verdict::kClean);  // no mis-verdicts
    for (std::size_t t = 0; t < grid.tile_count(); ++t) {
      const std::size_t origin = grid.tile_origin(t);
      const std::size_t width = grid.tile_width(t);
      bool matches_old = true, matches_new = true;
      for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < width; ++c) {
          matches_old = matches_old && rsp.output(r, origin + c) == ref_old[i](r, origin + c);
          matches_new = matches_new && rsp.output(r, origin + c) == ref_new[i](r, origin + c);
        }
      }
      REALM_CHECK(matches_old || matches_new);  // whole-tile old or whole-tile new
    }
  }
  const ServeStats st = engine.stats();
  REALM_CHECK_EQ(st.completed, std::uint64_t{nreq});
  REALM_CHECK_EQ(st.expired, std::uint64_t{0});
  REALM_CHECK_EQ(st.failed, std::uint64_t{0});
  REALM_CHECK_EQ(grid.swap_epoch(), static_cast<std::uint64_t>(grid.tile_count()));
  REALM_CHECK(grid.verify_weight_integrity());
}

REALM_TEST(swap_tile_misuse_and_output_switch) {
  Rng rng(110);
  const std::size_t k = 16, n = 32, m = 4;
  const QuantParams qw{0.02f}, qa{0.05f};
  const MatI8 w_old = random_i8(k, n, rng);
  const MatI8 w_new = random_i8(k, n, rng);
  TileGridConfig gcfg;
  gcfg.tile_cols = 16;  // 2 tiles
  TileGrid grid(w_old, qw, gcfg);

  // Geometry is immutable: wrong index and wrong shape are loud errors.
  REALM_CHECK_THROWS(grid.swap_tile(2, random_i8(k, 16, rng), qw), std::invalid_argument);
  REALM_CHECK_THROWS(grid.swap_tile(0, random_i8(k, 8, rng), qw), std::invalid_argument);
  REALM_CHECK_THROWS(grid.swap_tile(0, random_i8(k / 2, 16, rng), qw), std::invalid_argument);
  REALM_CHECK_THROWS(grid.swap_weights(random_i8(k, n / 2, rng), qw), std::invalid_argument);
  REALM_CHECK_EQ(grid.swap_epoch(), std::uint64_t{0});

  // A full rolling swap re-points every tile: subsequent traffic computes
  // against the new weights bit-for-bit, and the scrub stays green.
  REALM_CHECK_EQ(grid.swap_weights(w_new, qw), std::size_t{2});
  REALM_CHECK_EQ(grid.swap_epoch(), std::uint64_t{2});
  REALM_CHECK(grid.verify_weight_integrity());

  const MatI8 a8 = random_i8(m, k, rng);
  const TileGrid grid_new(w_new, qw, gcfg);
  ServeConfig scfg;
  scfg.seed = 0xab1e;
  ServeEngine engine(grid, scfg);
  SubmitOptions opt;
  opt.stream = 0;
  const Response rsp = engine.wait(engine.submit(Request::borrow(a8, qa), opt));
  REALM_CHECK(rsp.verdict.verdict == Verdict::kClean);
  REALM_CHECK(rsp.output == grid_reference(grid_new, a8, qa, scfg.seed, 0));
}

REALM_TEST(mixed_shapes_in_flight_share_workers) {
  // Interleaved request heights through the same engine: per-worker scratch
  // is keyed by row count, so every shape must come back exactly equal to
  // its stream's golden run — no cross-shape buffer contamination.
  Rng rng(111);
  const std::size_t k = 24, n = 48;
  const QuantParams qw{0.02f}, qa{0.05f};
  const TileGrid grid(random_i8(k, n, rng), qw, TileGridConfig{16, {}});

  const std::size_t heights[] = {3, 8, 17};
  std::vector<MatI8> acts;
  const std::size_t nreq = 12;
  acts.reserve(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    acts.push_back(random_i8(heights[i % 3], k, rng));
  }

  ServeConfig scfg;
  scfg.workers = 2;
  scfg.queue_capacity = 4;
  scfg.seed = 0x3a9e;
  ServeEngine engine(grid, scfg);
  std::vector<Ticket> tickets;
  tickets.reserve(nreq);
  for (std::size_t i = 0; i < nreq; ++i) {
    SubmitOptions opt;
    opt.stream = i;
    tickets.push_back(engine.submit(Request::borrow(acts[i], qa), opt));
  }
  for (std::size_t i = 0; i < nreq; ++i) {
    const Response rsp = engine.wait(tickets[i]);
    REALM_CHECK_EQ(rsp.output.rows(), heights[i % 3]);
    REALM_CHECK_EQ(rsp.output.cols(), n);
    REALM_CHECK(rsp.output == grid_reference(grid, acts[i], qa, scfg.seed, i));
  }
}

REALM_TEST(priority_lanes_and_admission_rejection) {
  // One worker parked in a gate, three queued requests at capacity: the
  // interactive submission must run before the earlier batch ones (strict
  // priority, FIFO within a lane), and a fourth submission must be shed by
  // try_submit with a rejected tally — never silently queued past the bound.
  Rng rng(112);
  const std::size_t k = 16, n = 24, m = 4;
  const QuantParams qw{0.02f}, qa{0.05f};
  TileGridConfig gcfg;
  gcfg.tile_cols = n;  // single tile: the injector log IS the claim order
  const TileGrid grid(random_i8(k, n, rng), qw, gcfg);
  const MatI8 a8 = random_i8(m, k, rng);

  std::mutex log_mu;
  std::vector<int> log;
  const RecordingInjector rec1(1, &log, &log_mu);
  const RecordingInjector rec2(2, &log, &log_mu);
  const RecordingInjector rec3(3, &log, &log_mu);
  const GateInjector gate;

  ServeConfig scfg;
  scfg.workers = 1;
  scfg.queue_capacity = 3;
  ServeEngine engine(grid, scfg);
  const GateOpener opener{gate};

  const Ticket tg = engine.submit(Request::borrow(a8, qa, &gate));
  REALM_CHECK(gate.wait_arrived(1));

  SubmitOptions batch;
  batch.priority = Priority::kBatch;
  batch.tenant = "free";
  const Ticket t1 = engine.submit(Request::borrow(a8, qa, &rec1), batch);
  const Ticket t2 = engine.submit(Request::borrow(a8, qa, &rec2), batch);
  SubmitOptions inter;
  inter.priority = Priority::kInteractive;
  inter.tenant = "pro";
  const Ticket t3 = engine.submit(Request::borrow(a8, qa, &rec3), inter);

  // Budget exhausted (3 queued, worker busy): shed, don't park.
  REALM_CHECK(!engine.try_submit(Request::borrow(a8, qa), batch).has_value());
  REALM_CHECK_EQ(engine.stats().rejected, std::uint64_t{1});
  REALM_CHECK_EQ(engine.tenant_stats("free").rejected, std::uint64_t{1});
  REALM_CHECK(engine.poll(t3) == TicketState::kQueued);

  gate.open();
  engine.drain();
  REALM_CHECK(engine.poll(t1) == TicketState::kDone);
  const std::vector<int> want{3, 1, 2};  // interactive first, then batch FIFO
  REALM_CHECK(log == want);

  (void)engine.wait(tg);
  (void)engine.wait(t1);
  (void)engine.wait(t2);
  (void)engine.wait(t3);
  REALM_CHECK_EQ(engine.tenant_stats("pro").completed, std::uint64_t{1});
  REALM_CHECK_EQ(engine.tenant_stats("free").completed, std::uint64_t{2});
  const std::vector<std::string> names = engine.tenants();
  REALM_CHECK_EQ(names.size(), std::size_t{3});  // default, free, pro (sorted)
  REALM_CHECK(names[0] == kDefaultTenant && names[1] == "free" && names[2] == "pro");
  REALM_CHECK_THROWS((void)engine.tenant_stats("nobody"), std::invalid_argument);
}

REALM_TEST(owned_requests_and_ticket_lifecycle) {
  // The async lifetime fix: Request::own() carries the activation, so the
  // caller's buffer can die before a worker ever touches the request. The
  // ticket itself is single-use — wait() consumes it.
  Rng rng(113);
  const std::size_t k = 16, n = 24, m = 4;
  const QuantParams qw{0.02f}, qa{0.05f};
  TileGridConfig gcfg;
  gcfg.tile_cols = n;  // single tile for the gate
  const TileGrid grid(random_i8(k, n, rng), qw, gcfg);
  const MatI8 a8 = random_i8(m, k, rng);

  const GateInjector gate;
  ServeConfig scfg;
  scfg.workers = 1;
  scfg.queue_capacity = 4;
  scfg.seed = 0x0eed;
  ServeEngine engine(grid, scfg);
  const GateOpener opener{gate};

  const Ticket tg = engine.submit(Request::borrow(a8, qa, &gate));
  REALM_CHECK(gate.wait_arrived(1));

  MatF ref;
  Ticket towned;
  {
    // The source buffer lives only in this scope; the worker is parked, so
    // it CANNOT run before the scope ends — the owned copy must carry it.
    MatI8 ephemeral = random_i8(m, k, rng);
    ref = grid_reference(grid, ephemeral, qa, scfg.seed, 7);
    SubmitOptions opt;
    opt.stream = 7;
    towned = engine.submit(Request::own(std::move(ephemeral), qa), opt);
    REALM_CHECK(engine.poll(towned) == TicketState::kQueued);
  }
  gate.open();
  (void)engine.wait(tg);
  const Response rsp = engine.wait(towned);
  REALM_CHECK(!rsp.expired);
  REALM_CHECK(rsp.output == ref);

  // wait() consumed the ticket: a second wait (or poll) is a loud error.
  REALM_CHECK_THROWS((void)engine.wait(towned), std::invalid_argument);
  REALM_CHECK_THROWS((void)engine.poll(towned), std::invalid_argument);
  REALM_CHECK_THROWS((void)engine.poll(Ticket{}), std::invalid_argument);
  REALM_CHECK_THROWS((void)engine.wait(Ticket{987654}), std::invalid_argument);
}

REALM_TEST(stats_window_slides_and_reset_clears) {
  Rng rng(114);
  const std::size_t k = 16, n = 16, m = 4;
  const TileGrid grid(random_i8(k, n, rng), QuantParams{0.02f}, TileGridConfig{16, {}});
  const MatI8 a8 = random_i8(m, k, rng);
  const MagFreqInjector mag(1 << 8, 1);

  ServeConfig scfg;
  scfg.workers = 2;
  scfg.stats_window = 4;  // tiny window so it demonstrably slides
  ServeEngine engine(grid, scfg);
  std::vector<Request> reqs(3, Request::borrow(a8, QuantParams{0.05f}, &mag));
  (void)serve(engine, reqs);
  ServeStats st = engine.stats();
  REALM_CHECK_EQ(st.completed, std::uint64_t{3});
  REALM_CHECK_EQ(st.window_count, std::size_t{3});  // under capacity: all held
  (void)serve(engine, reqs);
  st = engine.stats();
  REALM_CHECK_EQ(st.completed, std::uint64_t{6});
  REALM_CHECK_EQ(st.window_count, std::size_t{4});  // capped at the window span
  REALM_CHECK(st.window_p99_ms >= st.window_p50_ms);
  REALM_CHECK_EQ(st.latency_ms.count(), std::size_t{6});  // cumulative keeps all
  // Every request corrects its single faulty tile (by either healing mode).
  REALM_CHECK_EQ(st.tiles_corrected(), std::uint64_t{6 * grid.tile_count()});

  engine.reset_stats();
  st = engine.stats();
  REALM_CHECK_EQ(st.completed, std::uint64_t{0});
  REALM_CHECK_EQ(st.window_count, std::size_t{0});
  REALM_CHECK_EQ(st.latency_ms.count(), std::size_t{0});
}

REALM_TEST(misuse_is_rejected) {
  Rng rng(106);
  const MatI8 w8 = random_i8(8, 8, rng);
  REALM_CHECK_THROWS(TileGrid(w8, QuantParams{0.1f}, TileGridConfig{0, {}}),
                     std::invalid_argument);
  REALM_CHECK_THROWS(TileGrid(MatI8{}, QuantParams{0.1f}), std::invalid_argument);

  const TileGrid grid(w8, QuantParams{0.1f}, TileGridConfig{4, {}});
  const MatI8 a8 = random_i8(2, 8, rng);
  const NullInjector none;
  std::vector<ProtectedGemmResult> scratch;
  MatF out;
  BatchVerdict bv;
  const std::vector<const FaultInjector*> short_list{&none};  // 1 != tile_count()
  REALM_CHECK_THROWS(grid.run_into(a8, QuantParams{0.1f}, short_list, Rng(1), scratch, out, bv),
                     std::invalid_argument);

  ServeConfig bad;
  bad.queue_capacity = 0;
  REALM_CHECK_THROWS(ServeEngine(grid, bad), std::invalid_argument);
  ServeConfig bad_window;
  bad_window.stats_window = 0;
  REALM_CHECK_THROWS(ServeEngine(grid, bad_window), std::invalid_argument);

  ServeEngine engine(grid, ServeConfig{});
  std::vector<Request> reqs(1);  // null activation
  REALM_CHECK_THROWS(serve(engine, reqs), std::invalid_argument);
  // The async front door rejects the same misuse at submit time — the
  // lifetime-footgun death-test: a request with no activation never reaches
  // a worker.
  REALM_CHECK_THROWS((void)engine.submit(Request{}), std::invalid_argument);
  REALM_CHECK_THROWS((void)engine.try_submit(Request{}), std::invalid_argument);

  // An exception thrown from INSIDE a worker (dim mismatch surfaces in
  // run_quantized_into, past the up-front validation) must surface from
  // wait() — and therefore from the batch helper — as the original type.
  ServeConfig two;
  two.workers = 2;
  two.queue_capacity = 1;
  ServeEngine multi(grid, two);
  const MatI8 bad_dims = random_i8(2, 4, rng);  // cols != k
  std::vector<Request> mixed(3);
  for (auto& r : mixed) {
    r.a8 = &a8;
    r.qa = QuantParams{0.1f};
  }
  mixed[1].a8 = &bad_dims;
  REALM_CHECK_THROWS(serve(multi, mixed), std::invalid_argument);
  REALM_CHECK_EQ(multi.stats().failed, std::uint64_t{1});
  // The failed ticket was consumed by the helper; the engine carries no
  // orphaned slots and keeps serving.
  const Ticket ok = multi.submit(Request::borrow(a8, QuantParams{0.1f}));
  REALM_CHECK(!multi.wait(ok).expired);
}

REALM_TEST(second_concurrent_waiter_gets_invalid_argument) {
  // Two threads wait() on one ticket while a gate holds it running. A ticket
  // is consumed exactly once: one waiter gets the Response, the other gets
  // std::invalid_argument — never a stray std::out_of_range from racing the
  // winner to the slot it erases, and never a hang.
  Rng rng(115);
  const std::size_t k = 16, n = 24, m = 4;
  const QuantParams qw{0.02f}, qa{0.05f};
  TileGridConfig gcfg;
  gcfg.tile_cols = n;  // single tile for the gate
  const TileGrid grid(random_i8(k, n, rng), qw, gcfg);
  const MatI8 a8 = random_i8(m, k, rng);

  const GateInjector gate;
  ServeConfig scfg;
  scfg.workers = 1;
  ServeEngine engine(grid, scfg);
  const GateOpener opener{gate};

  const Ticket t = engine.submit(Request::borrow(a8, qa, &gate));
  REALM_CHECK(gate.wait_arrived(1));  // the ticket is running, held open
  std::atomic<int> responses{0}, invalid{0}, other{0};
  const auto waiter = [&] {
    try {
      (void)engine.wait(t);
      ++responses;
    } catch (const std::invalid_argument&) {
      ++invalid;
    } catch (...) {
      ++other;
    }
  };
  std::thread a(waiter);
  std::thread b(waiter);
  // Let both reach wait() while the ticket is still open.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.open();
  a.join();
  b.join();
  REALM_CHECK_EQ(responses.load(), 1);
  REALM_CHECK_EQ(invalid.load(), 1);
  REALM_CHECK_EQ(other.load(), 0);
}

REALM_TEST(one_record_per_event_sums_across_tenants_and_registry) {
  // Every serve event is recorded once, in its tenant's row: stats() must be
  // exactly the sum of the tenant_stats() rows, and an attached registry's
  // series must read the same values. Two tenants carry injected
  // accumulator and activation faults; one try_submit is rejected and one
  // ManualClock deadline expires. Checked with a registry attached and
  // without one; after reset_stats() everything reads 0.
  Rng rng(116);
  const std::size_t k = 32, n = 64, m = 8;
  const QuantParams qw{0.02f}, qa{0.05f};
  TileGridConfig gcfg;
  gcfg.tile_cols = 16;  // 4 tiles per request
  const TileGrid grid(random_i8(k, n, rng), qw, gcfg);
  const MatI8 a8 = random_i8(m, k, rng);
  const RandomBitFlipInjector flips(0.002, 20, 30);
  MemoryFaultConfig mfc;
  mfc.seed = 0x5eed;
  mfc.activations.ber = 0.02;
  const MemoryFaultModel memory(mfc);

  using Count = std::uint64_t ServeStats::*;
  struct Field {
    const char* series;  ///< registry series, or nullptr for row-only counters
    Count member;
  };
  const Field fields[] = {
      {"realm_serve_requests_total{state=\"submitted\"}", &ServeStats::submitted},
      {"realm_serve_requests_total{state=\"rejected\"}", &ServeStats::rejected},
      {"realm_serve_requests_total{state=\"completed\"}", &ServeStats::completed},
      {"realm_serve_requests_total{state=\"expired\"}", &ServeStats::expired},
      {"realm_serve_requests_total{state=\"failed\"}", &ServeStats::failed},
      {"realm_serve_tiles_total{outcome=\"screened\"}", &ServeStats::tiles_screened},
      {"realm_serve_tiles_total{outcome=\"detected\"}", &ServeStats::tiles_detected},
      {"realm_serve_tiles_total{outcome=\"patched\"}", &ServeStats::tiles_patched},
      {"realm_serve_tiles_total{outcome=\"recomputed\"}", &ServeStats::tiles_recomputed},
      {nullptr, &ServeStats::requests_faulty},
      {nullptr, &ServeStats::requests_patched},
      {nullptr, &ServeStats::requests_recomputed},
      {nullptr, &ServeStats::requests_detected},
  };

  for (const bool metered : {true, false}) {
    realm::obs::MetricsRegistry registry;
    realm::util::ManualClock clock;
    const GateInjector gate;
    ServeConfig scfg;
    scfg.workers = 1;
    scfg.queue_capacity = 2;
    scfg.seed = 0x1ed9e;
    scfg.clock = &clock;
    scfg.metrics = metered ? &registry : nullptr;
    ServeEngine engine(grid, scfg);
    const GateOpener opener{gate};

    SubmitOptions alpha;
    alpha.tenant = "alpha";
    SubmitOptions beta;
    beta.tenant = "beta";
    const Ticket tg = engine.submit(Request::borrow(a8, qa, &gate), alpha);
    REALM_CHECK(gate.wait_arrived(1));
    // Queued behind the gate: one request already past its deadline, one
    // faulty one; the queue is then full, so try_submit is shed.
    SubmitOptions late = beta;
    late.deadline = clock.now() - std::chrono::nanoseconds(1);
    const Ticket texp = engine.submit(Request::borrow(a8, qa), late);
    const Ticket tq = engine.submit(Request::borrow(a8, qa, &flips), alpha);
    REALM_CHECK(!engine.try_submit(Request::borrow(a8, qa), beta).has_value());
    gate.open();
    (void)engine.wait(tg);
    REALM_CHECK(engine.wait(texp).expired);
    (void)engine.wait(tq);
    // Faulty traffic for both tenants, one at a time so each completion
    // lands at its own ManualClock instant (req/s needs a nonzero span).
    for (std::size_t i = 0; i < 8; ++i) {
      SubmitOptions opt = (i % 2 == 0) ? alpha : beta;
      opt.stream = 100 + i;
      (void)engine.wait(
          engine.submit(Request::borrow(a8, qa, &flips, i % 4 < 2 ? &memory : nullptr), opt));
      clock.advance(std::chrono::milliseconds(1));
    }

    const ServeStats st = engine.stats();
    const ServeStats a = engine.tenant_stats("alpha");
    const ServeStats b = engine.tenant_stats("beta");
    REALM_CHECK(st.tenant.empty());
    REALM_CHECK(a.tenant == "alpha" && b.tenant == "beta");
    REALM_CHECK_EQ(st.rejected, std::uint64_t{1});
    REALM_CHECK_EQ(st.expired, std::uint64_t{1});
    REALM_CHECK_EQ(st.completed, std::uint64_t{10});
    REALM_CHECK(st.requests_faulty > 0);
    REALM_CHECK(st.tiles_corrected() > 0);
    const auto act = static_cast<std::size_t>(Component::kActivations);
    REALM_CHECK(st.component_flips[act] > 0);
    REALM_CHECK(a.req_per_s > 0 && b.req_per_s > 0);
    const std::string text = metered ? registry.expose() : std::string();
    for (const Field& f : fields) {
      REALM_CHECK_EQ(st.*f.member, a.*f.member + b.*f.member);
      if (metered && f.series != nullptr) {
        REALM_CHECK_EQ(series_value(text, f.series), st.*f.member);
      }
    }
    for (std::size_t i = 0; i < realm::fault::kComponentCount; ++i) {
      REALM_CHECK_EQ(st.component_flips[i], a.component_flips[i] + b.component_flips[i]);
      if (metered) {
        const std::string series =
            std::string("realm_serve_component_flips_total{component=\"") +
            realm::fault::to_string(static_cast<Component>(i)) + "\"}";
        REALM_CHECK_EQ(series_value(text, series), st.component_flips[i]);
      }
    }
    REALM_CHECK_EQ(st.latency_ms.count(), a.latency_ms.count() + b.latency_ms.count());
    REALM_CHECK_EQ(st.latency_ms.count(), std::size_t{st.completed});
    REALM_CHECK_EQ(st.window_count, a.window_count + b.window_count);
    REALM_CHECK(st.req_per_s == a.req_per_s + b.req_per_s);
    if (metered) {
      REALM_CHECK_EQ(series_value(text, "realm_serve_request_latency_us_count"), st.completed);
    }

    engine.reset_stats();
    const std::string zeroed = metered ? registry.expose() : std::string();
    REALM_CHECK_EQ(engine.tenants().size(), std::size_t{2});  // rows zeroed, not forgotten
    for (const ServeStats& z :
         {engine.stats(), engine.tenant_stats("alpha"), engine.tenant_stats("beta")}) {
      for (const Field& f : fields) {
        REALM_CHECK_EQ(z.*f.member, std::uint64_t{0});
        if (metered && f.series != nullptr) {
          REALM_CHECK_EQ(series_value(zeroed, f.series), std::uint64_t{0});
        }
      }
      for (const std::uint64_t flips_i : z.component_flips) {
        REALM_CHECK_EQ(flips_i, std::uint64_t{0});
      }
      REALM_CHECK_EQ(z.latency_ms.count(), std::size_t{0});
      REALM_CHECK_EQ(z.window_count, std::size_t{0});
      REALM_CHECK(z.req_per_s == 0.0);
    }
    if (metered) {
      REALM_CHECK_EQ(series_value(zeroed, "realm_serve_request_latency_us_count"),
                     std::uint64_t{0});
    }
  }
}

REALM_TEST_MAIN()
