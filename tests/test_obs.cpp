// Observability layer: log₂ histogram edges, metrics registry exposition and
// reset semantics, span tracer determinism under ManualClock at several
// worker counts, ring eviction, and the compile-time removal contract.
#include "obs/metrics.h"
#include "obs/trace.h"

#include <algorithm>
#include <compare>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fault/fault.h"
#include "realm_test.h"
#include "serve/engine.h"
#include "serve/tile_grid.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/clock.h"
#include "util/rng.h"

using namespace realm::obs;
using realm::util::ManualClock;
using realm::util::Rng;

namespace {

realm::tensor::MatI8 random_i8(std::size_t rows, std::size_t cols, Rng& rng) {
  realm::tensor::MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return m;
}

}  // namespace

// ---------------------------------------------------------------------------
// LogHistogram

REALM_TEST(histogram_bucket_edges) {
  // Bucket 0 is the value 0; bucket i (i >= 1) is [2^(i-1), 2^i - 1].
  REALM_CHECK_EQ(LogHistogram::bucket_index(0), 0);
  REALM_CHECK_EQ(LogHistogram::bucket_index(1), 1);
  REALM_CHECK_EQ(LogHistogram::bucket_index(2), 2);
  REALM_CHECK_EQ(LogHistogram::bucket_index(3), 2);
  REALM_CHECK_EQ(LogHistogram::bucket_index(4), 3);
  REALM_CHECK_EQ(LogHistogram::bucket_index((std::uint64_t{1} << 20) - 1), 20);
  REALM_CHECK_EQ(LogHistogram::bucket_index(std::uint64_t{1} << 20), 21);
  REALM_CHECK_EQ(LogHistogram::bucket_index(std::uint64_t{INT64_MAX}), 63);
  REALM_CHECK_EQ(LogHistogram::bucket_index(UINT64_MAX), 64);

  REALM_CHECK_EQ(LogHistogram::bucket_upper(0), std::uint64_t{0});
  REALM_CHECK_EQ(LogHistogram::bucket_upper(1), std::uint64_t{1});
  REALM_CHECK_EQ(LogHistogram::bucket_upper(2), std::uint64_t{3});
  REALM_CHECK_EQ(LogHistogram::bucket_upper(63), std::uint64_t{INT64_MAX});
  REALM_CHECK_EQ(LogHistogram::bucket_upper(64), UINT64_MAX);

  // Every bucket's bounds agree with bucket_index on both edges.
  for (int i = 1; i < LogHistogram::kBuckets; ++i) {
    const std::uint64_t lo = std::uint64_t{1} << (i - 1);
    REALM_CHECK_EQ(LogHistogram::bucket_index(lo), i);
    REALM_CHECK_EQ(LogHistogram::bucket_index(LogHistogram::bucket_upper(i)), i);
  }

  LogHistogram h;
  h.observe(0);
  h.observe(1);
  h.observe(UINT64_MAX);
  REALM_CHECK_EQ(h.bucket(0), std::uint64_t{1});
  REALM_CHECK_EQ(h.bucket(1), std::uint64_t{1});
  REALM_CHECK_EQ(h.bucket(64), std::uint64_t{1});
  REALM_CHECK_EQ(h.count(), std::uint64_t{3});
}

REALM_TEST(histogram_and_counter_concurrent_increments_exact) {
  // Relaxed atomics forgo ordering, not atomicity: 8 threads' increments must
  // all land. Runs under the TSan CI leg, which also vets the data-race-free
  // claim of the hot-path contract.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter c;
  LogHistogram h;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  REALM_CHECK_EQ(c.value(), std::uint64_t{kThreads * kPerThread});
  REALM_CHECK_EQ(h.count(), std::uint64_t{kThreads * kPerThread});
  std::uint64_t buckets = 0;
  for (int i = 0; i < LogHistogram::kBuckets; ++i) buckets += h.bucket(i);
  REALM_CHECK_EQ(buckets, std::uint64_t{kThreads * kPerThread});
}

// ---------------------------------------------------------------------------
// MetricsRegistry

REALM_TEST(prometheus_exposition_golden) {
  MetricsRegistry reg;
  Counter& ok = reg.counter("test_requests_total", "Requests by state.", "state=\"ok\"");
  Counter& bad = reg.counter("test_requests_total", "Requests by state.", "state=\"bad\"");
  Gauge& depth = reg.gauge("test_depth", "Queue depth.");
  LogHistogram& lat = reg.histogram("test_latency_us", "Latency.");
  ok.inc(3);
  bad.inc();
  depth.set(5);
  lat.observe(0);
  lat.observe(1);
  lat.observe(5);

  // Byte-exact: families sorted by name, series by label body, cumulative
  // buckets with trailing empties elided before +Inf.
  const std::string want =
      "# HELP test_depth Queue depth.\n"
      "# TYPE test_depth gauge\n"
      "test_depth 5\n"
      "# HELP test_latency_us Latency.\n"
      "# TYPE test_latency_us histogram\n"
      "test_latency_us_bucket{le=\"0\"} 1\n"
      "test_latency_us_bucket{le=\"1\"} 2\n"
      "test_latency_us_bucket{le=\"3\"} 2\n"
      "test_latency_us_bucket{le=\"7\"} 3\n"
      "test_latency_us_bucket{le=\"+Inf\"} 3\n"
      "test_latency_us_sum 6\n"
      "test_latency_us_count 3\n"
      "# HELP test_requests_total Requests by state.\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total{state=\"bad\"} 1\n"
      "test_requests_total{state=\"ok\"} 3\n";
  REALM_CHECK(reg.expose() == want);

  // An idle histogram exposes as just +Inf/sum/count — no 65-line spray.
  MetricsRegistry idle;
  idle.histogram("idle_us", "Idle.");
  const std::string want_idle =
      "# HELP idle_us Idle.\n"
      "# TYPE idle_us histogram\n"
      "idle_us_bucket{le=\"+Inf\"} 0\n"
      "idle_us_sum 0\n"
      "idle_us_count 0\n";
  REALM_CHECK(idle.expose() == want_idle);
}

REALM_TEST(registry_get_or_create_and_type_clash) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total", "X.");
  Counter& b = reg.counter("x_total", "ignored on re-registration");
  REALM_CHECK(&a == &b);
  // Same name, different label body: a distinct series.
  Counter& c = reg.counter("x_total", "X.", "k=\"v\"");
  REALM_CHECK(&a != &c);
  // Same name as a different metric type is a wiring bug, not a new series.
  REALM_CHECK_THROWS(reg.gauge("x_total", "X."), std::logic_error);
  REALM_CHECK_THROWS(reg.histogram("x_total", "X."), std::logic_error);
}

REALM_TEST(registry_reset_zeroes_and_never_tears_against_expose) {
  MetricsRegistry reg;
  Counter& a = reg.counter("pair_a_total", "A.");
  Counter& b = reg.counter("pair_b_total", "B.");
  LogHistogram& h = reg.histogram("pair_us", "H.");
  a.inc(7);
  b.inc(7);
  h.observe(100);

  // expose() and reset() serialize on the registry mutex: a scraper must see
  // the two counters equal (both pre-reset 7s or both post-reset 0s), never a
  // mixture. The scraper hammers while the main thread resets mid-stream.
  const auto value_of = [](const std::string& text, const std::string& series) {
    const auto pos = text.find("\n" + series + " ");
    REALM_CHECK(pos != std::string::npos);
    return std::stoull(text.substr(pos + series.size() + 2));
  };
  std::thread scraper([&] {
    for (int i = 0; i < 200; ++i) {
      const std::string text = reg.expose();
      REALM_CHECK_EQ(value_of(text, "pair_a_total"), value_of(text, "pair_b_total"));
    }
  });
  reg.reset();
  scraper.join();

  REALM_CHECK_EQ(a.value(), std::uint64_t{0});
  REALM_CHECK_EQ(b.value(), std::uint64_t{0});
  REALM_CHECK_EQ(h.count(), std::uint64_t{0});
  REALM_CHECK_EQ(h.sum(), std::uint64_t{0});
  REALM_CHECK_EQ(h.bucket(LogHistogram::bucket_index(100)), std::uint64_t{0});
}

// ---------------------------------------------------------------------------
// Tracer core

REALM_TEST(ring_buffer_wrap_evicts_oldest) {
  ManualClock clock;
  TracerConfig cfg;
  cfg.lanes = 1;
  cfg.capacity = 4;
  cfg.clock = &clock;
  Tracer tracer(cfg);
  for (std::uint64_t i = 0; i < 6; ++i) {
    Event e;
    e.span_id = i;
    e.kind = SpanKind::kGemm;
    tracer.record(1, e);
  }
  REALM_CHECK_EQ(tracer.recorded(1), std::uint64_t{6});
  const std::vector<Event> held = tracer.snapshot(1);
  REALM_CHECK_EQ(held.size(), std::size_t{4});
  // Oldest two (span ids 0, 1) wrapped out; survivors are oldest-first.
  for (std::size_t i = 0; i < held.size(); ++i) {
    REALM_CHECK_EQ(held[i].span_id, std::uint64_t{i + 2});
  }
}

REALM_TEST(runtime_toggle_stops_recording) {
  ManualClock clock;
  TracerConfig cfg;
  cfg.lanes = 1;
  cfg.clock = &clock;
  Tracer tracer(cfg);
  tracer.set_enabled(false);
  Event e;
  e.kind = SpanKind::kHotSwap;
  tracer.record(1, e);
  tracer.record_control(e);
  REALM_CHECK_EQ(tracer.recorded(0), std::uint64_t{0});
  REALM_CHECK_EQ(tracer.recorded(1), std::uint64_t{0});
  tracer.set_enabled(true);
  tracer.record(1, e);
  tracer.record_control(e);
  REALM_CHECK_EQ(tracer.recorded(0), std::uint64_t{1});
  REALM_CHECK_EQ(tracer.recorded(1), std::uint64_t{1});
}

REALM_TEST(span_ids_are_pure_functions_of_stream_tile_kind) {
  // Stable at any worker count: no lane, thread, or time component.
  constexpr std::uint64_t id = span_id(7, 3, SpanKind::kScreen);
  static_assert(id == ((std::uint64_t{8} << 24) | (std::uint64_t{4} << 8) |
                       static_cast<std::uint64_t>(SpanKind::kScreen)));
  // Request-level spans (tile = -1) zero the middle field.
  static_assert((span_id(7, -1, SpanKind::kRequest) >> 8 & 0xffff) == 0);
  static_assert(!is_instant(SpanKind::kDequantize));
  static_assert(is_instant(SpanKind::kInjectedFlips));
}

REALM_TEST(chrome_export_format) {
  ManualClock clock;
  clock.advance(realm::util::Duration(1499));  // now = tick 1500
  TracerConfig cfg;
  cfg.lanes = 1;
  cfg.clock = &clock;
  Tracer tracer(cfg);
  Event span;
  span.span_id = span_id(0, 2, SpanKind::kGemm);
  span.parent = span_id(0, 2, SpanKind::kTile);
  span.t_start_ns = 1500;
  span.t_end_ns = 4500;
  span.tile = 2;
  span.kind = SpanKind::kGemm;
  span.verdict = 0;  // detect::Verdict::kClean
  tracer.record(1, span);
  Event instant;
  instant.span_id = span_id(0, 0, SpanKind::kHotSwap);
  instant.t_start_ns = instant.t_end_ns = 1500;
  instant.tile = 0;
  instant.kind = SpanKind::kHotSwap;
  tracer.record_control(instant);

  const std::string json = tracer.export_chrome_json();
  REALM_CHECK(json.find("\"displayTimeUnit\":\"ns\"") != std::string::npos);
  // Track names for the control lane and the one worker lane.
  REALM_CHECK(json.find("\"name\":\"thread_name\",\"ph\":\"M\"") != std::string::npos);
  REALM_CHECK(json.find("\"name\":\"control\"") != std::string::npos);
  REALM_CHECK(json.find("\"name\":\"worker-1\"") != std::string::npos);
  // The duration span: complete event, µs timestamps (1500 ns = 1.5 µs,
  // 3000 ns = 3 µs), verdict carried symbolically in args.
  REALM_CHECK(json.find("\"name\":\"gemm\",\"cat\":\"realm\",\"ph\":\"X\",\"ts\":1.500,"
                        "\"dur\":3.000") != std::string::npos);
  REALM_CHECK(json.find("\"verdict\":\"clean\"") != std::string::npos);
  // The instant: point phase with thread scope on the control track.
  REALM_CHECK(json.find("\"name\":\"hot_swap\",\"cat\":\"realm\",\"ph\":\"i\",\"s\":\"t\"") !=
              std::string::npos);
}

REALM_TEST(compile_time_removal_contract) {
  // REALM_TRACE=OFF must compile the scoped helpers down to empty types (no
  // members, nothing for the optimizer to keep); ON keeps real state.
  if constexpr (kTraceCompiledIn) {
    REALM_CHECK(sizeof(ScopedSpan) > 1);
    REALM_CHECK(sizeof(ScopedRequestTrace) > 1);
  } else {
    REALM_CHECK_EQ(sizeof(ScopedSpan), std::size_t{1});
    REALM_CHECK_EQ(sizeof(ScopedRequestTrace), std::size_t{1});
  }
}

// ---------------------------------------------------------------------------
// Engine + grid integration

namespace {

/// One traced serving run: fixed weights/traffic, pinned streams, ManualClock
/// timestamps. Returns every recorded event, identity-sorted — at any worker
/// count the multiset must be identical (only the lane an event landed on may
/// differ, and lanes are excluded from the key).
struct EventKey {
  std::uint64_t span_id;
  std::uint64_t parent;
  int kind;
  std::int32_t tile;
  int tenant;
  int verdict;
  auto operator<=>(const EventKey&) const = default;
};

std::vector<EventKey> traced_run(std::size_t workers, std::vector<Event>* worker_lane_events,
                                 MetricsRegistry* metrics = nullptr) {
  Rng rng(0x0b5);
  ManualClock clock;
  TracerConfig tcfg;
  tcfg.lanes = workers;
  tcfg.clock = &clock;
  Tracer tracer(tcfg);

  realm::serve::TileGridConfig gcfg;
  gcfg.tile_cols = 32;
  gcfg.tracer = &tracer;
  gcfg.metrics = metrics;
  const realm::serve::TileGrid grid(random_i8(32, 64, rng), realm::tensor::QuantParams{0.02f},
                                    gcfg);

  realm::serve::ServeConfig scfg;
  scfg.workers = workers;
  scfg.seed = 0xba7c4;
  scfg.clock = &clock;
  scfg.tracer = &tracer;
  scfg.metrics = metrics;

  const realm::tensor::MatI8 a8 = random_i8(4, 32, rng);
  const realm::fault::MagFreqInjector mag(1 << 20, 1);
  std::vector<realm::serve::Ticket> tickets;
  {
    realm::serve::ServeEngine engine(grid, scfg);
    for (std::size_t i = 0; i < 8; ++i) {
      const bool injected = (i % 4 == 3);
      realm::serve::SubmitOptions opt;
      opt.tenant = (i % 2 == 0) ? "even" : "odd";
      opt.stream = i;  // pinned: span ids independent of submission timing
      tickets.push_back(engine.submit(
          realm::serve::Request::borrow(a8, realm::tensor::QuantParams{0.05f},
                                        injected ? &mag : nullptr),
          opt));
    }
    for (auto& t : tickets) {
      const realm::serve::Response rsp = engine.wait(t);
      REALM_CHECK(!rsp.expired);
    }
    // Engine destruction joins the workers — full quiescence for snapshots.
  }

  std::vector<EventKey> keys;
  for (std::size_t lane = 0; lane <= tracer.lanes(); ++lane) {
    for (const Event& e : tracer.snapshot(lane)) {
      keys.push_back({e.span_id, e.parent, static_cast<int>(e.kind), e.tile, e.tenant,
                      e.verdict});
      if (worker_lane_events != nullptr && lane >= 1) worker_lane_events->push_back(e);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

REALM_TEST(manualclock_spans_deterministic_across_worker_counts) {
  const std::vector<EventKey> at1 = traced_run(1, nullptr);
  const std::vector<EventKey> at2 = traced_run(2, nullptr);
  const std::vector<EventKey> at8 = traced_run(8, nullptr);
  if constexpr (kTraceCompiledIn) {
    REALM_CHECK(!at1.empty());
    REALM_CHECK(at1 == at2);
    REALM_CHECK(at1 == at8);
  } else {
    // Compiled out: the wired tracer must stay completely silent.
    REALM_CHECK(at1.empty() && at2.empty() && at8.empty());
  }
}

REALM_TEST(span_nesting_parents_and_verdicts) {
  if constexpr (!kTraceCompiledIn) return;
  std::vector<Event> events;
  traced_run(1, &events);
  REALM_CHECK(!events.empty());

  // Stage spans are recorded from inside the detect pipeline with no tile
  // of their own (tile = -1); nesting is expressed through parent ids, so a
  // span is identified by its (span_id, parent) pair.
  const auto has = [&](std::uint64_t id, std::uint64_t parent) {
    for (const Event& e : events) {
      if (e.span_id == id && e.parent == parent) return true;
    }
    return false;
  };
  const auto find = [&](std::uint64_t id, std::uint64_t parent) -> const Event& {
    for (const Event& e : events) {
      if (e.span_id == id && e.parent == parent) return e;
    }
    throw realm::test::Failure{"span not found"};
  };

  // Stream 3 is injected traffic: queued and tile spans hang off the request
  // span; stage spans hang off their tile; the patch span appears and the
  // tile records the patched verdict (detect::Verdict::kPatched == 2).
  const std::uint64_t req = span_id(3, -1, SpanKind::kRequest);
  REALM_CHECK(has(req, 0));
  REALM_CHECK(has(span_id(3, -1, SpanKind::kQueued), req));
  for (std::int32_t tile = 0; tile < 2; ++tile) {
    const std::uint64_t tile_span = span_id(3, tile, SpanKind::kTile);
    REALM_CHECK(has(tile_span, req));
    REALM_CHECK(has(span_id(3, -1, SpanKind::kGemm), tile_span));
    REALM_CHECK(has(span_id(3, -1, SpanKind::kScreen), tile_span));
    REALM_CHECK(has(span_id(3, -1, SpanKind::kPatch), tile_span));
    REALM_CHECK(has(span_id(3, -1, SpanKind::kDequantize), tile_span));
    REALM_CHECK_EQ(static_cast<int>(find(tile_span, req).verdict), 2);
  }
  // Stream 0 is clean: no patch span anywhere under it, clean tile verdicts.
  const std::uint64_t clean_req = span_id(0, -1, SpanKind::kRequest);
  REALM_CHECK_EQ(static_cast<int>(find(span_id(0, 0, SpanKind::kTile), clean_req).verdict), 0);
  for (const Event& e : events) {
    REALM_CHECK(e.span_id != span_id(0, -1, SpanKind::kPatch));
  }
  // Spans close inner-first on a lane: a stage span is recorded before the
  // tile that contains it, the tile before its request.
  const std::uint64_t tile1 = span_id(3, 1, SpanKind::kTile);
  std::vector<int> order;
  for (const Event& e : events) {
    if (e.span_id == span_id(3, -1, SpanKind::kGemm) && e.parent == tile1) order.push_back(1);
    if (e.span_id == tile1) order.push_back(2);
    if (e.span_id == req) order.push_back(3);
  }
  REALM_CHECK(std::is_sorted(order.begin(), order.end()));
  REALM_CHECK_EQ(order.size(), std::size_t{3});
}

REALM_TEST(engine_metrics_and_reset_contract) {
  MetricsRegistry reg;
  traced_run(2, nullptr, &reg);
  // The run completed 8 requests over a 2-tile grid; counters survive engine
  // destruction (the registry owns them).
  const std::string text = reg.expose();
  REALM_CHECK(text.find("realm_serve_requests_total{state=\"completed\"} 8") !=
              std::string::npos);
  REALM_CHECK(text.find("realm_serve_tiles_total{outcome=\"screened\"} 16") !=
              std::string::npos);
  REALM_CHECK(text.find("realm_serve_tiles_total{outcome=\"patched\"} 4") != std::string::npos);
  REALM_CHECK(text.find("realm_serve_request_latency_us_count 8") != std::string::npos);
  REALM_CHECK(text.find("realm_serve_queue_depth 0") != std::string::npos);
}

REALM_TEST(engine_reset_stats_resets_tenant_windows_and_registry) {
  Rng rng(0x0b6);
  MetricsRegistry reg;
  realm::serve::TileGridConfig gcfg;
  gcfg.tile_cols = 32;
  gcfg.metrics = &reg;
  const realm::serve::TileGrid grid(random_i8(32, 32, rng), realm::tensor::QuantParams{0.02f},
                                    gcfg);
  realm::serve::ServeConfig scfg;
  scfg.workers = 2;
  scfg.metrics = &reg;
  realm::serve::ServeEngine engine(grid, scfg);
  const realm::tensor::MatI8 a8 = random_i8(4, 32, rng);
  realm::serve::SubmitOptions opt;
  opt.tenant = "t";
  for (int i = 0; i < 4; ++i) {
    engine.wait(engine.submit(realm::serve::Request::borrow(a8, realm::tensor::QuantParams{0.05f}),
                              opt));
  }
  REALM_CHECK_EQ(engine.stats().completed, std::uint64_t{4});
  REALM_CHECK_EQ(engine.tenant_stats("t").window_count, std::size_t{4});

  engine.reset_stats();

  // One reset zeroes everything: the engine-wide sum and window, the
  // tenant's row (counters and window alike), and the registry.
  REALM_CHECK_EQ(engine.stats().completed, std::uint64_t{0});
  REALM_CHECK_EQ(engine.stats().window_count, std::size_t{0});
  const realm::serve::ServeStats ts = engine.tenant_stats("t");
  REALM_CHECK_EQ(ts.window_count, std::size_t{0});
  REALM_CHECK_EQ(ts.completed, std::uint64_t{0});
  const std::string text = reg.expose();
  REALM_CHECK(text.find("realm_serve_requests_total{state=\"completed\"} 0") !=
              std::string::npos);
  REALM_CHECK(text.find("realm_serve_request_latency_us_count 0") != std::string::npos);
}

REALM_TEST(engine_rejects_undersized_tracer) {
  Rng rng(0x0b7);
  ManualClock clock;
  TracerConfig tcfg;
  tcfg.lanes = 1;
  tcfg.clock = &clock;
  Tracer tracer(tcfg);
  const realm::serve::TileGrid grid(random_i8(32, 32, rng), realm::tensor::QuantParams{0.02f});
  realm::serve::ServeConfig scfg;
  scfg.workers = 2;  // needs 2 worker lanes, tracer has 1
  scfg.tracer = &tracer;
  REALM_CHECK_THROWS(realm::serve::ServeEngine(grid, scfg), std::invalid_argument);
}

REALM_TEST(grid_swap_and_scrub_instants_on_control_lane) {
  Rng rng(0x0b8);
  ManualClock clock;
  TracerConfig tcfg;
  tcfg.lanes = 1;
  tcfg.clock = &clock;
  Tracer tracer(tcfg);
  MetricsRegistry reg;
  realm::serve::TileGridConfig gcfg;
  gcfg.tile_cols = 32;
  gcfg.tracer = &tracer;
  gcfg.metrics = &reg;
  realm::serve::TileGrid grid(random_i8(32, 64, rng), realm::tensor::QuantParams{0.02f}, gcfg);

  const std::size_t swapped =
      grid.swap_weights(random_i8(32, 64, rng), realm::tensor::QuantParams{0.02f});
  REALM_CHECK_EQ(swapped, grid.tile_count());

  const std::string text = reg.expose();
  REALM_CHECK(text.find("realm_grid_swaps_total 2") != std::string::npos);
  REALM_CHECK(text.find("realm_grid_swap_epoch 2") != std::string::npos);

  std::size_t hot_swaps = 0;
  for (const Event& e : tracer.snapshot(0)) {
    if (e.kind == SpanKind::kHotSwap) ++hot_swaps;
  }
  if constexpr (kTraceCompiledIn) {
    REALM_CHECK_EQ(hot_swaps, grid.tile_count());
  } else {
    REALM_CHECK_EQ(hot_swaps, std::size_t{0});
  }
}

REALM_TEST_MAIN()
