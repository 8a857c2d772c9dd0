// The repository benchmark: drives the realm library from outside, through
// its public calls, under four workloads (decode, prefill, fault_storm,
// sweep). With --trace 0 it measures the end-to-end metrics with every
// tracer and metrics registry detached; with --trace 1 it times each public
// layer call in its own span and reports the per-layer metrics. Every output
// is checked against an independent golden result; the last line of stdout
// is one JSON object (correct, attempted, failed, metrics). See README.md in
// this directory for the workloads, the metrics and what each should move.
//
//   realm_bench --workload decode --seed 1 --seconds 10 --trace 0
//   realm_bench --workload sweep --seed 1 --seconds 10 --trace 1 --spans out.json
//   realm_bench --self-test
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "detect/correct.h"
#include "detect/detect.h"
#include "fault/fault.h"
#include "fault/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sa/datapath.h"
#include "sa/roc.h"
#include "serve/engine.h"
#include "serve/tile_grid.h"
#include "spans.h"
#include "tensor/checksum.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernels.h"
#include "tensor/quant.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/threadpool.h"

namespace {

namespace rd = realm::detect;
namespace rf = realm::fault;
namespace rs = realm::serve;
namespace rt = realm::tensor;
namespace ru = realm::util;
namespace sa = realm::sa;
using perfbench::SpanLog;
using Scope = perfbench::SpanLog::Scope;

constexpr rt::QuantParams kQa{0.05f};
constexpr rt::QuantParams kQw{0.02f};

// Disjoint fork tags for the seed-derived input streams.
constexpr std::uint64_t kWeightTag = 0x3e1647;
constexpr std::uint64_t kActTag = 0xac75;
constexpr std::uint64_t kPlanTag = 0x9a15;
constexpr std::uint64_t kEngineTag = 0xe791;
constexpr std::uint64_t kMemoryTag = 0x3e3;
constexpr std::uint64_t kReplayTag = 0x4e91a7;
/// Warm-up requests use streams far above any measured request index.
constexpr std::uint64_t kWarmStream = std::uint64_t{1} << 40;

// ---------------------------------------------------------------------------
// Metric names. BENCHMARK.json at the repository root lists the same names.

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"capacity_rps", "1/s"}, {"p50_ms", "ms"},
    {"p90_ms", "ms"},     {"rss_mb", "MiB"},       {"trials_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve.submit_us.p50", "us"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p90", "ms"},
    {"serve.depth_max", "count"},
    {"serve.service_ms.p50", "ms"},
    {"serve.service_ms.p90", "ms"},
    {"serve.busy_frac", "ratio"},
    {"serve.rejected", "count"},
    {"serve.expired", "count"},
    {"grid.run_ms.p50", "ms"},
    {"grid.raw_ms.p50", "ms"},
    {"grid.protect_ratio", "ratio"},
    {"grid.self_ms.p50", "ms"},
    {"grid.swap_tile_ms.p50", "ms"},
    {"grid.scrub_ms", "ms"},
    {"grid.build_s", "s"},
    {"grid.resident_mb", "MiB"},
    {"detect.tile_ms.p50", "ms"},
    {"detect.screen_ms.p50", "ms"},
    {"detect.screen_share", "ratio"},
    {"detect.patch_ms.p50", "ms"},
    {"detect.patch_ms.p90", "ms"},
    {"detect.recompute_ms.p50", "ms"},
    {"detect.patch_vs_recompute", "ratio"},
    {"detect.patch_yield", "ratio"},
    {"detect.tiles_screened", "count"},
    {"detect.tiles_flagged", "count"},
    {"detect.tiles_patched", "count"},
    {"detect.tiles_recomputed", "count"},
    {"detect.tiles_uncorrected", "count"},
    {"tensor.gemm_ms.p50", "ms"},
    {"tensor.gemm_gops", "Gop/s"},
    {"tensor.gemm_gbps", "GB/s"},
    {"tensor.gemm_bytes", "bytes"},
    {"tensor.dequant_ms.p50", "ms"},
    {"tensor.pack_ms", "ms"},
    {"fault.inject_us.p50", "us"},
    {"fault.corrupt_us.p50", "us"},
    {"fault.flips.accumulator", "count"},
    {"fault.flips.activations", "count"},
    {"sa.sweep_s", "s"},
    {"sa.trial_ms.p50", "ms"},
    {"sa.screen_us.p50", "us"},
    {"sa.patch_sim_us.p50", "us"},
    {"sa.cells", "count"},
    {"sa.faulty_trials", "count"},
    {"sa.detected.w16", "count"},
    {"sa.detected.w24", "count"},
    {"sa.detected.w32", "count"},
    {"sa.detected.w64", "count"},
    {"sa.detected.ref", "count"},
    {"obs.traced_capacity_ratio", "ratio"},
    {"gen.late_ms.p99", "ms"},
    {"gen.backlog_max", "count"},
    {"failed_frac", "ratio"},
};

/// What one run measured and every failure it saw. A failure is a wrong or
/// missing output, a wrong verdict, a replica mismatch, a violated sweep
/// invariant, or a throw.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Open-loop backlog grew: completions fell behind the offered rate.
  bool invalid = false;
  std::vector<std::string> problems;
  std::map<std::string, double> values;

  void fail(const std::string& why) {
    ++failed;
    if (problems.size() < 12) problems.push_back(why);
  }
  /// One pass/fail check (sweep invariants, self-test expectations).
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void set(const char* name, double v) { values[name] = v; }
};

// ---------------------------------------------------------------------------
// Small helpers.

/// CPUs this process may run on (what `nproc` prints).
std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Peak resident set size of this process in MiB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Quantile of a sample; 0 for an empty one (a layer the workload never ran).
double pct(const std::vector<double>& xs, double q) {
  return xs.empty() ? 0.0 : ru::quantile(xs, q);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double total(const std::vector<double>& xs) {
  double s = 0;
  for (const double x : xs) s += x;
  return s;
}

rt::MatI8 random_i8(std::size_t rows, std::size_t cols, ru::Rng& rng) {
  rt::MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return m;
}

bool bit_equal(const rt::MatF& a, const rt::MatF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Exact per-layer tallies over a fixed request prefix. Verdicts and fault
/// draws are a pure function of (seed, stream), so these repeat exactly.
struct Counts {
  std::uint64_t screened = 0, flagged = 0, patched = 0, recomputed = 0, uncorrected = 0;
  std::uint64_t flips_accumulator = 0, flips_activations = 0;

  void add(const rs::BatchVerdict& v) {
    screened += v.tiles;
    flagged += v.tiles - v.tiles_clean;
    patched += v.tiles_patched;
    recomputed += v.tiles_recomputed;
    uncorrected += v.tiles_detected;
    flips_accumulator += v.component_flips[static_cast<std::size_t>(rf::Component::kAccumulator)];
    flips_activations += v.component_flips[static_cast<std::size_t>(rf::Component::kActivations)];
  }
  bool operator==(const Counts&) const = default;

  void print(const char* label, std::size_t requests) const {
    std::cout << "counts (" << label << ", requests 0.." << requests - 1
              << "): screened=" << screened << " flagged=" << flagged << " patched=" << patched
              << " recomputed=" << recomputed << " uncorrected=" << uncorrected
              << " flips.accumulator=" << flips_accumulator
              << " flips.activations=" << flips_activations << "\n";
  }
  void export_to(Report& rep) const {
    rep.set("detect.tiles_screened", static_cast<double>(screened));
    rep.set("detect.tiles_flagged", static_cast<double>(flagged));
    rep.set("detect.tiles_patched", static_cast<double>(patched));
    rep.set("detect.tiles_recomputed", static_cast<double>(recomputed));
    rep.set("detect.tiles_uncorrected", static_cast<double>(uncorrected));
    rep.set("fault.flips.accumulator", static_cast<double>(flips_accumulator));
    rep.set("fault.flips.activations", static_cast<double>(flips_activations));
  }
};

// ---------------------------------------------------------------------------
// Serving workloads.

struct ServeSpec {
  const char* name;
  std::size_t k, n, tile_cols;
  std::vector<std::size_t> heights;  ///< request row counts, drawn uniformly
  std::size_t acts_per_height;       ///< distinct activations per height
  double rate_rps;                   ///< open-loop offered rate (about half capacity)
  std::size_t block_requests;        ///< closed-loop requests per capacity block
  std::size_t count_requests;        ///< request prefix the exact counts cover
  bool faults;                       ///< every request carries the accumulator injector
  std::size_t memory_every;          ///< every Nth request also carries the activation model
  std::size_t swap_every;            ///< the generator reloads one golden tile every N requests
};

// Rates are fixed at about half of what a 4-core x86 box with AVX-512
// measured closed-loop (README.md has the sizing figures).
const ServeSpec kDecode{"decode", 4096, 4096, 512, {1, 8, 16}, 8, 500.0, 300, 192,
                        false, 0, 0};
const ServeSpec kPrefill{"prefill", 1024, 1024, 512, {256}, 8, 270.0, 160, 96,
                         false, 0, 0};
const ServeSpec kFaultStorm{"fault_storm", 4096, 4096, 512, {1, 8, 16}, 8, 150.0, 150, 128,
                            true, 8, 64};

rf::MemoryFaultConfig activation_faults(std::uint64_t seed) {
  rf::MemoryFaultConfig cfg;
  cfg.seed = ru::Rng(seed).fork(kMemoryTag).next();
  cfg.activations.ber = 1e-5;  // bits 0..7 of every activation byte
  return cfg;
}

/// Every input of a serving workload, generated from the seed, plus the
/// golden outputs the checker compares against.
struct Fixture {
  Fixture(const ServeSpec& s, std::uint64_t seed_)
      : spec(s),
        seed(seed_),
        memory(activation_faults(seed_)),
        plan_rng(ru::Rng(seed_).fork(kPlanTag)),
        engine_seed(ru::Rng(seed_).fork(kEngineTag).next()) {
    ru::Rng wrng = ru::Rng(seed).fork(kWeightTag);
    w8 = random_i8(spec.k, spec.n, wrng);
    for (std::size_t origin = 0; origin < spec.n; origin += spec.tile_cols) {
      const std::size_t width = std::min(spec.tile_cols, spec.n - origin);
      rt::MatI8 slice(spec.k, width);
      for (std::size_t r = 0; r < spec.k; ++r) {
        std::memcpy(slice.row(r).data(), w8.row(r).data() + origin, width);
      }
      slices.push_back(std::move(slice));
    }
    // Golden outputs: the plain tensor-layer GEMM over the whole unsharded
    // weight matrix, dequantized — independent of ProtectedGemm and TileGrid.
    const rt::kernels::PackedB panels = rt::kernels::pack_b(w8.data(), spec.k, spec.n);
    ru::Rng arng = ru::Rng(seed).fork(kActTag);
    rt::MatI32 acc;
    for (const std::size_t m : spec.heights) {
      acts.emplace_back();
      golden.emplace_back();
      for (std::size_t a = 0; a < spec.acts_per_height; ++a) {
        acts.back().push_back(random_i8(m, spec.k, arng));
        rt::gemm_i8_prepacked(acts.back().back(), w8, panels, acc);
        golden.back().push_back(rt::dequantize_acc(acc, kQa, kQw));
      }
    }
  }

  const ServeSpec& spec;
  const std::uint64_t seed;
  rt::MatI8 w8;
  std::vector<rt::MatI8> slices;                ///< golden per-tile weight images
  std::vector<std::vector<rt::MatI8>> acts;     ///< [height][a]
  std::vector<std::vector<rt::MatF>> golden;    ///< [height][a]
  const rf::RandomBitFlipInjector injector{1e-4, 16, 31};
  const rf::NullInjector clean;
  const rf::MemoryFaultModel memory;
  const ru::Rng plan_rng;
  const std::uint64_t engine_seed;
};

/// Request i of the workload's mix.
struct Plan {
  std::size_t h = 0;  ///< height index
  std::size_t a = 0;  ///< activation index
  rs::Priority priority = rs::Priority::kBatch;
  bool faulted = false;
  bool memory = false;

  [[nodiscard]] bool injected() const noexcept { return faulted || memory; }
};

Plan plan_of(const Fixture& fx, std::uint64_t i) {
  ru::Rng r = fx.plan_rng.fork(i);
  Plan p;
  p.h = r.uniform_u64(fx.spec.heights.size());
  p.a = r.uniform_u64(fx.spec.acts_per_height);
  p.priority = i % 4 == 0 ? rs::Priority::kInteractive : rs::Priority::kBatch;
  p.faulted = fx.spec.faults;
  p.memory = fx.spec.memory_every != 0 && i % fx.spec.memory_every == 0;
  return p;
}

rs::Ticket submit(const Fixture& fx, rs::ServeEngine& engine, std::uint64_t i) {
  const Plan p = plan_of(fx, i);
  rs::SubmitOptions opt;
  opt.priority = p.priority;
  opt.stream = i;
  return engine.submit(rs::Request::borrow(fx.acts[p.h][p.a], kQa,
                                           p.faulted ? &fx.injector : nullptr,
                                           p.memory ? &fx.memory : nullptr),
                       opt);
}

/// The output checker. Clean traffic must screen kClean; injected traffic
/// must end kClean, kPatched or kRecomputed; every output must equal the
/// golden output bit for bit. Returns an empty string when the response
/// passes.
std::string check_output(const rt::MatF& out, const rs::BatchVerdict& v, const rt::MatF& golden,
                         bool injected) {
  if (!injected && v.verdict != rd::Verdict::kClean) {
    return std::string("false positive: clean request screened ") + rd::to_string(v.verdict);
  }
  if (v.verdict == rd::Verdict::kDetected) return "fault detected but not corrected";
  if (!bit_equal(out, golden)) return "output differs from the golden output";
  return {};
}

std::string check_response(const rs::Response& r, const rt::MatF& golden, bool injected) {
  if (r.expired) return "request expired";
  return check_output(r.output, r.verdict, golden, injected);
}

/// Waits for request i, checks it, and tallies its counts when it falls in
/// the counted prefix. Returns the engine's service time, or -1 on failure.
double settle(const Fixture& fx, rs::ServeEngine& engine, rs::Ticket t, std::uint64_t i,
              Report& rep, Counts& counts) {
  ++rep.attempted;
  const Plan p = plan_of(fx, i);
  try {
    const rs::Response r = engine.wait(t);
    const std::string bad = check_response(r, fx.golden[p.h][p.a], p.injected());
    if (!bad.empty()) {
      rep.fail("request " + std::to_string(i) + ": " + bad);
      return -1;
    }
    if (i < fx.spec.count_requests) counts.add(r.verdict);
    return r.latency_ms;
  } catch (const std::exception& e) {
    rep.fail("request " + std::to_string(i) + " threw: " + e.what());
    return -1;
  }
}

/// fault_storm's write path: after request i, reload one golden tile image.
void maybe_reload(const Fixture& fx, rs::TileGrid& grid, std::uint64_t i, Report& rep) {
  if (fx.spec.swap_every == 0 || i % fx.spec.swap_every != fx.spec.swap_every - 1) return;
  const std::size_t t = (i / fx.spec.swap_every) % grid.tile_count();
  if (!grid.swap_tile(t, fx.slices[t], kQw)) rep.fail("swap_tile rejected the golden image");
}

/// Engine workers: one core stays with the load generator.
std::size_t serve_workers() {
  const std::size_t cpus = nproc();
  const std::size_t workers = std::min<std::size_t>(3, cpus > 1 ? cpus - 1 : 1);
  if (workers + 1 > cpus) {
    throw std::runtime_error("need at least 2 CPUs: " + std::to_string(workers) +
                             " engine workers + 1 generator thread > nproc = " +
                             std::to_string(cpus));
  }
  return workers;
}

std::unique_ptr<rs::ServeEngine> make_engine(const Fixture& fx, const rs::TileGrid& grid,
                                             std::size_t workers,
                                             realm::obs::Tracer* tracer = nullptr,
                                             realm::obs::MetricsRegistry* metrics = nullptr) {
  rs::ServeConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 4096;  // admission never blocks or sheds at the planned rates
  cfg.seed = fx.engine_seed;
  cfg.tracer = tracer;
  cfg.metrics = metrics;
  return std::make_unique<rs::ServeEngine>(grid, cfg);
}

/// One clean warm-up request per height per worker, checked like any other.
void warm_up(const Fixture& fx, rs::ServeEngine& engine, std::size_t workers, Report& rep) {
  std::vector<rs::Ticket> tickets;
  std::uint64_t stream = kWarmStream;
  for (std::size_t h = 0; h < fx.spec.heights.size(); ++h) {
    tickets.clear();
    for (std::size_t w = 0; w < workers; ++w) {
      rs::SubmitOptions opt;
      opt.stream = stream++;
      tickets.push_back(engine.submit(rs::Request::borrow(fx.acts[h][0], kQa), opt));
    }
    for (const rs::Ticket t : tickets) {
      const std::string bad = check_response(engine.wait(t), fx.golden[h][0], false);
      if (!bad.empty()) rep.fail("warm-up: " + bad);
    }
  }
}

struct Server {
  std::unique_ptr<rs::TileGrid> grid;
  std::unique_ptr<rs::ServeEngine> engine;
};

/// Set-up as a user pays it: build the grid, start the engine, warm every
/// worker on every height. Returns {setup seconds, grid constructor seconds}.
std::pair<double, double> start_server(const Fixture& fx, Server& s, std::size_t workers,
                                       Report& rep) {
  s.engine.reset();
  s.grid.reset();
  rs::TileGridConfig gcfg;
  gcfg.tile_cols = fx.spec.tile_cols;
  const std::int64_t t0 = ru::now_ns();
  s.grid = std::make_unique<rs::TileGrid>(fx.w8, kQw, gcfg);
  const double build_s = ru::seconds_since_ns(t0);
  s.engine = make_engine(fx, *s.grid, workers);
  warm_up(fx, *s.engine, workers, rep);
  return {ru::seconds_since_ns(t0), build_s};
}

struct Closed {
  double seconds = 0;
  std::size_t done = 0;
  Counts counts;
};

bool terminal(rs::TicketState s) {
  return s != rs::TicketState::kQueued && s != rs::TicketState::kRunning;
}

/// Closed loop over requests 0..count-1 with `outstanding` in flight: a new
/// request goes in as soon as any answer comes back. (Waiting on the oldest
/// ticket instead would idle workers whenever priority lanes reorder.)
Closed closed_loop(const Fixture& fx, rs::TileGrid& grid, rs::ServeEngine& engine,
                   std::size_t count, std::size_t outstanding, Report& rep) {
  Closed c;
  std::vector<std::pair<rs::Ticket, std::uint64_t>> inflight;
  const std::int64_t t0 = ru::now_ns();
  std::uint64_t i = 0;
  while (i < count || !inflight.empty()) {
    if (i < count && inflight.size() < outstanding) {
      inflight.emplace_back(submit(fx, engine, i), i);
      maybe_reload(fx, grid, i, rep);
      ++i;
      continue;
    }
    bool any = false;
    for (std::size_t p = 0; p < inflight.size();) {
      if (!terminal(engine.poll(inflight[p].first))) {
        ++p;
        continue;
      }
      const auto [t, j] = inflight[p];
      inflight[p] = inflight.back();
      inflight.pop_back();
      if (settle(fx, engine, t, j, rep, c.counts) >= 0) ++c.done;
      any = true;
    }
    if (!any) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  c.seconds = ru::seconds_since_ns(t0);
  return c;
}

/// Capacity blocks per measurement; an untraced run also splits its open
/// loop into this many segments, one after each block.
constexpr int kSegments = 8;

struct Capacity {
  double rps = 0;
  Counts counts;  ///< from the first measured block
};

/// Closed-loop capacity: one unmeasured block to settle the machine, then
/// the median completed req/s over kSegments blocks.
Capacity capacity(const Fixture& fx, rs::TileGrid& grid, rs::ServeEngine& engine,
                  std::size_t workers, Report& rep) {
  closed_loop(fx, grid, engine, fx.spec.block_requests, 2 * workers, rep);
  Capacity cap;
  std::vector<double> rates;
  for (int b = 0; b < kSegments; ++b) {
    const Closed c = closed_loop(fx, grid, engine, fx.spec.block_requests, 2 * workers, rep);
    rates.push_back(static_cast<double>(c.done) / c.seconds);
    if (b == 0) cap.counts = c.counts;
  }
  cap.rps = pct(rates, 0.5);
  return cap;
}

struct Open {
  std::vector<double> sojourn_ms;  ///< due time to response, per request
  std::vector<double> late_ms;     ///< generator lateness at submit
  std::vector<double> service_ms;  ///< Response::latency_ms (worker claim to response)
  std::vector<double> queue_ms;    ///< submit to response, minus service
  std::vector<double> submit_us;   ///< time inside ServeEngine::submit
  std::size_t offered = 0;
  std::size_t backlog_max = 0;  ///< requests in flight, sampled at each submit
  std::vector<std::size_t> backlog_ends;  ///< in flight right after each schedule's last submit
  std::size_t depth_max = 0;    ///< ServeEngine::queue_depth at each submit (traced run)
  double wall_s = 0;
  Counts counts;

  /// Append another segment's samples (counts stay this segment's).
  void merge(const Open& o) {
    for (auto [to, from] : {std::pair{&sojourn_ms, &o.sojourn_ms}, {&late_ms, &o.late_ms},
                            {&service_ms, &o.service_ms}, {&queue_ms, &o.queue_ms},
                            {&submit_us, &o.submit_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    offered += o.offered;
    backlog_max = std::max(backlog_max, o.backlog_max);
    backlog_ends.insert(backlog_ends.end(), o.backlog_ends.begin(), o.backlog_ends.end());
    depth_max = std::max(depth_max, o.depth_max);
    wall_s += o.wall_s;
  }
};

/// Open loop at the workload's fixed rate for `seconds`. One thread submits
/// on schedule and collects responses between submissions by polling; each
/// request is timed from the instant it was due.
Open open_loop(const Fixture& fx, rs::TileGrid& grid, rs::ServeEngine& engine, double seconds,
               Report& rep, SpanLog* log) {
  struct Pending {
    rs::Ticket ticket;
    std::uint64_t i;
    std::int64_t due_ns, submit_ns;
  };
  Open o;
  o.offered = static_cast<std::size_t>(seconds * fx.spec.rate_rps);
  const double period_ns = 1e9 / fx.spec.rate_rps;
  const std::int64_t t0 = ru::now_ns() + 2'000'000;
  const auto due = [&](std::uint64_t i) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
  };
  std::vector<Pending> pending;
  std::uint64_t i = 0;
  std::int64_t drain_deadline = 0;
  while (i < o.offered || !pending.empty()) {
    std::int64_t now = ru::now_ns();
    if (i < o.offered && now >= due(i)) {
      rs::Ticket t;
      if (log != nullptr) {
        const Scope span(*log, "serve.submit", i);
        t = submit(fx, engine, i);
      } else {
        t = submit(fx, engine, i);
      }
      const std::int64_t after = ru::now_ns();
      pending.push_back({t, i, due(i), now});
      o.late_ms.push_back(static_cast<double>(now - due(i)) / 1e6);
      o.submit_us.push_back(static_cast<double>(after - now) / 1e3);
      o.backlog_max = std::max(o.backlog_max, pending.size());
      if (log != nullptr) o.depth_max = std::max(o.depth_max, engine.queue_depth());
      maybe_reload(fx, grid, i, rep);
      if (++i == o.offered) {
        o.backlog_ends.push_back(pending.size());
        drain_deadline = ru::now_ns() + 60'000'000'000;
      }
      continue;
    }
    for (std::size_t p = 0; p < pending.size();) {
      if (!terminal(engine.poll(pending[p].ticket))) {
        ++p;
        continue;
      }
      const std::int64_t done_ns = ru::now_ns();
      const Pending d = pending[p];
      pending[p] = pending.back();
      pending.pop_back();
      const double service = settle(fx, engine, d.ticket, d.i, rep, o.counts);
      if (service < 0) continue;
      o.sojourn_ms.push_back(static_cast<double>(done_ns - d.due_ns) / 1e6);
      o.service_ms.push_back(service);
      o.queue_ms.push_back(static_cast<double>(done_ns - d.submit_ns) / 1e6 - service);
    }
    now = ru::now_ns();
    if (i == o.offered && now > drain_deadline) {
      for (const Pending& d : pending) {
        rep.fail("request " + std::to_string(d.i) + " not answered within 60 s");
      }
      throw std::runtime_error("open loop: engine stopped answering");
    }
    std::int64_t nap = 50'000;
    if (i < o.offered) nap = std::min(nap, due(i) - now);
    if (nap > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(nap));
  }
  o.wall_s = static_cast<double>(ru::now_ns() - t0) / 1e9;
  return o;
}

/// A growing backlog means completions fell behind the offered rate: the
/// latencies then measure queue growth, not the system, and the run is void.
/// Judged on the median in-flight count at the end of the schedules, so one
/// stall of a shared machine does not void a run.
void check_backlog(const Fixture& fx, const Open& o, double capacity_rps, std::size_t workers,
                   Report& rep) {
  std::vector<std::size_t> ends = o.backlog_ends;
  std::sort(ends.begin(), ends.end());
  const std::size_t median = ends.empty() ? 0 : ends[ends.size() / 2];
  const std::size_t per_schedule = ends.empty() ? 0 : o.offered / ends.size();
  const std::size_t limit = std::max<std::size_t>(4 * workers, per_schedule / 50);
  std::string why;
  if (fx.spec.rate_rps > capacity_rps) {
    why = "the offered rate exceeds the measured capacity";
  } else if (median > limit) {
    why = std::to_string(median) + " requests in flight at the end of the schedule (limit " +
          std::to_string(limit) + ")";
  }
  if (!why.empty()) {
    rep.invalid = true;
    rep.problems.push_back("open loop invalid: " + why);
  }
}

// ---------------------------------------------------------------------------
// Traced layer replay.

/// One tile of ProtectedGemm::run_quantized_into, rebuilt from public stage
/// calls: GEMM with fused column sums, inject on a copy of the same Rng,
/// screen, try_patch, recompute plus recheck, dequantize.
struct TileReplica {
  rt::MatI32 acc;
  rd::Verdict verdict = rd::Verdict::kClean;
  rt::MatF out;
  std::uint64_t flipped_bits = 0;
  // Scratch.
  rt::MatI8 a_work;
  rt::MatI32 acc_replay;
  std::vector<std::int64_t> predicted;
};

void replica_tile(const rd::ProtectedGemm& pg, const rt::MatI8& a8,
                  const rf::FaultInjector* injector, ru::Rng rng,
                  const rf::MemoryFaultModel* memory, std::uint64_t op, SpanLog& log,
                  std::uint64_t req, TileReplica& r) {
  const Scope tile_span(log, "replica.tile", req);
  const std::uint32_t parent = tile_span.id();
  const rd::DetectionConfig& cfg = pg.config();
  const rt::MatI8& w8 = pg.weights();
  const rt::MatI8* gemm_a = &a8;
  if (memory != nullptr && memory->enabled(rf::Component::kActivations)) {
    // The array consumes a struck copy; the predicted column checksum comes
    // from the clean producer copy.
    r.a_work = a8;
    {
      const Scope s(log, "fault.corrupt", req, parent);
      memory->corrupt(rf::Component::kActivations, op, r.a_work.flat());
    }
    gemm_a = &r.a_work;
    r.predicted = rt::predict_col_checksum(a8, w8);
    const Scope s(log, "tensor.gemm_i8_prepacked", req, parent);
    rt::gemm_i8_prepacked(r.a_work, w8, pg.weight_panels(), r.acc);
  } else {
    const Scope s(log, "tensor.gemm_i8_prepacked", req, parent);
    rt::gemm_i8_prepacked(a8, w8, pg.weight_panels(), r.acc, &r.predicted);
  }
  r.flipped_bits = 0;
  if (injector != nullptr) {
    const Scope s(log, "fault.inject", req, parent);
    r.flipped_bits = injector->inject(r.acc.flat(), rng).flipped_bits;
  }
  rd::Verdict screened = rd::Verdict::kClean;
  {
    const Scope s(log, "detect.screen_accumulator", req, parent);
    screened =
        rd::screen_accumulator(cfg, r.predicted, *gemm_a, pg.weight_row_basis(), r.acc).verdict;
  }
  r.verdict = screened;
  if (screened == rd::Verdict::kDetected) {
    // Timed on every flagged tile, whether or not the patch then makes the
    // replay unnecessary, so patch and recompute costs compare like for like.
    bool replay_clean = false;
    {
      const Scope rec(log, "detect.recompute", req, parent);
      {
        const Scope s(log, "recompute.gemm_i8_prepacked", req, rec.id());
        rt::gemm_i8_prepacked(a8, w8, pg.weight_panels(), r.acc_replay);
      }
      const Scope s(log, "recompute.screen_accumulator", req, rec.id());
      replay_clean = rd::screen_accumulator(cfg, r.predicted, a8, pg.weight_row_basis(),
                                            r.acc_replay)
                         .verdict == rd::Verdict::kClean;
    }
    if (cfg.patch_on_detect) {
      const Scope s(log, "detect.try_patch", req, parent);
      if (rd::correct::try_patch(cfg, r.predicted, a8, w8, pg.weight_row_basis(),
                                 pg.weight_row_wbasis(), r.acc)
              .outcome == rd::correct::PatchOutcome::kPatched) {
        r.verdict = rd::Verdict::kPatched;
      }
    }
    if (r.verdict == rd::Verdict::kDetected && cfg.recompute_on_detect) {
      std::swap(r.acc, r.acc_replay);
      if (replay_clean) r.verdict = rd::Verdict::kRecomputed;
    }
  }
  const Scope s(log, "tensor.dequantize_acc", req, parent);
  rt::dequantize_acc(r.acc, kQa, pg.weight_params(), r.out);
}

/// Empty when the replica reproduced the library's tile exactly.
std::string replica_mismatch(const TileReplica& r, const rd::ProtectedGemmResult& res) {
  if (r.verdict != res.report.verdict) {
    return std::string("verdict ") + rd::to_string(r.verdict) + " vs " +
           rd::to_string(res.report.verdict);
  }
  if (!(r.acc == res.acc)) return "accumulator differs";
  if (r.flipped_bits != res.report.injection.flipped_bits) return "injected flips differ";
  if (!bit_equal(r.out, res.output)) return "output differs";
  return {};
}

struct ReplayScratch {
  std::vector<rd::ProtectedGemmResult> grid_tiles, tiles;
  std::vector<rt::MatI32> raw;
  rt::MatF out;
  rs::BatchVerdict verdict;
  TileReplica replica;
  double gemm_ops = 0, gemm_bytes = 0;
};

/// Replays request i on this thread: the grid call, the unprotected grid
/// call, then every tile through run_quantized_into and through the stage
/// replica, each in its own span.
void replay_request(const Fixture& fx, const rs::TileGrid& grid, std::uint64_t i, SpanLog& log,
                    Report& rep, Counts& counts, ReplayScratch& sc) {
  ++rep.attempted;
  const Plan p = plan_of(fx, i);
  const rt::MatI8& a8 = fx.acts[p.h][p.a];
  const rf::FaultInjector& injector =
      p.faulted ? static_cast<const rf::FaultInjector&>(fx.injector) : fx.clean;
  const rf::MemoryFaultModel* memory = p.memory ? &fx.memory : nullptr;
  // The engine's per-request stream (ServeEngine: seed → fork(stream)).
  const ru::Rng rng = ru::Rng(fx.engine_seed).fork(i);
  {
    const Scope s(log, "grid.run_into", i);
    grid.run_into(a8, kQa, injector, rng, sc.grid_tiles, sc.out, sc.verdict, memory, i);
  }
  const std::string bad = check_output(sc.out, sc.verdict, fx.golden[p.h][p.a], p.injected());
  if (!bad.empty()) rep.fail("replay request " + std::to_string(i) + ": " + bad);
  if (i < fx.spec.count_requests) counts.add(sc.verdict);
  {
    const Scope s(log, "grid.run_raw_into", i);
    grid.run_raw_into(a8, sc.raw);
  }
  sc.tiles.resize(grid.tile_count());
  for (std::size_t t = 0; t < grid.tile_count(); ++t) {
    const rs::TileGrid::TileHandle tile = grid.tile(t);
    const std::uint64_t op = rf::compose_op(i, t);
    ru::Rng tile_rng = rng.fork(t);
    {
      const Scope s(log, "detect.run_quantized_into", i);
      tile->run_quantized_into(a8, kQa, injector, tile_rng, sc.tiles[t], memory, op);
    }
    replica_tile(*tile, a8, p.faulted ? &fx.injector : nullptr, rng.fork(t), memory, op, log, i,
                 sc.replica);
    const std::string diff = replica_mismatch(sc.replica, sc.tiles[t]);
    if (!diff.empty()) {
      rep.fail("stage replica of request " + std::to_string(i) + " tile " + std::to_string(t) +
               ": " + diff);
    }
    const double m = static_cast<double>(a8.rows());
    const double k = static_cast<double>(a8.cols());
    const double w = static_cast<double>(grid.tile_width(t));
    sc.gemm_ops += 2 * m * k * w;
    sc.gemm_bytes += m * k + 2.0 * static_cast<double>(tile->weight_panels().raw_panels().size()) +
                     4 * m * w;
  }
}

/// Bytes the grid keeps resident: weight images, packed panels, bases.
double resident_mb(const rs::TileGrid& grid) {
  double bytes = 0;
  for (std::size_t t = 0; t < grid.tile_count(); ++t) {
    const rs::TileGrid::TileHandle tile = grid.tile(t);
    bytes += static_cast<double>(tile->weights().size());
    bytes += 2.0 * static_cast<double>(tile->weight_panels().raw_panels().size());
    bytes += 8.0 * static_cast<double>(tile->weight_row_basis().size() +
                                       tile->weight_col_basis().size() +
                                       tile->weight_row_wbasis().size());
  }
  return bytes / (1024.0 * 1024.0);
}

/// Set-up is repeated and its median reported: at least 5 times, then until
/// about a second has gone into it, at most 51 times.
bool setup_repeat(const std::vector<double>& setup_s) {
  return setup_s.size() < 5 || (total(setup_s) < 1.0 && setup_s.size() < 51);
}

/// Correction and fault layers of a replay, plus its exact counts.
void correction_metrics(const SpanLog& log, const Counts& counts, Report& rep) {
  const std::vector<double> patch = log.ms("detect.try_patch");
  const double recompute_p50 = pct(log.ms("detect.recompute"), 0.5);
  rep.set("detect.patch_ms.p50", pct(patch, 0.5));
  rep.set("detect.patch_ms.p90", pct(patch, 0.9));
  rep.set("detect.recompute_ms.p50", recompute_p50);
  rep.set("detect.patch_vs_recompute", ratio(pct(patch, 0.5), recompute_p50));
  rep.set("detect.patch_yield",
          ratio(static_cast<double>(counts.patched), static_cast<double>(counts.flagged)));
  rep.set("fault.inject_us.p50", 1e3 * pct(log.ms("fault.inject"), 0.5));
  rep.set("fault.corrupt_us.p50", 1e3 * pct(log.ms("fault.corrupt"), 0.5));
  counts.export_to(rep);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans;
  bool self_test = false;
};

void run_serving(const ServeSpec& spec, const Args& args, Report& rep, SpanLog& log) {
  const std::size_t workers = serve_workers();
  ru::set_global_threads(1);  // each request's GEMMs run inline on its worker
  std::cout << spec.name << ": " << workers << " engine workers + 1 generator thread, nproc "
            << nproc() << ", kernel tier " << rt::kernels::to_string(rt::kernels::active_tier())
            << "\n";
  const Fixture fx(spec, args.seed);
  Server s;
  std::vector<double> setup_s, build_s;
  while (setup_repeat(setup_s)) {
    const auto [setup, build] = start_server(fx, s, workers, rep);
    setup_s.push_back(setup);
    build_s.push_back(build);
  }
  const std::size_t tiles = s.grid->tile_count();

  if (args.trace == 0) {
    rep.set("setup_s", pct(setup_s, 0.5));
    // Capacity blocks and open-loop segments alternate, so both medians span
    // the whole run rather than one stretch of a shared machine's load.
    closed_loop(fx, *s.grid, *s.engine, spec.block_requests, 2 * workers, rep);
    std::vector<double> rates;
    Counts closed_counts;
    Open all;
    for (int seg = 0; seg < kSegments; ++seg) {
      const Closed c = closed_loop(fx, *s.grid, *s.engine, spec.block_requests, 2 * workers, rep);
      rates.push_back(static_cast<double>(c.done) / c.seconds);
      if (seg == 0) closed_counts = c.counts;
      const Open o = open_loop(fx, *s.grid, *s.engine, args.seconds / kSegments, rep, nullptr);
      if (seg == 0 && o.offered >= fx.spec.count_requests && !(o.counts == c.counts)) {
        o.counts.print("open loop", fx.spec.count_requests);
        rep.fail("exact counts differ between the closed and the open loop");
      }
      all.merge(o);
    }
    rep.set("capacity_rps", pct(rates, 0.5));
    rep.set("trials_per_s", pct(rates, 0.5) * static_cast<double>(tiles));
    check_backlog(fx, all, pct(rates, 0.5), workers, rep);
    rep.set("p50_ms", pct(all.sojourn_ms, 0.5));
    rep.set("p90_ms", pct(all.sojourn_ms, 0.9));
    std::cout << "capacity blocks (req/s):";
    for (const double r : rates) std::cout << " " << r;
    std::cout << "\nopen loop: " << all.offered << " requests at " << spec.rate_rps
              << " req/s in " << kSegments << " segments, " << all.sojourn_ms.size()
              << " latency samples; generator late p99 " << pct(all.late_ms, 0.99)
              << " ms, backlog max " << all.backlog_max << "\n";
    closed_counts.print("closed loop", fx.spec.count_requests);
    return;
  }

  // Traced run. Serve layer: the open-loop schedule with submit timed.
  const Open o = open_loop(fx, *s.grid, *s.engine, args.seconds / 2, rep, &log);
  rep.set("serve.submit_us.p50", pct(o.submit_us, 0.5));
  rep.set("serve.queue_wait_ms.p50", pct(o.queue_ms, 0.5));
  rep.set("serve.queue_wait_ms.p90", pct(o.queue_ms, 0.9));
  rep.set("serve.depth_max", static_cast<double>(o.depth_max));
  rep.set("serve.service_ms.p50", pct(o.service_ms, 0.5));
  rep.set("serve.service_ms.p90", pct(o.service_ms, 0.9));
  rep.set("serve.busy_frac",
          ratio(total(o.service_ms) / 1e3, static_cast<double>(workers) * o.wall_s));
  const rs::ServeStats st = s.engine->stats();
  rep.set("serve.rejected", static_cast<double>(st.rejected));
  rep.set("serve.expired", static_cast<double>(st.expired));
  rep.set("gen.late_ms.p99", pct(o.late_ms, 0.99));
  rep.set("gen.backlog_max", static_cast<double>(o.backlog_max));

  // Tracing cost: closed-loop capacity with the engine's tracer and metrics
  // registry attached, over the same without. One engine at a time, so the
  // thread count never exceeds workers + generator.
  const Capacity plain = capacity(fx, *s.grid, *s.engine, workers, rep);
  check_backlog(fx, o, plain.rps, workers, rep);
  s.engine.reset();
  {
    realm::obs::TracerConfig tcfg;
    tcfg.lanes = workers;
    tcfg.capacity = std::size_t{1} << 14;
    realm::obs::Tracer tracer(tcfg);
    realm::obs::MetricsRegistry registry;
    const std::unique_ptr<rs::ServeEngine> traced =
        make_engine(fx, *s.grid, workers, &tracer, &registry);
    warm_up(fx, *traced, workers, rep);
    rep.set("obs.traced_capacity_ratio",
            ratio(capacity(fx, *s.grid, *traced, workers, rep).rps, plain.rps));
  }

  // Grid, detect, tensor and fault layers: replay the request prefix on this
  // thread with every public call in its own span.
  Counts counts;
  ReplayScratch sc;
  for (std::uint64_t i = 0; i < fx.spec.count_requests; ++i) {
    replay_request(fx, *s.grid, i, log, rep, counts, sc);
  }
  counts.print("traced replay", fx.spec.count_requests);
  if (!(counts == plain.counts)) {
    plain.counts.print("engine", fx.spec.count_requests);
    rep.fail("exact counts differ between the engine and the traced replay");
  }

  const rt::MatI8& w0 = s.grid->tile(0)->weights();
  for (int r = 0; r < 5; ++r) {
    const Scope span(log, "tensor.pack_b", 0);
    const rt::kernels::PackedB pb = rt::kernels::pack_b(w0.data(), w0.rows(), w0.cols());
  }
  for (int r = 0; r < 3; ++r) {
    const Scope span(log, "grid.verify_weight_integrity", 0);
    if (!s.grid->verify_weight_integrity()) rep.fail("weight scrub failed on golden weights");
  }
  for (std::size_t t = 0; t < std::min<std::size_t>(tiles, 4); ++t) {
    rt::MatI8 slice = fx.slices[t];
    const Scope span(log, "grid.swap_tile", t);
    if (!s.grid->swap_tile(t, std::move(slice), kQw)) rep.fail("swap_tile rejected golden tile");
  }

  const std::vector<double> run = log.ms("grid.run_into");
  const std::vector<double> tile_ms = log.ms("detect.run_quantized_into");
  std::vector<double> self;
  for (std::size_t r = 0; r < run.size(); ++r) {
    double children = 0;
    for (std::size_t t = 0; t < tiles; ++t) children += tile_ms[r * tiles + t];
    self.push_back(run[r] - children);
  }
  const double run_p50 = pct(run, 0.5);
  const double raw_p50 = pct(log.ms("grid.run_raw_into"), 0.5);
  rep.set("grid.run_ms.p50", run_p50);
  rep.set("grid.raw_ms.p50", raw_p50);
  rep.set("grid.protect_ratio", ratio(run_p50, raw_p50));
  rep.set("grid.self_ms.p50", pct(self, 0.5));
  rep.set("grid.swap_tile_ms.p50", pct(log.ms("grid.swap_tile"), 0.5));
  rep.set("grid.scrub_ms", pct(log.ms("grid.verify_weight_integrity"), 0.5));
  rep.set("grid.build_s", pct(build_s, 0.5));
  rep.set("grid.resident_mb", resident_mb(*s.grid));

  const std::vector<double> gemm = log.ms("tensor.gemm_i8_prepacked");
  const double gemm_p50 = pct(gemm, 0.5);
  const double screen_p50 = pct(log.ms("detect.screen_accumulator"), 0.5);
  rep.set("detect.tile_ms.p50", pct(tile_ms, 0.5));
  rep.set("detect.screen_ms.p50", screen_p50);
  rep.set("detect.screen_share", ratio(screen_p50, gemm_p50));
  rep.set("tensor.gemm_ms.p50", gemm_p50);
  rep.set("tensor.gemm_gops", ratio(sc.gemm_ops / 1e9, total(gemm) / 1e3));
  rep.set("tensor.gemm_gbps", ratio(sc.gemm_bytes / 1e9, total(gemm) / 1e3));
  rep.set("tensor.gemm_bytes", sc.gemm_bytes);
  rep.set("tensor.dequant_ms.p50", pct(log.ms("tensor.dequantize_acc"), 0.5));
  rep.set("tensor.pack_ms", pct(log.ms("tensor.pack_b"), 0.5));

  if (&spec != &kDecode) {
    correction_metrics(log, counts, rep);
    return;
  }
  // Decode traffic is clean, so its traced run also replays the fault_storm
  // mix over the same seed's weights (hence the same grid) for the
  // correction and fault layers.
  const Fixture storm(kFaultStorm, args.seed);
  if (!(storm.w8 == fx.w8)) throw std::logic_error("fault_storm mix must share decode's weights");
  SpanLog storm_log;
  Counts storm_counts;
  ReplayScratch storm_sc;
  for (std::uint64_t i = 0; i < kFaultStorm.count_requests; ++i) {
    replay_request(storm, *s.grid, i, storm_log, rep, storm_counts, storm_sc);
  }
  storm_counts.print("fault_storm mix replay", kFaultStorm.count_requests);
  correction_metrics(storm_log, storm_counts, rep);
}

// ---------------------------------------------------------------------------
// Sweep workload: the paper's error-injection study.

/// coverage_sweep's default grid plus the decode tile shape.
sa::SweepConfig sweep_config(std::uint64_t seed) {
  sa::SweepConfig cfg;
  cfg.shapes = {{32, 128, 256}, {64, 256, 256}, {8, 4096, 512}};
  cfg.widths = {16, 24, 32, 64};
  cfg.bers = {1e-5, 1e-4, 1e-3, 1e-2};
  cfg.bit_positions = {0, 4, 8, 12, 16, 20, 24, 28, 30, 31};
  cfg.components = {rf::Component::kAccumulator, rf::Component::kActivations,
                    rf::Component::kWeights};
  cfg.trials = 2;
  cfg.seed = seed;
  return cfg;
}

std::vector<sa::DatapathConfig> datapaths(const sa::SweepConfig& cfg) {
  std::vector<sa::DatapathConfig> out;
  for (const int w : cfg.widths) out.push_back({w, cfg.overflow, cfg.msd_threshold, true});
  return out;
}

/// The coverage invariants coverage_sweep gates on, plus run-to-run
/// determinism against the first sweep of the run.
void check_sweep(const sa::CoverageSummary& sum, const sa::CoverageSummary* first, Report& rep) {
  for (std::size_t w = 1; w < sum.widths.size(); ++w) {
    rep.expect(sum.widths[w].detected >= sum.widths[w - 1].detected,
               "coverage not monotone at width " + std::to_string(sum.widths[w].bits));
  }
  rep.expect(sum.reference.detected >= sum.widths.back().detected,
             "reference screen detected less than the widest datapath");
  rep.expect(sum.widths.back().single_patched == sum.widths.back().single_fault,
             "full-width single-fault patch rate below 100%");
  rep.expect(sum.reference.single_patched == sum.reference.single_fault,
             "reference single-fault patch rate below 100%");
  rep.expect(sum.reference.scrub_missed == 0, "reference weight scrub missed a weight fault");
  bool no_false_pos = sum.reference.false_pos == 0;
  for (const sa::WidthTally& t : sum.widths) no_false_pos = no_false_pos && t.false_pos == 0;
  rep.expect(no_false_pos, "a screen flagged a fault-free trial");
  if (first != nullptr) {
    rep.expect(sum.trials == first->trials && sum.faulty == first->faulty &&
                   sum.reference == first->reference && sum.widths == first->widths,
               "repeated sweep gave different counts");
  }
}

void print_sweep_counts(const sa::SweepResult& r, const sa::CoverageSummary& sum, Report* rep) {
  std::cout << "counts (sweep): cells=" << r.cells.size() << " trials=" << sum.trials
            << " faulty=" << sum.faulty << " detected.ref=" << sum.reference.detected;
  for (const sa::WidthTally& t : sum.widths) {
    std::cout << " detected.w" << t.bits << "=" << t.detected;
  }
  std::cout << "\n";
  if (rep == nullptr) return;
  rep->set("sa.cells", static_cast<double>(r.cells.size()));
  rep->set("sa.faulty_trials", static_cast<double>(sum.faulty));
  rep->set("sa.detected.ref", static_cast<double>(sum.reference.detected));
  for (const sa::WidthTally& t : sum.widths) {
    const std::string name = "sa.detected.w" + std::to_string(t.bits);
    rep->values[name] = static_cast<double>(t.detected);
  }
}

void run_sweep_workload(const Args& args, Report& rep, SpanLog& log) {
  const std::size_t threads = std::min<std::size_t>(4, nproc());
  ru::set_global_threads(threads);
  const sa::SweepConfig cfg = sweep_config(args.seed);
  std::cout << "sweep: " << threads << " pool threads, kernel tier "
            << rt::kernels::to_string(rt::kernels::active_tier()) << "\n";

  // Set-up is model construction as run_sweep does it: synthesize each
  // shape's weights from its seeded stream, then one SaProtectedGemm per
  // shape (weights, bases, panels).
  std::vector<double> setup_s;
  std::vector<sa::SaProtectedGemm> models;
  while (setup_repeat(setup_s)) {
    models.clear();
    models.reserve(cfg.shapes.size());
    const std::int64_t t0 = ru::now_ns();
    for (std::size_t s = 0; s < cfg.shapes.size(); ++s) {
      ru::Rng wrng = ru::Rng(args.seed).fork(kWeightTag + s);
      models.emplace_back(datapaths(cfg));
      models.back().set_weights_quantized(random_i8(cfg.shapes[s].k, cfg.shapes[s].n, wrng), kQw);
    }
    setup_s.push_back(ru::seconds_since_ns(t0));
  }

  if (args.trace == 0) {
    rep.set("setup_s", pct(setup_s, 0.5));
    std::vector<double> sweep_ms;
    std::size_t trials = 0;
    sa::CoverageSummary first;
    const std::int64_t t0 = ru::now_ns();
    while (sweep_ms.size() < 2 || ru::seconds_since_ns(t0) < args.seconds) {
      const std::int64_t ts = ru::now_ns();
      const sa::SweepResult r = sa::run_sweep(cfg);
      sweep_ms.push_back(static_cast<double>(ru::now_ns() - ts) / 1e6);
      const sa::CoverageSummary sum = sa::summarize(r);
      trials += sum.trials;
      check_sweep(sum, sweep_ms.size() == 1 ? nullptr : &first, rep);
      if (sweep_ms.size() == 1) {
        first = sum;
        print_sweep_counts(r, sum, nullptr);
      }
    }
    // Every sweep does the same work, so rates come from the median sweep.
    const double median_s = pct(sweep_ms, 0.5) / 1e3;
    rep.set("capacity_rps", 1.0 / median_s);
    rep.set("p50_ms", pct(sweep_ms, 0.5));
    rep.set("p90_ms", pct(sweep_ms, 0.9));
    rep.set("trials_per_s", static_cast<double>(first.trials) / median_s);
    std::cout << "sweeps: " << sweep_ms.size() << ", " << trials << " trials\n";
    return;
  }

  {
    const Scope span(log, "sa.run_sweep", 0);
    const sa::SweepResult r = sa::run_sweep(cfg);
    const sa::CoverageSummary sum = sa::summarize(r);
    check_sweep(sum, nullptr, rep);
    print_sweep_counts(r, sum, &rep);
  }
  rep.set("sa.sweep_s", pct(log.ms("sa.run_sweep"), 0.5) / 1e3);

  // Single-thread replay of sample trials with each public call in a span.
  const std::vector<sa::DatapathConfig> dps = datapaths(cfg);
  sa::SaRunResult result;
  sa::SaRunScratch scratch;
  sa::ScreenScratch screen;
  rt::MatI32 truth, faulted;
  std::vector<std::int64_t> predicted;
  double gemm_ops = 0, gemm_bytes = 0;
  std::uint64_t req = 0;
  for (std::size_t s = 0; s < cfg.shapes.size(); ++s) {
    const rd::ProtectedGemm& ref = models[s].reference();
    for (const rf::Component comp : {rf::Component::kAccumulator, rf::Component::kActivations}) {
      for (const int bit : {4, 16, 30}) {
        for (const double ber : {1e-3, 1e-2}) {
          for (int trial = 0; trial < 2; ++trial, ++req) {
            ru::Rng rng = ru::Rng(args.seed).fork(kReplayTag).fork(req);
            const rt::MatI8 a8 = random_i8(cfg.shapes[s].m, cfg.shapes[s].k, rng);
            {
              const Scope span(log, "tensor.gemm_i8_prepacked", req);
              rt::gemm_i8_prepacked(a8, ref.weights(), ref.weight_panels(), truth, &predicted);
            }
            const double m = static_cast<double>(a8.rows()), k = static_cast<double>(a8.cols());
            const double n = static_cast<double>(ref.weights().cols());
            gemm_ops += 2 * m * k * n;
            gemm_bytes +=
                m * k + 2.0 * static_cast<double>(ref.weight_panels().raw_panels().size()) +
                4 * m * n;
            if (comp == rf::Component::kAccumulator) {
              const rf::SingleBitFlipInjector injector(ber, bit);
              {
                const Scope span(log, "sa.SaProtectedGemm::run_into", req);
                ru::Rng trial_rng = rng;
                models[s].run_into(a8, injector, trial_rng, result, scratch);
              }
              faulted = truth;
              const Scope span(log, "fault.inject", req);
              injector.inject(faulted.flat(), rng);
            } else {
              rf::MemoryFaultConfig mfc;
              mfc.seed = args.seed;
              mfc.activations.ber = ber;
              mfc.activations.bit_lo = mfc.activations.bit_hi = bit % 8;
              const rf::MemoryFaultModel mem(mfc);
              rt::MatI8 a_struck = a8;
              {
                const Scope span(log, "fault.corrupt", req);
                mem.corrupt(rf::Component::kActivations, req, a_struck.flat());
              }
              rt::gemm_i8_prepacked(a_struck, ref.weights(), ref.weight_panels(), faulted);
            }
            for (const sa::DatapathConfig& dp : dps) {
              bool flagged = false;
              {
                const Scope span(log, "sa.screen_into", req);
                flagged = sa::screen_into(truth, faulted, dp, screen).flagged;
              }
              if (flagged) {
                const Scope span(log, "sa.simulate_patch", req);
                static_cast<void>(sa::simulate_patch(truth, faulted, dp));
              }
            }
          }
        }
      }
    }
  }
  const rt::MatI8& wd = models.back().reference().weights();
  for (int r = 0; r < 5; ++r) {
    const Scope span(log, "tensor.pack_b", 0);
    const rt::kernels::PackedB pb = rt::kernels::pack_b(wd.data(), wd.rows(), wd.cols());
  }
  const std::vector<double> gemm = log.ms("tensor.gemm_i8_prepacked");
  rep.set("sa.trial_ms.p50", pct(log.ms("sa.SaProtectedGemm::run_into"), 0.5));
  rep.set("sa.screen_us.p50", 1e3 * pct(log.ms("sa.screen_into"), 0.5));
  rep.set("sa.patch_sim_us.p50", 1e3 * pct(log.ms("sa.simulate_patch"), 0.5));
  rep.set("tensor.gemm_ms.p50", pct(gemm, 0.5));
  rep.set("tensor.gemm_gops", ratio(gemm_ops / 1e9, total(gemm) / 1e3));
  rep.set("tensor.gemm_gbps", ratio(gemm_bytes / 1e9, total(gemm) / 1e3));
  rep.set("tensor.gemm_bytes", gemm_bytes);
  rep.set("tensor.pack_ms", pct(log.ms("tensor.pack_b"), 0.5));
  rep.set("fault.inject_us.p50", 1e3 * pct(log.ms("fault.inject"), 0.5));
  rep.set("fault.corrupt_us.p50", 1e3 * pct(log.ms("fault.corrupt"), 0.5));
}

// ---------------------------------------------------------------------------
// Self-test: a short fixed-seed pass twice with identical exact counts, and
// both checkers tripping on doctored results.

int self_test() {
  ServeSpec spec = kFaultStorm;
  spec.block_requests = 24;
  spec.count_requests = 12;
  const Fixture fx(spec, 7);
  const std::size_t workers = serve_workers();
  ru::set_global_threads(1);
  Report rep;
  Counts engine_counts[2], replay_counts[2];
  for (int pass = 0; pass < 2; ++pass) {
    Server s;
    start_server(fx, s, workers, rep);
    engine_counts[pass] =
        closed_loop(fx, *s.grid, *s.engine, spec.block_requests, 2 * workers, rep).counts;
    SpanLog log;
    ReplayScratch sc;
    for (std::uint64_t i = 0; i < fx.spec.count_requests; ++i) {
      replay_request(fx, *s.grid, i, log, rep, replay_counts[pass], sc);
    }
  }
  engine_counts[0].print("pass 1 engine", fx.spec.count_requests);
  replay_counts[0].print("pass 1 replay", fx.spec.count_requests);
  const std::uint64_t run_failures = rep.failed;
  rep.expect(run_failures == 0, "the fixed-seed passes saw failures");
  rep.expect(engine_counts[0] == engine_counts[1], "engine counts differ between passes");
  rep.expect(replay_counts[0] == replay_counts[1], "replay counts differ between passes");
  rep.expect(engine_counts[0] == replay_counts[0], "engine and replay counts differ");
  rep.expect(engine_counts[0].flagged > 0 && engine_counts[0].flips_activations > 0,
             "the fault mix injected nothing");

  // Output checker on doctored responses.
  Server s;
  start_server(fx, s, workers, rep);
  const Plan p = plan_of(fx, 0);
  const rt::MatF& golden = fx.golden[p.h][p.a];
  const rs::Response good = s.engine->wait(submit(fx, *s.engine, 0));
  rep.expect(check_response(good, golden, true).empty(), "checker rejected a good response");
  rs::Response bad = good;
  std::uint32_t word = 0;
  std::memcpy(&word, bad.output.data(), sizeof(word));
  word ^= 1U;
  std::memcpy(bad.output.data(), &word, sizeof(word));
  rep.expect(!check_response(bad, golden, true).empty(), "checker missed a one-bit output error");
  bad = good;
  bad.verdict.verdict = rd::Verdict::kDetected;
  rep.expect(!check_response(bad, golden, true).empty(), "checker missed an uncorrected verdict");
  bad = good;
  bad.verdict.verdict = rd::Verdict::kPatched;
  rep.expect(!check_response(bad, golden, false).empty(), "checker missed a false positive");
  bad = good;
  bad.expired = true;
  rep.expect(!check_response(bad, golden, true).empty(), "checker missed an expired request");

  // Stage replica on a doctored accumulator and a doctored verdict.
  const rs::TileGrid::TileHandle tile = s.grid->tile(0);
  const ru::Rng rng = ru::Rng(fx.engine_seed).fork(0);
  ru::Rng tile_rng = rng.fork(0);
  rd::ProtectedGemmResult res;
  tile->run_quantized_into(fx.acts[p.h][p.a], kQa, fx.injector, tile_rng, res, &fx.memory,
                           rf::compose_op(0, 0));
  SpanLog log;
  TileReplica r;
  replica_tile(*tile, fx.acts[p.h][p.a], &fx.injector, rng.fork(0), &fx.memory,
               rf::compose_op(0, 0), log, 0, r);
  rep.expect(replica_mismatch(r, res).empty(), "replica differs from run_quantized_into");
  r.acc(0, 0) ^= 1;
  rep.expect(!replica_mismatch(r, res).empty(), "replica check missed a doctored accumulator");
  r.acc(0, 0) ^= 1;
  r.verdict = r.verdict == rd::Verdict::kClean ? rd::Verdict::kPatched : rd::Verdict::kClean;
  rep.expect(!replica_mismatch(r, res).empty(), "replica check missed a doctored verdict");

  for (const std::string& why : rep.problems) std::cout << "FAIL: " << why << "\n";
  std::cout << "self-test: " << rep.failed << " of " << rep.attempted
            << " checks failed (served requests count as checks)\n";
  return rep.failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------

void print_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  std::cout << buf;
}

/// Human-readable lines, then the one-line JSON result.
void emit(const Report& rep, int trace) {
  const auto known = [](const std::string& name) {
    for (const MetricDef& d : kEndToEnd) {
      if (name == d.name) return true;
    }
    for (const MetricDef& d : kPerLayer) {
      if (name == d.name) return true;
    }
    return false;
  };
  for (const auto& [name, value] : rep.values) {
    if (!known(name)) throw std::logic_error("metric not declared: " + name);
  }
  const auto print_table = [&](const auto& table, bool json) {
    bool first = true;
    for (const MetricDef& d : table) {
      const auto it = rep.values.find(d.name);
      const double v = it == rep.values.end() ? 0.0 : it->second;
      if (json) {
        std::cout << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": ";
        print_number(v);
        std::cout << ", \"unit\": \"" << d.unit << "\"}";
      } else {
        std::cout << "  " << d.name << std::string(30 - std::min<std::size_t>(29, std::strlen(d.name)), ' ');
        print_number(v);
        std::cout << " " << d.unit << "\n";
      }
      first = false;
    }
  };
  for (const std::string& why : rep.problems) std::cout << "FAIL: " << why << "\n";
  std::cout << "failed " << rep.failed << " of " << rep.attempted << " attempted (failed_frac "
            << ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted))
            << ")\n";
  if (trace == 0) {
    print_table(kEndToEnd, false);
  } else {
    print_table(kPerLayer, false);
  }
  const bool correct = rep.failed == 0 && !rep.invalid;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << rep.attempted << ", \"failed\": " << rep.failed
            << ", \"metrics\": {";
  if (trace == 0) {
    print_table(kEndToEnd, true);
  } else {
    print_table(kPerLayer, true);
  }
  std::cout << "}}" << std::endl;
}

int usage() {
  std::cerr << "usage: realm_bench --workload decode|prefill|fault_storm|sweep --seed N\n"
               "                   --seconds S --trace 0|1 [--spans FILE]\n"
               "       realm_bench --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      args.self_test = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::atoi(argv[++i]);
    } else if (a == "--spans" && has_value) {
      args.spans = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    if (args.self_test) return self_test();
    if (!(args.seconds > 0) || (args.trace != 0 && args.trace != 1)) return usage();
    Report rep;
    SpanLog log;
    if (args.workload == "decode") {
      run_serving(kDecode, args, rep, log);
    } else if (args.workload == "prefill") {
      run_serving(kPrefill, args, rep, log);
    } else if (args.workload == "fault_storm") {
      run_serving(kFaultStorm, args, rep, log);
    } else if (args.workload == "sweep") {
      run_sweep_workload(args, rep, log);
    } else {
      return usage();
    }
    if (args.trace == 0) {
      rep.set("rss_mb", peak_rss_mb());
    } else {
      rep.set("failed_frac",
              ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)));
      if (!args.spans.empty()) {
        if (!log.write_json(args.spans, args.workload, args.seed)) {
          std::cerr << "realm_bench: cannot write " << args.spans << "\n";
          return 1;
        }
        std::cout << "wrote " << log.size() << " spans to " << args.spans << "\n";
      }
    }
    if (rep.attempted == 0) rep.fail("nothing was attempted");
    emit(rep, args.trace);
    return rep.failed == 0 && !rep.invalid ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "realm_bench: " << e.what() << "\n";
    return 1;
  }
}
