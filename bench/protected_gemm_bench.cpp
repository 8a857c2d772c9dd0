// Throughput comparison: raw gemm_i8 vs the full ProtectedGemm pipeline
// (quantize + GEMM + checksum screen). Reports absolute GOPS and the
// protection overhead, which the paper argues is amortized by the O(m·k·n)
// GEMM dominating the O(k·n + m·k + m·n) checks (true for large m; the
// column prediction (eᵀA)·W is the dominant check term at small m).
//
// --json emits a machine-readable record per shape (GOPS, overhead %,
// detect latency, and the patch-vs-recompute correction latency split, kernel
// tier, thread count) that CI archives per commit and gates against
// bench/baseline.json.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "detect/detect.h"
#include "fault/fault.h"
#include "fault/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sa/datapath.h"
#include "serve/engine.h"
#include "serve/tile_grid.h"
#include "tensor/checksum_kernels.h"
#include "tensor/gemm.h"
#include "tensor/gemm_kernels.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/threadpool.h"

// The bench target compiles with REALM_GIT_SHA from CMake; keep a fallback so
// a bare `g++ bench/...` still builds.
#ifndef REALM_GIT_SHA
#define REALM_GIT_SHA "unknown"
#endif

namespace {

// All wall-clock reads go through util::now_ns() — src/util/clock.h is the
// repo's only raw-clock home (realm-lint's clock-source rule enforces this).
double seconds_since(std::int64_t t0_ns) { return realm::util::seconds_since_ns(t0_ns); }

/// Provenance block shared by every JSON writer: ties an archived record to
/// the commit and tracing state that produced it. compare_baseline.py
/// tolerates unknown keys, so these are purely additive. `trace` is the
/// runtime flag (only --serve-async can turn it on); realm_trace_compiled
/// records whether the tracer was compiled into hot paths at all.
void write_provenance(std::ostream& os, bool trace) {
  os << "  \"git_sha\": \"" << REALM_GIT_SHA << "\",\n";
  os << "  \"realm_trace_compiled\": " << (realm::obs::kTraceCompiledIn ? "true" : "false")
     << ",\n";
  os << "  \"trace\": " << (trace ? "true" : "false") << ",\n";
}

realm::tensor::MatI8 random_i8(std::size_t rows, std::size_t cols, realm::util::Rng& rng) {
  realm::tensor::MatI8 m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return m;
}

struct ShapeResult {
  std::size_t m, k, n;
  double raw_gops = 0;      ///< unprotected weight-stationary gemm (prepacked W)
  double prot_gops = 0;     ///< full ProtectedGemm pipeline, clean runs
  double overhead_pct = 0;  ///< detect_ms relative to the raw GEMM time, in %
  /// Everything protection adds on a clean run (fused checksum prediction +
  /// SIMD screen + dequantize): clean protected minus raw, taken per
  /// interleaved block so frequency drift between the two loops cancels. Raw
  /// uses the same prepacked weight panels as ProtectedGemm, so packing cost
  /// cancels out of the diff too.
  double detect_ms = 0;
  double patch_ms = 0;      ///< detect + in-place algebraic patch + re-screen: injected - clean
  double recompute_ms = 0;  ///< detect + recompute replay + recheck: injected - clean
  std::string verdict;      ///< verdict of the last injected run (patch-enabled path)
};

int usage() {
  std::cerr << "usage: protected_gemm_bench [--csv] [--threads N] [--repeat N] [--json FILE]"
               " [--smoke] [--serve-async [--fault-model] [--trace [FILE]]"
               " [--metrics [FILE]]] [--sa]\n"
            << "  --csv        emit CSV instead of a box-drawn table\n"
            << "  --threads N  total GEMM threads (default 1; sets the global pool).\n"
            << "               With --serve-async: engine workers instead\n"
            << "  --repeat N   repetitions per measurement, run as interleaved\n"
            << "               raw/protected pairs (default: auto, sized so each cell\n"
            << "               measures >= ~50ms of work)\n"
            << "  --json FILE  also write a machine-readable record (for CI archival\n"
            << "               and the baseline regression gate)\n"
            << "  --smoke      tiny shape set (128^3 plus a ragged edge shape); paired\n"
            << "               with --repeat 1 it drives every SIMD reduction and fused\n"
            << "               path once under the sanitizer CI leg\n"
            << "  --serve-async  async serving mode: multi-tenant submit/poll\n"
            << "               traffic with mixed priorities and shapes, a tile-by-tile\n"
            << "               weight hot-swap mid-stream, and per-tenant req/s +\n"
            << "               sliding-window p50/p99; exits nonzero on any dropped\n"
            << "               request or wrong verdict (the hot-swap-under-load gate)\n"
            << "  --fault-model  (with --serve-async) route the injected subset's\n"
            << "               activations through the memory-hierarchy fault model\n"
            << "               (fault::MemoryFaultModel); the JSON record reports the\n"
            << "               per-component flip tallies\n"
            << "  --trace [FILE]  (with --serve-async) record per-request span\n"
            << "               timelines on the measured engine and export Chrome\n"
            << "               trace-event JSON (default trace.json; open in Perfetto\n"
            << "               or chrome://tracing)\n"
            << "  --metrics [FILE]  (with --serve-async) dump the Prometheus text\n"
            << "               exposition of the engine/grid metrics after the\n"
            << "               measured phase (default metrics.prom)\n"
            << "  --sa         reduced-width datapath mode: time the realm::sa screen\n"
            << "               at several register widths/overflow semantics against\n"
            << "               the exact int64 reductions (wrap rides SIMD, saturate\n"
            << "               is the scalar register model)\n";
  return 2;
}

/// Reduced-width screen cost: one accumulator-sized pair of matrices, the
/// sa::screen at each (bits, overflow) combination vs the exact int64 column
/// + row reductions the full-precision screen pays. Not CI-gated — the
/// interesting signal is the wrap-vs-saturate gap (SIMD reduction + truncate
/// vs scalar ordered register model), which bounds what a software fallback
/// of the narrow hardware datapath would cost.
int sa_main(bool csv, bool smoke, long threads, int repeat, const std::string& json_path) {
  namespace rt = realm::tensor;
  realm::util::set_global_threads(static_cast<std::size_t>(threads));
  realm::util::Rng rng(0x5aab);

  const std::size_t m = smoke ? 64 : 512;
  const std::size_t n = smoke ? 96 : 1024;
  rt::MatI32 truth(m, n), faulted(m, n);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const auto v = static_cast<std::int32_t>(rng.uniform_int(-2'000'000, 2'000'000));
    truth.flat()[i] = v;
    faulted.flat()[i] = v;
  }
  faulted.flat()[truth.size() / 2] += 1 << 20;  // keep the screens honest
  const int reps = repeat > 0 ? repeat : (smoke ? 5 : 50);

  realm::util::TablePrinter table(
      std::string("protected_gemm_bench --sa (reduced-width screen of a ") + std::to_string(m) +
      "x" + std::to_string(n) + " accumulator, tier=" +
      realm::tensor::kernels::to_string(realm::tensor::kernels::active_tier()) +
      ", threads=" + std::to_string(threads) + ")");
  table.header({"datapath", "bits", "screen_ms", "flagged"});

  struct Row {
    std::string datapath;
    int bits;
    double ms;
    bool flagged;
  };
  std::vector<Row> rows;

  // Exact int64 reference reductions (what the full-precision screen pays).
  // Its verdict is measured too: a 64-bit wrap screen cannot truncate
  // anything an int32 accumulator produces, so it IS the int64 verdict.
  {
    const bool ref_flagged =
        realm::sa::screen(truth, faulted, {64, realm::sa::Overflow::kWrap, 0, true}).flagged;
    std::vector<std::int64_t> cols_out(n), rows_out(m);
    auto t0 = realm::util::now_ns();
    for (int r = 0; r < reps; ++r) {
      realm::tensor::kernels::col_sums_i32(faulted.data(), m, n, cols_out.data());
      realm::tensor::kernels::row_sums_i32(faulted.data(), m, n, rows_out.data());
    }
    rows.push_back({"int64 exact", 64, seconds_since(t0) / reps * 1e3, ref_flagged});
  }
  for (const auto& cfg : {realm::sa::DatapathConfig{16, realm::sa::Overflow::kWrap, 0, true},
                          {32, realm::sa::Overflow::kWrap, 0, true},
                          {64, realm::sa::Overflow::kWrap, 0, true},
                          {16, realm::sa::Overflow::kSaturate, 0, true}}) {
    realm::sa::ScreenScratch scratch;
    realm::sa::ScreenResult res = realm::sa::screen_into(truth, faulted, cfg, scratch);
    const auto t0 = realm::util::now_ns();
    for (int r = 0; r < reps; ++r) res = realm::sa::screen_into(truth, faulted, cfg, scratch);
    rows.push_back({realm::sa::to_string(cfg.overflow), cfg.bits,
                    seconds_since(t0) / reps * 1e3, res.flagged});
  }
  for (const Row& r : rows) {
    table.row({r.datapath, std::to_string(r.bits), realm::util::TablePrinter::num(r.ms, 4),
               r.flagged ? "yes" : "no"});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "protected_gemm_bench: cannot write " << json_path << "\n";
      return 1;
    }
    os << "{\n  \"schema_version\": 1,\n  \"mode\": \"sa\",\n";
    write_provenance(os, false);
    os << "  \"kernel_tier\": \""
       << realm::tensor::kernels::to_string(realm::tensor::kernels::active_tier())
       << "\",\n  \"m\": " << m << ", \"n\": " << n << ",\n  \"threads\": " << threads
       << ",\n  \"datapaths\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "    {\"datapath\": \"%s\", \"bits\": %d, \"screen_ms\": %.4f}%s\n",
                    rows[i].datapath.c_str(), rows[i].bits, rows[i].ms,
                    i + 1 < rows.size() ? "," : "");
      os << buf;
    }
    os << "  ]\n}\n";
  }
  return 0;
}

void write_json(const std::string& path, const std::vector<ShapeResult>& results,
                std::size_t threads, int repeat) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "protected_gemm_bench: cannot write " << path << "\n";
    std::exit(1);  // NOLINT(concurrency-mt-unsafe) — single-threaded CLI error path
  }
  os << "{\n";
  os << "  \"schema_version\": 1,\n";
  write_provenance(os, false);
  os << "  \"kernel_tier\": \"" << realm::tensor::kernels::to_string(
            realm::tensor::kernels::active_tier())
     << "\",\n";
  os << "  \"threads\": " << threads << ",\n";
  os << "  \"repeat\": " << (repeat > 0 ? std::to_string(repeat) : std::string("\"auto\""))
     << ",\n";
  os << "  \"shapes\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShapeResult& r = results[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"m\": %zu, \"k\": %zu, \"n\": %zu, \"raw_gops\": %.3f, "
                  "\"prot_gops\": %.3f, \"overhead_pct\": %.2f, \"detect_ms\": %.4f, "
                  "\"patch_ms\": %.4f, \"recompute_ms\": %.4f, \"verdict\": \"%s\"}%s\n",
                  r.m, r.k, r.n, r.raw_gops, r.prot_gops, r.overhead_pct, r.detect_ms,
                  r.patch_ms, r.recompute_ms, r.verdict.c_str(),
                  i + 1 < results.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
}

/// Async serving mode: multi-tenant submit/poll traffic with
/// mixed priorities and mixed request shapes through the persistent-worker
/// engine, plus a tile-by-tile weight hot-swap landing mid-stream, then a
/// fault-load phase (every request injected) measured once with the in-place
/// patch and once recompute-only. Reports sustained req/s, per-tenant
/// sliding-window p50/p99, and the p99-under-fault split. Self-gating: any
/// dropped request, any verdict that disagrees with the injected fault plan
/// (clean traffic must screen clean, injected traffic must correct), or a
/// patched-path p99 at or above the recompute p99 (non-smoke) exits nonzero.
/// With --fault-model the injected subset additionally routes its activations
/// through the memory-hierarchy fault model (fault::MemoryFaultModel), and the
/// JSON record carries the per-component flip tallies.
int serve_async_main(bool csv, bool smoke, long threads, int repeat, const std::string& json_path,
                     bool fault_model, const std::string& trace_path,
                     const std::string& metrics_path) {
  namespace rt = realm::tensor;
  realm::util::Rng rng(0x5e7a);
  // Request-level parallelism only; each worker's GEMMs run inline.
  realm::util::set_global_threads(1);

  // Observability: one lane per engine worker, ring deep enough that the
  // measured phase never wraps (the fault-phase engines below run untraced so
  // the exported timeline is exactly the sustained-traffic phase).
  const bool trace = !trace_path.empty();
  realm::obs::TracerConfig tcfg;
  tcfg.lanes = static_cast<std::size_t>(threads);
  tcfg.capacity = std::size_t{1} << 15;
  realm::obs::Tracer tracer(tcfg);
  realm::obs::MetricsRegistry registry;

  const std::size_t m = smoke ? 16 : 64;  // decode-like request height
  const std::size_t k = smoke ? 128 : 1024;
  const std::size_t n = smoke ? 256 : 2048;
  realm::serve::TileGridConfig gcfg;
  gcfg.tile_cols = smoke ? 64 : 256;
  if (trace) gcfg.tracer = &tracer;
  gcfg.metrics = &registry;
  const rt::QuantParams qw{0.02f};
  realm::serve::TileGrid grid(random_i8(k, n, rng), qw, gcfg);  // mutable: hot swap below
  const rt::QuantParams qa{0.05f};

  // Mixed shapes in flight: full-height and half-height activations
  // interleave, exercising the per-worker shape-keyed scratch.
  const std::size_t nshapes = 4;
  std::vector<rt::MatI8> acts;
  acts.reserve(nshapes * 2);
  for (std::size_t i = 0; i < nshapes; ++i) acts.push_back(random_i8(m, k, rng));
  for (std::size_t i = 0; i < nshapes; ++i) acts.push_back(random_i8(m / 2, k, rng));
  const realm::fault::MagFreqInjector mag(1 << 20, 3);

  // Memory-hierarchy strike model (--fault-model): activation bytes of the
  // injected subset flip at a small BER before quantized staging. Attached
  // only to requests that already carry the accumulator injector, so the
  // clean-traffic side of the verdict self-gate below stays exact.
  realm::fault::MemoryFaultConfig mfc;
  mfc.seed = 0xfa117;
  mfc.activations.ber = 1e-4;
  const realm::fault::MemoryFaultModel memory(mfc);
  const realm::fault::MemoryFaultModel* mem = fault_model ? &memory : nullptr;

  realm::serve::ServeConfig scfg;
  scfg.workers = static_cast<std::size_t>(threads);
  scfg.queue_capacity = 16;
  scfg.seed = 0xba7c4;
  if (trace) scfg.tracer = &tracer;
  scfg.metrics = &registry;
  realm::serve::ServeEngine engine(grid, scfg);

  // Warm-up, then one reset so the accounting and metrics cover the
  // measured phase only. Tracing starts after it for the same reason.
  {
    tracer.set_enabled(false);
    for (std::size_t i = 0; i < acts.size(); ++i) {
      engine.wait(engine.submit(realm::serve::Request::borrow(acts[i], qa)));
    }
    engine.reset_stats();
    tracer.set_enabled(trace);
  }

  const std::size_t total = static_cast<std::size_t>(repeat > 0 ? repeat : (smoke ? 1 : 5)) *
                            (smoke ? std::size_t{32} : std::size_t{128});
  std::vector<realm::serve::Ticket> tickets;
  tickets.reserve(total);
  const auto submit_one = [&](std::size_t i) {
    const bool injected = (i % 8 == 7);
    realm::serve::Request rq =
        realm::serve::Request::borrow(acts[i % acts.size()], qa, injected ? &mag : nullptr,
                                      injected ? mem : nullptr);
    realm::serve::SubmitOptions opt;
    // Two tenants, two lanes: "pro" is interactive foreground traffic, "free"
    // rides the batch lane and yields to it under strict priority.
    const bool pro = (i % 4 == 0);
    opt.tenant = pro ? "pro" : "free";
    opt.priority = pro ? realm::serve::Priority::kInteractive : realm::serve::Priority::kBatch;
    opt.stream = i;  // pinned: outputs independent of submission interleaving
    tickets.push_back(engine.submit(std::move(rq), opt));
  };

  const auto t0 = realm::util::now_ns();
  for (std::size_t i = 0; i < total / 2; ++i) submit_one(i);
  // Weight hot-swap landing under load: re-roll every tile while workers are
  // mid-stream. Each candidate tile is scrubbed before install; in-flight
  // requests finish on their per-tile snapshots.
  const std::size_t swapped = grid.swap_weights(random_i8(k, n, rng), qw);
  for (std::size_t i = total / 2; i < total; ++i) submit_one(i);

  std::size_t mis_verdicts = 0;
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const realm::serve::Response rsp = engine.wait(tickets[i]);
    if (rsp.expired) {
      ++dropped;
      continue;
    }
    const bool injected = (i % 8 == 7);
    const bool ok = injected ? realm::detect::corrected(rsp.verdict.verdict)
                             : rsp.verdict.verdict == realm::detect::Verdict::kClean;
    if (!ok) ++mis_verdicts;
  }
  const double wall_s = seconds_since(t0);
  const double rps = static_cast<double>(total) / wall_s;
  const realm::serve::ServeStats st = engine.stats();

  // Every ticket above has been waited on, so the worker lanes are quiescent:
  // safe to export the span timeline and the metrics snapshot. Done before
  // the fault phases, which run on separate untraced engines.
  if (trace) {
    std::ofstream os(trace_path);
    if (!os) {
      std::cerr << "protected_gemm_bench: cannot write " << trace_path << "\n";
      return 1;
    }
    os << tracer.export_chrome_json();
  }
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    if (!os) {
      std::cerr << "protected_gemm_bench: cannot write " << metrics_path << "\n";
      return 1;
    }
    os << registry.expose();
  }

  // Fault-load phase (elevated injection: EVERY request faulted), once with
  // the in-place patch enabled (the serving default) and once with
  // patch_on_detect=false (recompute-only). Pinned streams give both engines
  // identical fault draws over identical weights and activations, so the p99
  // gap isolates the correction-mode latency — the release gate pins the
  // patched path strictly below the recompute cliff.
  const std::size_t fault_total = smoke ? 32 : 96;
  const rt::MatI8 w8_fault = random_i8(k, n, rng);
  const auto fault_phase = [&](bool patch_enabled, double& p99_ms, double& patch_rate) {
    realm::serve::TileGridConfig fcfg = gcfg;
    fcfg.detect.patch_on_detect = patch_enabled;
    // Untraced and unmetered: the archived timeline/metrics cover only the
    // sustained-traffic phase above, not the elevated-injection sweep.
    fcfg.tracer = nullptr;
    fcfg.metrics = nullptr;
    const realm::serve::TileGrid fgrid(w8_fault, qw, fcfg);
    realm::serve::ServeConfig fscfg = scfg;
    fscfg.tracer = nullptr;
    fscfg.metrics = nullptr;
    realm::serve::ServeEngine fengine(fgrid, fscfg);
    fengine.wait(fengine.submit(realm::serve::Request::borrow(acts[0], qa)));  // warm buffers
    std::vector<realm::serve::Ticket> fts;
    fts.reserve(fault_total);
    for (std::size_t i = 0; i < fault_total; ++i) {
      realm::serve::SubmitOptions opt;
      opt.stream = i;  // identical fault draws across the two phases
      fts.push_back(fengine.submit(realm::serve::Request::borrow(acts[i % nshapes], qa, &mag),
                                   opt));
    }
    std::vector<double> lat;
    lat.reserve(fault_total);
    std::size_t faulty_reqs = 0, patched_reqs = 0;
    for (auto& ticket : fts) {
      const realm::serve::Response rsp = fengine.wait(ticket);
      lat.push_back(rsp.latency_ms);
      if (rsp.verdict.faulty()) {
        ++faulty_reqs;
        if (rsp.verdict.verdict == realm::detect::Verdict::kPatched) ++patched_reqs;
      }
    }
    p99_ms = realm::util::quantile(lat, 0.99);
    patch_rate = faulty_reqs == 0 ? 0.0
                                  : static_cast<double>(patched_reqs) /
                                        static_cast<double>(faulty_reqs);
  };
  double fault_patched_p99 = 0, fault_recompute_p99 = 0, fault_patch_rate = 0, rec_rate = 0;
  fault_phase(true, fault_patched_p99, fault_patch_rate);
  fault_phase(false, fault_recompute_p99, rec_rate);

  realm::util::TablePrinter table(
      std::string("protected_gemm_bench --serve-async (submit/poll through ServeEngine, tier=") +
      realm::tensor::kernels::to_string(realm::tensor::kernels::active_tier()) +
      ", workers=" + std::to_string(scfg.workers) + ", tiles_swapped=" + std::to_string(swapped) +
      ")");
  table.header({"tenant", "priority", "submitted", "completed", "patched", "recomputed", "req/s",
                "p50_ms", "p99_ms"});
  for (const char* name : {"pro", "free"}) {
    const realm::serve::ServeStats ts = engine.tenant_stats(name);
    table.row({ts.tenant, std::string(name) == "pro" ? "interactive" : "batch",
               std::to_string(ts.submitted), std::to_string(ts.completed),
               std::to_string(ts.requests_patched), std::to_string(ts.requests_recomputed),
               realm::util::TablePrinter::num(ts.req_per_s),
               realm::util::TablePrinter::num(ts.window_p50_ms),
               realm::util::TablePrinter::num(ts.window_p99_ms)});
  }
  table.row({"(all)", "-", std::to_string(st.submitted), std::to_string(st.completed), "-", "-",
             realm::util::TablePrinter::num(rps),
             realm::util::TablePrinter::num(st.window_p50_ms),
             realm::util::TablePrinter::num(st.window_p99_ms)});
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  realm::util::TablePrinter ftable(
      std::string("fault load (every request injected, patch vs recompute, requests=") +
      std::to_string(fault_total) + ")");
  ftable.header({"correction", "p99_ms", "patch_rate"});
  ftable.row({"patch", realm::util::TablePrinter::num(fault_patched_p99),
              realm::util::TablePrinter::num(fault_patch_rate, 3)});
  ftable.row({"recompute", realm::util::TablePrinter::num(fault_recompute_p99),
              realm::util::TablePrinter::num(rec_rate, 3)});
  if (csv) {
    ftable.print_csv(std::cout);
  } else {
    ftable.print(std::cout);
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "protected_gemm_bench: cannot write " << json_path << "\n";
      return 1;
    }
    os << "{\n  \"schema_version\": 1,\n  \"mode\": \"serve-async\",\n";
    write_provenance(os, trace);
    char buf[2048];
    std::snprintf(buf, sizeof(buf),
                  "  \"kernel_tier\": \"%s\",\n"
                  "  \"workers\": %zu,\n"
                  "  \"tiles\": %zu,\n"
                  "  \"tiles_swapped\": %zu,\n"
                  "  \"m\": %zu, \"k\": %zu, \"n\": %zu,\n"
                  "  \"requests\": %zu,\n"
                  "  \"rps\": %.2f,\n"
                  "  \"window_p50_ms\": %.4f,\n"
                  "  \"window_p99_ms\": %.4f,\n"
                  "  \"expired\": %llu,\n"
                  "  \"failed\": %llu,\n"
                  "  \"tiles_patched\": %llu,\n"
                  "  \"tiles_recomputed\": %llu,\n"
                  "  \"tiles_corrected\": %llu,\n"
                  "  \"fault_model\": %d,\n"
                  "  \"activation_flips\": %llu,\n"
                  "  \"accumulator_flips\": %llu,\n"
                  "  \"fault_requests\": %zu,\n"
                  "  \"fault_patched_p99_ms\": %.4f,\n"
                  "  \"fault_recompute_p99_ms\": %.4f,\n"
                  "  \"fault_patch_rate\": %.4f\n"
                  "}\n",
                  realm::tensor::kernels::to_string(realm::tensor::kernels::active_tier()),
                  scfg.workers, grid.tile_count(), swapped, m, k, n, total, rps, st.window_p50_ms,
                  st.window_p99_ms, static_cast<unsigned long long>(st.expired),
                  static_cast<unsigned long long>(st.failed),
                  static_cast<unsigned long long>(st.tiles_patched),
                  static_cast<unsigned long long>(st.tiles_recomputed),
                  static_cast<unsigned long long>(st.tiles_corrected()),
                  fault_model ? 1 : 0,
                  static_cast<unsigned long long>(
                      st.component_flips[static_cast<std::size_t>(
                          realm::fault::Component::kActivations)]),
                  static_cast<unsigned long long>(
                      st.component_flips[static_cast<std::size_t>(
                          realm::fault::Component::kAccumulator)]),
                  fault_total, fault_patched_p99, fault_recompute_p99, fault_patch_rate);
    os << buf;
  }

  // The patched-path tail must sit strictly below the recompute cliff: the
  // patch replaces the O(m·k·n) replay with O(m·n + m·k + k·n) algebra, so a
  // crossover means the correction path regressed. (Skipped under --smoke,
  // where per-request times are too small for a stable p99 comparison.)
  const bool p99_split_ok = smoke || fault_patched_p99 < fault_recompute_p99;
  if (dropped != 0 || mis_verdicts != 0 || swapped != grid.tile_count() ||
      !grid.verify_weight_integrity() || !p99_split_ok) {
    std::cerr << "protected_gemm_bench: serve-async gate FAILED (dropped=" << dropped
              << ", mis_verdicts=" << mis_verdicts << ", tiles_swapped=" << swapped << "/"
              << grid.tile_count() << ", patched_p99=" << fault_patched_p99
              << ", recompute_p99=" << fault_recompute_p99 << ")\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool csv = false;
  bool smoke = false;
  bool serve_async = false;
  bool fault_model = false;
  bool sa = false;
  long threads = 1;
  int repeat = 0;  // 0 = auto
  std::string json_path;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--serve-async") {
      serve_async = true;
    } else if (arg == "--fault-model") {
      fault_model = true;
    } else if (arg == "--sa") {
      sa = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::strtol(argv[++i], nullptr, 10);
      if (threads < 1) return usage();
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (repeat < 1) return usage();
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--trace") {
      // Optional file operand; anything starting with "--" is the next flag.
      trace_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "trace.json";
    } else if (arg == "--metrics") {
      metrics_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "metrics.prom";
    } else {
      return usage();
    }
  }
  if (serve_async && sa) return usage();
  if (fault_model && !serve_async) return usage();  // only meaningful for the async engine
  if ((!trace_path.empty() || !metrics_path.empty()) && !serve_async) return usage();
  if (serve_async) {
    return serve_async_main(csv, smoke, threads, repeat, json_path, fault_model, trace_path,
                            metrics_path);
  }
  if (sa) return sa_main(csv, smoke, threads, repeat, json_path);
  realm::util::set_global_threads(static_cast<std::size_t>(threads));
  realm::util::Rng rng(0xbe7c);

  realm::util::TablePrinter table(
      std::string("protected_gemm_bench (raw vs protected INT8 GEMM, tier=") +
      realm::tensor::kernels::to_string(realm::tensor::kernels::active_tier()) +
      ", threads=" + std::to_string(threads) + ")");
  table.header({"m", "k", "n", "raw_gops", "prot_gops", "overhead", "detect_ms", "patch_ms",
                "recompute_ms", "verdict"});

  // The smoke set keeps sanitizer runs fast while still covering a full-tile
  // shape and a ragged one (edge microkernels + scalar reduction tails).
  const std::vector<std::array<std::size_t, 3>> shapes =
      smoke ? std::vector<std::array<std::size_t, 3>>{{128, 128, 128}, {33, 67, 129}}
            : std::vector<std::array<std::size_t, 3>>{{64, 256, 256},
                                                      {128, 512, 512},
                                                      {512, 512, 512},
                                                      {256, 1024, 1024},
                                                      {64, 4096, 1024}};
  const realm::fault::NullInjector none;
  const realm::fault::MagFreqInjector mag_freq(1 << 20, 3);

  std::vector<ShapeResult> results;
  for (const auto& s : shapes) {
    ShapeResult res;
    res.m = s[0];
    res.k = s[1];
    res.n = s[2];
    const realm::tensor::MatI8 a8 = random_i8(res.m, res.k, rng);
    const realm::tensor::QuantParams qa{0.05f};

    realm::detect::ProtectedGemm pg;  // default config: patch-first correction
    realm::detect::DetectionConfig rec_cfg;
    rec_cfg.patch_on_detect = false;  // recompute-only — the pre-patch latency cliff
    realm::detect::ProtectedGemm pg_rec(rec_cfg);
    {
      const realm::tensor::MatI8 w8 = random_i8(res.k, res.n, rng);
      pg.set_weights_quantized(w8, realm::tensor::QuantParams{0.02f});
      pg_rec.set_weights_quantized(w8, realm::tensor::QuantParams{0.02f});
    }

    const double ops = 2.0 * static_cast<double>(res.m) * static_cast<double>(res.k) *
                       static_cast<double>(res.n);

    // The raw baseline is weight-stationary like ProtectedGemm (same
    // prepacked panels), so overhead/detect_ms isolate what protection adds
    // instead of crediting the protected path with the skipped re-pack.
    const realm::tensor::kernels::PackedB packed_w = realm::tensor::kernels::pack_b(
        pg.weights().data(), pg.weights().rows(), pg.weights().cols());

    // Warm-up (dispatch probe, page faults) doubles as the auto-repeat
    // calibration: repeat until each cell measures >= ~50ms of work at the
    // speed this machine actually runs, whatever tier/thread count that is.
    realm::tensor::MatI32 c(res.m, res.n);
    auto t0 = realm::util::now_ns();
    realm::tensor::gemm_i8_prepacked(a8, pg.weights(), packed_w, c);
    const double warm_s = std::max(seconds_since(t0), 1e-6);
    const int reps =
        repeat > 0 ? repeat : static_cast<int>(std::clamp(0.05 / warm_s, 1.0, 1000.0));

    // detect_ms and overhead are DIFFERENCES of two measurements, so a
    // frequency/turbo shift between the raw and protected timing windows
    // shows up as phantom overhead (or phantom savings). Interleave the
    // loops at single-rep granularity — each raw run immediately followed by
    // a clean protected run shares its thermal environment — and take the
    // MEDIAN of the per-pair differences: a mean lets one turbo burst
    // dominate, a min zeroes out whenever any pair happened to run clean
    // faster than raw. Clean protected runs recycle their buffers
    // (run_quantized_into), matching the raw loop's reused `c`, so the
    // difference is the steady-state screen, not per-run page faults.
    realm::detect::ProtectedGemmResult prot;
    pg.run_quantized_into(a8, qa, none, rng, prot);  // warm the buffers
    realm::detect::Verdict last = realm::detect::Verdict::kClean;
    std::vector<double> raw_t(reps), clean_t(reps), detect_d(reps), patch_d, recompute_d;
    patch_d.reserve((reps + 1) / 2);
    recompute_d.reserve((reps + 1) / 2);
    for (int r = 0; r < reps; ++r) {
      t0 = realm::util::now_ns();
      realm::tensor::gemm_i8_prepacked(a8, pg.weights(), packed_w, c);
      raw_t[r] = seconds_since(t0);

      t0 = realm::util::now_ns();
      pg.run_quantized_into(a8, qa, none, rng, prot);
      clean_t[r] = seconds_since(t0);
      detect_d[r] = clean_t[r] - raw_t[r];

      // Injected on every other rep, through BOTH correction modes against
      // the same clean-pair time: the in-place algebraic patch (default) and
      // the recompute replay — the split that shows what the patch saves.
      if (r % 2 == 0) {
        t0 = realm::util::now_ns();
        pg.run_quantized_into(a8, qa, mag_freq, rng, prot);
        last = prot.report.verdict;
        patch_d.push_back(seconds_since(t0) - clean_t[r]);
        t0 = realm::util::now_ns();
        pg_rec.run_quantized_into(a8, qa, mag_freq, rng, prot);
        recompute_d.push_back(seconds_since(t0) - clean_t[r]);
      }
    }
    const auto median = [](std::vector<double>& v) {
      std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
      return v[v.size() / 2];
    };
    const double raw_s = median(raw_t);
    const double prot_clean_s = median(clean_t);
    // The screen cannot cost negative time; clamp residual pair noise.
    const double detect_s = std::max(median(detect_d), 0.0);
    const double patch_s = std::max(median(patch_d), 0.0);
    const double recompute_s = std::max(median(recompute_d), 0.0);

    res.raw_gops = ops / raw_s / 1e9;
    res.prot_gops = ops / prot_clean_s / 1e9;
    // Overhead derives from the same block-coherent delta as detect_ms, so
    // the two gated metrics can never disagree about whether protection cost
    // anything.
    res.overhead_pct = detect_s / raw_s * 100.0;
    res.detect_ms = detect_s * 1e3;
    res.patch_ms = patch_s * 1e3;
    res.recompute_ms = recompute_s * 1e3;
    res.verdict = realm::detect::to_string(last);
    results.push_back(res);

    table.row({std::to_string(res.m), std::to_string(res.k), std::to_string(res.n),
               realm::util::TablePrinter::num(res.raw_gops),
               realm::util::TablePrinter::num(res.prot_gops),
               realm::util::TablePrinter::pct(res.overhead_pct / 100.0),
               realm::util::TablePrinter::num(res.detect_ms),
               realm::util::TablePrinter::num(res.patch_ms),
               realm::util::TablePrinter::num(res.recompute_ms), res.verdict});
  }

  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  if (!json_path.empty()) {
    write_json(json_path, results, static_cast<std::size_t>(threads), repeat);
  }
  return 0;
}
