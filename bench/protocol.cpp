// Protocol-pipeline microbenchmark: per-codec ops/sec and — the number the
// zero-copy rewrite (DESIGN.md §12) actually attacks — heap bytes allocated
// per request, measured by a counting operator new in this binary. Each
// workload drives the legacy allocation-heavy API and its zero-copy
// replacement over identical inputs and asserts the output bytes match, so
// the columns compare cost, never behaviour:
//
//   http_format       HttpRequest/HttpResponse::serialize() (fresh string
//                     per message) vs serialize_to() into reused buffers.
//   wap_request_path  The full gateway translation a WAP request pays:
//                     parse_markup + html_to_wml + adapt_document +
//                     serialize + wbxml_encode (a node tree of strings per
//                     request) vs the fused translate_html() writing WML
//                     text and WBXML from a recycled arena.
//   station_page      The handset and client half of the same page: a
//                     WBXML deck in, render metrics and application text
//                     out. wbxml_decode + serialize + parse_markup twice
//                     (the station's render parse and the client's text
//                     parse) + inner_text vs wbxml_decode_to + one
//                     summarize_page pass over reused outputs.
//   json_stats_export StatsRegistry::to_json through the rewritten
//                     JsonWriter (escape/number straight into the buffer,
//                     fixed-depth levels). No legacy twin survives in the
//                     tree, so it reports absolute cost only; the gate pins
//                     bytes/req against the committed baseline.
//
// Bytes/req is deterministic (allocator traffic does not depend on machine
// load), so tools/check_protocol_bench.py gates hard on it — most notably
// the >=3x legacy/new reduction on wap_request_path — while ops/sec gates
// stay ratio-based like the kernel bench. Output: $MCS_BENCH_PROTOCOL_OUT
// or ./BENCH_protocol.json; MCS_BENCH_SMOKE=1 shrinks iteration counts to a
// machinery check.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "host/http.h"
#include "middleware/adaptation.h"
#include "middleware/markup.h"
#include "middleware/markup_view.h"
#include "middleware/translate.h"
#include "middleware/wbxml.h"
#include "sim/contract.h"
#include "sim/json.h"
#include "sim/stats.h"

// --- Counting allocator -----------------------------------------------------
// Global operator new/delete for this binary only. Relaxed atomics: the
// measured loops are single-threaded; the counters just have to survive
// benchmark-library housekeeping threads.

namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_calls{0};

void* counted_alloc(std::size_t n) {
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  std::fputs("protocol bench: out of memory\n", stderr);
  std::abort();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace mcs;

bool smoke_mode() { return std::getenv("MCS_BENCH_SMOKE") != nullptr; }

// --- Inputs -----------------------------------------------------------------

// A representative host page (~1.5 KB): title, headings, a catalog table,
// images the adapter strips, a form, and one text run long enough to trip
// the default 512-char truncation — every fused-path branch earns its keep.
const char* kCatalogHtml =
    "<!DOCTYPE html><html><head><title>MC Catalog</title>"
    "<meta charset=utf8></head><body>"
    "<h1>Mobile Commerce Catalog</h1>"
    "<img src='/banner.png' alt='banner'>"
    "<h2>Today's offers</h2>"
    "<ul><li>Ringtone bundle<li>News alerts<li>Stock quotes</ul>"
    "<table><thead><tr><th>Item</th><th>Price</th></tr></thead>"
    "<tr><td>Ringtone</td><td>$0.99</td></tr>"
    "<tr><td>Wallpaper</td><td>$1.49</td></tr>"
    "<tr><td>News day-pass</td><td>$0.25</td></tr></table>"
    "<p>Our catalog adapts automatically to the capabilities of your "
    "terminal. Wireless application protocol devices receive compiled "
    "decks over the air interface, while i-mode handsets receive compact "
    "hypertext. The middleware layer between the mobile network and the "
    "fixed host performs the translation on every request, which is why "
    "the cost of that translation - measured here in heap bytes per "
    "request - decides how many concurrent sessions one gateway box can "
    "sustain. The original system model paper treats the gateway as the "
    "narrow waist of the architecture, and this paragraph exists to be "
    "longer than the text-run cap so the truncation path runs too.</p>"
    "<form action='/buy'><input name='item' value='ringtone'>"
    "<select name='pay'><option value='1'>airtime</option>"
    "<option value='2'>card</option></select></form>"
    "<a href='/catalog?page=2&sort=price'>next page</a>"
    "<hr><p>support: help@example.net</p>"
    "</body></html>";

host::HttpRequest make_request() {
  host::HttpRequest req;
  req.method = "GET";
  req.path = "/catalog/item?id=42&session=9f3a";
  req.set_header("Host", "shop.example.net");
  req.set_header("User-Agent", "MCS-MicroBrowser/1.0 (WAP 1.2)");
  req.set_header("Accept", "text/vnd.wap.wml, application/vnd.wap.wbxml");
  req.set_header("Cookie", "sid=77aa12bc9;lang=en");
  return req;
}

host::HttpResponse make_response(std::string body) {
  host::HttpResponse resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.set_header("Content-Type", "text/vnd.wap.wml");
  resp.set_header("Cache-Control", "max-age=30");
  resp.set_header("Server", "mcs-host/1.0");
  resp.body = std::move(body);
  return resp;
}

sim::StatsRegistry make_registry() {
  sim::StatsRegistry reg;
  const char* counters[] = {"requests",   "responses",  "wml_decks",
                            "wbxml_bytes", "cache_hits", "cache_misses",
                            "retries",    "timeouts",   "handoffs",
                            "sessions",   "payments",   "air_bytes"};
  std::uint64_t v = 7;
  for (const char* name : counters) {
    reg.counter(name).add(v);
    v = v * 31 + 11;
  }
  const char* hists[] = {"latency_ms", "deck_bytes", "rtt_ms", "queue_depth"};
  double x = 0.5;
  for (const char* name : hists) {
    sim::Histogram& h = reg.histogram(name);
    for (int i = 0; i < 64; ++i) {
      h.record(x);
      x = x * 1.13 + 0.7;
      if (x > 5000.0) x -= 5000.0;
    }
  }
  return reg;
}

// --- Measurement ------------------------------------------------------------

struct RunResult {
  double ops_per_sec = 0.0;
  double bytes_per_req = 0.0;
  double allocs_per_req = 0.0;
  std::uint64_t ops = 0;
};

// Warm (pools, reserves), then time `iters` calls and diff the allocation
// counters around the loop. The warm-up matters: the zero-copy paths are
// allocation-free only at steady state, which is exactly the regime a
// gateway serving its thousandth request is in.
template <class Fn>
RunResult run_measured(std::uint64_t iters, Fn&& op) {
  for (int i = 0; i < 16; ++i) op();
  const std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const std::uint64_t calls0 = g_alloc_calls.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) op();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t bytes1 = g_alloc_bytes.load(std::memory_order_relaxed);
  const std::uint64_t calls1 = g_alloc_calls.load(std::memory_order_relaxed);
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  RunResult out;
  out.ops = iters;
  out.ops_per_sec = secs > 0.0 ? static_cast<double>(iters) / secs : 0.0;
  out.bytes_per_req = static_cast<double>(bytes1 - bytes0) / iters;
  out.allocs_per_req = static_cast<double>(calls1 - calls0) / iters;
  return out;
}

struct WorkloadScore {
  const char* name;
  RunResult fresh;
  RunResult legacy;
  bool has_legacy = false;

  double speedup() const {
    return legacy.ops_per_sec > 0.0 ? fresh.ops_per_sec / legacy.ops_per_sec
                                    : 0.0;
  }
  // Steady-state zero-copy paths allocate literally nothing, so clamp the
  // denominator to one byte: "legacy bytes per request" is then the
  // reduction factor rather than a division by zero.
  double alloc_reduction() const {
    return legacy.bytes_per_req / std::max(fresh.bytes_per_req, 1.0);
  }
};

std::vector<WorkloadScore> g_scores;

bench::TablePrinter g_table{
    "Protocol codecs -- ops/sec and heap bytes per request",
    {"workload", "new ops/s", "new B/req", "legacy ops/s", "legacy B/req",
     "B/req reduction"}};

// Best-of-N interleaved reps for the timing (shared box: a background burst
// during one side's run would fabricate a speedup); bytes/req is taken from
// the rep too but is identical across reps by construction.
template <class FreshFn, class LegacyFn>
void run_comparison(const char* name, benchmark::State& state,
                    std::uint64_t iters, FreshFn&& fresh_op,
                    LegacyFn&& legacy_op) {
  const int reps = smoke_mode() ? 1 : 3;
  WorkloadScore score{name, {}, {}, true};
  for (auto _ : state) {
    for (int rep = 0; rep < reps; ++rep) {
      const RunResult f = run_measured(iters, fresh_op);
      const RunResult l = run_measured(iters, legacy_op);
      if (f.ops_per_sec > score.fresh.ops_per_sec) {
        score.fresh.ops_per_sec = f.ops_per_sec;
      }
      if (l.ops_per_sec > score.legacy.ops_per_sec) {
        score.legacy.ops_per_sec = l.ops_per_sec;
      }
      score.fresh.bytes_per_req = f.bytes_per_req;
      score.fresh.allocs_per_req = f.allocs_per_req;
      score.fresh.ops = f.ops;
      score.legacy.bytes_per_req = l.bytes_per_req;
      score.legacy.allocs_per_req = l.allocs_per_req;
      score.legacy.ops = l.ops;
    }
  }
  state.counters["new_ops_per_sec"] = score.fresh.ops_per_sec;
  state.counters["new_bytes_per_req"] = score.fresh.bytes_per_req;
  state.counters["legacy_ops_per_sec"] = score.legacy.ops_per_sec;
  state.counters["legacy_bytes_per_req"] = score.legacy.bytes_per_req;
  g_table.add_row({score.name, bench::fmt("%.0f", score.fresh.ops_per_sec),
                   bench::fmt("%.1f", score.fresh.bytes_per_req),
                   bench::fmt("%.0f", score.legacy.ops_per_sec),
                   bench::fmt("%.1f", score.legacy.bytes_per_req),
                   bench::fmt("%.1fx", score.alloc_reduction())});
  g_scores.push_back(score);
}

// --- Workloads --------------------------------------------------------------

void BM_HttpFormat(benchmark::State& state) {
  const host::HttpRequest req = make_request();

  // The response body is the deck the gateway would attach; build it once.
  std::string wml;
  middleware::AdaptationConfig cfg;
  middleware::translate_html(sim::Slice{kCatalogHtml},
                             middleware::MarkupKind::kWml, cfg, wml);
  const host::HttpResponse resp = make_response(wml);

  // Behaviour check before any timing: the reused-buffer spelling must
  // produce the exact legacy wire bytes.
  std::string buf;
  {
    sim::BufWriter w{buf};
    req.serialize_to(w);
    MCS_ASSERT(buf == req.serialize(),
               "serialize_to(request) must match serialize() byte for byte");
    buf.clear();
    sim::BufWriter w2{buf};
    resp.serialize_to(w2);
    MCS_ASSERT(buf == resp.serialize(),
               "serialize_to(response) must match serialize() byte for byte");
  }

  const std::uint64_t iters = smoke_mode() ? 2'000 : 200'000;
  std::uint64_t sink = 0;
  run_comparison(
      "http_format", state, iters,
      [&] {
        buf.clear();
        sim::BufWriter w{buf};
        req.serialize_to(w);
        resp.serialize_to(w);
        sink += buf.size();
        benchmark::DoNotOptimize(sink);
      },
      [&] {
        const std::string a = req.serialize();
        const std::string b = resp.serialize();
        sink += a.size() + b.size();
        benchmark::DoNotOptimize(sink);
      });
}

void BM_WapRequestPath(benchmark::State& state) {
  const sim::Slice html{kCatalogHtml};
  middleware::AdaptationConfig cfg;

  auto legacy_once = [&](std::string& text, std::string& wbxml) {
    const middleware::MarkupDocument doc =
        parse_markup(std::string{html}, middleware::MarkupKind::kHtml);
    const middleware::AdaptationResult adapted =
        adapt_document(html_to_wml(doc), cfg);
    text = adapted.document.serialize();
    wbxml = wbxml_encode(adapted.document);
  };

  // Equivalence before timing (the translate test suite proves this over a
  // whole corpus; this is the tripwire that the bench compares like with
  // like).
  std::string text, wbxml, legacy_text, legacy_wbxml;
  middleware::translate_html(html, middleware::MarkupKind::kWml, cfg, text,
                             &wbxml);
  legacy_once(legacy_text, legacy_wbxml);
  MCS_ASSERT(text == legacy_text && wbxml == legacy_wbxml,
             "fused translate_html diverged from the legacy tree pipeline");

  const std::uint64_t iters = smoke_mode() ? 200 : 20'000;
  std::uint64_t sink = 0;
  run_comparison(
      "wap_request_path", state, iters,
      [&] {
        middleware::translate_html(html, middleware::MarkupKind::kWml, cfg,
                                   text, &wbxml);
        sink += text.size() + wbxml.size();
        benchmark::DoNotOptimize(sink);
      },
      [&] {
        std::string t, w;
        legacy_once(t, w);
        sink += t.size() + w.size();
        benchmark::DoNotOptimize(sink);
      });
}

void BM_StationPage(benchmark::State& state) {
  // The deck the WAP gateway sends for the catalog page.
  std::string text, deck;
  middleware::AdaptationConfig cfg;
  middleware::translate_html(sim::Slice{kCatalogHtml},
                             middleware::MarkupKind::kWml, cfg, text, &deck);

  struct Page {
    std::string wml;
    middleware::PageSummary summary;
  };
  auto legacy_once = [&](Page& out) {
    const auto doc = middleware::wbxml_decode(deck);
    MCS_ASSERT(doc.has_value(), "the gateway's deck must decode");
    out.wml = doc->serialize();
    const middleware::MarkupDocument rendered =
        parse_markup(out.wml, middleware::MarkupKind::kWml);
    out.summary.elements = rendered.root.element_count();
    out.summary.title = rendered.title();
    out.summary.text =
        parse_markup(out.wml, middleware::MarkupKind::kWml).root.inner_text();
  };
  auto fresh_once = [&](Page& out) {
    const bool ok = middleware::wbxml_decode_to(deck, out.wml);
    MCS_ASSERT(ok, "the gateway's deck must decode");
    middleware::summarize_page(out.wml, out.summary);
  };

  Page fresh, legacy;
  fresh_once(fresh);
  legacy_once(legacy);
  MCS_ASSERT(fresh.wml == legacy.wml && fresh.wml == text &&
                 fresh.summary.elements == legacy.summary.elements &&
                 fresh.summary.title == legacy.summary.title &&
                 fresh.summary.text == legacy.summary.text,
             "the one-pass station page diverged from the tree pipeline");

  const std::uint64_t iters = smoke_mode() ? 200 : 20'000;
  std::uint64_t sink = 0;
  run_comparison(
      "station_page", state, iters,
      [&] {
        fresh_once(fresh);
        sink += fresh.wml.size() + fresh.summary.text.size();
        benchmark::DoNotOptimize(sink);
      },
      [&] {
        Page p;
        legacy_once(p);
        sink += p.wml.size() + p.summary.text.size();
        benchmark::DoNotOptimize(sink);
      });
}

void BM_JsonStatsExport(benchmark::State& state) {
  const sim::StatsRegistry reg = make_registry();

  const std::uint64_t iters = smoke_mode() ? 500 : 50'000;
  const int reps = smoke_mode() ? 1 : 3;
  WorkloadScore score{"json_stats_export", {}, {}, false};
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int rep = 0; rep < reps; ++rep) {
      const RunResult r = run_measured(iters, [&] {
        sim::JsonWriter w;
        reg.to_json(w);
        sink += w.str().size();
        benchmark::DoNotOptimize(sink);
      });
      if (r.ops_per_sec > score.fresh.ops_per_sec) {
        score.fresh.ops_per_sec = r.ops_per_sec;
      }
      score.fresh.bytes_per_req = r.bytes_per_req;
      score.fresh.allocs_per_req = r.allocs_per_req;
      score.fresh.ops = r.ops;
    }
  }
  state.counters["new_ops_per_sec"] = score.fresh.ops_per_sec;
  state.counters["new_bytes_per_req"] = score.fresh.bytes_per_req;
  g_table.add_row({score.name, bench::fmt("%.0f", score.fresh.ops_per_sec),
                   bench::fmt("%.1f", score.fresh.bytes_per_req), "-", "-",
                   "-"});
  g_scores.push_back(score);
}

BENCHMARK(BM_HttpFormat)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WapRequestPath)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StationPage)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JsonStatsExport)->Iterations(1)->Unit(benchmark::kMillisecond);

void write_baseline(const std::string& path) {
  sim::JsonWriter w;
  w.begin_object();
  w.key("bench").value("protocol");
  w.key("schema_version").value(1);
  w.key("smoke").value(smoke_mode());
  w.key("workloads").begin_object();
  for (const WorkloadScore& s : g_scores) {
    w.key(s.name).begin_object();
    w.key("ops_per_sec").value(s.fresh.ops_per_sec);
    w.key("bytes_per_req").value(s.fresh.bytes_per_req);
    w.key("allocs_per_req").value(s.fresh.allocs_per_req);
    w.key("ops").value(s.fresh.ops);
    if (s.has_legacy) {
      w.key("legacy_ops_per_sec").value(s.legacy.ops_per_sec);
      w.key("legacy_bytes_per_req").value(s.legacy.bytes_per_req);
      w.key("legacy_allocs_per_req").value(s.legacy.allocs_per_req);
      w.key("speedup").value(s.speedup());
      w.key("alloc_reduction").value(s.alloc_reduction());
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();

  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(w.take().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  g_table.print();
  const char* out = std::getenv("MCS_BENCH_PROTOCOL_OUT");
  write_baseline(out != nullptr ? out : "BENCH_protocol.json");
  std::printf(
      "Reading: B/req is heap bytes allocated per request (counting "
      "operator new), the capacity number for a gateway box; it is "
      "deterministic per build, unlike ops/sec. Legacy columns drive the "
      "original string-tree APIs over identical inputs with outputs "
      "asserted byte-equal, so the reduction column is pure allocator "
      "traffic removed by the zero-copy pipeline (DESIGN.md 12).\n");
  return 0;
}
