// Protocol-pipeline microbenchmark: per-codec ops/sec and — the number the
// zero-copy pipeline (DESIGN.md §12) is built around — heap bytes and
// allocations per request, measured by the counting operator new in
// bench/alloc_counter.cpp. Before any timing, each workload checks once
// that its output is byte-equal to the library's tree pipeline (the
// reference oracle the translate tests also use), so the counts always
// describe correct output:
//
//   http_format       HttpRequest/HttpResponse::serialize_to() into a
//                     reused buffer (checked against serialize()).
//   wap_request_path  The full gateway translation a WAP request pays:
//                     the fused translate_html() writing WML text and
//                     WBXML from a recycled arena (checked against
//                     parse_markup + html_to_wml + adapt_document +
//                     serialize + wbxml_encode).
//   station_page      The handset and client half of the same page: a
//                     WBXML deck in, render metrics and application text
//                     out, via wbxml_decode_to + one summarize_page pass
//                     over reused outputs (checked against wbxml_decode +
//                     parse_markup + inner_text).
//   json_stats_export StatsRegistry::to_json through JsonWriter.
//
// Bytes/req and allocs/req are deterministic (allocator traffic does not
// depend on machine load) and measured after a warm-up, so they are the
// same at every scale; tools/check_microbench.py ratchets them against the
// committed BENCH_protocol.json. Output: $MCS_BENCH_PROTOCOL_OUT or
// ./BENCH_protocol.json; MCS_BENCH_SMOKE=1 shrinks iteration counts to a
// machinery check.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "alloc_counter.h"
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
  req.set_path("/catalog/item?id=42&session=9f3a");
  req.set_header("Host", "shop.example.net");
  req.set_header("User-Agent", "MCS-MicroBrowser/1.0 (WAP 1.2)");
  req.set_header("Accept", "text/vnd.wap.wml, application/vnd.wap.wbxml");
  req.set_header("Cookie", "sid=77aa12bc9;lang=en");
  return req;
}

host::HttpResponse make_response(std::string body) {
  host::HttpResponse resp;
  resp.status = 200;
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
  const bench::AllocCount a0 = bench::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) op();
  const auto t1 = std::chrono::steady_clock::now();
  const bench::AllocCount a1 = bench::alloc_count();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  RunResult out;
  out.ops = iters;
  out.ops_per_sec = secs > 0.0 ? static_cast<double>(iters) / secs : 0.0;
  out.bytes_per_req = static_cast<double>(a1.bytes - a0.bytes) / iters;
  out.allocs_per_req = static_cast<double>(a1.calls - a0.calls) / iters;
  return out;
}

struct WorkloadScore {
  const char* name;
  RunResult run;
};

std::vector<WorkloadScore> g_scores;

bench::TablePrinter g_table{
    "Protocol codecs -- ops/sec and heap bytes per request",
    {"workload", "ops/s", "B/req", "allocs/req"}};

// Best-of-N reps for the timing (shared box: the fastest rep is the closest
// to unloaded-machine truth); bytes/req and allocs/req are identical across
// reps by construction.
template <class Fn>
void run_scored(const char* name, benchmark::State& state,
                std::uint64_t iters, Fn&& op) {
  const int reps = smoke_mode() ? 1 : 3;
  WorkloadScore score{name, {}};
  for (auto _ : state) {
    for (int rep = 0; rep < reps; ++rep) {
      const RunResult r = run_measured(iters, op);
      if (r.ops_per_sec > score.run.ops_per_sec) score.run = r;
    }
  }
  state.counters["ops_per_sec"] = score.run.ops_per_sec;
  state.counters["bytes_per_req"] = score.run.bytes_per_req;
  g_table.add_row({score.name, bench::fmt("%.0f", score.run.ops_per_sec),
                   bench::fmt("%.1f", score.run.bytes_per_req),
                   bench::fmt("%.2f", score.run.allocs_per_req)});
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
  // produce the exact serialize() wire bytes.
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
  run_scored("http_format", state, iters, [&] {
    buf.clear();
    sim::BufWriter w{buf};
    req.serialize_to(w);
    resp.serialize_to(w);
    sink += buf.size();
    benchmark::DoNotOptimize(sink);
  });
}

void BM_WapRequestPath(benchmark::State& state) {
  const sim::Slice html{kCatalogHtml};
  middleware::AdaptationConfig cfg;

  // Equivalence before timing (the translate test suite proves this over a
  // whole corpus; this is the tripwire that the bench measures correct
  // output).
  std::string text, wbxml;
  middleware::translate_html(html, middleware::MarkupKind::kWml, cfg, text,
                             &wbxml);
  {
    const middleware::MarkupDocument doc =
        parse_markup(std::string{html}, middleware::MarkupKind::kHtml);
    const middleware::AdaptationResult adapted =
        adapt_document(html_to_wml(doc), cfg);
    MCS_ASSERT(text == adapted.document.serialize() &&
                   wbxml == wbxml_encode(adapted.document),
               "fused translate_html diverged from the tree pipeline");
  }

  const std::uint64_t iters = smoke_mode() ? 200 : 20'000;
  std::uint64_t sink = 0;
  run_scored("wap_request_path", state, iters, [&] {
    middleware::translate_html(html, middleware::MarkupKind::kWml, cfg, text,
                               &wbxml);
    sink += text.size() + wbxml.size();
    benchmark::DoNotOptimize(sink);
  });
}

void BM_StationPage(benchmark::State& state) {
  // The deck the WAP gateway sends for the catalog page.
  std::string text, deck;
  middleware::AdaptationConfig cfg;
  middleware::translate_html(sim::Slice{kCatalogHtml},
                             middleware::MarkupKind::kWml, cfg, text, &deck);

  std::string wml;
  middleware::PageSummary summary;
  auto once = [&] {
    const bool ok = middleware::wbxml_decode_to(deck, wml);
    MCS_ASSERT(ok, "the gateway's deck must decode");
    middleware::summarize_page(wml, summary);
  };

  // Equivalence before timing: the tree pipeline's decode, render parse
  // and text parse must agree with the one-pass summary.
  once();
  {
    const auto doc = middleware::wbxml_decode(deck);
    MCS_ASSERT(doc.has_value(), "the gateway's deck must decode");
    const std::string tree_wml = doc->serialize();
    const middleware::MarkupDocument rendered =
        parse_markup(tree_wml, middleware::MarkupKind::kWml);
    MCS_ASSERT(wml == tree_wml && wml == text &&
                   summary.elements == rendered.root.element_count() &&
                   summary.title == rendered.title() &&
                   summary.text == rendered.root.inner_text(),
               "the one-pass station page diverged from the tree pipeline");
  }

  const std::uint64_t iters = smoke_mode() ? 200 : 20'000;
  std::uint64_t sink = 0;
  run_scored("station_page", state, iters, [&] {
    once();
    sink += wml.size() + summary.text.size();
    benchmark::DoNotOptimize(sink);
  });
}

void BM_JsonStatsExport(benchmark::State& state) {
  const sim::StatsRegistry reg = make_registry();

  const std::uint64_t iters = smoke_mode() ? 500 : 50'000;
  std::uint64_t sink = 0;
  run_scored("json_stats_export", state, iters, [&] {
    sim::JsonWriter w;
    reg.to_json(w);
    sink += w.str().size();
    benchmark::DoNotOptimize(sink);
  });
}

BENCHMARK(BM_HttpFormat)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WapRequestPath)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StationPage)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_JsonStatsExport)->Iterations(1)->Unit(benchmark::kMillisecond);

void write_baseline(const std::string& path) {
  sim::JsonWriter w;
  w.begin_object();
  w.key("bench").value("protocol");
  w.key("schema_version").value(2);
  w.key("smoke").value(smoke_mode());
  w.key("workloads").begin_object();
  for (const WorkloadScore& s : g_scores) {
    w.key(s.name).begin_object();
    w.key("ops_per_sec").value(s.run.ops_per_sec);
    w.key("bytes_per_req").value(s.run.bytes_per_req);
    w.key("allocs_per_req").value(s.run.allocs_per_req);
    w.key("ops").value(s.run.ops);
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
      "operator new), the capacity number for a gateway box; like "
      "allocs/req it is counted after a warm-up and is deterministic per "
      "build, unlike ops/sec. Every workload's output is checked "
      "byte-equal to the tree pipeline before timing (DESIGN.md 12).\n");
  return 0;
}
