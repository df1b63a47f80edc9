// End-to-end benchmark of the Figure 2 request path: host cost per
// simulated transaction on three workloads, plus a traced run that splits
// that cost by layer. README.md in this directory explains the workloads,
// the metrics and what each layer metric should move.
//
//   e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The program is driven only through its public API: McSystem/EcSystem,
// install_all, LoadDriver, the obs tracer/registry/flight recorder, and a
// ClientDriver decorator owned by this file. Allocations are counted by this
// binary's global operator new and charged to the Figure 2 component of the
// ambient trace span.
//
// Every cell builds a fresh system and starts from a cold packet pool, so a
// cell's simulated outcome, event count and allocation count are functions
// of its seed alone. The benchmark checks that: each cell must reproduce
// the same digest and allocation count on every repeat, and the traced
// variants must reproduce the untraced digest (tracing cannot perturb the
// model). The last stdout line is the JSON result; a failed check sets
// "correct": false and the exit code to 1.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/apps.h"
#include "core/system.h"
#include "middleware/markup.h"
#include "net/packet.h"
#include "obs/flight_recorder.h"
#include "obs/kernel_profiler.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "workload/arrival.h"
#include "workload/driver.h"
#include "workload/session.h"

// ---------------------------------------------------------------------------
// Allocation ledger: this binary's operator new. One slot per obs::Component
// (the component of the ambient span), one for work outside any span, and
// one for the benchmark's own bookkeeping inside a traced cell, which is
// excluded from every reported figure. The benchmark is single-threaded.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kUnattributedSlot = mcs::obs::kComponentCount;
constexpr std::size_t kBenchSlot = mcs::obs::kComponentCount + 1;
constexpr std::size_t kLedgerSlots = mcs::obs::kComponentCount + 2;

struct AllocLedger {
  std::array<std::uint64_t, kLedgerSlots> calls{};
  std::array<std::uint64_t, kLedgerSlots> bytes{};

  std::uint64_t program_calls() const { return sum(calls); }
  std::uint64_t program_bytes() const { return sum(bytes); }

 private:
  static std::uint64_t sum(const std::array<std::uint64_t, kLedgerSlots>& a) {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kLedgerSlots; ++i) {
      if (i != kBenchSlot) total += a[i];
    }
    return total;
  }
};

AllocLedger g_ledger;
bool g_bench_bookkeeping = false;

// Packet delivery runs under the sender's span, so receive-side work is
// charged to the sending component; the ledger reports that as it is.
std::size_t ledger_slot() {
  if (g_bench_bookkeeping) return kBenchSlot;
  const mcs::obs::Tracer* tracer = mcs::obs::current_tracer();
  if (tracer == nullptr) return kUnattributedSlot;
  const mcs::obs::TraceContext ctx = mcs::obs::active_context();
  if (!ctx.sampled() || ctx.span_id == 0 ||
      ctx.span_id > tracer->spans().size()) {
    return kUnattributedSlot;
  }
  return static_cast<std::size_t>(tracer->spans()[ctx.span_id - 1].component);
}

void* counted_alloc(std::size_t n) {
  const std::size_t slot = ledger_slot();
  g_ledger.calls[slot] += 1;
  g_ledger.bytes[slot] += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  std::fputs("e2e bench: out of memory\n", stderr);
  std::abort();
}

// Marks the benchmark's own allocations inside a traced cell.
class Bookkeeping {
 public:
  Bookkeeping() : prev_{g_bench_bookkeeping} { g_bench_bookkeeping = true; }
  ~Bookkeeping() { g_bench_bookkeeping = prev_; }
  Bookkeeping(const Bookkeeping&) = delete;
  Bookkeeping& operator=(const Bookkeeping&) = delete;

 private:
  bool prev_;
};

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
using Clock = std::chrono::steady_clock;

std::int64_t elapsed_ns(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

// Host-speed reference. On a shared host the speed of this process drifts
// by tens of percent within minutes, and the drift moves the program and
// this kernel alike. The kernel is fixed benchmark code doing the same kind
// of work as the simulator (ordered-map nodes and string growth through the
// allocator), so a change to the program does not change it. Host times are
// reported at reference speed: each cell's time is scaled by
// kReferenceNs / (the kernel's time around that cell).
constexpr double kReferenceNs = 3e6;

std::int64_t reference_ns() {
  const Clock::time_point t0 = Clock::now();
  std::map<std::uint64_t, std::string> m;
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[x % 5000] += "abcdefghijklmnopqrstuvwxyz0123456789";
    if (m.size() > 3000) m.erase(m.begin());
  }
  std::size_t bytes = 0;
  for (const auto& [key, value] : m) bytes += value.size();
  if (bytes == 0) std::abort();  // keeps the work observable
  return elapsed_ns(t0);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

// Seed inventory (core/apps.cpp): 24 products x 100 units, 12 flights x 40
// seats. Past it every buy takes the short sold-out path, so a cell must
// stay inside it. Purchases and bookings rotate over products and flights
// by transaction sequence number, so demand spreads evenly. A cell's mean
// demand may use at most a share of either stock; the rest is headroom for
// arrival variance. Poisson cell counts stay within a few percent of the
// mean, but on-off cells of 30 s were seen to draw twice the mean arrivals
// and sell flights out, so bursty cells keep two thirds in reserve.
constexpr double kProductUnits = 24 * 100;
constexpr double kFlightSeats = 12 * 40;
constexpr double kMaxStockSharePoisson = 0.85;
constexpr double kMaxStockShareBursty = 0.35;
constexpr std::size_t kCommerceApp = 0;  // make_all_applications() order
constexpr std::size_t kTravelApp = 7;

struct WorkloadSpec {
  const char* name;
  bool mobile;  // McSystem (Figure 2) or EcSystem (Figure 1)
  station::BrowserMode middleware;
  bool wtls;
  int clients;
  workload::WorkloadMix (*mix)();
  workload::ArrivalKind arrivals;
  double rate_tps;
  double cell_seconds;    // simulated arrival window of one cell
  int cells_per_pass;     // fixed, so deterministic figures do not depend
                          // on how many passes fit in --seconds
};

// Why each workload exists is in README.md. mc-commerce-wap and ec-commerce
// share cell seeds, so they see the same arrival schedule.
const WorkloadSpec kWorkloads[] = {
    {"mc-commerce-wap", true, station::BrowserMode::kWap, true, 8,
     workload::commerce_mix, workload::ArrivalKind::kPoisson, 48.0, 20.0, 16},
    {"mc-consumer-imode", true, station::BrowserMode::kImode, false, 16,
     workload::consumer_mix, workload::ArrivalKind::kOnOff, 40.0, 15.0, 64},
    {"ec-commerce", false, station::BrowserMode::kWap, false, 8,
     workload::commerce_mix, workload::ArrivalKind::kPoisson, 48.0, 20.0, 16},
};

const sim::Time kTimeout = sim::Time::seconds(8.0);

// Expected share of the scarcer stock one cell consumes.
double stock_share(const WorkloadSpec& w) {
  const std::vector<double> weights = w.mix().app_weights;
  double total = 0.0;
  for (const double x : weights) total += x;
  const double txns = w.rate_tps * w.cell_seconds;
  const double buys = txns * weights[kCommerceApp] / total;
  const double books = txns * weights[kTravelApp] / total;
  return std::max(buys / kProductUnits, books / kFlightSeats);
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t cell_seed(std::uint64_t workload_seed, int cell) {
  return splitmix64(workload_seed * 1000003ull +
                    static_cast<std::uint64_t>(cell)) |
         1u;
}

// ---------------------------------------------------------------------------
// ClientDriver decorator (traced cells only): counts fetches and the host
// time spent inside fetch(), classifies failed fetches by application and
// HTTP status, and keeps each delivered page so the station's parse can be
// replayed outside the simulation.
// ---------------------------------------------------------------------------

struct FetchLedger {
  std::uint64_t fetches = 0;
  std::int64_t fetch_host_ns = 0;
  std::int64_t parse_host_ns = 0;  // replay of `pages`, after the cell
  std::size_t text_bytes = 0;
  int depth = 0;  // fetch() re-entered from an inline callback
  std::map<std::pair<std::string, int>, std::uint64_t> failures;
  std::vector<std::string> pages;
};

// "10.0.0.3:80/shop/buy?item=1" -> "shop"
std::string app_of(const std::string& url) {
  const std::size_t slash = url.find('/');
  if (slash == std::string::npos) return "?";
  const std::size_t end = url.find_first_of("/?", slash + 1);
  return url.substr(slash + 1, end == std::string::npos ? std::string::npos
                                                        : end - slash - 1);
}

// Replays the station's page parse on every delivered page, outside the
// simulation, and returns the host time. The extracted text lands in
// `text_bytes` so the work cannot be elided.
std::int64_t replay_parse(const std::vector<std::string>& pages,
                          std::size_t* text_bytes) {
  if (pages.empty()) return 0;
  const Clock::time_point t0 = Clock::now();
  for (const std::string& page : pages) {
    const middleware::MarkupDocument doc =
        middleware::parse_markup(page, middleware::MarkupKind::kWml);
    *text_bytes += doc.root.inner_text().size();
  }
  return elapsed_ns(t0);
}

class LedgerClient final : public core::ClientDriver {
 public:
  LedgerClient(core::ClientDriver& inner, FetchLedger& ledger, bool keep_pages)
      : inner_{inner}, ledger_{ledger}, keep_pages_{keep_pages} {}

  void fetch(const std::string& url,
             std::function<void(core::FetchResult)> cb) override {
    const Clock::time_point t0 = Clock::now();
    ++ledger_.depth;
    std::function<void(core::FetchResult)> wrapped;
    {
      Bookkeeping bk;
      ++ledger_.fetches;
      wrapped = [this, app = app_of(url),
                 cb = std::move(cb)](core::FetchResult r) {
        {
          Bookkeeping inner_bk;
          if (!r.ok || r.status != 200) ++ledger_.failures[{app, r.status}];
          if (keep_pages_) ledger_.pages.push_back(r.raw);
        }
        cb(std::move(r));
      };
    }
    inner_.fetch(url, std::move(wrapped));
    if (--ledger_.depth == 0) ledger_.fetch_host_ns += elapsed_ns(t0);
  }

 private:
  core::ClientDriver& inner_;
  FetchLedger& ledger_;
  bool keep_pages_;
};

// ---------------------------------------------------------------------------
// One cell
// ---------------------------------------------------------------------------

enum class Variant {
  kTimed,     // nothing installed: the end-to-end figures
  kTraced,    // tracer (every trace) + metrics registry + decorator
  kProfiled,  // kTraced plus a flight recorder with the kernel profiler
};

// The observers of traced cells, reused from cell to cell: once their
// storage has grown in the warm-up pass, tracing allocates nothing inside a
// cell, so a traced cell's allocation count equals the untraced one.
struct TraceKit {
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
};

struct TracedCell {
  obs::MetricsRegistry registry;
  obs::Tracer::Breakdown breakdown;
  std::uint64_t wtp_rtx = 0;
  std::uint64_t wtls_handshakes = 0;
  std::uint64_t payment_votes_no = 0;
  AllocLedger allocs;
  FetchLedger fetch;
};

struct CellResult {
  std::uint64_t seed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t error = 0;
  std::uint64_t timeout = 0;
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::int64_t setup_ns = 0;
  std::int64_t run_ns = 0;
  std::int64_t reference_ns = 0;  // kTimed only: mean of before and after
  sim::Histogram latency_ms;
  double queue_depth_max = 0.0;         // kProfiled only
  std::unique_ptr<TracedCell> traced;   // kTraced and kProfiled

  std::uint64_t failed() const { return error + timeout; }
};

std::uint64_t counter_value(const sim::StatsRegistry& reg, const char* name) {
  const auto it = reg.counters().find(name);
  return it == reg.counters().end() ? 0 : it->second.value();
}

core::McSystemConfig mc_config(const WorkloadSpec& w, std::uint64_t seed) {
  core::McSystemConfig cfg;
  cfg.middleware = w.middleware;
  cfg.wap_use_wtls = w.wtls;
  cfg.num_mobiles = w.clients;
  cfg.seed = seed;
  return cfg;
}

core::EcSystemConfig ec_config(const WorkloadSpec& w, std::uint64_t seed) {
  core::EcSystemConfig cfg;
  cfg.num_clients = w.clients;
  cfg.seed = seed;
  return cfg;
}

template <class System>
CellResult run_cell_on(const WorkloadSpec& w, std::uint64_t seed,
                       Variant variant, TraceKit* kit) {
  CellResult out;
  out.seed = seed;

  // Observers must be ambient before the system is built: components cache
  // their metric handles at construction.
  std::unique_ptr<TracedCell> traced;
  std::unique_ptr<obs::Install> tracer_install;
  std::unique_ptr<obs::MetricsInstall> metrics_install;
  if (variant != Variant::kTimed) {
    traced = std::make_unique<TracedCell>();
    kit->tracer.clear();
    kit->registry.clear_values();
    tracer_install = std::make_unique<obs::Install>(kit->tracer);
    metrics_install = std::make_unique<obs::MetricsInstall>(kit->registry);
  }
  net::reset_packet_pool();
  const Clock::time_point setup_start = Clock::now();
  sim::Simulator sim;
  System sys{sim, [&] {
               if constexpr (std::is_same_v<System, core::McSystem>) {
                 return mc_config(w, seed);
               } else {
                 return ec_config(w, seed);
               }
             }()};
  core::seed_demo_accounts(sys.bank(), 8, 1e12);
  auto apps = core::make_all_applications();
  core::install_all(apps, core::environment_for(sys));

  std::vector<core::ClientDriver*> clients = sys.client_drivers();
  std::vector<std::unique_ptr<LedgerClient>> decorated;
  if (traced != nullptr) {
    for (core::ClientDriver*& c : clients) {
      decorated.push_back(
          std::make_unique<LedgerClient>(*c, traced->fetch, w.mobile));
      c = decorated.back().get();
    }
  }
  workload::DriverConfig dcfg;
  dcfg.duration = sim::Time::seconds(w.cell_seconds);
  // Every arrival is measured. A cell's work includes its cold start, so
  // "per transaction" must count the transactions that cold start serves;
  // an on-off cell also opens with a burst, which a warm-up window would
  // drop from the count while keeping its work.
  dcfg.warmup = sim::Time::zero();
  dcfg.timeout = kTimeout;
  dcfg.seed = seed;
  workload::LoadDriver driver{sim,    std::move(clients), apps, w.mix(),
                              sys.web_url(""), dcfg};
  workload::ArrivalConfig arrivals;
  arrivals.kind = w.arrivals;
  arrivals.rate_tps = w.rate_tps;
  out.setup_ns = elapsed_ns(setup_start);

  std::unique_ptr<obs::FlightRecorder> recorder;
  if (variant == Variant::kProfiled) {
    obs::FlightRecorder::Config rcfg;
    rcfg.period = sim::Time::millis(10);
    rcfg.capacity = 8192;
    recorder = std::make_unique<obs::FlightRecorder>(rcfg);
    obs::attach_kernel_profiler(*recorder, sim);
    recorder->start(sim, dcfg.duration + dcfg.timeout);
  }

  const std::int64_t reference_before =
      variant == Variant::kTimed ? reference_ns() : 0;
  const AllocLedger before = g_ledger;
  const Clock::time_point run_start = Clock::now();
  workload::DriverReport report = driver.run_open_loop(arrivals);
  out.run_ns = elapsed_ns(run_start);
  const AllocLedger after = g_ledger;
  if (variant == Variant::kTimed) {
    out.reference_ns = (reference_before + reference_ns()) / 2;
  }

  out.attempted = report.attempted;
  out.ok = report.ok;
  out.error = report.error;
  out.timeout = report.timeout;
  out.trace_hash = sim.trace_hash();
  out.events = sim.executed();
  out.allocs = after.program_calls() - before.program_calls();
  out.alloc_bytes = after.program_bytes() - before.program_bytes();
  out.latency_ms = report.latency_ms;

  if (recorder != nullptr) {
    recorder->stop();
    for (std::size_t s = 0; s < recorder->series_count(); ++s) {
      if (recorder->series_name(s) != "kernel.pending") continue;
      for (std::size_t row = 0; row < recorder->rows(); ++row) {
        out.queue_depth_max =
            std::max(out.queue_depth_max, recorder->sample(row, s));
      }
    }
  }
  if (traced != nullptr) {
    Bookkeeping bk;
    for (std::size_t i = 0; i < kLedgerSlots; ++i) {
      traced->allocs.calls[i] = after.calls[i] - before.calls[i];
      traced->allocs.bytes[i] = after.bytes[i] - before.bytes[i];
    }
    traced->registry = kit->registry;
    traced->fetch.parse_host_ns =
        replay_parse(traced->fetch.pages, &traced->fetch.text_bytes);
    traced->fetch.pages = {};
    traced->breakdown = kit->tracer.breakdown();
    for (const obs::InstantEvent& e : kit->tracer.instants()) {
      if (std::strcmp(e.name, "wtp.rtx") == 0) ++traced->wtp_rtx;
    }
    traced->payment_votes_no = counter_value(sys.bank().stats(), "votes_no");
    if constexpr (std::is_same_v<System, core::McSystem>) {
      for (std::size_t i = 0; i < sys.mobile_count(); ++i) {
        traced->wtls_handshakes += counter_value(
            sys.mobile(i).browser->stats(), "wtls_handshakes");
      }
    }
    out.traced = std::move(traced);
  }
  return out;
}

CellResult run_cell(const WorkloadSpec& w, std::uint64_t seed,
                    Variant variant, TraceKit* kit = nullptr) {
  return w.mobile ? run_cell_on<core::McSystem>(w, seed, variant, kit)
                  : run_cell_on<core::EcSystem>(w, seed, variant, kit);
}

// Runs every cell of a pass once, unmeasured. The packet pool, node pools,
// arenas and scratch buffers keep their high-water storage for the life of
// the process, so until each has grown to the largest cell's needs, a cell's
// allocation count depends on which cells ran before it. After this pass it
// depends on the cell's seed alone.
void warm_up(const WorkloadSpec& w, std::uint64_t seed) {
  for (int i = 0; i < w.cells_per_pass; ++i) {
    run_cell(w, cell_seed(seed, i), Variant::kTimed);
  }
}

// Runs `run_one(pass, cell)` over a whole first pass, then over further
// passes until `seconds` have passed; returns the number of passes begun.
template <class F>
int run_passes(const WorkloadSpec& w, double seconds, F&& run_one) {
  const Clock::time_point start = Clock::now();
  const auto out_of_time = [&] { return elapsed_ns(start) >= seconds * 1e9; };
  int passes = 0;
  for (int pass = 0;; ++pass) {
    for (int i = 0; i < w.cells_per_pass; ++i) {
      if (pass > 0 && out_of_time()) return passes;
      if (i == 0) ++passes;
      run_one(pass, i);
    }
    if (out_of_time()) return passes;
  }
}

// ---------------------------------------------------------------------------
// Checks and summaries
// ---------------------------------------------------------------------------

struct Checker {
  bool ok = true;
  void require(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::fprintf(stderr, "e2e bench: CHECK FAILED: %s\n", what.c_str());
    }
  }
};

// The simulated outcome of a cell: the kernel's event-order hash plus the
// outcome counts and the latency sum.
std::uint64_t cell_digest(const CellResult& c) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  double sum = c.latency_ms.sum();
  std::uint64_t sum_bits = 0;
  std::memcpy(&sum_bits, &sum, sizeof sum_bits);
  for (const std::uint64_t v : {c.trace_hash, c.attempted, c.ok, c.error,
                                c.timeout, c.latency_ms.count(), sum_bits}) {
    mix(v);
  }
  return h;
}

std::uint64_t workload_digest(const std::vector<CellResult>& pass) {
  std::uint64_t h = 0;
  for (const CellResult& c : pass) h = splitmix64(h ^ cell_digest(c));
  return h;
}

void check_cell(Checker& check, const CellResult& c) {
  check.require(c.attempted == c.ok + c.error + c.timeout,
                "cell seed " + std::to_string(c.seed) +
                    ": attempted != ok + error + timeout");
  check.require(c.attempted > 0, "cell classified no transactions");
}

// A repeat of a cell (same seed, any variant) must reproduce it: the
// simulated outcome always; the event and allocation counts when the
// variant adds no work of its own.
void check_repeat(Checker& check, const CellResult& first,
                  const CellResult& again, const char* what,
                  bool same_work) {
  const std::string seed = " (cell seed " + std::to_string(first.seed) + ")";
  if (same_work) {
    check.require(cell_digest(first) == cell_digest(again),
                  std::string{what} + ": simulation digest differs" + seed);
    check.require(first.allocs == again.allocs &&
                      first.alloc_bytes == again.alloc_bytes,
                  std::string{what} + ": allocation count differs" + seed);
  } else {
    // The flight recorder adds its own tick events, so only the outcome
    // (not the event-order hash) can be compared.
    check.require(first.attempted == again.attempted &&
                      first.ok == again.ok && first.error == again.error &&
                      first.timeout == again.timeout &&
                      first.latency_ms.sum() == again.latency_ms.sum(),
                  std::string{what} + ": outcome differs" + seed);
  }
}

struct PassTotals {
  std::uint64_t attempted = 0, ok = 0, error = 0, timeout = 0;
  std::uint64_t events = 0, allocs = 0, alloc_bytes = 0;
  sim::Histogram latency_ms;
};

// The Histogram keeps at most 65 536 samples and merges approximately past
// that, so pooled percentiles are exact only below the cap; checked.
constexpr std::uint64_t kHistogramCap = 65536;

PassTotals totals(const std::vector<CellResult>& pass) {
  PassTotals t;
  for (const CellResult& c : pass) {
    t.attempted += c.attempted;
    t.ok += c.ok;
    t.error += c.error;
    t.timeout += c.timeout;
    t.events += c.events;
    t.allocs += c.allocs;
    t.alloc_bytes += c.alloc_bytes;
    t.latency_ms.merge(c.latency_ms);
  }
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// VmHWM, the high-water mark of this process image. getrusage's ru_maxrss
// is not used: across exec it keeps the peak of the process that forked
// this one, such as the Python launcher.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void print_header(const WorkloadSpec& w, std::uint64_t seed) {
  std::printf(
      "workload %s (seed %" PRIu64 "): %s, %d %s, %s arrivals at %.0f tps, "
      "%d cells x %.0f s per pass, mean demand %.0f%% of the scarcer stock\n",
      w.name, seed,
      !w.mobile ? "EC desktop HTTP over wired links"
      : w.middleware == station::BrowserMode::kWap
          ? (w.wtls ? "WAP+WTLS over 802.11b" : "WAP over 802.11b")
          : "i-mode over 802.11b",
      w.clients, w.mobile ? "mobiles" : "desktops",
      workload::arrival_kind_name(w.arrivals), w.rate_tps, w.cells_per_pass,
      w.cell_seconds, 100.0 * stock_share(w));
}

void print_outcomes(const PassTotals& t, std::uint64_t digest, int passes,
                    std::size_t cell_runs) {
  std::printf("  outcomes (first pass): attempted %" PRIu64 ", ok %" PRIu64
              ", error %" PRIu64 ", timeout %" PRIu64 "\n",
              t.attempted, t.ok, t.error, t.timeout);
  std::printf("  simulation digest %016" PRIx64
              " (identical on every repeat; %d passes, %zu cell runs)\n",
              digest, passes, cell_runs);
}

// ---------------------------------------------------------------------------
// Timed run (--trace 0): the end-to-end metrics
// ---------------------------------------------------------------------------

int run_timed(const WorkloadSpec& w, std::uint64_t seed, double seconds) {
  Checker check;
  print_header(w, seed);
  warm_up(w, seed);

  std::vector<CellResult> first;
  std::vector<double> host_us, setup_s, raw_host_us, reference_ms;
  std::uint64_t attempted = 0, failed = 0;
  const int passes = run_passes(w, seconds, [&](int pass, int i) {
    CellResult c = run_cell(w, cell_seed(seed, i), Variant::kTimed);
    check_cell(check, c);
    const double speed = kReferenceNs / static_cast<double>(c.reference_ns);
    raw_host_us.push_back(static_cast<double>(c.run_ns) / 1e3 /
                          static_cast<double>(c.attempted));
    host_us.push_back(raw_host_us.back() * speed);
    setup_s.push_back(static_cast<double>(c.setup_ns) / 1e9 * speed);
    reference_ms.push_back(static_cast<double>(c.reference_ns) / 1e6);
    attempted += c.attempted;
    failed += c.failed();
    if (pass == 0) {
      first.push_back(std::move(c));
    } else {
      check_repeat(check, first[static_cast<std::size_t>(i)], c, "repeat",
                   true);
    }
  });

  const PassTotals t = totals(first);
  const double txns = static_cast<double>(t.attempted);
  const std::uint64_t samples = t.latency_ms.count();
  check.require(samples <= kHistogramCap,
                "latency samples exceed the exact-percentile cap");
  check.require(samples >= 1000, "fewer than 1000 latency samples for p99");
  check.require(t.ok > 0, "no transaction succeeded");
  const double rss_mib = peak_rss_mib();
  check.require(rss_mib > 0.0, "cannot read the peak resident set");

  print_outcomes(t, workload_digest(first), passes, host_us.size());
  std::printf("  latency samples: %" PRIu64 " (exact pooled percentiles)\n",
              samples);
  std::printf("  host time as measured: %.3f us/txn; reference kernel %.3f ms "
              "(host times below are scaled to %.1f ms)\n",
              median(raw_host_us), median(reference_ms), kReferenceNs / 1e6);
  const std::vector<Metric> metrics = {
      {"host_us_per_txn", median(host_us), "us"},
      {"allocs_per_txn", static_cast<double>(t.allocs) / txns, "count"},
      {"alloc_kb_per_txn",
       static_cast<double>(t.alloc_bytes) / 1024.0 / txns, "KiB"},
      {"peak_rss_mb", rss_mib, "MiB"},
      {"setup_s", median(setup_s), "s"},
      {"sim_p50_ms", t.latency_ms.percentile(50.0), "sim_ms"},
      {"sim_p99_ms", t.latency_ms.percentile(99.0), "sim_ms"},
      {"ok_frac", static_cast<double>(t.ok) / txns, "ratio"},
  };
  print_metrics(metrics);
  std::printf("  %-40s %16.6g %s\n", "failed_frac (= 1 - ok_frac)",
              static_cast<double>(t.error + t.timeout) / txns, "ratio");
  print_result(check.ok, attempted, failed, metrics);
  return check.ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1): the per-layer metrics
// ---------------------------------------------------------------------------

// Ledger slot -> reported layer (module) name.
const char* ledger_layer(std::size_t slot) {
  if (slot == kUnattributedSlot) return "unattributed";
  switch (static_cast<obs::Component>(slot)) {
    case obs::Component::kClient: return "workload";
    case obs::Component::kApplication: return "core";
    case obs::Component::kStation: return "station";
    case obs::Component::kWireless: return "wireless";
    case obs::Component::kMiddleware: return "middleware";
    case obs::Component::kMobileIp: return "mobileip";
    case obs::Component::kTransport: return "transport";
    case obs::Component::kWired: return "net";
    case obs::Component::kHostWeb: return "host_web";
    case obs::Component::kHostDb: return "host_db";
  }
  return "?";
}

int run_traced(const WorkloadSpec& w, std::uint64_t seed, double seconds) {
  Checker check;
  print_header(w, seed);
  // The warm-up pass (see warm_up) is also the profiled pass. It runs
  // traced, so it grows the tracer's storage as well as every pool. The
  // flight recorder's tick events change the kernel's event order, so its
  // cells are compared with the untraced ones by outcome only.
  TraceKit kit;
  std::vector<CellResult> profiled;
  double queue_depth_max = 0.0;
  for (int i = 0; i < w.cells_per_pass; ++i) {
    profiled.push_back(
        run_cell(w, cell_seed(seed, i), Variant::kProfiled, &kit));
    profiled.back().traced.reset();
    queue_depth_max =
        std::max(queue_depth_max, profiled.back().queue_depth_max);
  }

  std::vector<CellResult> untraced, traced;
  std::vector<double> overhead;
  std::uint64_t attempted = 0, failed = 0;
  const int passes = run_passes(w, seconds, [&](int pass, int i) {
    const std::uint64_t s = cell_seed(seed, i);
    const std::size_t k = static_cast<std::size_t>(i);
    CellResult a = run_cell(w, s, Variant::kTimed);
    CellResult b = run_cell(w, s, Variant::kTraced, &kit);
    check_cell(check, a);
    check_cell(check, b);
    check_repeat(check, a, b, "traced vs untraced", true);
    overhead.push_back(static_cast<double>(b.run_ns) /
                           static_cast<double>(a.run_ns) -
                       1.0);
    attempted += a.attempted + b.attempted;
    failed += a.failed() + b.failed();
    if (pass == 0) {
      check_repeat(check, a, profiled[k], "profiled vs untraced", false);
      untraced.push_back(std::move(a));
      traced.push_back(std::move(b));
    } else {
      check_repeat(check, untraced[k], a, "repeat", true);
      check_repeat(check, traced[k], b, "traced repeat", true);
    }
  });

  // Pool the first pass's traced cells.
  const PassTotals t = totals(untraced);
  const double txns = static_cast<double>(t.attempted);
  obs::MetricsRegistry reg;
  obs::Tracer::Breakdown bd;
  AllocLedger ledger;
  std::uint64_t wtp_rtx = 0, wtls = 0, votes_no = 0, fetches = 0;
  std::int64_t fetch_ns = 0, parse_ns = 0;
  std::map<std::pair<std::string, int>, std::uint64_t> failures;
  for (const CellResult& c : traced) {
    const TracedCell& tc = *c.traced;
    reg.merge(tc.registry);
    bd.unattributed_us += tc.breakdown.unattributed_us;
    for (std::size_t b = 0; b < obs::kBucketCount; ++b) {
      bd.bucket_us[b] += tc.breakdown.bucket_us[b];
    }
    for (std::size_t i = 0; i < kLedgerSlots; ++i) {
      ledger.calls[i] += tc.allocs.calls[i];
      ledger.bytes[i] += tc.allocs.bytes[i];
    }
    wtp_rtx += tc.wtp_rtx;
    wtls += tc.wtls_handshakes;
    votes_no += tc.payment_votes_no;
    fetches += tc.fetch.fetches;
    fetch_ns += tc.fetch.fetch_host_ns;
    parse_ns += tc.fetch.parse_host_ns;
    for (const auto& [key, n] : tc.fetch.failures) failures[key] += n;
  }

  auto counter = [&reg](const char* name) {
    const auto it = reg.counters().find(name);
    return it == reg.counters().end() ? 0.0
                                      : static_cast<double>(it->second.value());
  };
  auto high_water = [&reg](const char* name) {
    const auto it = reg.gauges().find(name);
    return it == reg.gauges().end() ? 0.0 : it->second.high_water();
  };
  auto hist_p50 = [&reg](const char* name) {
    const auto it = reg.histograms().find(name);
    return it == reg.histograms().end() ? 0.0 : it->second.percentile(50.0);
  };
  auto per_txn = [txns](double v) { return v / txns; };

  std::vector<Metric> m;
  m.push_back({"sim.events_per_txn", per_txn(static_cast<double>(t.events)),
               "count"});
  m.push_back({"sim.queue_depth_max", queue_depth_max, "count"});
  for (std::size_t slot = 0; slot < kLedgerSlots; ++slot) {
    if (slot == kBenchSlot) continue;
    const std::string layer = ledger_layer(slot);
    m.push_back({"alloc." + layer + ".per_txn",
                 per_txn(static_cast<double>(ledger.calls[slot])), "count"});
    m.push_back({"alloc." + layer + ".kb_per_txn",
                 per_txn(static_cast<double>(ledger.bytes[slot]) / 1024.0),
                 "KiB"});
  }
  const double browses = counter("station.browse");
  m.push_back({"station.browse_per_txn", per_txn(browses), "count"});
  m.push_back({"station.cache_hit_ratio",
               browses > 0.0 ? counter("station.cache_hits") / browses : 0.0,
               "ratio"});
  m.push_back({"station.parse_us_per_txn",
               per_txn(static_cast<double>(parse_ns) / 1e3), "us"});
  m.push_back({"middleware.translations_per_txn",
               per_txn(counter("middleware.translations")), "count"});
  m.push_back({"middleware.air_bytes_per_txn",
               per_txn(counter("middleware.air_bytes")), "bytes"});
  m.push_back({"middleware.wtp_rtx_per_txn",
               per_txn(static_cast<double>(wtp_rtx)), "count"});
  m.push_back({"security.wtls_handshakes_per_txn",
               per_txn(static_cast<double>(wtls)), "count"});
  m.push_back({"wireless.frames_per_txn", per_txn(counter("wireless.frames")),
               "count"});
  m.push_back({"wireless.bytes_per_txn", per_txn(counter("wireless.tx_bytes")),
               "bytes"});
  m.push_back({"wireless.drops", counter("wireless.drops"), "count"});
  m.push_back({"wireless.queued_bytes_max",
               high_water("wireless.queued_bytes"), "bytes"});
  m.push_back({"net.packets_per_txn", per_txn(counter("wired.tx_packets")),
               "count"});
  m.push_back({"net.bytes_per_txn", per_txn(counter("wired.tx_bytes")),
               "bytes"});
  m.push_back({"net.drops", counter("wired.drops"), "count"});
  m.push_back({"net.queued_bytes_max", high_water("wired.queued_bytes"),
               "bytes"});
  m.push_back({"transport.segments_per_txn",
               per_txn(counter("transport.tcp.segments")), "count"});
  m.push_back({"transport.rtx_per_txn", per_txn(counter("transport.tcp.rtx")),
               "count"});
  m.push_back({"transport.timeouts", counter("transport.tcp.timeouts"),
               "count"});
  m.push_back({"host.http_requests_per_txn",
               per_txn(counter("host.http.requests")), "count"});
  m.push_back({"host.db_requests_per_txn",
               per_txn(counter("host.db.requests")), "count"});
  m.push_back({"host.db_fsyncs_per_txn", per_txn(counter("host.db.fsyncs")),
               "count"});
  m.push_back({"host.db_wal_flush_us_p50", hist_p50("host.db.wal_flush_us"),
               "sim_us"});
  m.push_back({"core.fetches_per_txn", per_txn(static_cast<double>(fetches)),
               "count"});
  m.push_back({"core.fetch_host_us",
               per_txn(static_cast<double>(fetch_ns) / 1e3), "us"});
  m.push_back({"core.payment_votes_no", static_cast<double>(votes_no),
               "count"});
  m.push_back({"core.app_sim_us_p50", hist_p50("application.latency_us"),
               "sim_us"});
  m.push_back({"mobileip.handoffs", counter("mobileip.handoffs"), "count"});
  for (std::size_t b = 0; b < obs::kBucketCount; ++b) {
    m.push_back({std::string{"sim_time."} + obs::bucket_name(b) +
                     ".self_ms_per_txn",
                 per_txn(bd.bucket_us[b] / 1e3), "sim_ms"});
  }
  m.push_back({"sim_time.unattributed.self_ms_per_txn",
               per_txn(bd.unattributed_us / 1e3), "sim_ms"});
  m.push_back({"obs.trace_overhead_frac", median(overhead), "ratio"});

  // Layers a workload bypasses must read zero; the layers it exists to
  // exercise must not.
  auto value = [&m](const char* name) {
    for (const Metric& x : m) {
      if (x.name == name) return x.value;
    }
    return 0.0;
  };
  const char* mc_only[] = {"station.browse_per_txn",
                           "middleware.translations_per_txn",
                           "wireless.frames_per_txn",
                           "security.wtls_handshakes_per_txn",
                           "alloc.station.per_txn",
                           "alloc.middleware.per_txn"};
  if (!w.mobile) {
    for (const char* name : mc_only) {
      check.require(value(name) == 0.0,
                    std::string{name} + " is nonzero on the EC baseline");
    }
  } else {
    check.require(value("station.browse_per_txn") > 0.0 &&
                      value("wireless.frames_per_txn") > 0.0,
                  "no station or radio work on an MC workload");
    if (w.wtls) {
      check.require(value("security.wtls_handshakes_per_txn") > 0.0,
                    "WTLS enabled but no handshake ran");
    }
  }

  print_outcomes(t, workload_digest(untraced), passes, overhead.size());
  std::printf("  traced digest %016" PRIx64
              " (must equal the untraced digest)\n",
              workload_digest(traced));
  std::printf("  failed fetches by application/status below; "
              "transaction timeouts: %" PRIu64 "\n",
              t.timeout);
  for (const auto& [key, n] : failures) {
    std::printf("    /%s status %d: %" PRIu64 "\n", key.first.c_str(),
                key.second, n);
  }
  std::printf("  mobileip: unmeasured (stations have fixed positions; "
              "handoffs %.0f)\n",
              value("mobileip.handoffs"));
  print_metrics(m);
  print_result(check.ok, attempted, failed, m);
  return check.ok ? 0 : 1;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "e2e: %s\nusage: e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               msg);
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) spec = &w;
      }
      if (spec == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || seconds <= 0.0) usage("bad --seconds");
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      usage("unknown flag");
    }
  }
  if (argc % 2 != 1 || spec == nullptr || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    usage("missing or malformed arguments");
  }
  if (stock_share(*spec) > (spec->arrivals == workload::ArrivalKind::kPoisson
                                ? kMaxStockSharePoisson
                                : kMaxStockShareBursty)) {
    usage("workload cell would exhaust the seed inventory");
  }
  return trace == 1 ? run_traced(*spec, seed, seconds)
                    : run_timed(*spec, seed, seconds);
}
