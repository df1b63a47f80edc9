// Event-kernel microbenchmark: raw scheduler ops/sec (schedule + fire +
// cancel) of the indexed 4-ary-heap sim::Simulator, plus the exact counters
// that pin its behaviour and its allocator traffic. Three workloads isolate
// the three costs a kernel pays:
//
//   schedule_fire            16B callbacks, no cancels: pure heap structure.
//   schedule_cancel_fire     timer churn: every fire schedules two and
//                            half of the pending timers get cancelled,
//                            like TCP retransmit timers that mostly never
//                            expire (indexed removal, no tombstones).
//   schedule_fire_capture48  48B captures: at InlineFunction's inline
//                            limit, so the kernel must store them without
//                            a heap allocation per event.
//
// Per workload the JSON records ops/sec from a fresh kernel, the exact
// `ops` and `trace_hash` of that run (the hash the seed kernel produced on
// the same schedule; a kernel that replays differently fails), and
// `allocs_per_op` from a second pass over the kernel the first pass warmed.
// Output: $MCS_BENCH_KERNEL_OUT or ./BENCH_kernel.json; the committed
// repo-root BENCH_kernel.json is this bench's output at the defaults, and
// tools/check_microbench.py gates on it. MCS_BENCH_SMOKE=1 shrinks the
// event counts to a machinery check.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "bench_util.h"
#include "sim/json.h"
#include "sim/simulator.h"

namespace {

using namespace mcs;

bool smoke_mode() { return std::getenv("MCS_BENCH_SMOKE") != nullptr; }

std::uint64_t total_events() {
  return smoke_mode() ? (1ull << 15) : (1ull << 21);
}
constexpr int kInitialPending = 1024;

// xorshift64: cheap enough to not drown out kernel cost, deterministic so
// every run replays the identical schedule/cancel pattern.
inline std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

struct WorkloadState {
  std::uint64_t rng = 0x2545f4914f6cdd1dull;
  std::uint64_t scheduled = 0;
  std::uint64_t cancels = 0;
  std::uint64_t budget = 0;
  std::uint64_t ids[256] = {};  // recent event ids; cancel victims
  std::uint32_t head = 0;
};

// 16-byte body: inline in any callback buffer, so schedule_fire measures
// the heap structure alone.
struct RingBody {
  sim::Simulator* sim;
  WorkloadState* st;

  void operator()() const {
    WorkloadState& s = *st;
    if (s.scheduled >= s.budget) return;
    ++s.scheduled;
    const std::uint64_t r = next_rand(s.rng);
    sim->after(sim::Time::nanos(static_cast<std::int64_t>(r & 1023)), *this);
  }
};

// Same ring plus timer churn: two schedules per fire, and a pseudo-random
// recent timer cancelled half the time (possibly already fired — a no-op,
// exactly like a retransmit timer beaten by its ACK).
struct ChurnBody {
  sim::Simulator* sim;
  WorkloadState* st;

  void operator()() const {
    WorkloadState& s = *st;
    for (int k = 0; k < 2 && s.scheduled < s.budget; ++k) {
      ++s.scheduled;
      const std::uint64_t r = next_rand(s.rng);
      s.ids[s.head++ & 255u] =
          sim->after(sim::Time::nanos(static_cast<std::int64_t>(r & 2047)),
                     *this);
    }
    const std::uint64_t r = next_rand(s.rng);
    if ((r & 1u) != 0u) {
      ++s.cancels;
      sim->cancel(s.ids[(r >> 1) & 255u]);
    }
  }
};

// 48-byte body: over std::function's inline buffer, at InlineFunction's
// inline limit — zero allocations per event.
struct FatBody {
  sim::Simulator* sim;
  WorkloadState* st;
  unsigned char payload[32] = {};

  void operator()() const {
    WorkloadState& s = *st;
    if (s.scheduled >= s.budget) return;
    ++s.scheduled;
    const std::uint64_t r = next_rand(s.rng);
    sim->after(sim::Time::nanos(static_cast<std::int64_t>(r & 1023)), *this);
  }
};

// One pass of a workload: kInitialPending timers in the first microsecond,
// then run until the budget is spent and the queue drains. Returns the
// kernel ops it took (schedules + fires + cancels).
template <class Body>
std::uint64_t run_pass(sim::Simulator& sim, std::uint64_t budget) {
  WorkloadState st;
  st.budget = budget;
  const std::uint64_t executed0 = sim.executed();
  const Body body{&sim, &st};
  for (int i = 0; i < kInitialPending; ++i) {
    ++st.scheduled;
    const std::uint64_t r = next_rand(st.rng);
    sim.after(sim::Time::nanos(static_cast<std::int64_t>(r & 1023)), body);
  }
  sim.run();
  return st.scheduled + (sim.executed() - executed0) + st.cancels;
}

struct RunResult {
  double ops_per_sec = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t trace_hash = 0;
  double allocs_per_op = 0.0;
};

template <class Body>
RunResult run_workload(std::uint64_t budget) {
  sim::Simulator sim;
  RunResult out;
  const auto t0 = std::chrono::steady_clock::now();
  out.ops = run_pass<Body>(sim, budget);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  out.ops_per_sec = secs > 0.0 ? static_cast<double>(out.ops) / secs : 0.0;
  out.trace_hash = sim.trace_hash();
  // The same pass again on the kernel the first one warmed: its heap and
  // slot table already hold the workload's peak, so whatever this pass
  // allocates is a per-event cost (a callback boxed on the heap, a node
  // per schedule), and the rate is the same at every scale.
  const std::uint64_t calls0 = bench::alloc_count().calls;
  const std::uint64_t warm_ops = run_pass<Body>(sim, budget);
  out.allocs_per_op =
      static_cast<double>(bench::alloc_count().calls - calls0) /
      static_cast<double>(warm_ops);
  return out;
}

struct WorkloadScore {
  const char* name;
  RunResult run;
};

std::vector<WorkloadScore> g_scores;

bench::TablePrinter g_table{
    "Event kernel -- scheduler ops/sec (schedule + fire + cancel)",
    {"workload", "ops/s", "ops", "allocs/op", "trace hash"}};

template <class Body>
void run_scored(const char* name, benchmark::State& state) {
  // Best-of-N for the timing: this box is shared, and the fastest rep is
  // the closest to unloaded-machine truth. The counters are identical
  // across reps by construction.
  const int reps = smoke_mode() ? 1 : 3;
  WorkloadScore score{name, {}};
  for (auto _ : state) {
    for (int rep = 0; rep < reps; ++rep) {
      const RunResult r = run_workload<Body>(total_events());
      if (r.ops_per_sec > score.run.ops_per_sec) score.run = r;
      benchmark::DoNotOptimize(r.ops);
    }
  }
  state.counters["ops_per_sec"] = score.run.ops_per_sec;
  state.counters["allocs_per_op"] = score.run.allocs_per_op;
  g_table.add_row({score.name, bench::fmt("%.0f", score.run.ops_per_sec),
                   std::to_string(score.run.ops),
                   bench::fmt("%.4f", score.run.allocs_per_op),
                   std::to_string(score.run.trace_hash)});
  g_scores.push_back(score);
}

void BM_ScheduleFire(benchmark::State& state) {
  run_scored<RingBody>("schedule_fire", state);
}
void BM_ScheduleCancelFire(benchmark::State& state) {
  run_scored<ChurnBody>("schedule_cancel_fire", state);
}
void BM_ScheduleFireCapture48(benchmark::State& state) {
  run_scored<FatBody>("schedule_fire_capture48", state);
}
BENCHMARK(BM_ScheduleFire)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScheduleCancelFire)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScheduleFireCapture48)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void write_baseline(const std::string& path) {
  sim::JsonWriter w;
  w.begin_object();
  w.key("bench").value("kernel");
  w.key("schema_version").value(2);
  w.key("smoke").value(smoke_mode());
  w.key("total_events").value(total_events());
  w.key("workloads").begin_object();
  for (const WorkloadScore& s : g_scores) {
    w.key(s.name).begin_object();
    w.key("ops_per_sec").value(s.run.ops_per_sec);
    w.key("ops").value(s.run.ops);
    w.key("trace_hash").value(s.run.trace_hash);
    w.key("allocs_per_op").value(s.run.allocs_per_op);
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
  const char* out = std::getenv("MCS_BENCH_KERNEL_OUT");
  write_baseline(out != nullptr ? out : "BENCH_kernel.json");
  std::printf(
      "Reading: ops/sec counts schedules + fires + cancels through the "
      "kernel. schedule_fire isolates the heap structure, "
      "schedule_cancel_fire adds indexed-removal churn, and "
      "schedule_fire_capture48 adds 48-byte captures that InlineFunction "
      "stores inline. ops and trace hash are exact for the scale; "
      "allocs/op is counted on a warmed kernel and must stay 0.\n");
  return 0;
}
