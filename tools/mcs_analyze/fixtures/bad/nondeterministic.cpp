// Fixture: every construct below must be reported by the determinism family
// (rng, wallclock, uninit-pod, unordered-sink), 9 findings in all; selftest
// pins the count per check, so a regression that stops catching any class
// of violation fails it.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <unordered_map>

struct Scheduler {
  void after(int delay_ms, void (*fn)()) { (void)delay_ms, (void)fn; }
};

struct UninitializedMembers {
  int count;          // uninit-pod
  double weight;      // uninit-pod
  bool ready = true;  // fine: initialized
};

inline int banned_randomness() {
  std::random_device rd;       // rng
  std::mt19937_64 engine{1};   // rng
  return rand() + static_cast<int>(rd() + engine());  // rng
}

inline long banned_wall_clock() {
  auto t0 = std::chrono::steady_clock::now();  // wallclock
  (void)t0;
  return time(nullptr) + clock();  // wallclock x2
}

inline void banned_unordered_scheduling(Scheduler& sched) {
  std::unordered_map<int, int> sessions;
  for (auto& [id, state] : sessions) {  // unordered-sink
    (void)id, (void)state;
    sched.after(10, nullptr);
  }
}
