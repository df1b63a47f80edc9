// Fixture: idiomatic deterministic simulation code that the determinism
// checks must accept, including the documented suppression escape hatch.
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

struct Scheduler {
  void after(int delay_ms, void (*fn)()) { (void)delay_ms, (void)fn; }
};

struct InitializedMembers {
  int count = 0;
  double weight = 1.0;
  std::uint64_t seq = 0;    // "rand" inside a comment is not a finding
  std::string name;         // non-scalar members need no initializer
  std::vector<int> values;  // "time(nullptr)" in a string is fine too
};

inline std::string not_actually_random() {
  // Words containing the banned identifiers must not match: operand, strand.
  std::string operand = "operand rand() time(NULL)";
  return operand;
}

// Lookups (not iteration) on unordered containers are deterministic.
inline int unordered_lookup_is_fine(
    const std::unordered_map<int, int>& sessions) {
  auto it = sessions.find(7);
  return it == sessions.end() ? 0 : it->second;
}

// Iterating an ordered container while scheduling is deterministic.
inline void ordered_iteration_schedules(Scheduler& sched,
                                        const std::map<int, int>& timers) {
  for (const auto& [id, deadline] : timers) {
    (void)id, (void)deadline;
    sched.after(1, nullptr);
  }
}

// The suppression comment downgrades a deliberate, order-insensitive use.
inline int suppressed_unordered_total(Scheduler& sched,
                                      std::unordered_map<int, int>& acc) {
  int total = 0;
  for (auto& [k, v] : acc) {  // mcs-analyze: allow(unordered-sink)
    total += v;
    sched.after(total, nullptr);
  }
  return total;
}
