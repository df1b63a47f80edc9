#pragma once

// Heap-allocation counter for the microbenches that report allocator
// traffic (bench/kernel, bench/protocol). Linking alloc_counter.cpp into a
// binary replaces its global operator new/delete with counting versions;
// read alloc_count() before and after a measured region and diff.

#include <cstdint>

namespace mcs::bench {

struct AllocCount {
  std::uint64_t bytes = 0;
  std::uint64_t calls = 0;
};

// Totals since process start.
AllocCount alloc_count();

}  // namespace mcs::bench
