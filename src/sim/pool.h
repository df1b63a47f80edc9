#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <vector>

#include "sim/contract.h"
#include "sim/threading.h"

namespace mcs::sim {

// Free-list building blocks for hot-path object recycling (see DESIGN.md §8).
// Both pools are thread_local-friendly by construction: every simulator
// instance is confined to one thread (the parallel sweep runner pins one
// simulation per task), so acquire/release never contend on a lock and the
// pools add no cross-thread ordering that could perturb replay.
//
// That confinement is the concurrency contract (DESIGN.md §9): RecyclingPool
// binds to the first thread that touches it and asserts every later
// acquire/release comes from the same thread; PoolAllocator's free lists are
// `static thread_local`, confined by the language itself. Neither carries an
// MCS_GUARDED_BY annotation because there is deliberately no lock — a pool
// reached from two threads is a bug the checker aborts on, not contention.

// Pool of fully-constructed T objects. acquire() pops a recycled object (or
// default-constructs one); release() pushes it back without running ~T, so
// internal buffers (e.g. a packet payload's string capacity) survive reuse.
// The caller owns resetting recycled objects to a fresh-equivalent state.
// Objects still in the pool are destroyed with the pool itself.
template <typename T>
class RecyclingPool {
 public:
  RecyclingPool() = default;
  RecyclingPool(const RecyclingPool&) = delete;
  RecyclingPool& operator=(const RecyclingPool&) = delete;
  ~RecyclingPool() {
    for (T* obj : free_) delete obj;
  }

  // Pops a recycled object, or default-constructs when the pool is dry.
  T* acquire() {
    confinement_.assert_confined("RecyclingPool::acquire() off-thread");
    if (free_.empty()) {
      ++fresh_;
      return new T();
    }
    ++reused_;
    T* obj = free_.back();
    free_.pop_back();
    return obj;
  }

  void release(T* obj) {
    confinement_.assert_confined("RecyclingPool::release() off-thread");
    free_.push_back(obj);
  }

  std::size_t free_count() const { return free_.size(); }
  std::uint64_t fresh_allocations() const { return fresh_; }
  std::uint64_t reuses() const { return reused_; }

  // Drops every pooled object and zeroes the counters. Pools are per-thread
  // process state, so occupancy series recorded by the flight recorder are
  // only run-deterministic if each measured run starts cold; bench/telemetry
  // calls this between in-process repetitions. Never needed for
  // correctness — recycled objects are reset on acquire.
  void clear() {
    confinement_.assert_confined("RecyclingPool::clear() off-thread");
    for (T* obj : free_) delete obj;
    free_.clear();
    fresh_ = 0;
    reused_ = 0;
  }

 private:
  std::vector<T*> free_;
  std::uint64_t fresh_ = 0;
  std::uint64_t reused_ = 0;
  ThreadConfinementChecker confinement_;
};

// Recycled T objects addressed by index, for per-request or per-frame state
// that callbacks reach through a small handle ([this, slot] fits every inline
// callback buffer). acquire() returns a recycled slot, or a new one;
// release() takes it back, with its buffers' capacity. Unlike RecyclingPool
// the pool owns every object it made, handed out or not, so state still in
// flight when its owner is destroyed is freed with it. References stay valid
// until release(). The caller resets a recycled object's state.
template <typename T>
class SlotPool {
 public:
  std::uint32_t acquire() {
    if (free_ == kNone) {
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_;
    free_ = slots_[slot].next_free;
    return slot;
  }

  void release(std::uint32_t slot) {
    MCS_ASSERT(slot < slots_.size(), "SlotPool::release() of a foreign slot");
    slots_[slot].next_free = free_;
    free_ = slot;
  }

  T& operator[](std::uint32_t slot) { return slots_[slot].value; }

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};
  struct Slot {
    T value;
    std::uint32_t next_free = kNone;
  };
  std::deque<Slot> slots_;  // stable addresses
  std::uint32_t free_ = kNone;
};

// Recycles the nodes of a node-based map (std::unordered_map, std::map):
// the caller extract()s a finished entry and parks it here, and insert()
// reuses a parked node, with the mapped value's buffers, for the next key.
// A map whose size cycles stops allocating once it has reached its
// high-water mark. The caller resets a reused value's state; its strings and
// vectors keep their capacity.
template <typename Map>
class NodeRecycler {
 public:
  using node_type = typename Map::node_type;

  // Insert `key`, which must be absent, and return its value: a parked
  // node's (state left as it was) or a value-initialized one.
  typename Map::mapped_type& insert(Map& map,
                                    const typename Map::key_type& key) {
    if (spare_.empty()) {
      auto [it, fresh] = map.try_emplace(key);
      MCS_ASSERT(fresh, "NodeRecycler::insert() of a key already present");
      return it->second;
    }
    node_type node = std::move(spare_.back());
    spare_.pop_back();
    node.key() = key;
    auto result = map.insert(std::move(node));
    MCS_ASSERT(result.inserted,
               "NodeRecycler::insert() of a key already present");
    return result.position->second;
  }

  void park(node_type&& node) { spare_.push_back(std::move(node)); }

 private:
  std::vector<node_type> spare_;
};

// Rebindable allocator backed by a per-type, per-thread free list of
// fixed-size chunks. Built for std::allocate_shared / shared_ptr control
// blocks: after warmup, allocating one is a pointer bump off the free list
// instead of a malloc. Chunks are returned to the releasing thread's list
// (safe either way: chunks are plain operator-new memory) and freed at
// thread exit.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}  // NOLINT

  T* allocate(std::size_t n) {
    if (n != 1) {
      return static_cast<T*>(::operator new(n * sizeof(T)));
    }
    ChunkList& list = chunks();
    if (list.head == nullptr) {
      return static_cast<T*>(::operator new(chunk_size()));
    }
    Chunk* c = list.head;
    list.head = c->next;
    return reinterpret_cast<T*>(c);
  }

  void deallocate(T* p, std::size_t n) {
    if (n != 1) {
      ::operator delete(p);
      return;
    }
    auto* c = reinterpret_cast<Chunk*>(p);
    ChunkList& list = chunks();
    c->next = list.head;
    list.head = c;
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
  friend bool operator!=(const PoolAllocator&, const PoolAllocator&) {
    return false;
  }

 private:
  struct Chunk {
    Chunk* next = nullptr;
  };

  static constexpr std::size_t chunk_size() {
    return sizeof(T) > sizeof(Chunk) ? sizeof(T) : sizeof(Chunk);
  }

  struct ChunkList {
    Chunk* head = nullptr;
    ~ChunkList() {
      while (head != nullptr) {
        Chunk* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  };

  static ChunkList& chunks() {
    static thread_local ChunkList list;
    return list;
  }
};

}  // namespace mcs::sim
