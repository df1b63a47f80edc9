#pragma once

// Zero-copy vocabulary for the per-request protocol hot path (DESIGN.md §12).
//
// Three tools, one contract:
//
//   Arena / ArenaScope / ArenaPool   per-transaction bump allocation. An
//       Arena hands out unsynchronized pointer-bump storage from recycled
//       chunks; reset() rewinds it wholesale, so a request's transient
//       strings cost one pointer bump each and zero frees. ArenaPool layers
//       RecyclingPool on top so per-request arenas keep their warmed-up
//       chunks across requests.
//
//   Slice (std::string_view)         the non-owning currency between codec
//       stages. Parsers hand out slices of the connection's receive buffer;
//       nothing owns twice.
//
//   BufWriter / cat / build / u64s   append-into-caller-owned-buffer
//       serialization. A BufWriter wraps a std::string the *caller* owns
//       (typically a member reused across requests), so serialize paths
//       amortize to zero allocations once capacity is warm.
//
// The contract that keeps mcs-analyze's hotpath-alloc check honest about
// this file (it exempts sim/arena.h, see DESIGN.md §12): every routine here
// either performs no heap allocation at all, writes into caller-reserved
// capacity that is reused across requests (amortized-zero), or — for the
// two explicit escape hatches `cat` and `build` — performs exactly one
// right-sized allocation for a string the caller must own. Anything that
// would allocate per call per request does not belong in this header; the
// protocol bench's bytes-allocated-per-request gate (BENCH_protocol.json)
// enforces the amortization claim end to end.

#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/contract.h"
#include "sim/pool.h"
#include "sim/threading.h"

// Manual AddressSanitizer poisoning (the dynamic oracle behind mcs-analyze's
// arena-escape check, DESIGN.md §13): under MCS_SANITIZE=address the arena
// poisons every byte it has taken back — reset(), scope rewind(), fresh
// chunks before first use — and unpoisons exactly the ranges it hands out.
// Any read through a stale Slice/pointer after the arena reclaimed it traps
// as use-after-poison instead of silently reading recycled bytes. Without
// ASan every hook compiles to nothing.
#if defined(__SANITIZE_ADDRESS__)
#define MCS_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MCS_ARENA_ASAN 1
#endif
#endif
#if defined(MCS_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace mcs::sim {

// True when arena memory is poisoned on reclaim (tests use this to skip
// death tests that need the oracle).
inline constexpr bool arena_poisoning_enabled() {
#if defined(MCS_ARENA_ASAN)
  return true;
#else
  return false;
#endif
}

namespace detail {
inline void arena_poison(const void* p, std::size_t n) {
#if defined(MCS_ARENA_ASAN)
  if (n != 0) __asan_poison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}
inline void arena_unpoison(const void* p, std::size_t n) {
#if defined(MCS_ARENA_ASAN)
  if (n != 0) __asan_unpoison_memory_region(p, n);
#else
  (void)p;
  (void)n;
#endif
}
}  // namespace detail

// Non-owning byte range: the currency between protocol pipeline stages.
using Slice = std::string_view;
// Writable view: the owner lends its bytes for an in-place rewrite (a WTLS
// record is decrypted where it landed). Valid for as long as a Slice of the
// same buffer would be.
using MutSlice = std::span<char>;
inline Slice as_slice(MutSlice s) { return Slice{s.data(), s.size()}; }

// ---------------------------------------------------------------------------
// Arena: chunked bump allocator, thread-confined like RecyclingPool.

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 16 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_{chunk_bytes} {
    MCS_ASSERT(chunk_bytes > 0, "Arena chunk size must be positive");
  }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() {
    // Hand the chunks back to operator delete[] unpoisoned so the teardown
    // itself never reads as a sanitizer hit.
    for (Chunk& c : chunks_) detail::arena_unpoison(c.data.get(), c.size);
  }

  // Aligned raw storage, valid until reset()/rewind() passes it.
  void* allocate(std::size_t n,
                 std::size_t align = alignof(std::max_align_t)) {
    confinement_.assert_confined("Arena::allocate() off-thread");
    MCS_ASSERT((align & (align - 1)) == 0,
               "Arena alignment must be a power of two");
    if (cur_ < chunks_.size()) {
      const std::size_t aligned = align_up(off_, align);
      if (aligned + n <= chunks_[cur_].size) {
        off_ = aligned + n;
        used_ = high_water_ + off_;
        char* p = chunks_[cur_].data.get() + aligned;
        detail::arena_unpoison(p, n);
        return p;
      }
    }
    grow(n + align);
    const std::size_t aligned = align_up(off_, align);
    MCS_INVARIANT(aligned + n <= chunks_[cur_].size,
                  "Arena grow() produced an undersized chunk");
    off_ = aligned + n;
    used_ = high_water_ + off_;
    char* p = chunks_[cur_].data.get() + aligned;
    detail::arena_unpoison(p, n);
    return p;
  }

  char* alloc_chars(std::size_t n) {
    return static_cast<char*>(allocate(n, 1));
  }

  // Arena-owned copy of `s`: the "owning is unavoidable" escape for slices
  // that must outlive the buffer they point into (freed wholesale at reset).
  Slice copy(Slice s) {
    if (s.empty()) return {};
    char* dst = alloc_chars(s.size());
    std::memcpy(dst, s.data(), s.size());
    return Slice{dst, s.size()};
  }

  // Rewind to empty. Chunks are kept: a warmed arena never re-allocates.
  // Under ASan every retained byte is poisoned, so any Slice or pointer
  // that escaped the request traps on its next use.
  void reset() {
    confinement_.assert_confined("Arena::reset() off-thread");
    for (Chunk& c : chunks_) detail::arena_poison(c.data.get(), c.size);
    cur_ = 0;
    off_ = 0;
    used_ = 0;
    high_water_ = 0;
  }

  // Nested scopes: mark() freezes the bump position, rewind() releases
  // everything allocated after it (LIFO only — see ArenaScope).
  struct Marker {
    std::size_t cur = 0;
    std::size_t off = 0;
    std::size_t used = 0;
    std::size_t high_water = 0;
  };
  Marker mark() const { return Marker{cur_, off_, used_, high_water_}; }
  void rewind(const Marker& m) {
    confinement_.assert_confined("Arena::rewind() off-thread");
    MCS_ASSERT(m.cur < cur_ || (m.cur == cur_ && m.off <= off_),
               "Arena::rewind() must release LIFO");
    // Poison everything the scope is releasing: the tail of the marker's
    // chunk plus every later chunk (ASan granularity makes the first few
    // bytes past an unaligned m.off best-effort; the rest is exact).
    if (m.cur < chunks_.size()) {
      const Chunk& c = chunks_[m.cur];
      detail::arena_poison(c.data.get() + m.off, c.size - m.off);
    }
    for (std::size_t i = m.cur + 1; i < chunks_.size() && i <= cur_; ++i) {
      detail::arena_poison(chunks_[i].data.get(), chunks_[i].size);
    }
    cur_ = m.cur;
    off_ = m.off;
    used_ = m.used;
    high_water_ = m.high_water;
  }

  std::size_t bytes_used() const { return used_; }
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
  };

  static std::size_t align_up(std::size_t v, std::size_t a) {
    return (v + a - 1) & ~(a - 1);
  }

  // Move to the next retained chunk able to hold `need` bytes, or allocate
  // one (oversize requests get a dedicated right-sized chunk).
  void grow(std::size_t need) {
    if (cur_ < chunks_.size()) high_water_ += chunks_[cur_].size;
    while (cur_ + 1 < chunks_.size()) {
      ++cur_;
      off_ = 0;
      if (chunks_[cur_].size >= need) return;
      high_water_ += chunks_[cur_].size;
    }
    const std::size_t size = need > chunk_bytes_ ? need : chunk_bytes_;
    chunks_.push_back(Chunk{std::unique_ptr<char[]>{new char[size]}, size});
    cur_ = chunks_.size() - 1;
    off_ = 0;
    // Fresh storage starts poisoned; allocate() unpoisons exactly what it
    // hands out, so the gaps between allocations stay trapped too.
    detail::arena_poison(chunks_[cur_].data.get(), size);
  }

  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;         // index of the chunk being bumped
  std::size_t off_ = 0;         // bump offset within chunks_[cur_]
  std::size_t used_ = 0;        // total live bytes (across chunks)
  std::size_t high_water_ = 0;  // bytes consumed by chunks before cur_
  std::size_t chunk_bytes_ = kDefaultChunkBytes;
  ThreadConfinementChecker confinement_;
};

// RAII nested arena scope: everything allocated inside the scope is released
// when it ends. Scopes must nest LIFO (enforced by construction order).
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_{arena}, mark_{arena.mark()} {}
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope() { arena_.rewind(mark_); }

 private:
  Arena& arena_;
  Arena::Marker mark_;
};

// Per-transaction arenas recycled through the PR-3 pool machinery: a Lease
// hands back a reset() arena whose chunks survive, so steady-state requests
// allocate nothing.
class ArenaPool {
 public:
  class Lease {
   public:
    Lease(ArenaPool* pool, Arena* arena) : pool_{pool}, arena_{arena} {}
    Lease(Lease&& other) noexcept
        : pool_{other.pool_}, arena_{other.arena_} {
      other.pool_ = nullptr;
      other.arena_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (arena_ != nullptr) {
        arena_->reset();
        pool_->pool_.release(arena_);
      }
    }
    Arena& operator*() const { return *arena_; }
    Arena* operator->() const { return arena_; }

   private:
    ArenaPool* pool_;
    Arena* arena_;
  };

  Lease acquire() { return Lease{this, pool_.acquire()}; }
  const RecyclingPool<Arena>& pool() const { return pool_; }

 private:
  RecyclingPool<Arena> pool_;
};

// ---------------------------------------------------------------------------
// BufWriter: append-only serializer over a caller-owned (reused) buffer.

class BufWriter {
 public:
  explicit BufWriter(std::string& out) : out_{out} {}

  // Pre-size for `more` further bytes (cheap no-op once capacity is warm).
  BufWriter& need(std::size_t more) {
    out_.reserve(out_.size() + more);
    return *this;
  }

  BufWriter& put(Slice s) {
    out_.append(s.data(), s.size());
    return *this;
  }
  BufWriter& ch(char c) {
    out_.push_back(c);
    return *this;
  }
  BufWriter& rep(char c, std::size_t n) {
    out_.append(n, c);
    return *this;
  }
  BufWriter& u64(std::uint64_t v);
  BufWriter& i64(std::int64_t v);

  // printf-style append. Short results (the common case: protocol framing,
  // status lines) format on the stack; long ones format straight into the
  // buffer's own storage — never through a temporary std::string.
  BufWriter& f(const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
      __attribute__((format(printf, 2, 3)))
#endif
      ;

  std::size_t size() const { return out_.size(); }
  Slice view() const { return Slice{out_}; }
  std::string& str() { return out_; }

 private:
  std::string& out_;
};

// Fixed-capacity decimal rendering: a value type that converts to Slice,
// for passing numbers to put()/cat() with zero heap traffic.
struct NumStr {
  char buf[24] = {};
  unsigned char len = 0;
  operator Slice() const { return Slice{buf, len}; }  // NOLINT(runtime/explicit)
};

inline NumStr u64s(std::uint64_t v) {
  NumStr out;
  char tmp[24];
  unsigned char n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + (v % 10));
    v /= 10;
  } while (v != 0);
  out.len = n;
  for (unsigned char i = 0; i < n; ++i) out.buf[i] = tmp[n - 1 - i];
  return out;
}

inline NumStr i64s(std::int64_t v) {
  if (v >= 0) return u64s(static_cast<std::uint64_t>(v));
  NumStr out = u64s(~static_cast<std::uint64_t>(v) + 1);
  MCS_INVARIANT(static_cast<std::size_t>(out.len) + 1 < sizeof(out.buf),
                "i64s overflow");
  std::memmove(out.buf + 1, out.buf, out.len);
  out.buf[0] = '-';
  ++out.len;
  return out;
}

inline BufWriter& BufWriter::u64(std::uint64_t v) { return put(u64s(v)); }
inline BufWriter& BufWriter::i64(std::int64_t v) { return put(i64s(v)); }

inline BufWriter& BufWriter::f(const char* fmt, ...) {
  char tmp[256];
  std::va_list ap;
  va_start(ap, fmt);
  std::va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(tmp, sizeof(tmp), fmt, ap);
  va_end(ap);
  if (n > 0) {
    if (static_cast<std::size_t>(n) < sizeof(tmp)) {
      out_.append(tmp, static_cast<std::size_t>(n));
    } else {
      const std::size_t base = out_.size();
      out_.resize(base + static_cast<std::size_t>(n) + 1);
      std::vsnprintf(out_.data() + base, static_cast<std::size_t>(n) + 1,
                     fmt, ap2);
      out_.resize(base + static_cast<std::size_t>(n));
    }
  }
  va_end(ap2);
  return *this;
}

// Per-thread reusable scratch buffers for hot paths that must hand an owning
// std::string to an API (unordered_map lookups, parse routines). Each slot
// keeps its capacity across uses, so the steady state allocates nothing. A
// caller must be done with a slot before re-entering code that uses the same
// slot; by convention, leaf helpers use low slots and callers use high ones.
inline std::string& scratch(std::size_t slot) {
  static thread_local std::string bufs[4];
  MCS_ASSERT(slot < 4, "sim::scratch slot out of range");
  return bufs[slot];
}

// ---------------------------------------------------------------------------
// Owned-string escape hatches: exactly one right-sized allocation each.

// Concatenate Slice-convertible parts into one exactly-reserved string.
template <typename... Parts>
std::string cat(const Parts&... parts) {
  std::string out;
  out.reserve((Slice{parts}.size() + ... + std::size_t{0}));
  (out.append(Slice{parts}.data(), Slice{parts}.size()), ...);
  return out;
}

// Build an owned string through a fill callback over a pre-reserved buffer:
// `return build(est, [&](std::string& out) { ... });` — for cold or
// result-owning paths where returning a fresh string is the API.
template <typename Fill>
std::string build(std::size_t reserve_bytes, Fill&& fill) {
  std::string out;
  out.reserve(reserve_bytes);
  fill(out);
  return out;
}

}  // namespace mcs::sim
