// Allocation proof for the purchase write path (payment.h, database.h,
// db_server.h): a warm autocommit update and a warm DB server round trip
// cost no heap at all, a warm insert allocates only what the table keeps,
// and a warm 2PC charge allocates only the order row and the idempotency
// records. A counting operator new in this binary measures it directly, so
// a boxed callback, a fresh Transaction or a per-operation WAL string fails
// here, not in a benchmark.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <type_traits>

#include "core/payment.h"
#include "host/db/db_server.h"
#include "net/network.h"
#include "sim/inline_function.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  std::fputs("payment_alloc_test: out of memory\n", stderr);
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

namespace mcs {
namespace {

using host::db::Database;
using host::db::Row;
using host::db::Value;
using host::db::ValueType;

template <class Fn>
std::uint64_t allocations(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

// The handles the write path's callbacks capture stay in inline storage:
// the kernel's event buffer and std::function's local buffer.
template <class Handle>
constexpr bool fits_inline() {
  return std::is_trivially_copyable_v<Handle> &&
         sizeof(Handle) <= sim::InlineFunction::kInlineSize;
}
static_assert(fits_inline<host::db::DbServer::ResponseSlot>());
static_assert(fits_inline<core::PaymentProcessor::ExpiryTimer>());
static_assert(fits_inline<core::PaymentCoordinator::ChargeStep>());
static_assert(sizeof(core::PaymentCoordinator::ChargeStep) <= 16,
              "std::function keeps at most 16 bytes in place");

// The bank's accounts table: short text keys, real balances.
void open_accounts(Database& db, int n) {
  db.create_table("accounts",
                  {{"id", ValueType::kText}, {"balance", ValueType::kReal}});
  for (int i = 0; i < n; ++i) {
    db.insert("accounts", {"acct" + std::to_string(i), 1000.0});
  }
}

// The WAL's arena grows a chunk now and then; a checkpoint keeps the warmed
// chunks, so a measured operation right after one never meets the growth.
TEST(DbWriteAllocTest, WarmAutocommitUpdateAllocatesNothing) {
  Database db{"bank"};
  open_accounts(db, 8);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.update("accounts", Value{std::string{"acct3"}}, 1,
                          Value{900.0 - i}));
  }
  db.wal().checkpoint();
  const Value pk{std::string{"acct3"}};
  const Value balance{42.5};
  bool ok = false;
  EXPECT_EQ(allocations([&] { ok = db.update("accounts", pk, 1, balance); }),
            0u);
  EXPECT_TRUE(ok);
  EXPECT_EQ(std::get<double>((*db.table("accounts")->find(pk))[1]), 42.5);
  EXPECT_EQ(db.wal().records(), 2u);  // UPD + COMMIT
}

// The row's own vector and its primary-key node are what the table keeps;
// the transaction, its lock, undo entry and redo bytes cost nothing. The
// erase frees a slot so the measured insert does not meet slot-vector
// growth either.
TEST(DbWriteAllocTest, WarmInsertAllocatesOnlyTheRowAndItsKeyNode) {
  Database db{"shop"};
  db.create_table("orders", {{"id", ValueType::kText},
                             {"account", ValueType::kText},
                             {"item", ValueType::kText},
                             {"amount", ValueType::kReal}});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.insert("orders", {"order-" + std::to_string(i),
                                     std::string{"acct1"},
                                     std::string{"Product 7"}, 12.5}));
  }
  ASSERT_TRUE(db.erase("orders", Value{std::string{"order-0"}}));
  db.wal().checkpoint();
  bool ok = false;
  EXPECT_EQ(allocations([&] {
              ok = db.insert("orders", {std::string{"order-9"},
                                        std::string{"acct1"},
                                        std::string{"Product 7"}, 12.5});
            }),
            2u);
  EXPECT_TRUE(ok);
  EXPECT_EQ(db.table("orders")->size(), 4u);
  // A refused insert (duplicate key) leaves no redo behind.
  EXPECT_FALSE(db.insert("orders", {std::string{"order-9"},
                                    std::string{"acct2"},
                                    std::string{"Product 8"}, 1.0}));
  EXPECT_EQ(db.wal().records(), 2u);  // INS + COMMIT of order-9 only
}

struct TwoNodes : public ::testing::Test {
  TwoNodes() : network{sim, 7} {
    a = network.add_node("a");
    b = network.add_node("b");
    network.connect(a, b);
    network.compute_routes();
    a_tcp = std::make_unique<transport::TcpStack>(*a);
    b_tcp = std::make_unique<transport::TcpStack>(*b);
  }

  sim::Simulator sim;
  net::Network network;
  net::Node* a;
  net::Node* b;
  std::unique_ptr<transport::TcpStack> a_tcp;
  std::unique_ptr<transport::TcpStack> b_tcp;
};

// The purchase's DB traffic, UPD (autocommit, fsync) and GET, from a raw
// client whose receive buffer is warm: the response slot, its message, the
// transaction and the scheduled response events all recycle, and the TCP
// path below is allocation-free warm, so the whole exchange costs nothing.
TEST_F(TwoNodes, WarmDbServerUpdateAndGetAllocateNothing) {
  Database db{"shop"};
  open_accounts(db, 8);
  host::db::DbServer server{*b_tcp, 5432, db};
  std::string got;
  got.reserve(256);
  auto raw = a_tcp->connect(net::Endpoint{b->addr(), 5432});
  raw->on_data = [&](const std::string& bytes) { got += bytes; };
  auto round_trip = [&] {
    got.clear();
    raw->send("UPD 0 accounts acct5 1 77.5\nGET accounts acct5\n");
    sim.run();
  };
  for (int warm = 0; warm < 3; ++warm) round_trip();
  db.wal().checkpoint();
  EXPECT_EQ(allocations(round_trip), 0u);
  EXPECT_EQ(got, "OK\nROWS 1\nacct5|77.5\n");
  EXPECT_EQ(server.stats().counter("requests").value(), 8u);
}

// One warm purchase's 2PC: PREPARE and COMMIT over HTTP to the bank, the
// bank's reservation, balance update and expiry timer, and the merchant's
// order. It may allocate only the orders row, its primary-key node and the
// two idempotency records (the coordinator's per-key record and the bank's
// finished-txn entry); every key fits the small-string buffer.
TEST_F(TwoNodes, WarmChargeAllocatesOnlyTheOrderAndIdempotencyRecords) {
  host::HttpServer bank_http{*b_tcp, 80};
  Database ledger{"bank"};
  core::PaymentProcessor bank{bank_http, ledger, sim};
  for (int i = 0; i < 8; ++i) {
    bank.open_account("acct" + std::to_string(i), 1e9);
  }
  host::HttpClient http{*a_tcp};
  Database orders{"shop"};
  core::PaymentCoordinator merchant{http, {b->addr(), 80}, orders, sim};
  int ok = 0;
  const std::string account{"acct3"};
  const std::string item{"Product 12"};
  auto purchase = [&](const std::string& key) {
    merchant.charge(key, account, 19.99, item,
                    [&](core::PaymentCoordinator::Outcome o) {
                      ok += o.ok ? 1 : 0;
                    });
    sim.run();
  };
  // Warm-up keys as long as the measured one, so every request and
  // response buffer on the way has already reached its size.
  for (int i = 0; i < 8; ++i) purchase("buy-100" + std::to_string(i));
  ASSERT_EQ(ok, 8);
  // Free an orders slot, and start both logs' epochs on warm chunks.
  ASSERT_TRUE(orders.erase("orders", Value{std::string{"order-1"}}));
  orders.wal().checkpoint();
  ledger.wal().checkpoint();
  const std::string key{"buy-1008"};
  EXPECT_LE(allocations([&] { purchase(key); }), 4u);
  EXPECT_EQ(ok, 9);
  EXPECT_EQ(bank.reservations_active(), 0u);
  EXPECT_EQ(orders.table("orders")->size(), 8u);
}

}  // namespace
}  // namespace mcs
