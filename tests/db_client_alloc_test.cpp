// Allocation proof for the DB read path (db_server.h): table rows reach the
// wire and the client's RowSet without a per-row or per-field allocation.
// A counting operator new in this binary measures it directly, so a Row
// copy or a per-line string on either side fails here, not in a benchmark.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "host/db/db_server.h"
#include "net/network.h"
#include "sim/util.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  std::fputs("db_client_alloc_test: out of memory\n", stderr);
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

namespace mcs::host::db {
namespace {

template <class Fn>
std::uint64_t allocations(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

// The commerce catalog's shape: 24 products, text fields past the
// small-string buffer so a per-field string would show.
void fill_catalog(Database& db, const std::string& table, int rows) {
  db.create_table(table, {{"id", ValueType::kInt},
                          {"name", ValueType::kText},
                          {"category", ValueType::kText},
                          {"price", ValueType::kReal},
                          {"stock", ValueType::kInt}});
  const char* categories[] = {"consumer electronics", "books and magazines",
                              "music downloads", "travel packages"};
  for (int i = 1; i <= rows; ++i) {
    db.insert(table, {std::int64_t{i}, sim::strf("Catalog product %d", i),
                      std::string{categories[i % 4]}, 9.99 + i * 3.0,
                      std::int64_t{100}});
  }
  db.table(table)->create_index(2);
}

struct DbAllocFixture : public ::testing::Test {
  DbAllocFixture() : network{sim, 7}, db{"shop"} {
    app_node = network.add_node("app");
    db_node = network.add_node("dbhost");
    network.connect(app_node, db_node);
    network.compute_routes();
    app_tcp = std::make_unique<transport::TcpStack>(*app_node);
    db_tcp = std::make_unique<transport::TcpStack>(*db_node);
    fill_catalog(db, "catalog", 24);
    fill_catalog(db, "single", 1);
  }

  sim::Simulator sim;
  net::Network network;
  Database db;
  net::Node* app_node;
  net::Node* db_node;
  std::unique_ptr<transport::TcpStack> app_tcp;
  std::unique_ptr<transport::TcpStack> db_tcp;
};

TEST_F(DbAllocFixture, WarmClientDecodes24RowsInTwoAllocations) {
  // The real server's bytes for the 24-row catalog.
  DbServer server{*db_tcp, 5432, db};
  std::string response;
  auto raw = app_tcp->connect(net::Endpoint{db_node->addr(), 5432});
  raw->on_data = [&](const std::string& bytes) { response += bytes; };
  raw->send("SCAN catalog\n");
  sim.run();
  ASSERT_EQ(response.rfind("ROWS 24\n", 0), 0u);

  // A client whose responses the test feeds itself (nothing else runs).
  DbClient reader{*app_tcp, net::Endpoint{db_node->addr(), 5433}};
  DbClient::Result got;
  auto keep = [&](DbClient::Result r) { got = std::move(r); };
  const std::size_t cut = response.size() / 2;
  auto whole = [&] { reader.on_data(response); };
  auto split = [&] {
    reader.on_data(sim::Slice{response}.substr(0, cut));
    reader.on_data(sim::Slice{response}.substr(cut));
  };
  for (int warm = 0; warm < 2; ++warm) {  // builder and tail buffer warm up
    reader.scan("catalog", keep);
    whole();
    reader.scan("catalog", keep);
    split();
  }

  reader.scan("catalog", keep);
  EXPECT_LE(allocations(whole), 2u);
  ASSERT_EQ(got.rows.size(), 24u);
  EXPECT_EQ(got.rows[23][1], "Catalog product 24");
  reader.scan("catalog", keep);
  EXPECT_LE(allocations(split), 2u);
  ASSERT_EQ(got.rows.size(), 24u);
  EXPECT_EQ(got.rows[0][2], "books and magazines");
}

TEST_F(DbAllocFixture, TableVisitorsCopyNoRow) {
  const Table& t = *db.table("catalog");
  std::size_t seen = 0;
  auto count = [&](const Row&) { ++seen; };
  EXPECT_EQ(allocations([&] { t.for_each(count); }), 0u);
  const Value books{std::string{"books and magazines"}};
  EXPECT_EQ(allocations([&] { t.for_each_match(2, books, count); }), 0u);
  const Value name{std::string{"Catalog product 7"}};
  EXPECT_EQ(allocations([&] { t.for_each_match(1, name, count); }), 0u);
  const Value pk{std::int64_t{3}};
  EXPECT_EQ(allocations([&] { t.for_each_match(0, pk, count); }), 0u);
  EXPECT_EQ(seen, 24u + 6u + 1u + 1u);
}

// A warm SCAN or FINDBY round trip (client command, server encode, TCP,
// client decode) of the 24-row catalog costs fewer allocations than the
// result has rows. One Row copy of this table alone costs three (the vector
// and two text fields past the small-string buffer), and a per-line or
// per-field string costs at least one per row, so either regression fails
// here. (The fixed cost is not exactly constant: the pipelining deques
// allocate a fresh block now and then as they advance.)
TEST_F(DbAllocFixture, QueryRoundTripsAllocateLessThanOnePerRow) {
  DbServer server{*db_tcp, 5432, db};
  DbClient client{*app_tcp, net::Endpoint{db_node->addr(), 5432}};
  std::size_t rows = 0;
  auto keep = [&](DbClient::Result r) { rows = r.rows.size(); };
  auto scan = [&] {
    client.scan("catalog", keep);
    sim.run();
  };
  auto find_by_stock = [&] {  // every product has stock 100
    client.find_by("catalog", 4, "100", keep);
    sim.run();
  };
  for (int warm = 0; warm < 2; ++warm) {
    scan();
    find_by_stock();
  }
  EXPECT_LT(allocations(scan), 24u);
  EXPECT_EQ(rows, 24u);
  EXPECT_LT(allocations(find_by_stock), 24u);  // slot-order scan
  EXPECT_EQ(rows, 24u);
  db.table("catalog")->create_index(4);
  find_by_stock();
  EXPECT_LT(allocations(find_by_stock), 24u);  // secondary index
  EXPECT_EQ(rows, 24u);
}

}  // namespace
}  // namespace mcs::host::db
