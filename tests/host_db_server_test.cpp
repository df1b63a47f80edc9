#include "host/db/db_server.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/random.h"
#include "sim/util.h"

namespace mcs::host::db {
namespace {

TEST(DbProtocolTest, EscapingRoundTrips) {
  const std::string nasty = "a b|c%d\ne";
  EXPECT_EQ(unesc(esc(nasty)), nasty);
  EXPECT_EQ(esc("plain"), "plain");
  RowSet::Builder rows_in;
  rows_in.add_row(esc("x y") + "|" + esc("1|2") + "|" + esc("z"));
  const RowSet rows = rows_in.finish();
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 3u);
  EXPECT_EQ(rows[0][0], "x y");
  EXPECT_EQ(rows[0][1], "1|2");
  EXPECT_EQ(rows[0][2], "z");
}

struct DbNetFixture : public ::testing::Test {
  explicit DbNetFixture() : network{sim, 31}, db{"shop"} {
    db.create_table("products", {{"id", ValueType::kInt},
                                 {"name", ValueType::kText},
                                 {"price", ValueType::kReal}});
    app_node = network.add_node("app");
    db_node = network.add_node("dbhost");
    network.connect(app_node, db_node);
    network.compute_routes();
    app_tcp = std::make_unique<transport::TcpStack>(*app_node);
    db_tcp = std::make_unique<transport::TcpStack>(*db_node);
  }

  void start(DbServerConfig cfg = {}) {
    server = std::make_unique<DbServer>(*db_tcp, 5432, db, cfg);
    client = std::make_unique<DbClient>(*app_tcp, net::Endpoint{db_node->addr(), 5432});
  }

  sim::Simulator sim;
  net::Network network;
  Database db;
  net::Node* app_node;
  net::Node* db_node;
  std::unique_ptr<transport::TcpStack> app_tcp;
  std::unique_ptr<transport::TcpStack> db_tcp;
  std::unique_ptr<DbServer> server;
  std::unique_ptr<DbClient> client;
};

TEST_F(DbNetFixture, AutocommitInsertAndGet) {
  start();
  bool inserted = false;
  client->insert(0, "products", {"1", "Smart Phone", "299.99"},
                 [&](DbClient::Result r) { inserted = r.ok; });
  DbClient::Result got;
  client->get("products", "1", [&](DbClient::Result r) { got = std::move(r); });
  sim.run();
  EXPECT_TRUE(inserted);
  ASSERT_TRUE(got.ok);
  ASSERT_EQ(got.rows.size(), 1u);
  EXPECT_EQ(got.rows[0][1], "Smart Phone");  // space survived escaping
}

TEST_F(DbNetFixture, GetMissingReturnsZeroRows) {
  start();
  DbClient::Result got;
  got.ok = false;
  client->get("products", "99", [&](DbClient::Result r) { got = std::move(r); });
  sim.run();
  EXPECT_TRUE(got.ok);
  EXPECT_TRUE(got.rows.empty());
}

TEST_F(DbNetFixture, TransactionCommitOverNetwork) {
  start();
  std::uint64_t txn = 0;
  bool committed = false;
  client->begin([&](DbClient::Result r) {
    ASSERT_TRUE(r.ok);
    txn = r.txn;
    client->insert(txn, "products", {"1", "A", "1.0"},
                   [&](DbClient::Result r2) { ASSERT_TRUE(r2.ok); });
    client->insert(txn, "products", {"2", "B", "2.0"},
                   [&](DbClient::Result r2) { ASSERT_TRUE(r2.ok); });
    client->commit(txn, [&](DbClient::Result r2) { committed = r2.ok; });
  });
  sim.run();
  EXPECT_TRUE(committed);
  EXPECT_EQ(db.table("products")->size(), 2u);
  EXPECT_EQ(db.committed_txns(), 1u);
}

TEST_F(DbNetFixture, TransactionAbortRollsBack) {
  start();
  client->begin([&](DbClient::Result r) {
    const std::uint64_t txn = r.txn;
    client->insert(txn, "products", {"1", "A", "1.0"},
                   [](DbClient::Result) {});
    client->abort_txn(txn, [](DbClient::Result) {});
  });
  sim.run();
  EXPECT_EQ(db.table("products")->size(), 0u);
}

TEST_F(DbNetFixture, UpdateDeleteFindByScan) {
  start();
  for (int i = 1; i <= 6; ++i) {
    client->insert(0, "products",
                   {sim::strf("%d", i), i % 2 ? "odd" : "even",
                    sim::strf("%d.5", i)},
                   [](DbClient::Result) {});
  }
  DbClient::Result odd, all;
  client->update(0, "products", "2", 2, "42.0", [](DbClient::Result) {});
  client->erase(0, "products", "6", [](DbClient::Result) {});
  client->find_by("products", 1, "odd",
                  [&](DbClient::Result r) { odd = std::move(r); });
  client->scan("products", [&](DbClient::Result r) { all = std::move(r); });
  sim.run();
  ASSERT_TRUE(odd.ok);
  EXPECT_EQ(odd.rows.size(), 3u);
  ASSERT_TRUE(all.ok);
  EXPECT_EQ(all.rows.size(), 5u);
  const Row* updated = db.table("products")->find(Value{std::int64_t{2}});
  ASSERT_NE(updated, nullptr);
  EXPECT_DOUBLE_EQ(std::get<double>((*updated)[2]), 42.0);
}

TEST_F(DbNetFixture, ErrorsAreReported) {
  start();
  DbClient::Result bad_table, dup;
  client->insert(0, "nope", {"1"},
                 [&](DbClient::Result r) { bad_table = std::move(r); });
  client->insert(0, "products", {"1", "A", "1.0"}, [](DbClient::Result) {});
  client->insert(0, "products", {"1", "B", "2.0"},
                 [&](DbClient::Result r) { dup = std::move(r); });
  sim.run();
  EXPECT_FALSE(bad_table.ok);
  EXPECT_FALSE(dup.ok);
  EXPECT_NE(dup.error.find("ERR"), std::string::npos);
}

TEST_F(DbNetFixture, PerCommitFsyncSlowerThanNone) {
  auto measure = [&](SyncPolicy policy) {
    DbServerConfig cfg;
    cfg.sync_policy = policy;
    cfg.fsync_delay = sim::Time::millis(5);
    start(cfg);
    const sim::Time start_t = sim.now();
    int done = 0;
    for (int i = 0; i < 20; ++i) {
      client->insert(0, "products", {sim::strf("%d", 100 + i), "x", "1.0"},
                     [&](DbClient::Result r) {
                       EXPECT_TRUE(r.ok);
                       ++done;
                     });
    }
    sim.run();
    EXPECT_EQ(done, 20);
    // Fresh tables for the next policy run.
    for (int i = 0; i < 20; ++i) {
      db.erase("products", Value{std::int64_t{100 + i}});
    }
    return sim.now() - start_t;
  };
  const sim::Time with_fsync = measure(SyncPolicy::kPerCommit);
  const sim::Time without = measure(SyncPolicy::kNone);
  const sim::Time grouped = measure(SyncPolicy::kGroup);
  EXPECT_GT(with_fsync, without * 2.0);
  EXPECT_LT(grouped, with_fsync);
  EXPECT_GT(server->stats().counter("group_commit_batches").value(), 0u);
}

// --- Wire bytes -------------------------------------------------------------
// Query responses are encoded straight from table storage; these are the
// exact bytes a raw socket receives, escapes included.

TEST_F(DbNetFixture, QueryResponsesMatchGoldenWireBytes) {
  auto row = [](std::int64_t id, std::string name, double price) {
    return Row{id, std::move(name), price};
  };
  ASSERT_TRUE(db.insert("products", row(1, "a b", 1.5)));
  ASSERT_TRUE(db.insert("products", row(2, "x|y", 2.25)));
  ASSERT_TRUE(db.insert("products", row(3, "50%", 10.0)));
  ASSERT_TRUE(db.insert("products", row(4, "line\nbreak", 0.125)));
  ASSERT_TRUE(db.insert("products", row(5, "", 1e6)));
  ASSERT_TRUE(db.insert("products", row(6, "dup", 2.25)));
  db.table("products")->create_index(2);
  start();

  std::string got;
  auto raw = app_tcp->connect(net::Endpoint{db_node->addr(), 5432});
  raw->on_data = [&](const std::string& bytes) { got += bytes; };
  raw->send(
      "SCAN products\n"
      "FINDBY products 1 x%7Cy\n"   // unindexed column: slot-order scan
      "FINDBY products 1 \n"        // the empty field
      "FINDBY products 2 2.25\n"    // secondary index, insertion order
      "FINDBY products 0 3\n"       // primary key
      "GET products 4\n"
      "GET products 99\n");
  sim.run();
  EXPECT_EQ(got,
            "ROWS 6\n"
            "1|a%20b|1.5\n"
            "2|x%7Cy|2.25\n"
            "3|50%25|10\n"
            "4|line%0Abreak|0.125\n"
            "5||1e+06\n"
            "6|dup|2.25\n"
            "ROWS 1\n2|x%7Cy|2.25\n"
            "ROWS 1\n5||1e+06\n"
            "ROWS 2\n2|x%7Cy|2.25\n6|dup|2.25\n"
            "ROWS 1\n3|50%25|10\n"
            "ROWS 1\n4|line%0Abreak|0.125\n"
            "ROWS 0\n");
}

// --- Decode equivalence ----------------------------------------------------

// Test-local reference for the client decode: split the row line on '|',
// then unescape each field ("%XY" -> the byte strtol(XY, 16) gives).
std::vector<std::string> reference_fields(const std::string& line) {
  std::vector<std::string> split(1);
  for (char c : line) {
    if (c == '|') {
      split.emplace_back();
    } else {
      split.back() += c;
    }
  }
  std::vector<std::string> out;
  for (const std::string& f : split) {
    std::string u;
    for (std::size_t i = 0; i < f.size(); ++i) {
      if (f[i] == '%' && i + 2 < f.size()) {
        u += static_cast<char>(std::strtol(f.substr(i + 1, 2).c_str(),
                                           nullptr, 16));
        i += 2;
      } else {
        u += f[i];
      }
    }
    out.push_back(u);
  }
  return out;
}

using Rows = std::vector<std::vector<std::string>>;

void expect_rows(const RowSet& got, const Rows& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << what << " row " << i;
    for (std::size_t j = 0; j < want[i].size(); ++j) {
      EXPECT_EQ(got[i][j], want[i][j])
          << what << " row " << i << " field " << j;
      // NUL-terminated: C parsers on data() stop at the field's end.
      EXPECT_EQ(got[i][j].data()[got[i][j].size()], '\0');
    }
  }
}

// A random query response: raw rows (fields over an alphabet heavy in the
// escaped bytes, empty fields included) and their wire form.
struct WireResponse {
  Rows rows;
  std::vector<std::string> lines;  // one escaped wire line per row
  std::string wire;
};

WireResponse random_response(sim::Rng& rng) {
  static const char kAlphabet[] = {'a', 'Z', ' ', '|', '%', '\n', '0', '7',
                                   '\t', '\0'};
  WireResponse r;
  const auto nrows = rng.uniform_int(0, 6);
  r.wire = sim::strf("ROWS %lld\n", static_cast<long long>(nrows));
  for (std::int64_t i = 0; i < nrows; ++i) {
    std::vector<std::string> fields;
    std::string line;
    const auto nfields = rng.uniform_int(1, 5);
    for (std::int64_t j = 0; j < nfields; ++j) {
      std::string f;
      const auto len = rng.uniform_int(0, 6);
      for (std::int64_t k = 0; k < len; ++k) {
        f += kAlphabet[rng.uniform_int(
            0, static_cast<std::int64_t>(sizeof(kAlphabet)) - 1)];
      }
      if (j > 0) line += '|';
      line += esc(f);
      fields.push_back(std::move(f));
    }
    EXPECT_EQ(reference_fields(line), fields);
    r.wire += line + "\n";
    r.lines.push_back(std::move(line));
    r.rows.push_back(std::move(fields));
  }
  return r;
}

TEST_F(DbNetFixture, RowSetDecodeMatchesReferenceUnderAnySegmentation) {
  // No server runs and the simulator never steps: the test feeds response
  // bytes to the client's data handler itself, cut wherever it likes.
  DbClient reader{*app_tcp, net::Endpoint{db_node->addr(), 5432}};
  std::vector<DbClient::Result> results;
  auto collect = [&](DbClient::Result r) { results.push_back(std::move(r)); };

  sim::Rng rng{2003};
  for (int trial = 0; trial < 40; ++trial) {
    const WireResponse a = random_response(rng);
    const WireResponse b = random_response(rng);

    RowSet::Builder rows_in;
    for (const std::string& line : a.lines) rows_in.add_row(line);
    expect_rows(rows_in.finish(), a.rows, "builder");

    results.clear();
    reader.scan("products", collect);
    reader.on_data(a.wire);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok);
    expect_rows(results[0].rows, a.rows, "whole");

    for (std::size_t cut = 0; cut <= a.wire.size(); ++cut) {
      results.clear();
      reader.scan("products", collect);
      reader.on_data(sim::Slice{a.wire}.substr(0, cut));
      reader.on_data(sim::Slice{a.wire}.substr(cut));
      ASSERT_EQ(results.size(), 1u) << "cut " << cut;
      expect_rows(results[0].rows, a.rows, "split");
    }

    results.clear();
    reader.scan("products", collect);
    reader.begin(collect);
    reader.scan("products", collect);
    reader.on_data(a.wire + "OK 7\n" + b.wire);
    ASSERT_EQ(results.size(), 3u);
    expect_rows(results[0].rows, a.rows, "first of two");
    EXPECT_EQ(results[1].txn, 7u);
    EXPECT_TRUE(results[1].rows.empty());
    expect_rows(results[2].rows, b.rows, "second of two");
  }
}

}  // namespace
}  // namespace mcs::host::db
