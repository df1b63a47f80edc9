#include "host/db/database.h"

#include <gtest/gtest.h>

#include "sim/util.h"

namespace mcs::host::db {
namespace {

std::unique_ptr<Database> make_shop() {
  auto db = std::make_unique<Database>("shop");
  db->create_table("products", {{"id", ValueType::kInt},
                                {"name", ValueType::kText},
                                {"price", ValueType::kReal},
                                {"stock", ValueType::kInt}});
  return db;
}

TEST(ValueTest, TypeTagAndToString) {
  EXPECT_EQ(type_of(Value{std::int64_t{5}}), ValueType::kInt);
  EXPECT_EQ(type_of(Value{2.5}), ValueType::kReal);
  EXPECT_EQ(type_of(Value{std::string{"x"}}), ValueType::kText);
  EXPECT_EQ(to_string(Value{std::int64_t{42}}), "42");
  EXPECT_EQ(to_string(Value{std::string{"abc"}}), "abc");
}

TEST(ValueTest, ParseRoundTrip) {
  EXPECT_EQ(std::get<std::int64_t>(parse_value("17", ValueType::kInt)), 17);
  EXPECT_DOUBLE_EQ(std::get<double>(parse_value("2.25", ValueType::kReal)),
                   2.25);
  EXPECT_EQ(std::get<std::string>(parse_value("hi", ValueType::kText)), "hi");
}

TEST(ValueTest, OrderingAndEquality) {
  EXPECT_TRUE(value_less(Value{std::int64_t{1}}, Value{std::int64_t{2}}));
  EXPECT_TRUE(value_less(Value{std::string{"a"}}, Value{std::string{"b"}}));
  EXPECT_TRUE(value_eq(Value{std::int64_t{3}}, Value{std::int64_t{3}}));
  EXPECT_FALSE(value_eq(Value{std::int64_t{3}}, Value{3.0}));
}

TEST(TableTest, InsertFindErase) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->insert({std::int64_t{1}, std::string{"Phone"}, 299.0,
                         std::int64_t{10}}));
  EXPECT_TRUE(t->insert({std::int64_t{2}, std::string{"Laptop"}, 999.0,
                         std::int64_t{5}}));
  EXPECT_EQ(t->size(), 2u);

  const Row* r = t->find(Value{std::int64_t{1}});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(std::get<std::string>((*r)[1]), "Phone");

  EXPECT_TRUE(t->erase(Value{std::int64_t{1}}));
  EXPECT_EQ(t->find(Value{std::int64_t{1}}), nullptr);
  EXPECT_EQ(t->size(), 1u);
  EXPECT_FALSE(t->erase(Value{std::int64_t{1}}));  // already gone
}

TEST(TableTest, RejectsDuplicatePrimaryKey) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  EXPECT_TRUE(
      t->insert({std::int64_t{1}, std::string{"A"}, 1.0, std::int64_t{1}}));
  EXPECT_FALSE(
      t->insert({std::int64_t{1}, std::string{"B"}, 2.0, std::int64_t{2}}));
  EXPECT_EQ(t->size(), 1u);
}

TEST(TableTest, RejectsWrongArityOrTypes) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  EXPECT_FALSE(t->insert({std::int64_t{1}}));  // too few columns
  EXPECT_FALSE(t->insert({std::string{"not-an-int"}, std::string{"A"}, 1.0,
                          std::int64_t{1}}));  // wrong pk type
}

TEST(TableTest, UpdateCellAndPkChange) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  t->insert({std::int64_t{1}, std::string{"A"}, 1.0, std::int64_t{1}});
  t->insert({std::int64_t{2}, std::string{"B"}, 2.0, std::int64_t{2}});

  EXPECT_TRUE(t->update(Value{std::int64_t{1}}, 2, Value{5.5}));
  EXPECT_DOUBLE_EQ(std::get<double>((*t->find(Value{std::int64_t{1}}))[2]),
                   5.5);
  // PK update to a free key works; to a taken key fails.
  EXPECT_TRUE(t->update(Value{std::int64_t{1}}, 0, Value{std::int64_t{9}}));
  EXPECT_NE(t->find(Value{std::int64_t{9}}), nullptr);
  EXPECT_EQ(t->find(Value{std::int64_t{1}}), nullptr);
  EXPECT_FALSE(t->update(Value{std::int64_t{9}}, 0, Value{std::int64_t{2}}));
}

TEST(TableTest, ScanWithPredicate) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  for (int i = 1; i <= 10; ++i) {
    t->insert({std::int64_t{i}, sim::strf("item%d", i), i * 10.0,
               std::int64_t{i % 3}});
  }
  std::size_t cheap = 0;
  t->for_each([&](const Row& r) {
    if (std::get<double>(r[2]) < 45.0) ++cheap;
  });
  EXPECT_EQ(cheap, 4u);  // 10,20,30,40
}

TEST(TableTest, SecondaryIndexFindBy) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  for (int i = 1; i <= 100; ++i) {
    t->insert({std::int64_t{i}, sim::strf("cat%d", i % 5), 1.0 * i,
               std::int64_t{i}});
  }
  t->create_index(1);
  EXPECT_TRUE(t->has_index(1));
  auto count_cat3 = [&] {
    std::size_t n = 0;
    t->for_each_match(1, Value{std::string{"cat3"}}, [&](const Row& r) {
      EXPECT_EQ(std::get<std::string>(r[1]), "cat3");
      ++n;
    });
    return n;
  };
  EXPECT_EQ(count_cat3(), 20u);
  // Index stays correct across mutation.
  t->erase(Value{std::int64_t{3}});
  EXPECT_EQ(count_cat3(), 19u);
  t->update(Value{std::int64_t{9}}, 1, Value{std::string{"cat3"}});
  EXPECT_EQ(count_cat3(), 20u);
}

TEST(TableTest, ForEachMatchOnPrimaryKeyAndUnindexedColumn) {
  auto db_ptr = make_shop();
  Table* t = db_ptr->table("products");
  for (int i = 1; i <= 9; ++i) {
    t->insert({std::int64_t{i}, sim::strf("cat%d", i % 3), 1.0 * i,
               std::int64_t{i}});
  }
  std::vector<std::int64_t> ids;
  auto collect = [&](const Row& r) {
    ids.push_back(std::get<std::int64_t>(r[0]));
  };
  t->for_each_match(0, Value{std::int64_t{4}}, collect);
  EXPECT_EQ(ids, (std::vector<std::int64_t>{4}));
  ids.clear();
  t->for_each_match(0, Value{std::int64_t{42}}, collect);
  EXPECT_TRUE(ids.empty());
  // No index on column 1: a slot-order scan.
  ASSERT_FALSE(t->has_index(1));
  t->for_each_match(1, Value{std::string{"cat1"}}, collect);
  EXPECT_EQ(ids, (std::vector<std::int64_t>{1, 4, 7}));
  ids.clear();
  t->for_each(collect);
  EXPECT_EQ(ids.size(), 9u);
}

TEST(TableTest, SlotReuseAfterErase) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  Table* t = db.table("products");
  for (int round = 0; round < 5; ++round) {
    for (int i = 1; i <= 50; ++i) {
      ASSERT_TRUE(t->insert(
          {std::int64_t{i}, std::string{"x"}, 1.0, std::int64_t{0}}));
    }
    for (int i = 1; i <= 50; ++i) {
      ASSERT_TRUE(t->erase(Value{std::int64_t{i}}));
    }
  }
  EXPECT_EQ(t->size(), 0u);
}

TEST(TransactionTest, CommitPersists) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  auto txn = db.begin();
  EXPECT_TRUE(txn->insert("products", {std::int64_t{1}, std::string{"A"}, 1.0,
                                       std::int64_t{1}}));
  EXPECT_TRUE(txn->commit());
  EXPECT_NE(db.table("products")->find(Value{std::int64_t{1}}), nullptr);
  EXPECT_EQ(db.committed_txns(), 1u);
}

TEST(TransactionTest, AbortRollsBackAllOps) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  db.insert("products",
            {std::int64_t{1}, std::string{"keep"}, 1.0, std::int64_t{7}});
  auto txn = db.begin();
  EXPECT_TRUE(txn->insert("products", {std::int64_t{2}, std::string{"new"},
                                       2.0, std::int64_t{2}}));
  EXPECT_TRUE(txn->update("products", Value{std::int64_t{1}}, 3,
                          Value{std::int64_t{99}}));
  EXPECT_TRUE(txn->erase("products", Value{std::int64_t{1}}));
  txn->abort();

  Table* t = db.table("products");
  EXPECT_EQ(t->size(), 1u);
  const Row* r = t->find(Value{std::int64_t{1}});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(std::get<std::int64_t>((*r)[3]), 7);  // update rolled back
  EXPECT_EQ(t->find(Value{std::int64_t{2}}), nullptr);
}

TEST(TransactionTest, DestructorAbortsActiveTxn) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  {
    auto txn = db.begin();
    txn->insert("products",
                {std::int64_t{5}, std::string{"tmp"}, 1.0, std::int64_t{1}});
  }
  EXPECT_EQ(db.table("products")->size(), 0u);
  EXPECT_EQ(db.aborted_txns(), 1u);
}

TEST(TransactionTest, WriteLocksConflict) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  auto t1 = db.begin();
  auto t2 = db.begin();
  EXPECT_TRUE(t1->insert("products", {std::int64_t{1}, std::string{"A"}, 1.0,
                                      std::int64_t{1}}));
  // t2 cannot write the locked table...
  EXPECT_FALSE(t2->insert("products", {std::int64_t{2}, std::string{"B"}, 2.0,
                                       std::int64_t{2}}));
  t1->commit();
  // ...but can after t1 releases.
  EXPECT_TRUE(t2->insert("products", {std::int64_t{2}, std::string{"B"}, 2.0,
                                      std::int64_t{2}}));
  EXPECT_TRUE(t2->commit());
}

TEST(TransactionTest, PkUpdateRollsBackToOriginalKey) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  db.insert("products",
            {std::int64_t{1}, std::string{"A"}, 1.0, std::int64_t{1}});
  auto txn = db.begin();
  EXPECT_TRUE(
      txn->update("products", Value{std::int64_t{1}}, 0, Value{std::int64_t{8}}));
  txn->abort();
  Table* t = db.table("products");
  EXPECT_NE(t->find(Value{std::int64_t{1}}), nullptr);
  EXPECT_EQ(t->find(Value{std::int64_t{8}}), nullptr);
}

TEST(WalTest, CommitWritesRecordsAbortDoesNot) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  auto t1 = db.begin();
  t1->insert("products",
             {std::int64_t{1}, std::string{"A"}, 1.0, std::int64_t{1}});
  t1->commit();
  const std::size_t after_commit = db.wal().records();
  EXPECT_EQ(after_commit, 2u);  // INS + COMMIT
  EXPECT_GT(db.wal().bytes(), 0u);

  auto t2 = db.begin();
  t2->insert("products",
             {std::int64_t{2}, std::string{"B"}, 2.0, std::int64_t{2}});
  t2->abort();
  EXPECT_EQ(db.wal().records(), after_commit);  // nothing added

  db.wal().checkpoint();
  EXPECT_EQ(db.wal().records(), 0u);
  EXPECT_EQ(db.wal().checkpoints(), 1u);
}

TEST(DatabaseTest, AutoCommitHelpers) {
  auto db_ptr = make_shop();
  Database& db = *db_ptr;
  EXPECT_TRUE(db.insert(
      "products", {std::int64_t{1}, std::string{"A"}, 1.0, std::int64_t{1}}));
  EXPECT_TRUE(
      db.update("products", Value{std::int64_t{1}}, 2, Value{9.0}));
  EXPECT_TRUE(db.erase("products", Value{std::int64_t{1}}));
  EXPECT_FALSE(db.erase("products", Value{std::int64_t{1}}));
  EXPECT_FALSE(db.insert("nope", {std::int64_t{1}}));
  EXPECT_EQ(db.committed_txns(), 3u);
}

}  // namespace
}  // namespace mcs::host::db
