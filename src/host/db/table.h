#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "host/db/value.h"
#include "sim/contract.h"

namespace mcs::host::db {

// One relational table: typed columns, a unique primary key, optional
// secondary indexes, predicate scans. Rows live in a slot vector; indexes
// map key values to slots.
class Table {
 public:
  Table(std::string name, std::vector<Column> columns,
        std::size_t primary_key_col = 0);

  const std::string& name() const { return name_; }
  const std::vector<Column>& columns() const { return columns_; }
  std::size_t primary_key_col() const { return pk_col_; }
  std::optional<std::size_t> column_index(const std::string& name) const;

  // --- Mutations (return false on constraint violation) ---------------------
  bool insert(Row row);
  bool update(const Value& pk, std::size_t col, const Value& v);
  bool update_row(const Value& pk, Row row);
  bool erase(const Value& pk);

  // --- Queries ---------------------------------------------------------------
  // Rows are visited in place: `fn(const Row&)` sees live table storage, so
  // no Row is copied. A visitor must not mutate the table.
  const Row* find(const Value& pk) const;
  // Every live row, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.live) fn(s.row);
    }
  }
  // Rows whose `col` equals `v`: the primary key or a secondary index when
  // one covers `col` (index order), otherwise a slot-order scan.
  template <typename Fn>
  void for_each_match(std::size_t col, const Value& v, Fn&& fn) const {
    MCS_ASSERT(col < columns_.size(), "cannot match a column the table lacks");
    if (col == pk_col_) {
      if (const Row* r = find(v); r != nullptr) fn(*r);
      return;
    }
    if (auto idx = indexes_.find(col); idx != indexes_.end()) {
      auto [lo, hi] = idx->second.equal_range(v);
      for (auto it = lo; it != hi; ++it) fn(slots_[it->second].row);
      return;
    }
    for_each([&](const Row& r) {
      if (value_eq(r[col], v)) fn(r);
    });
  }

  void create_index(std::size_t col);
  bool has_index(std::size_t col) const { return indexes_.contains(col); }

  std::size_t size() const { return live_rows_; }

  // The exclusive write lock (database.h): the id of the transaction that
  // holds it, 0 when the table is unlocked.
  std::uint64_t lock_holder() const { return lock_holder_; }
  void set_lock_holder(std::uint64_t txn) { lock_holder_ = txn; }

 private:
  // Dead slots chain through the slots themselves: erase/insert churn on
  // the steady state reuses storage with no free-list container to grow
  // (the table hot path stays allocation-free once the slot vector has
  // reached the working-set size).
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  struct Slot {
    Row row;
    bool live = false;
    std::size_t next_free = kNoSlot;  // intrusive free-list link
  };
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return value_less(a, b);
    }
  };
  using Index = std::multimap<Value, std::size_t, ValueLess>;

  void index_insert(std::size_t slot);
  void index_erase(std::size_t slot);

  std::string name_;
  std::vector<Column> columns_;
  std::size_t pk_col_ = 0;
  std::vector<Slot> slots_;
  std::size_t free_head_ = kNoSlot;  // head of the intrusive free list
  std::map<Value, std::size_t, ValueLess> primary_;
  std::map<std::size_t, Index> indexes_;  // col -> index
  std::size_t live_rows_ = 0;
  std::uint64_t lock_holder_ = 0;
};

}  // namespace mcs::host::db
