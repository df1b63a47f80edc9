#include "host/db/table.h"

#include "sim/contract.h"

namespace mcs::host::db {

Table::Table(std::string name, std::vector<Column> columns,
             std::size_t primary_key_col)
    : name_{std::move(name)},
      columns_{std::move(columns)},
      pk_col_{primary_key_col} {
  MCS_ASSERT(pk_col_ < columns_.size(),
             "primary key column must name a declared column");
}

std::optional<std::size_t> Table::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return std::nullopt;
}

bool Table::insert(Row row) {
  if (row.size() != columns_.size()) return false;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (type_of(row[i]) != columns_[i].type) return false;
  }
  const Value& pk = row[pk_col_];
  if (primary_.contains(pk)) return false;  // duplicate key

  std::size_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    Slot& s = slots_[slot];
    free_head_ = s.next_free;
    s.row = std::move(row);
    s.live = true;
    s.next_free = kNoSlot;
  } else {
    slot = slots_.size();
    slots_.push_back(Slot{std::move(row), true});
  }
  primary_[slots_[slot].row[pk_col_]] = slot;
  index_insert(slot);
  ++live_rows_;
  MCS_INVARIANT(primary_.size() == live_rows_,
                "every live row is addressable by exactly one primary key");
  return true;
}

bool Table::update(const Value& pk, std::size_t col, const Value& v) {
  if (col >= columns_.size() || type_of(v) != columns_[col].type) return false;
  auto it = primary_.find(pk);
  if (it == primary_.end()) return false;
  if (col == pk_col_) {
    // Key change: must stay unique.
    if (!value_eq(v, pk) && primary_.contains(v)) return false;
    const std::size_t slot = it->second;
    index_erase(slot);
    primary_.erase(it);
    slots_[slot].row[col] = v;
    primary_[v] = slot;
    index_insert(slot);
    MCS_INVARIANT(primary_.size() == live_rows_,
                  "a primary-key update must move the row, not clone it");
    return true;
  }
  const std::size_t slot = it->second;
  index_erase(slot);
  slots_[slot].row[col] = v;
  index_insert(slot);
  MCS_INVARIANT(slots_[slot].live,
                "non-key update must target a live slot");
  return true;
}

bool Table::update_row(const Value& pk, Row row) {
  if (row.size() != columns_.size()) return false;
  auto it = primary_.find(pk);
  if (it == primary_.end()) return false;
  const Value& new_pk = row[pk_col_];
  if (!value_eq(new_pk, pk) && primary_.contains(new_pk)) return false;
  const std::size_t slot = it->second;
  index_erase(slot);
  primary_.erase(it);
  slots_[slot].row = std::move(row);
  primary_[slots_[slot].row[pk_col_]] = slot;
  index_insert(slot);
  MCS_INVARIANT(primary_.size() == live_rows_,
                "replacing a row must keep the primary index bijective");
  return true;
}

bool Table::erase(const Value& pk) {
  auto it = primary_.find(pk);
  if (it == primary_.end()) return false;
  const std::size_t slot = it->second;
  index_erase(slot);
  primary_.erase(it);
  slots_[slot].live = false;
  slots_[slot].row.clear();
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
  --live_rows_;
  MCS_INVARIANT(primary_.size() == live_rows_,
                "erase must retire both the slot and its primary-key entry");
  return true;
}

const Row* Table::find(const Value& pk) const {
  auto it = primary_.find(pk);
  return it == primary_.end() ? nullptr : &slots_[it->second].row;
}

void Table::create_index(std::size_t col) {
  MCS_ASSERT(col < columns_.size(),
             "cannot index a column the table does not have");
  Index& idx = indexes_[col];
  idx.clear();
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].live) idx.emplace(slots_[slot].row[col], slot);
  }
  MCS_INVARIANT(idx.size() == live_rows_,
                "a fresh index must cover every live row exactly once");
}

void Table::index_insert(std::size_t slot) {
  for (auto& [col, idx] : indexes_) {
    idx.emplace(slots_[slot].row[col], slot);
  }
}

void Table::index_erase(std::size_t slot) {
  for (auto& [col, idx] : indexes_) {
    auto [lo, hi] = idx.equal_range(slots_[slot].row[col]);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == slot) {
        idx.erase(it);
        break;
      }
    }
  }
}

}  // namespace mcs::host::db
