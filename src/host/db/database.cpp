#include "host/db/database.h"

#include <type_traits>

#include "sim/arena.h"
#include "sim/contract.h"
#include "sim/util.h"

namespace mcs::host::db {

namespace {

// Append one cell in to_string() form; WAL rows join cells with '|'.
void append_value(sim::BufWriter& w, const Value& v) {
  switch (v.index()) {
    case 0: w.i64(std::get<std::int64_t>(v)); break;
    case 1: w.f("%.6g", std::get<double>(v)); break;
    default: w.put(std::get<std::string>(v));
  }
}

void append_row(sim::BufWriter& w, const Row& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) w.ch('|');
    append_value(w, row[i]);
  }
}

}  // namespace

static_assert(std::is_trivially_copyable_v<WalRecord>,
              "WAL records are raw-arena allocated; they must not need a "
              "constructor or destructor");

void Wal::append(std::uint64_t txn, sim::Slice op) {
  MCS_ASSERT(txn != 0, "WAL records belong to a real transaction (ids "
                       "start at 1)");
  MCS_ASSERT(!op.empty(), "an empty WAL record would replay as a no-op");
  bytes_ += op.size() + 16;  // record framing overhead
  auto* rec = static_cast<WalRecord*>(
      arena_.allocate(sizeof(WalRecord), alignof(WalRecord)));
  *rec = WalRecord{txn, arena_.copy(op), nullptr};
  if (tail_ == nullptr) {
    head_ = rec;
  } else {
    tail_->next = rec;
  }
  tail_ = rec;
  ++count_;
}

void Wal::checkpoint() {
  head_ = nullptr;
  tail_ = nullptr;
  count_ = 0;
  bytes_ = 0;
  // Under MCS_SANITIZE=address the reset poisons every record and op byte,
  // so a stale WalRecord* held across a checkpoint traps immediately.
  arena_.reset();
  ++checkpoints_;
  MCS_INVARIANT(head_ == nullptr && count_ == 0 && bytes_ == 0,
                "a checkpoint truncates the log completely");
}

// ---------------------------------------------------------------------------
// Transaction
// ---------------------------------------------------------------------------

void TransactionRecycler::operator()(Transaction* txn) const {
  txn->db_.recycle(txn);
}

void Transaction::reset(std::uint64_t id) {
  id_ = id;
  state_ = State::kActive;
  undo_count_ = 0;
  redo_bytes_.clear();
  redo_ends_.clear();
  locked_count_ = 0;
}

bool Transaction::lock(Table& table) {
  if (table.lock_holder() == id_) return true;  // already held
  if (table.lock_holder() != 0) return false;   // no-wait: conflict
  MCS_ASSERT(locked_count_ < kMaxLockedTables,
             "transaction locked more tables than the inline lock table "
             "holds; raise kMaxLockedTables");
  table.set_lock_holder(id_);
  locked_tables_[locked_count_++] = &table;
  return true;
}

void Transaction::unlock_all() {
  for (std::size_t i = 0; i < locked_count_; ++i) {
    if (locked_tables_[i]->lock_holder() == id_) {
      locked_tables_[i]->set_lock_holder(0);
    }
  }
  locked_count_ = 0;
}

Transaction::UndoOp& Transaction::push_undo(UndoOp::Kind kind, Table& table,
                                            const Value& pk) {
  if (undo_count_ == undo_.size()) undo_.emplace_back();
  UndoOp& op = undo_[undo_count_++];
  op.kind = kind;
  op.table = &table;
  op.pk = pk;
  return op;
}

void Transaction::end_redo() {
  MCS_ASSERT(redo_bytes_.size() < UINT32_MAX,
             "redo offsets are 32-bit; one transaction must log under 4 GiB");
  redo_ends_.push_back(static_cast<std::uint32_t>(redo_bytes_.size()));
}

bool Transaction::insert(const std::string& table, Row row) {
  if (state_ != State::kActive) return false;
  Table* t = db_.table(table);
  if (t == nullptr || !lock(*t)) return false;
  MCS_ASSERT(t->primary_key_col() < row.size(),
             "row too short to carry the table's primary key");
  // The redo record is written before the row moves into the table, and
  // taken back if the table refuses it.
  const std::size_t mark = redo_bytes_.size();
  sim::BufWriter w{redo_bytes_};
  w.put("INS ").put(table).ch(' ');
  append_row(w, row);
  const Value& pk = row[t->primary_key_col()];
  push_undo(UndoOp::Kind::kErase, *t, pk);
  if (!t->insert(std::move(row))) {
    --undo_count_;
    redo_bytes_.resize(mark);
    return false;
  }
  end_redo();
  MCS_INVARIANT(undo_count_ == redo_ends_.size(),
                "every redo record needs a matching undo to stay abortable");
  return true;
}

bool Transaction::update(const std::string& table, const Value& pk,
                         std::size_t col, const Value& v) {
  if (state_ != State::kActive) return false;
  Table* t = db_.table(table);
  if (t == nullptr || !lock(*t)) return false;
  const Row* old = t->find(pk);
  if (old == nullptr) return false;
  // After a PK-column update the row is addressed by the new key.
  const bool pk_change = col == t->primary_key_col();
  UndoOp& op = push_undo(UndoOp::Kind::kRestoreRow, *t, pk_change ? v : pk);
  op.old_row = *old;
  if (!t->update(pk, col, v)) {
    --undo_count_;
    return false;
  }
  sim::BufWriter w{redo_bytes_};
  w.put("UPD ").put(table).ch(' ');
  append_value(w, pk);
  w.ch(' ').u64(col).ch(' ');
  append_value(w, v);
  end_redo();
  MCS_INVARIANT(undo_count_ == redo_ends_.size(),
                "every redo record needs a matching undo to stay abortable");
  return true;
}

bool Transaction::erase(const std::string& table, const Value& pk) {
  if (state_ != State::kActive) return false;
  Table* t = db_.table(table);
  if (t == nullptr || !lock(*t)) return false;
  const Row* old = t->find(pk);
  if (old == nullptr) return false;
  UndoOp& op = push_undo(UndoOp::Kind::kReinsert, *t, pk);
  op.old_row = *old;
  if (!t->erase(pk)) {
    --undo_count_;
    return false;
  }
  sim::BufWriter w{redo_bytes_};
  w.put("DEL ").put(table).ch(' ');
  append_value(w, pk);
  end_redo();
  MCS_INVARIANT(undo_count_ == redo_ends_.size(),
                "every redo record needs a matching undo to stay abortable");
  return true;
}

const Row* Transaction::find(const std::string& table, const Value& pk) const {
  const Table* t = db_.table(table);
  return t == nullptr ? nullptr : t->find(pk);
}

bool Transaction::commit() {
  if (state_ != State::kActive) return false;
  MCS_ASSERT(undo_count_ == redo_ends_.size(),
             "commit with unpaired undo/redo: some mutation bypassed "
             "transaction bookkeeping");
  std::uint32_t start = 0;
  for (const std::uint32_t end : redo_ends_) {
    db_.wal_.append(id_, sim::Slice{redo_bytes_.data() + start, end - start});
    start = end;
  }
  db_.wal_.append(id_, "COMMIT");
  state_ = State::kCommitted;
  unlock_all();
  ++db_.committed_;
  MCS_INVARIANT(state_ != State::kActive,
                "a committed transaction can never mutate again");
  return true;
}

void Transaction::abort() {
  if (state_ != State::kActive) return;
  // Undo in reverse order. Every undo entry's table is locked by this
  // transaction, and Database never replaces a locked table, so the
  // pointers are live.
  for (std::size_t i = undo_count_; i-- > 0;) {
    UndoOp& op = undo_[i];
    switch (op.kind) {
      case UndoOp::Kind::kErase:
        op.table->erase(op.pk);
        break;
      case UndoOp::Kind::kRestoreRow:
        op.table->update_row(op.pk, op.old_row);
        break;
      case UndoOp::Kind::kReinsert:
        op.table->insert(op.old_row);
        break;
    }
  }
  undo_count_ = 0;
  state_ = State::kAborted;
  unlock_all();
  ++db_.aborted_;
  MCS_INVARIANT(state_ == State::kAborted,
                "abort must land in the terminal state");
}

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

Table& Database::create_table(const std::string& table,
                              std::vector<Column> columns,
                              std::size_t primary_key_col) {
  MCS_ASSERT(!table.empty(), "tables are addressed by name everywhere; "
                             "an unnamed table would be unreachable");
  // Undo logs and lock lists point at tables: a table a transaction holds
  // may not be replaced under it.
  if (const Table* old = this->table(table); old != nullptr) {
    MCS_ASSERT(old->lock_holder() == 0,
               "create_table would replace a table an open transaction "
               "has locked");
  }
  auto t = std::make_unique<Table>(table, std::move(columns), primary_key_col);
  Table& ref = *t;
  tables_[table] = std::move(t);
  MCS_INVARIANT(tables_.contains(table),
                "create_table must leave the table addressable by name");
  return ref;
}

Table* Database::table(const std::string& name) {
  MCS_ASSERT(!name.empty(), "table lookup requires a name");
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::table(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, t] : tables_) out.push_back(name);
  return out;
}

TransactionPtr Database::begin() {
  Transaction* txn = free_txns_;
  if (txn != nullptr) {
    free_txns_ = txn->next_free_;
  } else {
    txns_.push_back(std::unique_ptr<Transaction>{new Transaction{*this}});
    txn = txns_.back().get();
  }
  txn->reset(next_txn_++);
  MCS_INVARIANT(txn->active() && txn->undo_count_ == 0 &&
                    txn->locked_count_ == 0,
                "a recycled transaction starts with no undo and no locks");
  return TransactionPtr{txn};
}

void Database::recycle(Transaction* txn) {
  if (txn->active()) txn->abort();
  txn->next_free_ = free_txns_;
  free_txns_ = txn;
}

// Autocommit: the handle recycles the transaction when it goes out of
// scope, aborting it if the operation failed. The `Transaction&` spells the
// type for mcs-analyze, which then resolves txn.insert to the analyzed
// Transaction body rather than guessing at an unresolved call.
bool Database::insert(const std::string& table, Row row) {
  const TransactionPtr handle = begin();
  Transaction& txn = *handle;
  const bool ok = txn.insert(table, std::move(row)) && txn.commit();
  MCS_INVARIANT(!ok || !txn.active(),
                "autocommit must never return success with the "
                "transaction (and its table lock) still open");
  return ok;
}

bool Database::update(const std::string& table, const Value& pk,
                      std::size_t col, const Value& v) {
  const TransactionPtr handle = begin();
  Transaction& txn = *handle;
  const bool ok = txn.update(table, pk, col, v) && txn.commit();
  MCS_INVARIANT(!ok || !txn.active(),
                "autocommit must never return success with the "
                "transaction (and its table lock) still open");
  return ok;
}

bool Database::erase(const std::string& table, const Value& pk) {
  const TransactionPtr handle = begin();
  Transaction& txn = *handle;
  const bool ok = txn.erase(table, pk) && txn.commit();
  MCS_INVARIANT(!ok || !txn.active(),
                "autocommit must never return success with the "
                "transaction (and its table lock) still open");
  return ok;
}

}  // namespace mcs::host::db
