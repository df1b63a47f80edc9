#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "host/db/table.h"
#include "sim/arena.h"
#include "sim/thread_annotations.h"

namespace mcs::host::db {

// Write-ahead log record; the log is the durability model (the simulated
// fsync cost lives in DbServer's timing, the content here). Records are an
// intrusive list bump-allocated from the owning Wal's arena: both the
// structs and the op bytes die together at checkpoint().
struct WalRecord {
  std::uint64_t txn = 0;
  // "INS product 5|Phone|299.9", "COMMIT", ...
  sim::Slice op MCS_ARENA_STABLE = {};        // bytes in the Wal's arena
  WalRecord* next MCS_ARENA_STABLE = nullptr;  // same arena, same lifetime
};

class MCS_OWNS_ARENA Wal {
 public:
  void append(std::uint64_t txn, sim::Slice op);
  std::size_t records() const { return count_; }
  std::size_t bytes() const { return bytes_; }
  const WalRecord* head() const { return head_; }  // oldest-first traversal
  // Truncate after a checkpoint: one wholesale arena reset frees every
  // record and its bytes, keeping the warmed chunks for the next epoch.
  void checkpoint();
  std::uint64_t checkpoints() const { return checkpoints_; }
  // Occupancy view for the flight recorder (obs/flight_recorder.h): how
  // much of the arena is live vs. retained across checkpoints.
  const sim::Arena& arena() const { return arena_; }

 private:
  sim::Arena arena_;  // WalRecord structs + op bytes
  WalRecord* head_ = nullptr;
  WalRecord* tail_ = nullptr;
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t checkpoints_ = 0;
};

class Database;
class Transaction;

// Hands a finished transaction back to its Database for reuse (aborting it
// first if it is still active), so a handle going out of scope never frees.
struct TransactionRecycler {
  void operator()(Transaction* txn) const;
};
using TransactionPtr = std::unique_ptr<Transaction, TransactionRecycler>;

// A transaction: table-level exclusive write locks (no-wait: a conflicting
// operation fails immediately and the application retries), an undo log for
// rollback, and WAL records emitted at commit.
//
// Transactions are recycled by their Database: begin() hands out a parked
// one, and its undo entries, redo bytes and offsets keep their capacity, so
// a warm transaction allocates only what the tables themselves keep.
class Transaction {
 public:
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  std::uint64_t id() const { return id_; }
  bool active() const { return state_ == State::kActive; }

  // Mutations return false on lock conflict or constraint violation; the
  // transaction stays active (the caller decides whether to abort).
  bool insert(const std::string& table, Row row);
  bool update(const std::string& table, const Value& pk, std::size_t col,
              const Value& v);
  bool erase(const std::string& table, const Value& pk);

  // Reads see committed state plus this transaction's own writes
  // (single-version store; writers block other writers only).
  const Row* find(const std::string& table, const Value& pk) const;

  bool commit();
  void abort();

 private:
  friend class Database;
  friend struct TransactionRecycler;
  enum class State { kActive, kCommitted, kAborted };
  // One undo entry. Entries past undo_count_ are spare: reuse assigns into
  // them, so the old-row copies keep their vectors' and strings' capacity.
  struct UndoOp {
    enum class Kind { kErase, kRestoreRow, kReinsert } kind = Kind::kErase;
    Table* table = nullptr;
    Value pk;
    Row old_row;
  };

  explicit Transaction(Database& db) : db_{db} {}
  // Fresh-equivalent state under a new id; buffers keep their capacity.
  void reset(std::uint64_t id);
  bool lock(Table& table);
  void unlock_all();
  UndoOp& push_undo(UndoOp::Kind kind, Table& table, const Value& pk);
  // Close the redo record appended to redo_bytes_ since the last one; its
  // undo entry is already pushed.
  void end_redo();

  Database& db_;
  std::uint64_t id_ = 0;
  State state_ = State::kActive;
  Transaction* next_free_ = nullptr;  // Database's free list
  std::vector<UndoOp> undo_;
  std::size_t undo_count_ = 0;
  // WAL ops, written on commit: record i is
  // redo_bytes_[redo_ends_[i - 1], redo_ends_[i]).
  std::string redo_bytes_;
  std::vector<std::uint32_t> redo_ends_;
  // The tables this transaction holds the lock of, a fixed inline array: a
  // transaction touches a handful of tables; the capacity is
  // contract-checked in lock().
  static constexpr std::size_t kMaxLockedTables = 8;
  std::array<Table*, kMaxLockedTables> locked_tables_{};
  std::size_t locked_count_ = 0;
};

// The server-side database engine (§7 "database servers"): named tables,
// no-wait transactions, WAL. Single-versioned and single-threaded, matching
// the simulator's execution model.
class Database {
 public:
  explicit Database(std::string name) : name_{std::move(name)} {}
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }

  Table& create_table(const std::string& table, std::vector<Column> columns,
                      std::size_t primary_key_col = 0);
  Table* table(const std::string& name);
  const Table* table(const std::string& name) const;
  std::vector<std::string> table_names() const;

  // A recycled transaction under a fresh id; handing the pointer back
  // (destroying it) aborts the transaction if it is still active.
  TransactionPtr begin();

  // Auto-commit helpers (single-op transactions).
  bool insert(const std::string& table, Row row);
  bool update(const std::string& table, const Value& pk, std::size_t col,
              const Value& v);
  bool erase(const std::string& table, const Value& pk);

  Wal& wal() { return wal_; }
  std::uint64_t committed_txns() const { return committed_; }
  std::uint64_t aborted_txns() const { return aborted_; }

 private:
  friend class Transaction;
  friend struct TransactionRecycler;
  void recycle(Transaction* txn);

  std::string name_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  Wal wal_;
  // Every transaction this database made (the high-water mark of open
  // ones), and the idle ones chained through Transaction::next_free_.
  std::vector<std::unique_ptr<Transaction>> txns_;
  Transaction* free_txns_ = nullptr;
  std::uint64_t next_txn_ = 1;
  std::uint64_t committed_ = 0;
  std::uint64_t aborted_ = 0;
};

}  // namespace mcs::host::db
