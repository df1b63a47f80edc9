#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "host/db/database.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/arena.h"
#include "sim/contract.h"
#include "sim/pool.h"
#include "sim/stats.h"
#include "transport/tcp.h"

namespace mcs::host::db {

// --- Wire protocol helpers ---------------------------------------------------
// Line-based protocol; fields are percent-escaped so values may contain
// spaces, pipes and newlines.
std::string esc(const std::string& s);
std::string unesc(const std::string& s);

// The rows of one query response (SCAN/FINDBY/GET), decoded flat: every
// unescaped field lives in one owned byte buffer, each followed by a NUL so
// strtod/strtoll/atoi on `field.data()` stop exactly at the field's end,
// and one offsets vector locates rows and fields. A set of any size owns at
// most two heap blocks; fields are views into it.
class RowSet {
 public:
  // Decodes wire row lines into reused buffers and hands each finished
  // response over as an exactly sized RowSet (DbClient keeps one, warm).
  class Builder {
   public:
    // One row line: "<f1>|<f2>|..." with each field percent-escaped.
    void add_row(sim::Slice line);
    // Move the rows added so far into a RowSet (two allocations at most,
    // none for zero rows) and start over; the builder keeps its capacity.
    RowSet finish();

   private:
    std::string bytes_;
    std::vector<std::uint32_t> row_starts_;    // first field number per row
    std::vector<std::uint32_t> field_starts_;  // byte offset per field
  };

  // One decoded row: views into the owning RowSet, valid while it lives.
  class RowRef {
   public:
    std::size_t size() const {
      return set_->index_[row_ + 1] - set_->index_[row_];
    }
    std::string_view operator[](std::size_t j) const {
      MCS_ASSERT(j < size(), "RowSet field index out of range");
      return set_->field(set_->index_[row_] + j);
    }

   private:
    friend class RowSet;
    RowRef(const RowSet* set, std::size_t row) : set_{set}, row_{row} {}
    const RowSet* set_ = nullptr;
    std::size_t row_ = 0;
  };

  std::size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  RowRef operator[](std::size_t i) const {
    MCS_ASSERT(i < rows_, "RowSet row index out of range");
    return RowRef{this, i};
  }

 private:
  // index_ = [row start field numbers..., field count,
  //           field byte offsets..., bytes_.size()]
  std::string_view field(std::size_t g) const {
    const std::uint32_t begin = index_[rows_ + 1 + g];
    const std::uint32_t next = index_[rows_ + 2 + g];
    return std::string_view{bytes_.data() + begin, next - begin - 1};
  }

  std::string bytes_;
  std::vector<std::uint32_t> index_;
  std::size_t rows_ = 0;
};

// Durability policy for commits (ablation bench: WAL sync cost).
enum class SyncPolicy {
  kNone,       // no fsync modelled (fastest, unsafe)
  kPerCommit,  // one fsync per commit
  kGroup,      // group commit: one fsync per window, shared by all commits
};

struct DbServerConfig {
  sim::Time op_delay = sim::Time::micros(50);      // CPU per operation
  sim::Time fsync_delay = sim::Time::millis(2);    // one log flush
  SyncPolicy sync_policy = SyncPolicy::kPerCommit;
  sim::Time group_window = sim::Time::millis(2);   // group-commit interval
};

// Network front-end for a Database (§7 "database servers"): a line protocol
// over TCP.
//
//   BEGIN                          -> OK <txn>
//   COMMIT <txn>                   -> OK | ERR <why>     (after fsync delay)
//   ABORT <txn>                    -> OK
//   INS <txn> <table> <row>        -> OK | ERR <why>     (txn 0: autocommit)
//   UPD <txn> <table> <pk> <col> <value> -> OK | ERR
//   DEL <txn> <table> <pk>         -> OK | ERR
//   GET <table> <pk>               -> ROWS <n> + n row lines
//   FINDBY <table> <col> <value>   -> ROWS <n> + n row lines
//   SCAN <table>                   -> ROWS <n> + n row lines
class DbServer {
 public:
  DbServer(transport::TcpStack& stack, std::uint16_t port, Database& db,
           DbServerConfig cfg = {});
  DbServer(const DbServer&) = delete;
  DbServer& operator=(const DbServer&) = delete;

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }
  Database& database() { return db_; }

  // What a scheduled response event captures: the server and the index of
  // the response slot it completes. Trivially copyable and small, so the
  // kernel keeps it in the event's inline buffer.
  struct ResponseSlot {
    DbServer* server = nullptr;
    std::uint32_t slot = 0;
    void operator()() const { server->complete(slot); }
  };

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  // Message buffers past kKeptMessageBytes are "large"; idle slots keep
  // at most kMaxLargeIdle of them (complete()).
  static constexpr std::size_t kKeptMessageBytes = 256;
  static constexpr std::size_t kMaxLargeIdle = 8;
  struct Connection;
  // One request's response, from its line's arrival to its flush.
  // Responses complete after different simulated delays (fsync vs. plain
  // op), but the wire protocol matches responses to requests by order: each
  // connection chains its slots FIFO through `next` and flushes strictly in
  // order. Slots are recycled with their message buffer's capacity.
  struct PendingResponse {
    std::shared_ptr<Connection> conn;
    std::string msg;
    bool ready = false;
    std::uint32_t next = kNoSlot;  // the connection's outbox chain
    // Span covering the operation from arrival to response flush (includes
    // op CPU, fsync queueing); closed in complete().
    obs::TraceContext ctx;
  };
  struct Connection {
    transport::TcpSocket::Ptr socket;
    std::string buffer;
    // Oldest and newest response slot not yet flushed.
    std::uint32_t outbox_head = kNoSlot;
    std::uint32_t outbox_tail = kNoSlot;
    // Transactions opened on this connection (owned server-side).
    std::unordered_map<std::uint64_t, TransactionPtr> txns;
  };

  void on_accept(transport::TcpSocket::Ptr s);
  // `line` is a window of the connection's receive buffer (DESIGN.md §12);
  // fields are parsed as views and only escape into owning strings where a
  // typed Value or map key demands one. The response is written into the
  // request's slot.
  void on_line(const std::shared_ptr<Connection>& conn, sim::Slice line);
  // Mark `slot` ready and flush the in-order prefix of ready responses.
  void complete(std::uint32_t slot);
  // Answer `slot` after the operation's CPU time (respond) or once the
  // commit is durable (respond_commit); the message is `msg`, or what the
  // handler already wrote into the slot.
  void respond(std::uint32_t slot);
  void respond(std::uint32_t slot, sim::Slice msg);
  void respond_commit(std::uint32_t slot, sim::Slice msg);

  transport::TcpStack& stack_;
  Database& db_;
  DbServerConfig cfg_;
  sim::SlotPool<PendingResponse> slots_;
  std::size_t large_idle_ = 0;  // idle slots holding a large buffer
  // Group commit: the slots waiting for the window's fsync, and the batch
  // being flushed (swapped, so both keep their capacity).
  std::vector<std::uint32_t> pending_commits_;
  std::vector<std::uint32_t> commit_batch_;
  bool group_timer_armed_ = false;
  // The WAL lives on one log device: fsyncs serialize on it.
  sim::Time log_busy_until_;
  sim::StatsRegistry stats_;
  // Telemetry handles, cached at construction (obs/metrics.h). WAL flush
  // latency is commit-observed: queueing behind the busy log device counts,
  // which is exactly what an SLO investigation needs to see.
  obs::TsCounter* m_requests_ = obs::metric_counter("host.db.requests");
  obs::TsCounter* m_fsyncs_ = obs::metric_counter("host.db.fsyncs");
  obs::TsLogHist* m_wal_flush_us_ =
      obs::metric_histogram("host.db.wal_flush_us");
};

// Async client for DbServer; commands pipeline on one connection.
class DbClient {
 public:
  // Generic result: ok flag, error text, and decoded rows (for queries).
  struct Result {
    bool ok = false;
    std::string error;
    std::uint64_t txn = 0;  // for begin()
    RowSet rows;
  };
  using Callback = std::function<void(Result)>;

  DbClient(transport::TcpStack& stack, net::Endpoint server);
  DbClient(const DbClient&) = delete;
  DbClient& operator=(const DbClient&) = delete;

  void begin(Callback cb);
  void commit(std::uint64_t txn, Callback cb);
  void abort_txn(std::uint64_t txn, Callback cb);
  void insert(std::uint64_t txn, const std::string& table,
              const std::vector<std::string>& fields, Callback cb);
  void update(std::uint64_t txn, const std::string& table,
              const std::string& pk, std::size_t col, const std::string& value,
              Callback cb);
  void erase(std::uint64_t txn, const std::string& table,
             const std::string& pk, Callback cb);
  void get(const std::string& table, const std::string& pk, Callback cb);
  void find_by(const std::string& table, std::size_t col,
               const std::string& value, Callback cb);
  void scan(const std::string& table, Callback cb);

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

  // The socket's data handler: frames complete response lines as views of
  // the segment and carries only a partial tail. Public so tests can replay
  // a response under any segmentation.
  void on_data(sim::Slice bytes);

 private:
  // Each command is written into line_ (reused, so its capacity stays
  // warm): command() clears it and returns a writer over it, and
  // send_command() frames and sends what that writer wrote.
  sim::BufWriter command();
  void send_command(sim::BufWriter& line, Callback cb);
  void on_line(sim::Slice line);
  void deliver(Result&& r);
  void fail_all(const std::string& why);

  transport::TcpStack& stack_;
  net::Endpoint server_;
  transport::TcpSocket::Ptr socket_;
  std::string buffer_;
  std::string line_;
  std::deque<Callback> pending_;
  // Multi-line response assembly.
  std::uint64_t rows_expected_ = 0;
  Result partial_;
  RowSet::Builder rows_in_;
  sim::StatsRegistry stats_;
};

}  // namespace mcs::host::db
