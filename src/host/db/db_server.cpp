#include "host/db/db_server.h"

#include <algorithm>
#include <cstdlib>
#include <type_traits>

#include "sim/arena.h"
#include "sim/inline_function.h"
#include "sim/util.h"

namespace mcs::host::db {

// ---------------------------------------------------------------------------
// Protocol helpers
// ---------------------------------------------------------------------------

namespace {

// Append `s` percent-escaped (the wire form of esc()) through `w`.
void esc_append(sim::BufWriter& w, sim::Slice s) {
  for (char c : s) {
    switch (c) {
      case ' ': w.put("%20"); break;
      case '|': w.put("%7C"); break;
      case '%': w.put("%25"); break;
      case '\n': w.put("%0A"); break;
      default: w.ch(c);
    }
  }
}

// Append the unescaped form of `s` (inverse of esc_append). A `%XY` window
// decodes with strtol(16) semantics over the two characters, matching what
// the historical substr-based decoder produced for malformed input.
void unesc_append(std::string& out, sim::Slice s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%' && i + 2 < s.size()) {
      const char hex[3] = {s[i + 1], s[i + 2], '\0'};
      out += static_cast<char>(std::strtol(hex, nullptr, 16));
      i += 2;
    } else {
      out += s[i];
    }
  }
}

}  // namespace

std::string esc(const std::string& s) {
  return sim::build(s.size(), [&](std::string& out) {
    sim::BufWriter w{out};
    esc_append(w, s);
  });
}

std::string unesc(const std::string& s) {
  return sim::build(s.size(), [&](std::string& out) { unesc_append(out, s); });
}

namespace {

// Split on ' ' exactly as sim::split would (empty fields count toward the
// total), capturing the first `cap` fields as views. Returns the full count.
std::size_t split_ws(sim::Slice s, sim::Slice* f, std::size_t cap) {
  std::size_t nf = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ' ') {
      if (nf < cap) f[nf] = sim::Slice{s.data() + start, i - start};
      ++nf;
      start = i + 1;
    }
  }
  return nf;
}

// strtoull(.., 10) semantics over a view; command ids and column indexes are
// produced by our own client, so signs and overflow never occur.
std::uint64_t parse_u64(sim::Slice s) {
  std::size_t i = 0;
  while (i < s.size() && sim::is_ascii_space(s[i])) ++i;
  std::uint64_t v = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
  }
  return v;
}

// Unescape one wire field into a reused per-thread buffer and parse it as
// `type`: the typed Value is the only owning allocation on this path.
Value parse_field(sim::Slice f, ValueType type) {
  std::string& buf = sim::scratch(0);
  buf.clear();
  unesc_append(buf, f);
  return parse_value(buf, type);
}

// Decode "<f1>|<f2>|..." straight into a typed Row, skipping the
// vector<string> the old split_fields round trip materialized per insert.
Row decode_row_packed(const Table& t, sim::Slice packed) {
  std::size_t nf = 1;
  for (char c : packed) nf += c == '|' ? 1 : 0;
  Row row;
  row.resize(std::min(nf, t.columns().size()));
  std::size_t start = 0;
  std::size_t idx = 0;
  for (std::size_t i = 0; i <= packed.size() && idx < row.size(); ++i) {
    if (i == packed.size() || packed[i] == '|') {
      row[idx] = parse_field(sim::Slice{packed.data() + start, i - start},
                             t.columns()[idx].type);
      ++idx;
      start = i + 1;
    }
  }
  return row;
}

// Serialize one cell in to_string() form (ints "%lld", reals "%.6g", text
// escaped); numeric renderings never contain escapable characters.
void encode_value(sim::BufWriter& w, const Value& v) {
  switch (v.index()) {
    case 0: w.i64(std::get<std::int64_t>(v)); break;
    case 1: w.f("%.6g", std::get<double>(v)); break;
    default: esc_append(w, std::get<std::string>(v));
  }
}

void encode_row(sim::BufWriter& w, const Row& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) w.ch('|');
    encode_value(w, row[i]);
  }
}

// "ROWS <n>" plus one line per row that `visit` hands to its emitter,
// encoded straight from table storage into `out` (a response slot's reused
// buffer). Rows land in a reused per-thread buffer first, as the count
// leads the message.
template <typename Visit>
void rows_message(std::string& out, Visit&& visit) {
  std::string& rows = sim::scratch(2);
  rows.clear();
  sim::BufWriter w{rows};
  std::uint64_t n = 0;
  visit([&](const Row& r) {
    w.ch('\n');
    encode_row(w, r);
    ++n;
  });
  out.clear();
  sim::BufWriter{out}.put("ROWS ").u64(n).put(rows);
}

// Spans never own their names, so commands map to static strings.
const char* db_span_name(sim::Slice cmd) {
  if (cmd == "BEGIN") return "db.begin";
  if (cmd == "COMMIT") return "db.commit";
  if (cmd == "ABORT") return "db.abort";
  if (cmd == "INS") return "db.insert";
  if (cmd == "UPD") return "db.update";
  if (cmd == "DEL") return "db.delete";
  if (cmd == "GET") return "db.get";
  if (cmd == "FINDBY") return "db.findby";
  if (cmd == "SCAN") return "db.scan";
  return "db.op";
}

}  // namespace

// ---------------------------------------------------------------------------
// RowSet
// ---------------------------------------------------------------------------

void RowSet::Builder::add_row(sim::Slice line) {
  row_starts_.push_back(static_cast<std::uint32_t>(field_starts_.size()));
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '|') {
      field_starts_.push_back(static_cast<std::uint32_t>(bytes_.size()));
      unesc_append(bytes_, sim::Slice{line.data() + start, i - start});
      bytes_.push_back('\0');
      start = i + 1;
    }
  }
  MCS_ASSERT(bytes_.size() < UINT32_MAX,
             "RowSet offsets are 32-bit; one response must stay under 4 GiB");
}

RowSet RowSet::Builder::finish() {
  RowSet out;
  out.rows_ = row_starts_.size();
  if (out.rows_ > 0) {
    const std::size_t nfields = field_starts_.size();
    out.bytes_ = bytes_;
    out.index_.resize(out.rows_ + 1 + nfields + 1);
    auto it = std::copy(row_starts_.begin(), row_starts_.end(),
                        out.index_.begin());
    *it++ = static_cast<std::uint32_t>(nfields);
    it = std::copy(field_starts_.begin(), field_starts_.end(), it);
    *it++ = static_cast<std::uint32_t>(bytes_.size());
    MCS_INVARIANT(it == out.index_.end(),
                  "the index holds exactly the row and field tables");
  }
  bytes_.clear();
  row_starts_.clear();
  field_starts_.clear();
  return out;
}

// ---------------------------------------------------------------------------
// DbServer
// ---------------------------------------------------------------------------

DbServer::DbServer(transport::TcpStack& stack, std::uint16_t port,
                   Database& db, DbServerConfig cfg)
    : stack_{stack}, db_{db}, cfg_{cfg} {
  stack_.listen(port,
                [this](transport::TcpSocket::Ptr s) { on_accept(std::move(s)); });
}

void DbServer::on_accept(transport::TcpSocket::Ptr s) {
  stats_.counter("connections").add();
  auto conn = std::make_shared<Connection>();
  conn->socket = std::move(s);
  conn->socket->on_data = [this, conn](const std::string& bytes) {
    // Steady state: whole lines arrive with an empty carry buffer, so the
    // parse runs over the segment itself and only a partial tail is copied.
    sim::Slice data;
    if (conn->buffer.empty()) {
      data = bytes;
    } else {
      conn->buffer += bytes;
      data = conn->buffer;
    }
    std::size_t start = 0;
    std::size_t nl;
    while ((nl = data.find('\n', start)) != sim::Slice::npos) {
      if (nl > start) {
        on_line(conn, sim::Slice{data.data() + start, nl - start});
      }
      start = nl + 1;
    }
    if (data.data() == conn->buffer.data()) {
      conn->buffer.erase(0, start);
    } else if (start < data.size()) {
      conn->buffer.assign(data.data() + start, data.size() - start);
    }
  };
  conn->socket->on_remote_close = [conn] { conn->socket->close(); };
}

static_assert(std::is_trivially_copyable_v<DbServer::ResponseSlot> &&
                  sizeof(DbServer::ResponseSlot) <=
                      sim::InlineFunction::kInlineSize,
              "a scheduled DB response must fit the kernel's inline buffer");

void DbServer::complete(std::uint32_t slot) {
  PendingResponse& done = slots_[slot];
  done.ready = true;
  obs::end_span(done.ctx, stack_.sim().now());
  // The flush below releases slots, this one included: hold the connection.
  const std::shared_ptr<Connection> conn = done.conn;
  while (conn->outbox_head != kNoSlot && slots_[conn->outbox_head].ready) {
    const std::uint32_t front = conn->outbox_head;
    PendingResponse& p = slots_[front];
    conn->outbox_head = p.next;
    if (conn->outbox_head == kNoSlot) conn->outbox_tail = kNoSlot;
    // Response bytes stamped with the operation they answer. The message
    // doubles as the send buffer.
    obs::ActiveScope scope{p.ctx};
    p.msg += '\n';
    conn->socket->send(p.msg);
    p.conn.reset();
    // Idle slots keep at most kMaxLargeIdle long buffers (a SCAN of many
    // rows): enough for the steady state, while a burst of concurrent
    // scans does not leave every slot it grew holding its peak size.
    if (p.msg.capacity() > kKeptMessageBytes) {
      if (large_idle_ < kMaxLargeIdle) {
        ++large_idle_;
      } else {
        p.msg.clear();
        p.msg.shrink_to_fit();
      }
    }
    slots_.release(front);
  }
}

void DbServer::respond(std::uint32_t slot) {
  // CPU cost of handling one operation.
  stack_.sim().after(cfg_.op_delay, ResponseSlot{this, slot});
}

void DbServer::respond(std::uint32_t slot, sim::Slice msg) {
  slots_[slot].msg.assign(msg.data(), msg.size());
  respond(slot);
}

void DbServer::respond_commit(std::uint32_t slot, sim::Slice msg) {
  slots_[slot].msg.assign(msg.data(), msg.size());
  switch (cfg_.sync_policy) {
    case SyncPolicy::kNone:
      respond(slot);
      return;
    case SyncPolicy::kPerCommit: {
      // One serialized fsync per commit on the single log device.
      const sim::Time start = std::max(stack_.sim().now() + cfg_.op_delay,
                                       log_busy_until_);
      log_busy_until_ = start + cfg_.fsync_delay;
      stack_.sim().at(log_busy_until_, ResponseSlot{this, slot});
      stats_.counter("fsyncs").add();
      obs::metric_add(m_fsyncs_);
      obs::metric_record(m_wal_flush_us_,
                         (log_busy_until_ - stack_.sim().now()).to_micros());
      return;
    }
    case SyncPolicy::kGroup:
      pending_commits_.push_back(slot);
      if (!group_timer_armed_) {
        group_timer_armed_ = true;
        // Collect commits for one window, then issue a single fsync.
        const sim::Time start = std::max(
            stack_.sim().now() + cfg_.group_window, log_busy_until_);
        log_busy_until_ = start + cfg_.fsync_delay;
        stack_.sim().at(log_busy_until_, [this] {
          group_timer_armed_ = false;
          stats_.counter("fsyncs").add();
          obs::metric_add(m_fsyncs_);
          commit_batch_.swap(pending_commits_);
          stats_.counter("group_commit_batches").add();
          for (const std::uint32_t sl : commit_batch_) complete(sl);
          commit_batch_.clear();
        });
      }
      // Once the window is armed log_busy_until_ is this batch's flush
      // completion, so every joining commit observes its true wait.
      obs::metric_record(m_wal_flush_us_,
                         (log_busy_until_ - stack_.sim().now()).to_micros());
      return;
  }
}

void DbServer::on_line(const std::shared_ptr<Connection>& conn,
                       sim::Slice line) {
  stats_.counter("requests").add();
  obs::metric_add(m_requests_);
  const std::uint32_t slot = slots_.acquire();
  PendingResponse& p = slots_[slot];
  if (p.msg.capacity() > kKeptMessageBytes) --large_idle_;
  p.conn = conn;
  p.msg.clear();
  p.ready = false;
  p.next = kNoSlot;
  if (conn->outbox_tail == kNoSlot) {
    conn->outbox_head = slot;
  } else {
    slots_[conn->outbox_tail].next = slot;
  }
  conn->outbox_tail = slot;
  sim::Slice f[6];
  const std::size_t nf = split_ws(line, f, 6);
  const sim::Slice cmd = f[0];
  // Ambient parent: the app.program span that issued the command.
  p.ctx = obs::begin_span(obs::Component::kHostDb, db_span_name(cmd),
                          stack_.sim().now());

  auto get_txn = [&](std::uint64_t id) -> Transaction* {
    auto it = conn->txns.find(id);
    return it == conn->txns.end() ? nullptr : it->second.get();
  };
  // Table and transaction APIs key on owning strings; one reused per-thread
  // buffer carries the table name through the whole command. parse_field
  // uses slot 0, so the name is safe in slot 1 for the command's lifetime.
  std::string& tname = sim::scratch(1);
  auto lookup_table = [&](sim::Slice name) -> Table* {
    tname.assign(name.data(), name.size());
    return db_.table(tname);
  };

  if (cmd == "BEGIN") {
    TransactionPtr opened = db_.begin();
    const std::uint64_t id = opened->id();
    conn->txns[id] = std::move(opened);
    sim::BufWriter{p.msg}.put("OK ").u64(id);
    respond(slot);
    return;
  }
  if (cmd == "COMMIT" && nf == 2) {
    const std::uint64_t id = parse_u64(f[1]);
    Transaction* txn = get_txn(id);
    if (txn == nullptr) {
      respond(slot, "ERR unknown-txn");
      return;
    }
    const bool ok = txn->commit();
    conn->txns.erase(id);
    stats_.counter(ok ? "commits" : "commit_failures").add();
    respond_commit(slot, ok ? "OK" : "ERR commit-failed");
    return;
  }
  if (cmd == "ABORT" && nf == 2) {
    // Dropping the handle aborts an active transaction.
    conn->txns.erase(parse_u64(f[1]));
    respond(slot, "OK");
    return;
  }
  if (cmd == "INS" && nf == 4) {
    const std::uint64_t id = parse_u64(f[1]);
    Table* t = lookup_table(f[2]);
    if (t == nullptr) {
      respond(slot, "ERR no-table");
      return;
    }
    Row row = decode_row_packed(*t, f[3]);
    bool ok;
    if (id == 0) {
      ok = db_.insert(tname, std::move(row));
      if (ok) {
        respond_commit(slot, "OK");
        return;
      }
    } else {
      Transaction* txn = get_txn(id);
      ok = txn != nullptr && txn->insert(tname, std::move(row));
    }
    respond(slot, ok ? "OK" : "ERR insert-failed");
    return;
  }
  if (cmd == "UPD" && nf == 6) {
    const std::uint64_t id = parse_u64(f[1]);
    Table* t = lookup_table(f[2]);
    if (t == nullptr) {
      respond(slot, "ERR no-table");
      return;
    }
    const std::size_t col = parse_u64(f[4]);
    if (col >= t->columns().size()) {
      respond(slot, "ERR bad-column");
      return;
    }
    const Value pk =
        parse_field(f[3], t->columns()[t->primary_key_col()].type);
    const Value v = parse_field(f[5], t->columns()[col].type);
    bool ok;
    if (id == 0) {
      ok = db_.update(tname, pk, col, v);
      if (ok) {
        respond_commit(slot, "OK");
        return;
      }
    } else {
      Transaction* txn = get_txn(id);
      ok = txn != nullptr && txn->update(tname, pk, col, v);
    }
    respond(slot, ok ? "OK" : "ERR update-failed");
    return;
  }
  if (cmd == "DEL" && nf == 4) {
    const std::uint64_t id = parse_u64(f[1]);
    Table* t = lookup_table(f[2]);
    if (t == nullptr) {
      respond(slot, "ERR no-table");
      return;
    }
    const Value pk =
        parse_field(f[3], t->columns()[t->primary_key_col()].type);
    bool ok;
    if (id == 0) {
      ok = db_.erase(tname, pk);
      if (ok) {
        respond_commit(slot, "OK");
        return;
      }
    } else {
      Transaction* txn = get_txn(id);
      ok = txn != nullptr && txn->erase(tname, pk);
    }
    respond(slot, ok ? "OK" : "ERR delete-failed");
    return;
  }
  if (cmd == "GET" && nf == 3) {
    Table* t = lookup_table(f[1]);
    if (t == nullptr) {
      respond(slot, "ERR no-table");
      return;
    }
    const Value pk =
        parse_field(f[2], t->columns()[t->primary_key_col()].type);
    rows_message(p.msg, [&](auto&& emit) {
      if (const Row* r = t->find(pk); r != nullptr) emit(*r);
    });
    respond(slot);
    return;
  }
  if (cmd == "FINDBY" && nf == 4) {
    Table* t = lookup_table(f[1]);
    if (t == nullptr) {
      respond(slot, "ERR no-table");
      return;
    }
    const std::size_t col = parse_u64(f[2]);
    if (col >= t->columns().size()) {
      respond(slot, "ERR bad-column");
      return;
    }
    const Value v = parse_field(f[3], t->columns()[col].type);
    rows_message(p.msg,
                 [&](auto&& emit) { t->for_each_match(col, v, emit); });
    respond(slot);
    return;
  }
  if (cmd == "SCAN" && nf == 2) {
    Table* t = lookup_table(f[1]);
    if (t == nullptr) {
      respond(slot, "ERR no-table");
      return;
    }
    rows_message(p.msg, [&](auto&& emit) { t->for_each(emit); });
    respond(slot);
    return;
  }
  respond(slot, "ERR bad-command");
}

// ---------------------------------------------------------------------------
// DbClient
// ---------------------------------------------------------------------------

DbClient::DbClient(transport::TcpStack& stack, net::Endpoint server)
    : stack_{stack}, server_{server} {
  socket_ = stack_.connect(server_);
  socket_->on_data = [this](const std::string& bytes) { on_data(bytes); };
  socket_->on_closed = [this] { fail_all("connection-closed"); };
}

void DbClient::fail_all(const std::string& why) {
  auto pending = std::move(pending_);
  pending_.clear();
  for (auto& cb : pending) {
    Result r;
    r.error = why;
    cb(std::move(r));
  }
}

sim::BufWriter DbClient::command() {
  line_.clear();
  return sim::BufWriter{line_};
}

void DbClient::send_command(sim::BufWriter& line, Callback cb) {
  MCS_ASSERT(line.str().data() == line_.data(),
             "commands are written into the client's line buffer");
  stats_.counter("commands").add();
  pending_.push_back(std::move(cb));
  line.ch('\n');
  socket_->send(line.view());
}

void DbClient::on_data(sim::Slice bytes) {
  // Same framing as DbServer's: lines are views of the segment itself, and
  // only a partial tail is carried to the next segment.
  sim::Slice data;
  if (buffer_.empty()) {
    data = bytes;
  } else {
    buffer_ += bytes;
    data = buffer_;
  }
  std::size_t start = 0;
  std::size_t nl;
  while ((nl = data.find('\n', start)) != sim::Slice::npos) {
    on_line(sim::Slice{data.data() + start, nl - start});
    start = nl + 1;
  }
  if (data.data() == buffer_.data()) {
    buffer_.erase(0, start);
  } else if (start < data.size()) {
    buffer_.assign(data.data() + start, data.size() - start);
  }
  MCS_INVARIANT(buffer_.find('\n') == std::string::npos,
                "the client carries at most one partial line");
}

void DbClient::deliver(Result&& r) {
  if (pending_.empty()) return;  // stray response
  auto cb = std::move(pending_.front());
  pending_.pop_front();
  cb(std::move(r));
}

void DbClient::on_line(sim::Slice line) {
  if (rows_expected_ > 0) {
    rows_in_.add_row(line);
    if (--rows_expected_ == 0) {
      partial_.rows = rows_in_.finish();
      deliver(std::move(partial_));
      partial_ = Result{};
    }
    return;
  }
  if (pending_.empty()) return;  // stray line

  Result r;
  if (line.starts_with("OK")) {
    r.ok = true;
    if (line.size() > 3) {
      r.txn = parse_u64(sim::Slice{line.data() + 3, line.size() - 3});
    }
  } else if (line.starts_with("ROWS ")) {
    r.ok = true;
    const std::uint64_t n =
        parse_u64(sim::Slice{line.data() + 5, line.size() - 5});
    if (n > 0) {
      partial_ = std::move(r);
      rows_expected_ = n;
      return;  // wait for the row lines
    }
  } else {
    r.error.assign(line.data(), line.size());
  }
  deliver(std::move(r));
}

void DbClient::begin(Callback cb) {
  send_command(command().put("BEGIN"), std::move(cb));
}
void DbClient::commit(std::uint64_t txn, Callback cb) {
  send_command(command().put("COMMIT ").u64(txn), std::move(cb));
}
void DbClient::abort_txn(std::uint64_t txn, Callback cb) {
  send_command(command().put("ABORT ").u64(txn), std::move(cb));
}
void DbClient::insert(std::uint64_t txn, const std::string& table,
                      const std::vector<std::string>& fields, Callback cb) {
  MCS_ASSERT(!table.empty() && !fields.empty(),
             "INS needs a named table and at least the primary-key field");
  sim::BufWriter w = command();
  w.put("INS ").u64(txn).ch(' ').put(table).ch(' ');
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) w.ch('|');
    esc_append(w, fields[i]);
  }
  send_command(w, std::move(cb));
}
void DbClient::update(std::uint64_t txn, const std::string& table,
                      const std::string& pk, std::size_t col,
                      const std::string& value, Callback cb) {
  MCS_ASSERT(!table.empty(),
             "UPD addresses its table by name; the server has no default");
  sim::BufWriter w = command();
  w.put("UPD ").u64(txn).ch(' ').put(table).ch(' ');
  esc_append(w, pk);
  w.ch(' ').u64(col).ch(' ');
  esc_append(w, value);
  send_command(w, std::move(cb));
}
void DbClient::erase(std::uint64_t txn, const std::string& table,
                     const std::string& pk, Callback cb) {
  MCS_ASSERT(!table.empty(),
             "DEL addresses its table by name; the server has no default");
  sim::BufWriter w = command();
  w.put("DEL ").u64(txn).ch(' ').put(table).ch(' ');
  esc_append(w, pk);
  send_command(w, std::move(cb));
}
void DbClient::get(const std::string& table, const std::string& pk,
                   Callback cb) {
  MCS_ASSERT(!table.empty(),
             "GET addresses its table by name; the server has no default");
  sim::BufWriter w = command();
  w.put("GET ").put(table).ch(' ');
  esc_append(w, pk);
  send_command(w, std::move(cb));
}
void DbClient::find_by(const std::string& table, std::size_t col,
                       const std::string& value, Callback cb) {
  MCS_ASSERT(!table.empty(),
             "FINDBY addresses its table by name; the server has no default");
  sim::BufWriter w = command();
  w.put("FINDBY ").put(table).ch(' ').u64(col).ch(' ');
  esc_append(w, value);
  send_command(w, std::move(cb));
}
void DbClient::scan(const std::string& table, Callback cb) {
  send_command(command().put("SCAN ").put(table), std::move(cb));
}

}  // namespace mcs::host::db
