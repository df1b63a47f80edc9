#include "core/payment.h"

#include <algorithm>
#include <type_traits>

#include "sim/arena.h"
#include "sim/inline_function.h"
#include "sim/util.h"

namespace mcs::core {

using host::HttpRequest;
using host::HttpResponse;
using host::query_param;
using host::db::Value;

// ---------------------------------------------------------------------------
// PaymentProcessor
// ---------------------------------------------------------------------------

PaymentProcessor::PaymentProcessor(host::HttpServer& http,
                                   host::db::Database& db,
                                   sim::Simulator& sim)
    : db_{db}, sim_{sim} {
  if (db_.table("accounts") == nullptr) {
    db_.create_table("accounts", {{"id", host::db::ValueType::kText},
                                  {"balance", host::db::ValueType::kReal}});
  }
  http.route("POST", "/bank/prepare",
             [this](const HttpRequest& req) { return handle_prepare(req); });
  http.route("POST", "/bank/commit",
             [this](const HttpRequest& req) { return handle_commit(req); });
  http.route("POST", "/bank/abort",
             [this](const HttpRequest& req) { return handle_abort(req); });
}

void PaymentProcessor::open_account(const std::string& account,
                                    double balance) {
  db_.insert("accounts", {account, balance});
}

double PaymentProcessor::balance(const std::string& account) const {
  const host::db::Row* r = db_.table("accounts")->find(Value{account});
  return r == nullptr ? 0.0 : std::get<double>((*r)[1]);
}

HttpResponse PaymentProcessor::handle_prepare(const HttpRequest& req) {
  txn_.assign(query_param(req.path(), "txn"));
  account_.assign(query_param(req.path(), "account"));
  const double amount = sim::to_double(query_param(req.path(), "amount"));
  if (txn_.empty() || account_.empty() || amount <= 0.0) {
    return HttpResponse::bad_request("prepare needs txn/account/amount");
  }
  if (completed_.contains(txn_)) {
    // 2PC retry of a finished transaction: report the terminal state.
    stats_.counter("duplicate_prepares").add();
    return HttpResponse::make(409, "text/plain", "txn-completed");
  }
  if (reservations_.contains(txn_)) {
    stats_.counter("duplicate_prepares").add();
    return HttpResponse::make(200, "text/plain", "VOTE-YES");  // idempotent
  }
  const host::db::Row* r = db_.table("accounts")->find(Value{account_});
  if (r == nullptr) {
    stats_.counter("votes_no").add();
    return HttpResponse::make(200, "text/plain", "VOTE-NO:no-account");
  }
  const double bal = std::get<double>((*r)[1]);
  // Funds already promised to other in-flight reservations are not
  // available to this one. Sum in txn-sorted order, not hash order: float
  // addition is not bit-for-bit commutative, so accumulating straight off
  // the unordered_map would make the reserved total (and thus a borderline
  // vote) depend on hash layout. Surfaced by mcs-analyze float-accum.
  held_.clear();
  for (const auto& [t, res] : reservations_) {
    if (res.account == account_) held_.emplace_back(&t, res.amount);
  }
  std::sort(held_.begin(), held_.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  double reserved = 0.0;
  for (const auto& [t, held_amount] : held_) reserved += held_amount;
  if (bal - reserved < amount) {
    stats_.counter("votes_no").add();
    return HttpResponse::make(200, "text/plain", "VOTE-NO:insufficient");
  }
  Reservation& res = spare_reservations_.insert(reservations_, txn_);
  res.account = account_;
  res.amount = amount;
  res.expiry = sim_.after(reservation_timeout_,
                          ExpiryTimer{this, &*reservations_.find(txn_)});
  stats_.counter("votes_yes").add();
  return HttpResponse::make(200, "text/plain", "VOTE-YES");
}

HttpResponse PaymentProcessor::handle_commit(const HttpRequest& req) {
  txn_.assign(query_param(req.path(), "txn"));
  auto it = reservations_.find(txn_);
  if (it == reservations_.end()) {
    if (auto done = completed_.find(txn_); done != completed_.end()) {
      // Replay: the coordinator lost the first answer.
      return done->second
                 ? HttpResponse::make(200, "text/plain", "COMMITTED")
                 : HttpResponse::make(409, "text/plain", "txn-aborted");
    }
    return HttpResponse::make(409, "text/plain", "unknown-txn");
  }
  const Reservation& res = it->second;
  sim_.cancel(res.expiry);
  const host::db::Row* r = db_.table("accounts")->find(Value{res.account});
  const double bal = r != nullptr ? std::get<double>((*r)[1]) : 0.0;
  db_.update("accounts", Value{res.account}, 1, Value{bal - res.amount});
  spare_reservations_.park(reservations_.extract(it));
  completed_.emplace(txn_, true);
  stats_.counter("commits").add();
  return HttpResponse::make(200, "text/plain", "COMMITTED");
}

HttpResponse PaymentProcessor::handle_abort(const HttpRequest& req) {
  txn_.assign(query_param(req.path(), "txn"));
  release(txn_);
  completed_.emplace(txn_, false);  // a committed txn stays committed
  stats_.counter("aborts").add();
  return HttpResponse::make(200, "text/plain", "ABORTED");
}

void PaymentProcessor::release(const std::string& txn) {
  auto it = reservations_.find(txn);
  if (it == reservations_.end()) return;
  sim_.cancel(it->second.expiry);
  spare_reservations_.park(reservations_.extract(it));
}

static_assert(std::is_trivially_copyable_v<PaymentProcessor::ExpiryTimer> &&
                  sizeof(PaymentProcessor::ExpiryTimer) <=
                      sim::InlineFunction::kInlineSize,
              "a reservation's expiry event must fit the kernel's inline "
              "buffer");

void PaymentProcessor::ExpiryTimer::operator()() const {
  self->stats_.counter("reservations_expired").add();
  self->release(entry->first);
}

// ---------------------------------------------------------------------------
// PaymentCoordinator
// ---------------------------------------------------------------------------

PaymentCoordinator::PaymentCoordinator(host::HttpClient& http,
                                       net::Endpoint bank,
                                       host::db::Database& orders_db,
                                       sim::Simulator& sim)
    : http_{http}, bank_{bank}, db_{orders_db}, sim_{sim} {
  if (db_.table("orders") == nullptr) {
    db_.create_table("orders", {{"id", host::db::ValueType::kText},
                                {"account", host::db::ValueType::kText},
                                {"item", host::db::ValueType::kText},
                                {"amount", host::db::ValueType::kReal}});
  }
}

static_assert(std::is_trivially_copyable_v<PaymentCoordinator::ChargeStep> &&
                  sizeof(PaymentCoordinator::ChargeStep) <=
                      sim::InlineFunction::kInlineSize,
              "a charge's bank-reply callback must stay in inline storage");

void PaymentCoordinator::charge(const std::string& idempotency_key,
                                const std::string& account, double amount,
                                const std::string& item, Callback cb) {
  auto key = keys_.find(idempotency_key);
  bool in_doubt = false;
  if (key != keys_.end()) {
    switch (key->second.state) {
      case KeyState::kDone: {
        stats_.counter("idempotent_replays").add();
        Outcome replay = key->second.outcome;
        replay.duplicate = true;
        cb(std::move(replay));
        return;
      }
      case KeyState::kInFlight: {
        // A concurrent retry while the original is still running: refuse
        // rather than double-charge; the client will retry after the first
        // completes.
        Outcome busy;
        busy.failure = "in-flight";
        stats_.counter("concurrent_retries_rejected").add();
        cb(std::move(busy));
        return;
      }
      case KeyState::kInDoubt:
        in_doubt = true;
        break;
    }
  } else {
    key = keys_.try_emplace(idempotency_key).first;
  }
  key->second.state = KeyState::kInFlight;
  stats_.counter("charges_started").add();

  const std::uint32_t slot = charges_.acquire();
  Charge& c = charges_[slot];
  c.key = idempotency_key;
  c.account = account;
  c.item = item;
  c.amount = amount;
  c.cb = std::move(cb);
  if (in_doubt) {
    // The bank may have committed: ask again instead of preparing anew.
    stats_.counter("commit_retries").add();
    send_commit(slot);
    return;
  }
  c.phase = Charge::Phase::kPrepare;
  std::string& path = sim::scratch(3);
  path.clear();
  sim::BufWriter{path}
      .put("/bank/prepare?txn=")
      .put(c.key)
      .put("&account=")
      .put(c.account)
      .f("&amount=%.2f", c.amount);
  post(path, ChargeStep{this, slot});
}

void PaymentCoordinator::send_commit(std::uint32_t slot) {
  Charge& c = charges_[slot];
  c.phase = Charge::Phase::kCommit;
  std::string& path = sim::scratch(3);
  path.clear();
  sim::BufWriter{path}.put("/bank/commit?txn=").put(c.key);
  post(path, ChargeStep{this, slot});
}

void PaymentCoordinator::on_reply(std::uint32_t slot,
                                  std::optional<host::HttpResponse>& resp) {
  Charge& c = charges_[slot];
  Outcome o;
  if (c.phase == Charge::Phase::kPrepare) {
    if (resp.has_value() && resp->status == 200 &&
        sim::starts_with(resp->body, "VOTE-YES")) {
      send_commit(slot);
      return;
    }
    o.failure = resp.has_value() ? "prepare-refused: " + resp->body
                                 : "bank-unreachable";
    // Best-effort abort so the reservation (if any) is released early.
    std::string& path = sim::scratch(3);
    path.clear();
    sim::BufWriter{path}.put("/bank/abort?txn=").put(c.key);
    post(path, [](std::optional<host::HttpResponse>) {});
    finish(slot, KeyState::kDone, std::move(o));
    return;
  }
  if (resp.has_value() && resp->status == 200) {
    o.ok = true;
    sim::BufWriter{o.order_id}.put("order-").u64(next_order_++);
    db_.insert("orders", {o.order_id, c.account, c.item, c.amount});
    finish(slot, KeyState::kDone, std::move(o));
    return;
  }
  if (resp.has_value() && resp->status == 409) {
    // The bank refused: it holds no reservation for the txn to capture.
    o.failure = "commit-failed";
    finish(slot, KeyState::kDone, std::move(o));
    return;
  }
  // No answer (or not the bank's): the bank may have committed, so the
  // key stays in doubt and its next charge asks again.
  o.failure = "commit-in-doubt";
  finish(slot, KeyState::kInDoubt, std::move(o));
}

void PaymentCoordinator::finish(std::uint32_t slot, KeyState state,
                                Outcome o) {
  Charge& c = charges_[slot];
  KeyRecord& rec = keys_.find(c.key)->second;
  rec.state = state;
  if (state == KeyState::kDone) rec.outcome = o;
  // The callback may start another charge: free the slot first.
  Callback cb = std::move(c.cb);
  charges_.release(slot);
  stats_.counter(o.ok ? "charges_ok" : "charges_failed").add();
  cb(std::move(o));
}

void PaymentCoordinator::post(sim::Slice path,
                              host::HttpClient::ResponseCallback cb) {
  request_.clear();
  request_.set_method("POST");
  request_.set_path(path);
  http_.request(bank_, request_, std::move(cb));
}

}  // namespace mcs::core
