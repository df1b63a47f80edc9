#include "core/payment.h"

#include <map>

#include "sim/arena.h"
#include "sim/util.h"

namespace mcs::core {

using host::HttpRequest;
using host::HttpResponse;
using host::query_param;
using host::db::Value;
using sim::strf;

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
  const std::string txn{query_param(req.path(), "txn")};
  const std::string account{query_param(req.path(), "account")};
  const double amount = sim::to_double(query_param(req.path(), "amount"));
  if (txn.empty() || account.empty() || amount <= 0.0) {
    return HttpResponse::bad_request("prepare needs txn/account/amount");
  }
  if (completed_.contains(txn)) {
    // 2PC retry of a finished transaction: report the terminal state.
    stats_.counter("duplicate_prepares").add();
    return HttpResponse::make(409, "text/plain", "txn-completed");
  }
  if (auto it = reservations_.find(txn); it != reservations_.end()) {
    stats_.counter("duplicate_prepares").add();
    return HttpResponse::make(200, "text/plain", "VOTE-YES");  // idempotent
  }
  const host::db::Row* r = db_.table("accounts")->find(Value{account});
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
  std::map<std::string, double> held;
  for (const auto& [t, res] : reservations_) {
    if (res.account == account) held.emplace(t, res.amount);
  }
  double reserved = 0.0;
  for (const auto& [t, held_amount] : held) reserved += held_amount;
  if (bal - reserved < amount) {
    stats_.counter("votes_no").add();
    return HttpResponse::make(200, "text/plain", "VOTE-NO:insufficient");
  }
  Reservation res;
  res.account = account;
  res.amount = amount;
  res.expiry = sim_.after(reservation_timeout_, [this, txn] {
    stats_.counter("reservations_expired").add();
    release(txn);
  });
  reservations_[txn] = std::move(res);
  stats_.counter("votes_yes").add();
  return HttpResponse::make(200, "text/plain", "VOTE-YES");
}

HttpResponse PaymentProcessor::handle_commit(const HttpRequest& req) {
  const std::string txn{query_param(req.path(), "txn")};
  auto it = reservations_.find(txn);
  if (it == reservations_.end()) {
    if (completed_.contains(txn)) {
      return HttpResponse::make(200, "text/plain", "COMMITTED");  // replay
    }
    return HttpResponse::make(409, "text/plain", "unknown-txn");
  }
  const Reservation res = it->second;
  sim_.cancel(res.expiry);
  reservations_.erase(it);
  const host::db::Row* r = db_.table("accounts")->find(Value{res.account});
  const double bal = r != nullptr ? std::get<double>((*r)[1]) : 0.0;
  db_.update("accounts", Value{res.account}, 1, Value{bal - res.amount});
  completed_.insert(txn);
  stats_.counter("commits").add();
  return HttpResponse::make(200, "text/plain", "COMMITTED");
}

HttpResponse PaymentProcessor::handle_abort(const HttpRequest& req) {
  const std::string txn{query_param(req.path(), "txn")};
  release(txn);
  completed_.insert(txn);
  stats_.counter("aborts").add();
  return HttpResponse::make(200, "text/plain", "ABORTED");
}

void PaymentProcessor::release(const std::string& txn) {
  auto it = reservations_.find(txn);
  if (it == reservations_.end()) return;
  sim_.cancel(it->second.expiry);
  reservations_.erase(it);
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

void PaymentCoordinator::charge(const std::string& idempotency_key,
                                const std::string& account, double amount,
                                const std::string& item, Callback cb) {
  if (auto it = completed_.find(idempotency_key); it != completed_.end()) {
    stats_.counter("idempotent_replays").add();
    Outcome replay = it->second;
    replay.duplicate = true;
    cb(std::move(replay));
    return;
  }
  if (in_flight_.contains(idempotency_key)) {
    // A concurrent retry while the original is still running: refuse rather
    // than double-charge; the client will retry after the first completes.
    Outcome busy;
    busy.failure = "in-flight";
    stats_.counter("concurrent_retries_rejected").add();
    cb(std::move(busy));
    return;
  }
  in_flight_.insert(idempotency_key);
  stats_.counter("charges_started").add();

  auto finish = [this, idempotency_key, cb = std::move(cb)](Outcome o) {
    in_flight_.erase(idempotency_key);
    if (o.ok || !o.failure.empty()) completed_[idempotency_key] = o;
    stats_.counter(o.ok ? "charges_ok" : "charges_failed").add();
    cb(std::move(o));
  };

  std::string& path = sim::scratch(3);
  path.clear();
  sim::BufWriter{path}
      .put("/bank/prepare?txn=")
      .put(idempotency_key)
      .put("&account=")
      .put(account)
      .f("&amount=%.2f", amount);
  post(path, [this, idempotency_key, account, amount, item,
              finish](std::optional<host::HttpResponse> resp) mutable {
    if (!resp.has_value() || resp->status != 200 ||
        !sim::starts_with(resp->body, "VOTE-YES")) {
      Outcome o;
      o.failure = resp.has_value() ? "prepare-refused: " + resp->body
                                   : "bank-unreachable";
      // Best-effort abort so the reservation (if any) is released early.
      post(sim::cat("/bank/abort?txn=", idempotency_key), [](auto) {});
      finish(std::move(o));
      return;
    }
    std::string& commit = sim::scratch(3);
    commit.clear();
    sim::BufWriter{commit}.put("/bank/commit?txn=").put(idempotency_key);
    post(commit, [this, idempotency_key, account, amount, item,
                  finish](std::optional<host::HttpResponse> resp2) mutable {
      Outcome o;
      if (!resp2.has_value() || resp2->status != 200) {
        o.failure = "commit-failed";
        finish(std::move(o));
        return;
      }
      o.ok = true;
      o.order_id = strf("order-%llu",
                        static_cast<unsigned long long>(next_order_++));
      db_.insert("orders", {o.order_id, account, item, amount});
      finish(std::move(o));
    });
  });
}

void PaymentCoordinator::post(sim::Slice path,
                              host::HttpClient::ResponseCallback cb) {
  request_.clear();
  request_.set_method("POST");
  request_.set_path(path);
  http_.request(bank_, request_, std::move(cb));
}

}  // namespace mcs::core
