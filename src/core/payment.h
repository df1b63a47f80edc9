#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "host/app_server.h"
#include "host/db/database.h"
#include "host/http_server.h"
#include "sim/stats.h"

namespace mcs::core {

// Mobile payment engine ("Mobile transactions and payments", Table 1 row 1).
// Two-phase commit between the merchant and a payment processor (bank):
//
//   merchant                      bank
//     | POST /bank/prepare  ->  reserve funds, vote yes/no
//     | POST /bank/commit   ->  capture reservation
//     | POST /bank/abort    ->  release reservation
//
// Client requests carry an idempotency key, so retries over lossy wireless
// links never double-charge.

// The bank: holds accounts in a Database table ("accounts": id, balance)
// and exposes the 2PC participant API on a web server.
class PaymentProcessor {
 public:
  PaymentProcessor(host::HttpServer& http, host::db::Database& db,
                   sim::Simulator& sim);
  PaymentProcessor(const PaymentProcessor&) = delete;
  PaymentProcessor& operator=(const PaymentProcessor&) = delete;

  void open_account(const std::string& account, double balance);
  double balance(const std::string& account) const;

  std::uint64_t reservations_active() const {
    return reservations_.size();
  }
  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

  // Reservations held longer than this are auto-released (coordinator died).
  void set_reservation_timeout(sim::Time t) { reservation_timeout_ = t; }

 private:
  struct Reservation {
    std::string account;
    double amount = 0.0;
    sim::EventId expiry = sim::kInvalidEventId;
  };

  host::HttpResponse handle_prepare(const host::HttpRequest& req);
  host::HttpResponse handle_commit(const host::HttpRequest& req);
  host::HttpResponse handle_abort(const host::HttpRequest& req);
  void release(const std::string& txn);

  host::db::Database& db_;
  sim::Simulator& sim_;
  sim::Time reservation_timeout_ = sim::Time::seconds(30.0);
  std::unordered_map<std::string, Reservation> reservations_;
  std::unordered_set<std::string> completed_;  // committed or aborted txns
  sim::StatsRegistry stats_;
};

// Merchant-side coordinator: drives the 2PC against the bank over HTTP and
// records the order locally. Deduplicates by idempotency key.
class PaymentCoordinator {
 public:
  struct Outcome {
    bool ok = false;
    std::string failure;  // empty on success
    std::string order_id;
    bool duplicate = false;  // idempotent replay of a completed payment
  };
  using Callback = std::function<void(Outcome)>;

  PaymentCoordinator(host::HttpClient& http, net::Endpoint bank,
                     host::db::Database& orders_db, sim::Simulator& sim);
  PaymentCoordinator(const PaymentCoordinator&) = delete;
  PaymentCoordinator& operator=(const PaymentCoordinator&) = delete;

  // Charge `amount` from `account`; `idempotency_key` identifies the
  // logical purchase across client retries.
  void charge(const std::string& idempotency_key, const std::string& account,
              double amount, const std::string& item, Callback cb);

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

 private:
  // POST `path` (no body) to the bank; the request is serialized before
  // this returns, so `path` may be a scratch buffer.
  void post(sim::Slice path, host::HttpClient::ResponseCallback cb);

  host::HttpClient& http_;
  host::HttpRequest request_;  // reused for every 2PC message
  net::Endpoint bank_;
  host::db::Database& db_;
  sim::Simulator& sim_;
  std::unordered_map<std::string, Outcome> completed_;  // by idempotency key
  std::unordered_set<std::string> in_flight_;
  std::uint64_t next_order_ = 1;
  sim::StatsRegistry stats_;
};

}  // namespace mcs::core
