#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "host/app_server.h"
#include "host/db/database.h"
#include "host/http_server.h"
#include "sim/pool.h"
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
  using Reservations = std::unordered_map<std::string, Reservation>;

 public:
  // What a reservation's expiry event captures: the processor and the
  // reservation's map entry. The entry stays put while the timer is armed,
  // because every path that retires a reservation cancels its timer first.
  struct ExpiryTimer {
    PaymentProcessor* self = nullptr;
    Reservations::value_type* entry = nullptr;
    void operator()() const;
  };

 private:
  host::HttpResponse handle_prepare(const host::HttpRequest& req);
  host::HttpResponse handle_commit(const host::HttpRequest& req);
  host::HttpResponse handle_abort(const host::HttpRequest& req);
  // Drop `txn`'s reservation, if any, parking its node for reuse.
  void release(const std::string& txn);

  host::db::Database& db_;
  sim::Simulator& sim_;
  sim::Time reservation_timeout_ = sim::Time::seconds(30.0);
  Reservations reservations_;
  sim::NodeRecycler<Reservations> spare_reservations_;
  // Finished txns: true if committed, false if aborted.
  std::unordered_map<std::string, bool> completed_;
  // Per-request scratch: the parsed txn and account, and the amounts other
  // reservations hold on the account (sorted by txn before summing).
  std::string txn_;
  std::string account_;
  std::vector<std::pair<const std::string*, double>> held_;
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
  // logical purchase across client retries. A charge whose COMMIT went
  // unanswered fails as "commit-in-doubt" and is not cached: the next
  // charge with that key sends the COMMIT again (the bank replays its
  // answer), and the order is recorded then.
  void charge(const std::string& idempotency_key, const std::string& account,
              double amount, const std::string& item, Callback cb);

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

  // The bank-reply callback of one in-flight charge: the coordinator and
  // the charge's slot. Trivially copyable and 16 bytes, so std::function
  // keeps it in its local buffer.
  struct ChargeStep {
    PaymentCoordinator* self = nullptr;
    std::uint32_t slot = 0;
    void operator()(std::optional<host::HttpResponse> resp) const {
      self->on_reply(slot, resp);
    }
  };

 private:
  // Per idempotency key: running, in doubt (COMMIT sent, no answer), or
  // done with a cached outcome.
  enum class KeyState { kInFlight, kInDoubt, kDone };
  struct KeyRecord {
    KeyState state = KeyState::kInFlight;
    Outcome outcome;  // kDone only
  };
  // One charge from charge() to its callback, recycled with its strings'
  // capacity.
  struct Charge {
    enum class Phase { kPrepare, kCommit } phase = Phase::kPrepare;
    std::string key;
    std::string account;
    std::string item;
    double amount = 0.0;
    Callback cb;
  };

  // POST `path` (no body) to the bank; the request is serialized before
  // this returns, so `path` may be a scratch buffer.
  void post(sim::Slice path, host::HttpClient::ResponseCallback cb);
  void send_commit(std::uint32_t slot);
  void on_reply(std::uint32_t slot, std::optional<host::HttpResponse>& resp);
  // Record `o` under the charge's key as `state`, free the slot and call
  // the charge's callback.
  void finish(std::uint32_t slot, KeyState state, Outcome o);

  host::HttpClient& http_;
  host::HttpRequest request_;  // reused for every 2PC message
  net::Endpoint bank_;
  host::db::Database& db_;
  sim::Simulator& sim_;
  std::unordered_map<std::string, KeyRecord> keys_;  // by idempotency key
  sim::SlotPool<Charge> charges_;
  std::uint64_t next_order_ = 1;
  sim::StatsRegistry stats_;
};

}  // namespace mcs::core
