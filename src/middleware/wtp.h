#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "sim/arena.h"
#include "sim/contract.h"
#include "sim/pool.h"
#include "sim/stats.h"
#include "transport/udp.h"

namespace mcs::middleware {

// WAP Transaction Protocol (WTP class 2: reliable invoke/result) over WDP
// (== UDP here). One request/response exchange per transaction, with
// segmentation-and-reassembly, retransmission, and a result ack — the
// connectionless transaction style WAP uses instead of TCP.
//
// Frames are one datagram each: a text header line, then raw payload bytes:
//   "INV <tid> <seg> <nsegs>\n" <bytes>     initiator -> responder
//   "RES <tid> <seg> <nsegs>\n" <bytes>     responder -> initiator
//   "ACK <tid>\n"                           initiator -> responder
//
// Buffers (DESIGN.md §12.2): a transaction's payload, its result and its
// reassembly live in the transaction's map node, and nodes are recycled
// with their buffers, so a warm endpoint allocates nothing per transaction.
// Messages reach callbacks as writable views, valid until the callback
// returns: a single-segment message is a view into the received datagram,
// a multi-segment one a view into the reassembly buffer.
struct WtpConfig {
  sim::Time retry_interval = sim::Time::millis(800);
  int max_retries = 6;
  std::size_t mtu = 1200;  // payload bytes per datagram
  sim::Time responder_cache_ttl = sim::Time::seconds(10.0);
};

class WtpEndpoint {
  struct ResponderTxn;

 public:
  // Answers one invoke. A trivially copyable 16-byte handle, so storing it
  // in a std::function uses the inline buffer. Answer once, while the
  // endpoint lives; a second answer is ignored.
  class Responder {
   public:
    Responder() = default;
    // The transaction's result buffer, emptied: append the result, then
    // send(). The buffer is kept for retransmission until the ACK.
    std::string& result() const;
    void send() const;
    // Copy `bytes` into the result buffer and send it.
    void operator()(sim::Slice bytes) const;

   private:
    friend class WtpEndpoint;
    // False once the transaction has been answered (or recycled).
    bool pending() const;
    Responder(ResponderTxn* txn, std::uint32_t gen) : txn_{txn}, gen_{gen} {}
    ResponderTxn* txn_ = nullptr;
    std::uint32_t gen_ = 0;
  };

  // Responder role: handle a complete invoke; `payload` is valid only
  // during the call, and may be rewritten in place.
  using InvokeHandler = std::function<void(
      sim::MutSlice payload, net::Endpoint from, Responder respond)>;
  // Initiator role: completion callback (nullopt = transaction failed). The
  // result is valid only during the call, and may be rewritten in place.
  using ResultCallback =
      std::function<void(std::optional<sim::MutSlice> result)>;

  WtpEndpoint(transport::UdpStack& udp, std::uint16_t port,
              WtpConfig cfg = {});
  WtpEndpoint(const WtpEndpoint&) = delete;
  WtpEndpoint& operator=(const WtpEndpoint&) = delete;

  InvokeHandler on_invoke;

  // Run one transaction against a remote responder. `fill(sim::BufWriter&)`
  // writes the payload straight into the transaction's own buffer, which is
  // kept for retransmission.
  template <typename Fill>
    requires std::invocable<Fill&, sim::BufWriter&>
  void invoke(net::Endpoint responder, Fill&& fill, ResultCallback cb) {
    MCS_ASSERT(cb != nullptr, "a WTP invoke needs a completion callback");
    OutgoingTxn& txn = open_txn(responder, std::move(cb));
    sim::BufWriter w{txn.payload};
    fill(w);
    start_txn(txn);
  }
  // Copy `payload` into the transaction's buffer.
  void invoke(net::Endpoint responder, sim::Slice payload, ResultCallback cb) {
    MCS_ASSERT(cb != nullptr, "a WTP invoke needs a completion callback");
    invoke(
        responder, [payload](sim::BufWriter& w) { w.put(payload); },
        std::move(cb));
  }

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }
  std::uint16_t port() const { return port_; }

 private:
  // Multi-segment messages land in one buffer sized from the first frame's
  // segment count and the length of a full segment (every segment but the
  // last is full). A last segment that arrives before any full one waits in
  // `tail` until the offset is known. Peers are other WtpEndpoints, so
  // frames are well-formed by construction; a segment index past the
  // announced count is dropped. Both buffers keep their capacity across
  // transactions.
  struct Reassembly {
    std::string buf;
    std::string tail;
    std::vector<std::uint8_t> seen;  // received flags (duplicates ignored)
    std::uint32_t total = 0;
    std::uint32_t received = 0;
    std::size_t seg_len = 0;  // length of a full segment, 0 = unknown
    bool tail_waiting = false;
    Reassembly() = default;
    Reassembly(const Reassembly&) = delete;
    Reassembly& operator=(const Reassembly&) = delete;
    ~Reassembly();
    bool started() const { return total > 0; }
    bool complete() const { return total > 0 && received == total; }
    void reset(std::uint32_t nsegs);
    void add(std::uint32_t seg, sim::Slice body);
    sim::MutSlice message() { return sim::MutSlice{buf.data(), buf.size()}; }
    // The message's callback has returned: under ASan the bytes are
    // poisoned until reset(), so a view kept past the callback traps.
    void retire();

   private:
    void place_last(sim::Slice body);
  };
  struct OutgoingTxn {  // initiator side
    std::uint64_t tid = 0;
    net::Endpoint responder;
    std::string payload;
    ResultCallback cb;
    Reassembly result;
    int retries = 0;
    sim::EventId timer = sim::kInvalidEventId;
    // Span the invoke was issued under; retransmitted segments re-enter it
    // so their wire time attributes to the same trace.
    obs::TraceContext ctx;
  };
  // Keyed by (initiator endpoint, tid) so tids from different phones never
  // collide at a shared gateway.
  struct RespKey {
    net::Endpoint from;
    std::uint64_t tid = 0;
    bool operator==(const RespKey&) const = default;
  };
  struct RespKeyHash {
    std::size_t operator()(const RespKey& k) const noexcept {
      return std::hash<net::Endpoint>{}(k.from) ^
             std::hash<std::uint64_t>{}(k.tid);
    }
  };
  struct ResponderTxn {  // responder side
    WtpEndpoint* owner = nullptr;
    RespKey key;
    Reassembly invoke;
    std::string result;  // retransmitted until ACK or TTL
    std::uint32_t gen = 0;  // bumped on recycle: stale Responders are inert
    bool responded = false;
    bool handled = false;
    sim::EventId expiry = sim::kInvalidEventId;
  };
  // The TIDs a responder has finished with one initiator. TIDs grow
  // monotonically per initiator, so a window behind the highest finished
  // one says whether an invoke is a late copy of a finished exchange: bit i
  // of `below` is TID `high - i`; anything older than the window counts as
  // finished too. An endpoint seeds its TIDs from its node's address, so
  // a restarted initiator starts from the same TID again: the window's
  // first TID therefore opens a new window, and a late copy of an
  // initiator's first invoke still runs twice.
  struct FinishedTids {
    std::uint64_t first = 0;
    std::uint64_t high = 0;
    std::uint64_t below = 0;  // 0 = nothing finished yet
    void add(std::uint64_t tid);
    bool contains(std::uint64_t tid) const;
  };
  using OutgoingMap = std::unordered_map<std::uint64_t, OutgoingTxn>;
  using RespMap = std::unordered_map<RespKey, ResponderTxn, RespKeyHash>;

  OutgoingTxn& open_txn(net::Endpoint responder, ResultCallback&& cb);
  void start_txn(OutgoingTxn& txn);
  ResponderTxn& responder_txn(const RespKey& key);
  void release(RespMap::iterator it);
  void on_datagram(sim::MutSlice data, net::Endpoint from);
  void send_segments(net::Endpoint to, const char* kind, std::uint64_t tid,
                     sim::Slice payload);
  void send_ack(net::Endpoint to, std::uint64_t tid);
  void respond(ResponderTxn& txn);
  void arm_retry(std::uint64_t tid);
  void finish(OutgoingMap::iterator it, std::optional<sim::MutSlice> result);

  transport::UdpStack& udp_;
  std::uint16_t port_ = 0;
  WtpConfig cfg_;
  std::uint64_t next_tid_ = 0;
  OutgoingMap outgoing_;
  RespMap responding_;
  // Per initiator: one node per peer, none per transaction, and no timer.
  std::unordered_map<net::Endpoint, FinishedTids> finished_;
  // Finished transactions' nodes, kept with their buffers for reuse.
  sim::NodeRecycler<OutgoingMap> spare_outgoing_;
  sim::NodeRecycler<RespMap> spare_responding_;
  std::string frame_;  // every outgoing frame is built here
  sim::StatsRegistry stats_;
};

}  // namespace mcs::middleware
