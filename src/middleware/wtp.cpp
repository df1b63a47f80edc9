#include "middleware/wtp.h"

#include <cstring>

#include "sim/contract.h"
#include "sim/logging.h"
#include "sim/util.h"

namespace mcs::middleware {

namespace {

// strtoull(.., 10) semantics over a non-NUL-terminated view: skip leading
// whitespace, then a decimal digit run. Header fields are produced by our
// own serializer, so signs/overflow never occur in practice.
std::uint64_t parse_u64(sim::Slice s) {
  std::size_t i = 0;
  while (i < s.size() && sim::is_ascii_space(s[i])) ++i;
  std::uint64_t v = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Reassembly

WtpEndpoint::Reassembly::~Reassembly() {
  sim::detail::arena_unpoison(buf.data(), buf.capacity());
}

void WtpEndpoint::Reassembly::reset(std::uint32_t nsegs) {
  sim::detail::arena_unpoison(buf.data(), buf.capacity());
  buf.clear();
  tail.clear();
  seen.assign(nsegs, 0);
  total = nsegs;
  received = 0;
  seg_len = 0;
  tail_waiting = false;
}

void WtpEndpoint::Reassembly::retire() {
  sim::detail::arena_poison(buf.data(), buf.size());
}

void WtpEndpoint::Reassembly::place_last(sim::Slice body) {
  const std::size_t at = static_cast<std::size_t>(total - 1) * seg_len;
  buf.resize(at + body.size());
  std::memcpy(buf.data() + at, body.data(), body.size());
}

void WtpEndpoint::Reassembly::add(std::uint32_t seg, sim::Slice body) {
  if (seg >= total || seen[seg]) return;  // malformed / duplicate
  if (seg + 1 < total) {
    if (seg_len == 0) {
      // The first full segment fixes every offset.
      seg_len = body.size();
      buf.resize(static_cast<std::size_t>(total - 1) * seg_len);
      if (tail_waiting) {
        place_last(tail);
        tail_waiting = false;
      }
    } else if (body.size() != seg_len) {
      return;  // malformed: full segments are all one length
    }
    std::memcpy(buf.data() + seg * seg_len, body.data(), body.size());
  } else if (total == 1 || seg_len != 0) {
    place_last(body);
  } else {
    tail.assign(body.data(), body.size());
    tail_waiting = true;
  }
  seen[seg] = 1;
  ++received;
  MCS_INVARIANT(received <= total,
                "reassembly cannot hold more segments than were announced");
}

// ---------------------------------------------------------------------------
// Responder

std::string& WtpEndpoint::Responder::result() const {
  MCS_ASSERT(pending(),
             "a WTP result is written once, before its transaction is "
             "answered or recycled");
  txn_->result.clear();
  return txn_->result;
}

void WtpEndpoint::Responder::send() const {
  if (pending()) txn_->owner->respond(*txn_);
}

void WtpEndpoint::Responder::operator()(sim::Slice bytes) const {
  if (!pending()) return;
  result().assign(bytes.data(), bytes.size());
  send();
}

bool WtpEndpoint::Responder::pending() const {
  return txn_ != nullptr && txn_->gen == gen_ && !txn_->responded;
}

// ---------------------------------------------------------------------------
// WtpEndpoint

WtpEndpoint::WtpEndpoint(transport::UdpStack& udp, std::uint16_t port,
                         WtpConfig cfg)
    : udp_{udp}, port_{port}, cfg_{cfg} {
  // Seed the tid space from the node address so tids are globally distinct
  // (useful in traces; correctness relies on the per-endpoint keying).
  next_tid_ = (static_cast<std::uint64_t>(udp_.node().addr().v) << 20) + 1;
  udp_.bind(port_, [this](std::string& data, net::Endpoint from,
                          std::uint16_t) {
    on_datagram(sim::MutSlice{data.data(), data.size()}, from);
  });
}

void WtpEndpoint::send_segments(net::Endpoint to, const char* kind,
                                std::uint64_t tid, sim::Slice payload) {
  const std::size_t nsegs =
      payload.empty() ? 1 : (payload.size() + cfg_.mtu - 1) / cfg_.mtu;
  for (std::size_t seg = 0; seg < nsegs; ++seg) {
    const std::size_t off = seg * cfg_.mtu;
    const std::size_t len = std::min(cfg_.mtu, payload.size() - off);
    // "<kind> <tid> <seg> <nsegs>\n" + the payload window, built in the
    // endpoint's frame buffer; the UDP stack copies it into the packet.
    frame_.clear();
    sim::BufWriter w{frame_};
    w.put(kind).ch(' ').u64(tid).ch(' ').u64(seg).ch(' ').u64(nsegs).ch('\n');
    w.put(payload.substr(off, len));
    stats_.counter("datagrams_sent").add();
    stats_.counter("bytes_sent").add(frame_.size());
    udp_.send(to, port_, frame_);
  }
}

void WtpEndpoint::send_ack(net::Endpoint to, std::uint64_t tid) {
  const sim::NumStr id = sim::u64s(tid);
  char ack[4 + sizeof id.buf + 1] = "ACK ";
  std::memcpy(ack + 4, id.buf, id.len);
  ack[4 + id.len] = '\n';
  udp_.send(to, port_, sim::Slice{ack, 5u + id.len});
}

WtpEndpoint::OutgoingTxn& WtpEndpoint::open_txn(net::Endpoint responder,
                                                ResultCallback&& cb) {
  const std::uint64_t tid = next_tid_++;
  MCS_ASSERT(!outgoing_.contains(tid),
             "WTP transaction id reused while still outstanding");
  OutgoingTxn* txn = &spare_outgoing_.insert(outgoing_, tid);
  txn->tid = tid;
  txn->responder = responder;
  txn->payload.clear();
  txn->cb = std::move(cb);
  txn->result.total = 0;
  txn->retries = 0;
  txn->timer = sim::kInvalidEventId;
  txn->ctx = obs::active_context();
  stats_.counter("invokes").add();
  return *txn;
}

void WtpEndpoint::start_txn(OutgoingTxn& txn) {
  send_segments(txn.responder, "INV", txn.tid, txn.payload);
  arm_retry(txn.tid);
}

void WtpEndpoint::arm_retry(std::uint64_t tid) {
  auto it = outgoing_.find(tid);
  if (it == outgoing_.end()) return;
  it->second.timer = udp_.node().sim().after(cfg_.retry_interval, [this, tid] {
    auto tit = outgoing_.find(tid);
    if (tit == outgoing_.end()) return;
    OutgoingTxn& txn = tit->second;
    txn.timer = sim::kInvalidEventId;
    if (++txn.retries > cfg_.max_retries) {
      stats_.counter("transactions_failed").add();
      finish(tit, std::nullopt);
      return;
    }
    MCS_INVARIANT(txn.retries <= cfg_.max_retries,
                  "WTP retry loop escaped its budget");
    stats_.counter("retransmissions").add();
    obs::ActiveScope scope{txn.ctx};
    obs::instant(txn.ctx, obs::Component::kMiddleware, "wtp.rtx",
                 udp_.node().sim().now());
    send_segments(txn.responder, "INV", tid, txn.payload);
    arm_retry(tid);
  });
}

void WtpEndpoint::finish(OutgoingMap::iterator it,
                         std::optional<sim::MutSlice> result) {
  if (it->second.timer != sim::kInvalidEventId) {
    udp_.node().sim().cancel(it->second.timer);
  }
  // Out of the map before the callback (which may start the next
  // transaction), but not recycled until it returns: `result` may be a view
  // into this node's reassembly buffer.
  OutgoingMap::node_type node = outgoing_.extract(it);
  OutgoingTxn& txn = node.mapped();
  if (txn.cb) txn.cb(result);
  txn.cb = nullptr;
  txn.result.retire();
  spare_outgoing_.park(std::move(node));
}

WtpEndpoint::ResponderTxn& WtpEndpoint::responder_txn(const RespKey& key) {
  if (auto it = responding_.find(key); it != responding_.end()) {
    return it->second;
  }
  ResponderTxn* txn = &spare_responding_.insert(responding_, key);
  txn->owner = this;
  txn->key = key;
  txn->invoke.total = 0;
  txn->result.clear();
  txn->responded = false;
  txn->handled = false;
  txn->expiry = sim::kInvalidEventId;
  return *txn;
}

void WtpEndpoint::FinishedTids::add(std::uint64_t tid) {
  if (below == 0) first = tid;
  if (below == 0 || tid > high) {
    const std::uint64_t shift = below == 0 ? 64 : tid - high;
    below = shift >= 64 ? 0 : below << shift;
    below |= 1;
    high = tid;
  } else if (high - tid < 64) {
    below |= std::uint64_t{1} << (high - tid);
  }
  MCS_INVARIANT(contains(tid), "a finished TID must read back as finished");
}

bool WtpEndpoint::FinishedTids::contains(std::uint64_t tid) const {
  if (below == 0 || tid > high) return false;
  return high - tid >= 64 || ((below >> (high - tid)) & 1) != 0;
}

void WtpEndpoint::release(RespMap::iterator it) {
  finished_[it->second.key.from].add(it->second.key.tid);
  ++it->second.gen;
  it->second.invoke.retire();
  spare_responding_.park(responding_.extract(it));
}

void WtpEndpoint::respond(ResponderTxn& txn) {
  txn.responded = true;
  MCS_INVARIANT(txn.handled,
                "WTP responder answered an invoke it never handled");
  send_segments(txn.key.from, "RES", txn.key.tid, txn.result);
  // Drop cached state after the TTL even if the ACK is lost.
  txn.expiry = udp_.node().sim().after(
      cfg_.responder_cache_ttl, [this, key = txn.key] {
        if (auto it = responding_.find(key); it != responding_.end()) {
          release(it);
        }
      });
}

void WtpEndpoint::on_datagram(sim::MutSlice data, net::Endpoint from) {
  stats_.counter("datagrams_received").add();
  const sim::Slice bytes = sim::as_slice(data);
  const std::size_t nl = bytes.find('\n');
  if (nl == sim::Slice::npos) return;
  const sim::Slice head = bytes.substr(0, nl);
  const sim::MutSlice body = data.subspan(nl + 1);

  // Split the header on ' ' exactly as sim::split would (empty fields
  // count toward the field total) without materializing the field vector.
  sim::Slice f[4];
  std::size_t nf = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= head.size(); ++i) {
    if (i == head.size() || head[i] == ' ') {
      if (nf < 4) f[nf] = head.substr(start, i - start);
      ++nf;
      start = i + 1;
    }
  }

  if (f[0] == "INV" && nf == 4) {
    const std::uint64_t tid = parse_u64(f[1]);
    const auto seg = static_cast<std::uint32_t>(parse_u64(f[2]));
    const auto total = static_cast<std::uint32_t>(parse_u64(f[3]));
    const RespKey key{from, tid};
    if (auto fin = finished_.find(from);
        fin != finished_.end() && !responding_.contains(key)) {
      if (tid == fin->second.first) {
        // A new endpoint at the initiator's address numbers its TIDs from
        // the same start (the frame has no TIDnew flag): a new window.
        fin->second = FinishedTids{};
      } else if (fin->second.contains(tid)) {
        // A late copy of an invoke whose exchange is over (ACKed or
        // expired) must not run the request again.
        stats_.counter("stale_invokes").add();
        return;
      }
    }
    ResponderTxn& txn = responder_txn(key);
    if (txn.responded) {
      // Duplicate invoke after we answered: retransmit the cached result.
      stats_.counter("result_retransmissions").add();
      send_segments(from, "RES", tid, txn.result);
      return;
    }
    if (txn.handled) return;
    sim::MutSlice payload = body;
    const bool single = total == 1 && seg == 0 && !txn.invoke.started();
    if (!single) {
      if (!txn.invoke.started()) txn.invoke.reset(total);
      txn.invoke.add(seg, sim::as_slice(body));
      if (!txn.invoke.complete()) return;
      payload = txn.invoke.message();
    }
    txn.handled = true;
    if (!on_invoke) return;
    stats_.counter("invokes_handled").add();
    on_invoke(payload, from, Responder{&txn, txn.gen});
    if (!single) txn.invoke.retire();
    return;
  }
  if (f[0] == "RES" && nf == 4) {
    const std::uint64_t tid = parse_u64(f[1]);
    auto it = outgoing_.find(tid);
    if (it == outgoing_.end()) {
      // Late duplicate: ack so the responder stops retransmitting.
      send_ack(from, tid);
      return;
    }
    Reassembly& result = it->second.result;
    const auto seg = static_cast<std::uint32_t>(parse_u64(f[2]));
    const auto total = static_cast<std::uint32_t>(parse_u64(f[3]));
    sim::MutSlice message = body;
    if (total != 1 || seg != 0 || result.started()) {
      if (!result.started()) result.reset(total);
      result.add(seg, sim::as_slice(body));
      if (!result.complete()) return;
      message = result.message();
    }
    send_ack(from, tid);
    stats_.counter("transactions_completed").add();
    finish(it, message);
    return;
  }
  if (f[0] == "ACK" && nf == 2) {
    const std::uint64_t tid = parse_u64(f[1]);
    auto rit = responding_.find(RespKey{from, tid});
    if (rit != responding_.end()) {
      if (rit->second.expiry != sim::kInvalidEventId) {
        udp_.node().sim().cancel(rit->second.expiry);
      }
      release(rit);
    }
    return;
  }
}

}  // namespace mcs::middleware
