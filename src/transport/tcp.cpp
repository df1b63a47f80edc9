#include "transport/tcp.h"

#include <algorithm>

#include "sim/arena.h"
#include "sim/contract.h"
#include "sim/logging.h"

namespace mcs::transport {

using sim::LogLevel;
using sim::Time;

const char* to_string(TcpSocket::State s) {
  switch (s) {
    case TcpSocket::State::kClosed: return "CLOSED";
    case TcpSocket::State::kSynSent: return "SYN_SENT";
    case TcpSocket::State::kSynReceived: return "SYN_RECEIVED";
    case TcpSocket::State::kEstablished: return "ESTABLISHED";
    case TcpSocket::State::kFinWait: return "FIN_WAIT";
    case TcpSocket::State::kCloseWait: return "CLOSE_WAIT";
    case TcpSocket::State::kLastAck: return "LAST_ACK";
  }
  MCS_UNREACHABLE("unknown TcpSocket::State value");
}

bool tcp_state_transition_valid(TcpSocket::State from, TcpSocket::State to) {
  using S = TcpSocket::State;
  if (to == S::kClosed) return true;  // RST / teardown from anywhere
  switch (from) {
    case S::kClosed:
      return to == S::kSynSent || to == S::kSynReceived;
    case S::kSynSent:
    case S::kSynReceived:
      return to == S::kEstablished;
    case S::kEstablished:
      return to == S::kFinWait || to == S::kCloseWait;
    case S::kCloseWait:
      return to == S::kLastAck;
    case S::kFinWait:
    case S::kLastAck:
      return false;  // only kClosed leaves these, handled above
  }
  MCS_UNREACHABLE("unknown TcpSocket::State value");
}

void require_valid_tcp_transition(TcpSocket::State from, TcpSocket::State to) {
  MCS_ASSERT(tcp_state_transition_valid(from, to),
             "invalid TCP state transition");
}

void TcpSocket::set_state(State next) {
  require_valid_tcp_transition(state_, next);
  state_ = next;
}

// ---------------------------------------------------------------------------
// TcpSocket
// ---------------------------------------------------------------------------

TcpSocket::TcpSocket(TcpStack& stack, net::Endpoint local, net::Endpoint remote,
                     TcpConfig cfg)
    : stack_{stack}, cfg_{cfg}, local_{local}, remote_{remote} {
  cwnd_ = static_cast<std::uint64_t>(cfg_.initial_cwnd_segments) * cfg_.mss;
  rto_ = cfg_.initial_rto;
  // Stream data starts at offset 1; the SYN occupies [0, 1).
  send_buffer_base_ = 1;
  send_buffer_end_ = 1;
}

TcpSocket::~TcpSocket() { cancel_rto(); }

void TcpSocket::start_connect() {
  set_state(State::kSynSent);
  send_flags(net::kTcpSyn, 0);
  arm_rto();
}

void TcpSocket::start_accept(const net::PacketPtr& /*syn*/) {
  passive_ = true;
  set_state(State::kSynReceived);
  rcv_nxt_ = 1;
  send_flags(net::kTcpSyn | net::kTcpAck, 0);
  arm_rto();
}

void TcpSocket::send(sim::Slice data) {
  if (data.empty() || fin_pending_ || state_ == State::kClosed ||
      state_ == State::kFinWait || state_ == State::kLastAck) {
    return;
  }
  if (const obs::TraceContext active = obs::active_context();
      active.sampled()) {
    trace_ctx_ = active;
  }
  send_buffer_ += data;
  send_buffer_end_ += data.size();
  MCS_INVARIANT(send_buffer_end_ - send_buffer_base_ == send_buffer_.size(),
                "stream-offset accounting must track the buffered bytes "
                "exactly or retransmission slices the wrong data");
  if (state_ == State::kEstablished || state_ == State::kCloseWait) {
    try_send();
  }
}

void TcpSocket::close() {
  if (fin_pending_ || state_ == State::kClosed) return;
  fin_pending_ = true;
  MCS_INVARIANT(state_ != State::kClosed,
                "graceful close never teleports to CLOSED; teardown goes "
                "through the FIN handshake states");
  if (state_ == State::kEstablished || state_ == State::kCloseWait) {
    try_send();
  }
}

void TcpSocket::reset() {
  if (state_ == State::kClosed) return;
  send_flags(net::kTcpRst, snd_nxt_);
  finish_close();
}

void TcpSocket::notify_handoff() {
  if (!cfg_.fast_handoff_retransmit) return;
  if (state_ != State::kEstablished && state_ != State::kFinWait &&
      state_ != State::kCloseWait && state_ != State::kLastAck) {
    return;
  }
  if (snd_nxt_ <= snd_una_) return;  // nothing outstanding
  ++counters_.handoff_retransmits;
  // Undo RTO backoff: the pause was mobility, not congestion.
  consecutive_rtos_ = 0;
  if (have_rtt_sample_) {
    rto_ = std::clamp(srtt_ + 4.0 * rttvar_, cfg_.min_rto, cfg_.max_rto);
  } else {
    rto_ = cfg_.initial_rto;
  }
  MCS_INVARIANT(rto_ <= cfg_.max_rto,
                "the mobility RTO reset must discard congestion backoff, "
                "not reintroduce it");
  retransmit_head("handoff");
  arm_rto();
}

void TcpSocket::on_packet(const net::PacketPtr& p) {
  const net::TcpHeader& h = p->tcp;
  if (p->trace_id != 0) {
    trace_ctx_ = obs::TraceContext{p->trace_id, p->trace_span};
  }

  if (h.has(net::kTcpRst)) {
    sim::logf(LogLevel::kDebug, stack_.sim().now(), "tcp %s: RST received",
              local_.to_string().c_str());
    finish_close();
    return;
  }

  switch (state_) {
    case State::kSynSent:
      if (h.has(net::kTcpSyn) && h.has(net::kTcpAck) && h.ack == 1) {
        rcv_nxt_ = 1;
        enter_established();
        send_ack();
        fire_connected();
        try_send();
      }
      return;
    case State::kSynReceived:
      if (h.has(net::kTcpSyn) && !h.has(net::kTcpAck)) {
        send_flags(net::kTcpSyn | net::kTcpAck, 0);  // duplicate SYN
        return;
      }
      if (h.has(net::kTcpAck) && h.ack >= 1) {
        enter_established();
        fire_connected();
        // Fall through: the ACK may carry data (rare here but legal).
        break;
      }
      return;
    case State::kClosed:
      return;
    default:
      break;
  }

  if (h.has(net::kTcpSyn)) return;  // stray handshake packet

  if (h.has(net::kTcpAck)) handle_ack(p);
  if (!p->payload.empty()) handle_data(p);
  if (h.has(net::kTcpFin)) handle_fin(p);
}

void TcpSocket::fire_connected() {
  // Fire once and release the callback: accept callbacks capture the socket
  // by value, so keeping them alive would create a shared_ptr cycle.
  if (on_connected) {
    auto cb = std::move(on_connected);
    on_connected = nullptr;
    cb();
  }
}

void TcpSocket::enter_established() {
  set_state(State::kEstablished);
  snd_una_ = 1;
  snd_nxt_ = 1;
  cancel_rto();
}

std::uint64_t TcpSocket::send_window() const { return std::min(cwnd_, rwnd_); }

void TcpSocket::handle_ack(const net::PacketPtr& p) {
  const net::TcpHeader& h = p->tcp;
  rwnd_ = h.window;

  if (h.ack > snd_una_) {
    const std::uint64_t newly_acked = h.ack - snd_una_;
    snd_una_ = h.ack;
    // After a timeout reset snd_nxt_ back to snd_una_, ACKs for segments
    // sent before the reset can overtake it; clamping keeps
    // bytes-in-flight arithmetic (and ssthresh derived from it) sane.
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    consecutive_rtos_ = 0;

    // Trim acknowledged bytes off the send buffer (FIN is past the buffer).
    const std::uint64_t data_acked = std::min(snd_una_, send_buffer_end_);
    if (data_acked > send_buffer_base_) {
      send_buffer_.erase(0, data_acked - send_buffer_base_);
      send_buffer_base_ = data_acked;
    }

    if (timing_ && snd_una_ >= timing_end_seq_) {
      if (!timed_seq_retransmitted_) {
        update_rtt(stack_.sim().now() - timing_start_);
      }
      timing_ = false;
    }

    if (in_fast_recovery_) {
      if (snd_una_ >= recover_) {
        in_fast_recovery_ = false;
        dupacks_ = 0;
        cwnd_ = ssthresh_;
      } else {
        // NewReno partial ack: the next hole is also lost.
        retransmit_head("partial-ack");
        cwnd_ = std::max<std::uint64_t>(
                    ssthresh_, cwnd_ > newly_acked ? cwnd_ - newly_acked
                                                   : cfg_.mss) +
                cfg_.mss;
      }
    } else {
      dupacks_ = 0;
      if (cwnd_ < ssthresh_) {
        cwnd_ += std::min<std::uint64_t>(newly_acked, cfg_.mss);  // slow start
      } else {
        cwnd_ += std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(cfg_.mss) * cfg_.mss / cwnd_);
      }
    }

    if (fin_sent_ && snd_una_ > fin_seq_) {
      // Our FIN is acknowledged.
      if (state_ == State::kLastAck) {
        finish_close();
        return;
      }
      if (state_ == State::kFinWait && peer_fin_received_ &&
          peer_fin_seq_ < rcv_nxt_) {
        finish_close();
        return;
      }
    }

    if (snd_una_ == snd_nxt_) {
      cancel_rto();
    } else {
      arm_rto();  // restart for the next outstanding segment
    }
    try_send();
    return;
  }

  // Possible duplicate ACK: same ack, no payload, not SYN/FIN, data in flight.
  if (h.ack == snd_una_ && p->payload.empty() && !h.has(net::kTcpSyn) &&
      !h.has(net::kTcpFin) && snd_nxt_ > snd_una_) {
    ++counters_.dupacks_received;
    if (in_fast_recovery_) {
      cwnd_ += cfg_.mss;  // window inflation
      try_send();
      return;
    }
    if (++dupacks_ == cfg_.dupack_threshold) {
      const std::uint64_t flight = snd_nxt_ - snd_una_;
      ssthresh_ = std::max<std::uint64_t>(flight / 2, 2 * cfg_.mss);
      recover_ = snd_nxt_;
      in_fast_recovery_ = true;
      ++counters_.fast_retransmits;
      retransmit_head("fast-rtx");
      cwnd_ = ssthresh_ + 3 * static_cast<std::uint64_t>(cfg_.mss);
      arm_rto();
    }
  }
}

void TcpSocket::handle_data(const net::PacketPtr& p) {
  const std::uint64_t seq = p->tcp.seq;
  const std::string& payload = p->payload;

  if (seq + payload.size() <= rcv_nxt_) {
    send_ack();  // stale duplicate
    return;
  }
  if (seq > rcv_nxt_) {
    out_of_order_.emplace(seq, payload);  // keeps first copy on duplicates
    send_ack();                           // duplicate ACK (hole signal)
    return;
  }

  // In-order (possibly overlapping) segment: deliver the new suffix. The
  // common case (exactly in-order) hands the payload through untouched; an
  // overlap copies just the fresh tail, sized once.
  const std::size_t dup = static_cast<std::size_t>(rcv_nxt_ - seq);
  const std::size_t fresh = payload.size() - dup;
  rcv_nxt_ += fresh;
  counters_.bytes_delivered += fresh;
  if (on_data) {
    if (dup == 0) {
      on_data(payload);
    } else {
      on_data(sim::cat(sim::Slice{payload.data() + dup, fresh}));
    }
  }

  // Drain any out-of-order segments that are now contiguous.
  while (!out_of_order_.empty()) {
    auto it = out_of_order_.begin();
    if (it->first > rcv_nxt_) break;
    const std::uint64_t end = it->first + it->second.size();
    if (end > rcv_nxt_) {
      const std::size_t skip = static_cast<std::size_t>(rcv_nxt_ - it->first);
      const sim::Slice chunk{it->second.data() + skip,
                             it->second.size() - skip};
      rcv_nxt_ = end;
      counters_.bytes_delivered += chunk.size();
      if (on_data) {
        if (skip == 0) {
          on_data(it->second);
        } else {
          on_data(sim::cat(chunk));
        }
      }
    }
    out_of_order_.erase(it);
  }
  MCS_INVARIANT(out_of_order_.empty() || out_of_order_.begin()->first > rcv_nxt_,
                "reassembly queue retains a segment at or below rcv_nxt");

  if (peer_fin_received_ && peer_fin_seq_ == rcv_nxt_) {
    process_pending_fin();
    return;  // process_pending_fin acks
  }
  send_ack();
}

void TcpSocket::handle_fin(const net::PacketPtr& p) {
  peer_fin_received_ = true;
  peer_fin_seq_ = p->tcp.seq;
  if (peer_fin_seq_ > rcv_nxt_) {
    send_ack();  // data still missing before the FIN
    return;
  }
  process_pending_fin();
}

void TcpSocket::process_pending_fin() {
  if (peer_fin_seq_ < rcv_nxt_) {
    send_ack();  // already consumed (duplicate FIN)
    return;
  }
  rcv_nxt_ = peer_fin_seq_ + 1;
  send_ack();
  if (on_remote_close) on_remote_close();
  switch (state_) {
    case State::kEstablished:
      set_state(State::kCloseWait);
      break;
    case State::kFinWait:
      if (fin_sent_ && snd_una_ > fin_seq_) {
        finish_close();
      }
      break;
    default:
      break;
  }
}

void TcpSocket::try_send() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kFinWait && state_ != State::kLastAck) {
    return;
  }
  const std::uint64_t window = send_window();
  while (snd_nxt_ < send_buffer_end_ && snd_nxt_ - snd_una_ < window) {
    const std::uint64_t room = window - (snd_nxt_ - snd_una_);
    const std::uint64_t avail = send_buffer_end_ - snd_nxt_;
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({cfg_.mss, room, avail}));
    if (len == 0) break;
    const bool is_rtx = snd_nxt_ < high_water_;
    send_segment(snd_nxt_, len, is_rtx);
    snd_nxt_ += len;
    high_water_ = std::max(high_water_, snd_nxt_);
    arm_rto();
  }

  // Emit (or re-emit after go-back-N) the FIN once all data is sent.
  if (fin_pending_ && snd_nxt_ == send_buffer_end_) {
    if (!fin_sent_) {
      fin_sent_ = true;
      fin_seq_ = send_buffer_end_;
      set_state(state_ == State::kCloseWait ? State::kLastAck
                                               : State::kFinWait);
    }
    if (snd_nxt_ == fin_seq_) {
      send_flags(net::kTcpFin | net::kTcpAck, fin_seq_);
      snd_nxt_ = fin_seq_ + 1;
      high_water_ = std::max(high_water_, snd_nxt_);
      arm_rto();
    }
  }
}

void TcpSocket::send_segment(std::uint64_t seq, std::uint32_t len,
                             bool is_rtx) {
  auto p = make_segment(net::kTcpAck, seq);
  MCS_ASSERT(seq >= send_buffer_base_,
             "segment seq points below the retained send buffer");
  // One sized assignment into the (possibly recycled) packet payload; the
  // copy itself is inherent — the segment owns its wire bytes.
  p->payload.assign(send_buffer_, seq - send_buffer_base_, len);
  ++counters_.segments_sent;
  obs::metric_add(m_segments_);
  if (is_rtx) {
    ++counters_.retransmissions;
    counters_.bytes_retransmitted += len;
    obs::metric_add(m_rtx_);
    obs::instant(trace_ctx_, obs::Component::kTransport, "tcp.rtx",
                 stack_.sim().now());
    timed_seq_retransmitted_ = timing_ && seq < timing_end_seq_
                                   ? true
                                   : timed_seq_retransmitted_;
  } else {
    counters_.bytes_sent += len;
    if (!timing_) {
      timing_ = true;
      timed_seq_retransmitted_ = false;
      timing_end_seq_ = seq + len;
      timing_start_ = stack_.sim().now();
    }
  }
  // Timer-driven sends have no ambient context; fall back to the
  // connection's remembered one so the wire time still attributes.
  const obs::TraceContext active = obs::active_context();
  obs::ActiveScope scope{active.sampled() ? active : trace_ctx_};
  stack_.transmit(p);
}

void TcpSocket::retransmit_head(const char* reason) {
  if (snd_una_ >= send_buffer_end_) {
    // Only the FIN is outstanding.
    if (fin_sent_ && snd_una_ == fin_seq_) {
      send_flags(net::kTcpFin | net::kTcpAck, fin_seq_);
      ++counters_.retransmissions;
      obs::metric_add(m_rtx_);
    }
    return;
  }
  const auto len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      cfg_.mss, send_buffer_end_ - snd_una_));
  sim::logf(LogLevel::kDebug, stack_.sim().now(),
            "tcp %s: retransmit seq=%llu len=%u (%s)",
            local_.to_string().c_str(),
            static_cast<unsigned long long>(snd_una_), len, reason);
  send_segment(snd_una_, len, /*is_rtx=*/true);
}

void TcpSocket::send_flags(std::uint8_t flags, std::uint64_t seq) {
  const obs::TraceContext active = obs::active_context();
  obs::ActiveScope scope{active.sampled() ? active : trace_ctx_};
  stack_.transmit(make_segment(flags, seq));
}

void TcpSocket::send_ack() { send_flags(net::kTcpAck, snd_nxt_); }

net::PacketPtr TcpSocket::make_segment(std::uint8_t flags,
                                       std::uint64_t seq) const {
  auto p = net::make_packet();
  p->src = local_.addr;
  p->dst = remote_.addr;
  p->proto = net::Protocol::kTcp;
  p->tcp.src_port = local_.port;
  p->tcp.dst_port = remote_.port;
  p->tcp.seq = seq;
  p->tcp.flags = flags;
  p->tcp.ack = (flags & net::kTcpAck) ? rcv_nxt_ : 0;
  p->tcp.window = cfg_.recv_window;
  return p;
}

void TcpSocket::arm_rto() {
  cancel_rto();
  std::weak_ptr<TcpSocket> weak = weak_from_this();
  rto_timer_ = stack_.sim().after(rto_, [weak] {
    if (auto self = weak.lock()) {
      self->rto_timer_ = sim::kInvalidEventId;
      self->on_rto_expired();
    }
  });
}

void TcpSocket::cancel_rto() {
  if (rto_timer_ != sim::kInvalidEventId) {
    stack_.sim().cancel(rto_timer_);
    rto_timer_ = sim::kInvalidEventId;
  }
}

void TcpSocket::on_rto_expired() {
  ++counters_.timeouts;
  obs::metric_add(m_timeouts_);
  if (++consecutive_rtos_ > cfg_.max_retries) {
    sim::logf(LogLevel::kDebug, stack_.sim().now(),
              "tcp %s: too many retries, resetting",
              local_.to_string().c_str());
    reset();
    return;
  }
  rto_ = std::min(rto_ * 2.0, cfg_.max_rto);

  switch (state_) {
    case State::kSynSent:
      send_flags(net::kTcpSyn, 0);
      arm_rto();
      return;
    case State::kSynReceived:
      send_flags(net::kTcpSyn | net::kTcpAck, 0);
      arm_rto();
      return;
    case State::kClosed:
      return;
    default:
      break;
  }

  // Loss recovery by timeout: multiplicative decrease, restart slow start,
  // go-back-N from the first unacked byte.
  const std::uint64_t flight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max<std::uint64_t>(flight / 2, 2 * cfg_.mss);
  cwnd_ = cfg_.mss;
  in_fast_recovery_ = false;
  dupacks_ = 0;
  timing_ = false;  // Karn: never time a retransmitted window
  snd_nxt_ = snd_una_;
  try_send();
  if (snd_nxt_ > snd_una_) arm_rto();
}

void TcpSocket::update_rtt(Time sample) {
  if (!have_rtt_sample_) {
    srtt_ = sample;
    rttvar_ = sample / 2.0;
    have_rtt_sample_ = true;
  } else {
    const Time err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = rttvar_ * 0.75 + err * 0.25;
    srtt_ = srtt_ * 0.875 + sample * 0.125;
  }
  rto_ = std::clamp(srtt_ + 4.0 * rttvar_, cfg_.min_rto, cfg_.max_rto);
}

void TcpSocket::finish_close() {
  if (state_ == State::kClosed) return;
  set_state(State::kClosed);
  cancel_rto();
  // Detach every callback before firing the last one: callbacks commonly
  // capture this socket (or a relay holding it) by shared_ptr, and clearing
  // them here breaks the cycle. on_closed is moved to a local so we never
  // destroy a std::function that is still executing.
  on_data = nullptr;
  on_remote_close = nullptr;
  on_connected = nullptr;
  auto closed_cb = std::move(on_closed);
  on_closed = nullptr;
  stack_.remove_connection(this);
  if (closed_cb) closed_cb();
}

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

TcpStack::~TcpStack() {
  for (auto& [key, sock] : connections_) {
    sock->cancel_rto();
    sock->on_data = nullptr;
    sock->on_connected = nullptr;
    sock->on_remote_close = nullptr;
    sock->on_closed = nullptr;
  }
}

TcpStack::TcpStack(net::Node& node, TcpConfig default_config)
    : node_{node}, default_config_{default_config} {
  node_.register_protocol_handler(
      net::Protocol::kTcp,
      [this](const net::PacketPtr& p, net::Interface*) { on_packet(p); });
}

void TcpStack::listen(std::uint16_t port, AcceptCallback cb,
                      std::optional<TcpConfig> cfg) {
  listeners_[port] = Listener{std::move(cb), cfg.value_or(default_config_)};
}

TcpSocket::Ptr TcpStack::connect(net::Endpoint remote,
                                 std::optional<TcpConfig> cfg) {
  MCS_ASSERT(!remote.addr.is_unspecified() && remote.port != 0,
             "connect() needs the remote address and port");
  const net::Endpoint local{node_.addr(), allocate_port()};
  TcpSocket::Ptr sock{
      new TcpSocket(*this, local, remote, cfg.value_or(default_config_))};
  connections_[ConnKey{local.port, remote}] = sock;
  sock->start_connect();
  return sock;
}

void TcpStack::notify_handoff_all() {
  // Copy: notify_handoff may trigger sends/resets that mutate the map.
  std::vector<TcpSocket::Ptr> socks;
  socks.reserve(connections_.size());
  for (auto& [k, s] : connections_) socks.push_back(s);
  MCS_ASSERT(socks.size() == connections_.size(),
             "the snapshot must cover every live connection before "
             "handoff callbacks start mutating the map");
  for (auto& s : socks) s->notify_handoff();
}

void TcpStack::on_packet(const net::PacketPtr& p) {
  const ConnKey key{p->tcp.dst_port, net::Endpoint{p->src, p->tcp.src_port}};
  if (auto it = connections_.find(key); it != connections_.end()) {
    TcpSocket::Ptr sock = it->second;  // keep alive across callbacks
    sock->on_packet(p);
    return;
  }
  if (p->tcp.has(net::kTcpSyn) && !p->tcp.has(net::kTcpAck)) {
    auto lit = listeners_.find(p->tcp.dst_port);
    if (lit != listeners_.end()) {
      const net::Endpoint local{p->dst, p->tcp.dst_port};
      const net::Endpoint remote{p->src, p->tcp.src_port};
      TcpSocket::Ptr sock{new TcpSocket(*this, local, remote, lit->second.cfg)};
      AcceptCallback& accept_cb = lit->second.cb;
      sock->on_connected = [accept_cb, sock]() mutable {
        // Surface the established connection to the application.
        if (accept_cb) accept_cb(sock);
      };
      connections_[ConnKey{local.port, remote}] = sock;
      sock->start_accept(p);
      return;
    }
  }
  // No connection, no listener: refuse politely (unless it's a RST).
  if (!p->tcp.has(net::kTcpRst)) {
    auto rst = net::make_packet();
    rst->src = p->dst;
    rst->dst = p->src;
    rst->proto = net::Protocol::kTcp;
    rst->tcp.src_port = p->tcp.dst_port;
    rst->tcp.dst_port = p->tcp.src_port;
    rst->tcp.flags = net::kTcpRst;
    node_.send(rst);
  }
}

void TcpStack::remove_connection(TcpSocket* s) {
  connections_.erase(ConnKey{s->local().port, s->remote()});
}

std::uint16_t TcpStack::allocate_port() { return next_ephemeral_++; }

}  // namespace mcs::transport
