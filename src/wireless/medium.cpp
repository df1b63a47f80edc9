#include "wireless/medium.h"

#include <algorithm>

#include "obs/trace.h"
#include "sim/contract.h"
#include "sim/logging.h"

namespace mcs::wireless {

namespace {
// Radio propagation is effectively instantaneous at cell scale; a small
// constant covers preamble/IFS overheads.
constexpr sim::Time kAirPropagation = sim::Time::micros(5);
}  // namespace

WirelessMedium::WirelessMedium(sim::Simulator& sim, std::string name,
                               Position ap_position, WirelessConfig cfg,
                               sim::Rng rng)
    : sim_{sim},
      name_{std::move(name)},
      ap_position_{ap_position},
      cfg_{cfg},
      rng_{rng} {}

void WirelessMedium::set_ap_interface(net::Interface* ap) {
  MCS_ASSERT(ap != nullptr, "access point interface must exist");
  ap_ = ap;
  ap_->attach(this);
}

void WirelessMedium::associate(net::Interface* station,
                               const MobilityModel* mobility) {
  MCS_ASSERT(station != nullptr, "cannot associate a null interface");
  MCS_ASSERT(station != ap_,
             "the access point cannot associate with itself");
  stations_[station].mobility = mobility;
  station->attach(this);
  stats_.counter("associations").add();
  if (on_topology_changed) on_topology_changed();
}

void WirelessMedium::disassociate(net::Interface* station) {
  auto it = stations_.find(station);
  if (it == stations_.end()) return;
  if (it->second.in_call) end_call(station);
  stations_.erase(it);
  if (station->channel() == this) station->detach();
  MCS_INVARIANT(!stations_.contains(station) && !has_call(station),
                "a disassociated station must hold neither an association "
                "record nor a reserved circuit channel");
  stats_.counter("disassociations").add();
  if (on_topology_changed) on_topology_changed();
}

bool WirelessMedium::is_associated(const net::Interface* station) const {
  return stations_.contains(station);
}

void WirelessMedium::place_call(net::Interface* station,
                                std::function<void(bool)> done) {
  auto it = stations_.find(station);
  if (it == stations_.end() || !circuit_mode()) {
    done(false);
    return;
  }
  if (calls_ >= cfg_.circuit_channels) {
    stats_.counter("calls_blocked").add();
    done(false);
    return;
  }
  ++calls_;  // channel reserved during setup
  MCS_INVARIANT(calls_ <= cfg_.circuit_channels,
                "reserving a setup channel can never oversubscribe the "
                "cell's circuit capacity");
  stats_.counter("calls_placed").add();
  sim_.after(cfg_.phy.call_setup, [this, station, done = std::move(done)] {
    auto sit = stations_.find(station);
    if (sit == stations_.end()) {
      --calls_;
      done(false);
      return;
    }
    sit->second.in_call = true;
    done(true);
  });
}

void WirelessMedium::end_call(net::Interface* station) {
  auto it = stations_.find(station);
  if (it == stations_.end() || !it->second.in_call) return;
  it->second.in_call = false;
  MCS_ASSERT(calls_ > 0,
             "a station marked in_call implies at least one reserved "
             "circuit channel to release");
  --calls_;
  stats_.counter("calls_ended").add();
}

bool WirelessMedium::has_call(const net::Interface* station) const {
  auto it = stations_.find(station);
  return it != stations_.end() && it->second.in_call;
}

double WirelessMedium::contention_factor() const {
  if (cfg_.scheduled_mac || stations_.size() <= 1) return 1.0;
  return 1.0 + cfg_.csma_contention_alpha *
                   static_cast<double>(stations_.size() - 1);
}

sim::Time WirelessMedium::service_time(const net::PacketPtr& p) const {
  return sim::transmission_time(p->size_bytes(),
                                cfg_.phy.effective_rate_bps()) *
         contention_factor();
}

void WirelessMedium::transmit(net::Interface* from, net::IpAddress next_hop,
                              net::PacketPtr p) {
  MCS_ASSERT(from != nullptr && p != nullptr,
             "wireless transmit needs a source interface and a packet");
  stats_.counter("tx_packets").add();
  if (circuit_mode()) {
    // The dedicated channel belongs to the mobile endpoint of the frame.
    net::Interface* station_iface =
        from == ap_ ? find_destination(next_hop) : from;
    Station* st = station_iface ? station_state(station_iface) : nullptr;
    if (st == nullptr || !st->in_call) {
      stats_.counter("drop_no_call").add();
      obs::metric_add(m_drops_);
      return;
    }
    if (st->queued_bytes + p->size_bytes() > cfg_.queue_limit_bytes) {
      stats_.counter("drop_queue_overflow").add();
      obs::metric_add(m_drops_);
      return;
    }
    st->queue.push_back(PendingTx{from, next_hop, std::move(p)});
    st->queued_bytes += st->queue.back().packet->size_bytes();
    obs::metric_adjust(
        m_queued_bytes_,
        static_cast<double>(st->queue.back().packet->size_bytes()));
    if (!st->busy) start_circuit_service(station_iface);
    return;
  }

  if (shared_queued_bytes_ + p->size_bytes() > cfg_.queue_limit_bytes) {
    stats_.counter("drop_queue_overflow").add();
    obs::metric_add(m_drops_);
    return;
  }
  shared_queue_.push_back(PendingTx{from, next_hop, std::move(p)});
  shared_queued_bytes_ += shared_queue_.back().packet->size_bytes();
  obs::metric_adjust(
      m_queued_bytes_,
      static_cast<double>(shared_queue_.back().packet->size_bytes()));
  if (!shared_busy_) start_shared_service();
}

void WirelessMedium::start_shared_service() {
  if (shared_queue_.empty()) {
    shared_busy_ = false;
    return;
  }
  shared_busy_ = true;
  PendingTx tx = std::move(shared_queue_.front());
  shared_queue_.pop_front();
  shared_queued_bytes_ -= tx.packet->size_bytes();
  obs::metric_adjust(m_queued_bytes_,
                     -static_cast<double>(tx.packet->size_bytes()));
  const sim::Time service = service_time(tx.packet);
  const std::uint32_t slot = put_on_air(std::move(tx));
  auto on_done = [this, slot] {
    land(slot);
    start_shared_service();
  };
  static_assert(sizeof(on_done) <= sim::InlineFunction::kInlineSize,
                "the per-frame service callback must not take a heap cell");
  sim_.after(service, std::move(on_done));
}

void WirelessMedium::start_circuit_service(net::Interface* station_iface) {
  Station* st = station_state(station_iface);
  if (st == nullptr || st->queue.empty()) {
    if (st != nullptr) st->busy = false;
    return;
  }
  st->busy = true;
  PendingTx tx = std::move(st->queue.front());
  st->queue.pop_front();
  st->queued_bytes -= tx.packet->size_bytes();
  obs::metric_adjust(m_queued_bytes_,
                     -static_cast<double>(tx.packet->size_bytes()));
  // Dedicated channel: full effective rate, no contention factor.
  const sim::Time service = sim::transmission_time(
      tx.packet->size_bytes(), cfg_.phy.effective_rate_bps());
  const std::uint32_t slot = put_on_air(std::move(tx));
  auto on_done = [this, station_iface, slot] {
    land(slot);
    start_circuit_service(station_iface);
  };
  static_assert(sizeof(on_done) <= sim::InlineFunction::kInlineSize,
                "the per-frame service callback must not take a heap cell");
  sim_.after(service, std::move(on_done));
}

std::uint32_t WirelessMedium::put_on_air(PendingTx&& tx) {
  const std::uint32_t slot = on_air_.acquire();
  OnAir& frame = on_air_[slot];
  // Air time (serialization under contention + propagation) attributed to
  // the stamped context as "wireless" component time.
  frame.air = obs::begin_child(
      obs::TraceContext{tx.packet->trace_id, tx.packet->trace_span},
      obs::Component::kWireless, "air.tx", sim_.now());
  frame.tx = std::move(tx);
  return slot;
}

void WirelessMedium::land(std::uint32_t slot) {
  OnAir& frame = on_air_[slot];
  const PendingTx tx = std::move(frame.tx);
  const obs::TraceContext air = frame.air;
  on_air_.release(slot);
  deliver(tx.from, tx.next_hop, tx.packet, air);
}

void WirelessMedium::deliver(net::Interface* from, net::IpAddress next_hop,
                             const net::PacketPtr& p, obs::TraceContext air) {
  net::Interface* to = find_destination(next_hop);
  if (to == nullptr || !to->up() || !from->up()) {
    stats_.counter("drop_not_attached").add();
    obs::metric_add(m_drops_);
    obs::end_span(air, sim_.now());
    return;
  }
  const double dist = position_of(from).distance_to(position_of(to));
  if (dist > cfg_.phy.range_m) {
    stats_.counter("drop_out_of_range").add();
    obs::metric_add(m_drops_);
    obs::end_span(air, sim_.now());
    return;
  }
  // Loss model: residual PHY loss, plus a steep ramp near the cell edge,
  // plus Gilbert-Elliott burst state of the mobile endpoint.
  double p_loss = cfg_.phy.base_loss_rate;
  const double edge_start = 0.85 * cfg_.phy.range_m;
  if (dist > edge_start) {
    p_loss += 0.4 * (dist - edge_start) / (cfg_.phy.range_m - edge_start);
  }
  Station* st = station_state(to != ap_ ? to : from);
  if (st != nullptr) {
    // Evolve the burst state once per frame.
    if (st->ge_bad) {
      if (rng_.bernoulli(cfg_.p_bad_to_good)) st->ge_bad = false;
    } else if (rng_.bernoulli(cfg_.p_good_to_bad)) {
      st->ge_bad = true;
    }
    if (st->ge_bad) p_loss += cfg_.burst_loss;
  }
  if (rng_.bernoulli(std::min(p_loss, 1.0))) {
    stats_.counter("drop_loss").add();
    obs::metric_add(m_drops_);
    obs::end_span(air, sim_.now());
    return;
  }
  stats_.counter("delivered_packets").add();
  stats_.counter("delivered_bytes").add(p->size_bytes());
  obs::metric_add(m_frames_);
  obs::metric_add(m_tx_bytes_, p->size_bytes());
  sim_.after(kAirPropagation, [this, to, p, air] {
    obs::end_span(air, sim_.now());
    obs::ActiveScope scope{obs::TraceContext{p->trace_id, p->trace_span}};
    to->node()->receive(p, to);
  });
}

net::Interface* WirelessMedium::find_destination(net::IpAddress addr) const {
  if (ap_ != nullptr && ap_->addr() == addr) return ap_;
  for (const auto& [iface, st] : stations_) {
    if (iface->addr() == addr) return const_cast<net::Interface*>(iface);
  }
  return nullptr;
}

Position WirelessMedium::position_of(const net::Interface* iface) const {
  if (iface == ap_) return ap_position_;
  auto it = stations_.find(iface);
  if (it != stations_.end() && it->second.mobility != nullptr) {
    return it->second.mobility->position();
  }
  return ap_position_;
}

WirelessMedium::Station* WirelessMedium::station_state(
    const net::Interface* iface) {
  auto it = stations_.find(iface);
  return it == stations_.end() ? nullptr : &it->second;
}

double WirelessMedium::rate_bps(const net::Interface* /*from*/) const {
  return cfg_.phy.effective_rate_bps();
}

std::vector<net::Channel::Edge> WirelessMedium::edges() const {
  std::vector<Edge> out;
  if (ap_ == nullptr) return out;
  const double cost =
      kAirPropagation.to_seconds() + 8.0 * 1024.0 / cfg_.phy.effective_rate_bps();
  for (const auto& [iface, st] : stations_) {
    // Only in-range stations are routable.
    const double dist = ap_position_.distance_to(position_of(iface));
    if (dist > cfg_.phy.range_m) continue;
    out.push_back(Edge{ap_, const_cast<net::Interface*>(iface), cost});
  }
  return out;
}

}  // namespace mcs::wireless
