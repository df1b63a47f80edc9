#pragma once

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "net/channel.h"
#include "net/node.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/pool.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "wireless/mobility.h"
#include "wireless/phy_profiles.h"

namespace mcs::wireless {

struct WirelessConfig {
  PhyProfile phy;
  // CSMA/CA contention: each extra active station inflates service time by
  // this factor. Scheduled (cellular) MACs set scheduled_mac instead.
  double csma_contention_alpha = 0.08;
  bool scheduled_mac = false;
  // Gilbert-Elliott burst errors per station (the error-prone wireless
  // channel of §5.2): in the bad state, frames are additionally lost with
  // `burst_loss` probability.
  double burst_loss = 0.35;
  double p_good_to_bad = 0.005;  // per frame
  double p_bad_to_good = 0.25;   // per frame
  std::size_t queue_limit_bytes = 128 * 1024;
  // Circuit switching (1G/2G): concurrent calls the cell can carry.
  int circuit_channels = 8;
};

// One wireless cell: an access point (or cellular base station) plus the
// stations associated with it, sharing a radio medium. Implements
//
//  * byte-accurate serialization at the PHY's effective rate,
//  * CSMA contention inflation or scheduled MAC,
//  * range checking + distance-dependent loss + Gilbert-Elliott bursts,
//  * packet switching (shared queue) or circuit switching (per-call
//    dedicated channel with call setup latency and blocking).
class WirelessMedium : public net::Channel {
 public:
  WirelessMedium(sim::Simulator& sim, std::string name, Position ap_position,
                 WirelessConfig cfg, sim::Rng rng);

  const std::string& name() const { return name_; }
  const WirelessConfig& config() const { return cfg_; }
  Position ap_position() const { return ap_position_; }

  // The wired-side attachment point (AP/BS interface).
  void set_ap_interface(net::Interface* ap);
  net::Interface* ap_interface() const { return ap_; }

  // --- Association ----------------------------------------------------------
  void associate(net::Interface* station, const MobilityModel* mobility);
  void disassociate(net::Interface* station);
  bool is_associated(const net::Interface* station) const;
  std::size_t station_count() const { return stations_.size(); }
  // Fired after every association change (wire to Network::compute_routes).
  std::function<void()> on_topology_changed;

  // --- Circuit switching (Table 5, 1G/2G) -----------------------------------
  // Request a dedicated channel; `done(granted)` fires after the standard's
  // call-setup time, or immediately with false if the cell is full.
  void place_call(net::Interface* station, std::function<void(bool)> done);
  void end_call(net::Interface* station);
  bool has_call(const net::Interface* station) const;
  int calls_in_progress() const { return calls_; }

  // --- net::Channel -----------------------------------------------------------
  void transmit(net::Interface* from, net::IpAddress next_hop,
                net::PacketPtr p) override;
  double rate_bps(const net::Interface* from) const override;
  std::vector<Edge> edges() const override;

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

 private:
  struct PendingTx {
    net::Interface* from;
    net::IpAddress next_hop;
    net::PacketPtr packet;
  };

  struct Station {
    const MobilityModel* mobility = nullptr;
    bool in_call = false;
    bool ge_bad = false;  // Gilbert-Elliott channel state
    // Circuit mode: dedicated channel queue.
    std::deque<PendingTx> queue;
    std::size_t queued_bytes = 0;
    bool busy = false;
  };

  // A frame from the start of its service to its delivery. Kept here, not
  // in the kernel callback, so the callback captures only [this, slot]
  // (and the station) and fits InlineFunction's inline buffer.
  struct OnAir {
    PendingTx tx;
    obs::TraceContext air;  // the "air.tx" span
  };

  bool circuit_mode() const { return cfg_.phy.switching == Switching::kCircuit; }
  double contention_factor() const;
  sim::Time service_time(const net::PacketPtr& p) const;
  void start_shared_service();
  void start_circuit_service(net::Interface* station);
  // Start `tx`'s air time (and its "air.tx" span); returns its slot.
  std::uint32_t put_on_air(PendingTx&& tx);
  // Deliver the frame in `slot` and free the slot.
  void land(std::uint32_t slot);
  // `air` is the in-flight "air.tx" span: closed here at the delivery or
  // drop point so air time includes serialization and propagation.
  void deliver(net::Interface* from, net::IpAddress next_hop,
               const net::PacketPtr& p, obs::TraceContext air);
  net::Interface* find_destination(net::IpAddress addr) const;
  Position position_of(const net::Interface* iface) const;
  // The mobile endpoint of a transmission (AP side has no GE state).
  Station* station_state(const net::Interface* iface);

  sim::Simulator& sim_;
  std::string name_;
  Position ap_position_;
  WirelessConfig cfg_;
  sim::Rng rng_;
  net::Interface* ap_ = nullptr;
  std::unordered_map<const net::Interface*, Station> stations_;
  // Packet mode: one shared transmission queue (half-duplex medium).
  std::deque<PendingTx> shared_queue_;
  std::size_t shared_queued_bytes_ = 0;
  bool shared_busy_ = false;
  sim::SlotPool<OnAir> on_air_;
  int calls_ = 0;
  sim::StatsRegistry stats_;
  // Telemetry handles, cached at construction (obs/metrics.h); shared names
  // across cells so "wireless.*" totals the whole air tier.
  obs::TsCounter* m_frames_ = obs::metric_counter("wireless.frames");
  obs::TsCounter* m_tx_bytes_ = obs::metric_counter("wireless.tx_bytes");
  obs::TsCounter* m_drops_ = obs::metric_counter("wireless.drops");
  obs::TsGauge* m_queued_bytes_ = obs::metric_gauge("wireless.queued_bytes");
};

}  // namespace mcs::wireless
