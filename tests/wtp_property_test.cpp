// Property sweeps over WTP segmentation and reassembly (middleware/wtp.h):
// messages of one to five segments at several MTUs cross a link that
// reorders, duplicates and drops datagrams, and every case must reassemble
// the exact bytes on both sides, and each invoke after the first must run
// exactly once.
// Also: a duplicate invoke after the response re-sends byte-identical cached
// frames, a late copy of a finished invoke is dropped rather than run again,
// and (under ASan) a message view kept past its callback traps.

#include <gtest/gtest.h>

#include <set>

#include "middleware/wtp.h"
#include "net/network.h"
#include "sim/random.h"

namespace mcs::middleware {
namespace {

constexpr std::uint16_t kPort = 9300;

std::string random_bytes(sim::Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
  return s;
}

// A length that takes exactly `segs` segments at `mtu`.
std::size_t length_for(sim::Rng& rng, std::size_t segs, std::size_t mtu) {
  return static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>((segs - 1) * mtu + 1),
      static_cast<std::int64_t>(segs * mtu)));
}

bool is_wtp(const net::PacketPtr& p) {
  return p->proto == net::Protocol::kUdp && p->udp.dst_port == kPort;
}

struct WtpLink : public ::testing::Test {
  void build(std::size_t mtu) {
    phone = network.add_node("phone");
    gateway = network.add_node("gateway");
    network.connect(phone, gateway);
    network.compute_routes();
    phone_udp = std::make_unique<transport::UdpStack>(*phone);
    gw_udp = std::make_unique<transport::UdpStack>(*gateway);
    WtpConfig cfg;
    cfg.mtu = mtu;
    cfg.max_retries = 40;  // drops are frequent here; never give up
    initiator = std::make_unique<WtpEndpoint>(*phone_udp, kPort, cfg);
    responder = std::make_unique<WtpEndpoint>(*gw_udp, kPort, cfg);
  }

  // Every WTP datagram a node receives is dropped, duplicated or delayed at
  // random; re-delivered copies skip the filter.
  void make_unreliable(net::Node* node, sim::Rng& rng) {
    node->add_filter([this, node, &rng](const net::PacketPtr& p,
                                        net::Interface* in) {
      if (!is_wtp(p) || passing_.erase(p.get()) > 0) {
        return net::FilterVerdict::kPass;
      }
      const double roll = rng.uniform();
      if (roll < 0.15) return net::FilterVerdict::kConsumed;  // dropped
      if (roll < 0.35) {  // duplicated: this copy and a later one
        redeliver(node, p->clone(), in, rng);
        return net::FilterVerdict::kPass;
      }
      if (roll < 0.6) {  // delayed past its successors
        redeliver(node, p, in, rng);
        return net::FilterVerdict::kConsumed;
      }
      return net::FilterVerdict::kPass;
    });
  }

  void redeliver(net::Node* node, net::PacketPtr p, net::Interface* in,
                 sim::Rng& rng) {
    const auto delay = sim::Time::micros(rng.uniform_int(1, 40'000));
    sim.after(delay, [this, node, p, in] {
      passing_.insert(p.get());
      node->receive(p, in);
    });
  }

  sim::Simulator sim;
  net::Network network{sim, 23};
  net::Node* phone = nullptr;
  net::Node* gateway = nullptr;
  std::unique_ptr<transport::UdpStack> phone_udp;
  std::unique_ptr<transport::UdpStack> gw_udp;
  std::unique_ptr<WtpEndpoint> initiator;
  std::unique_ptr<WtpEndpoint> responder;
  std::set<const net::Packet*> passing_;
};

class WtpSweep : public WtpLink,
                 public ::testing::WithParamInterface<std::size_t> {};

TEST_P(WtpSweep, ReorderedDuplicatedAndDroppedSegmentsReassembleExactly) {
  const std::size_t mtu = GetParam();
  build(mtu);
  sim::Rng rng{0x57A9 + mtu};
  make_unreliable(phone, rng);
  make_unreliable(gateway, rng);

  std::string expect_invoke;
  std::string answer;
  int executions = 0;
  responder->on_invoke = [&](sim::MutSlice payload, net::Endpoint,
                             WtpEndpoint::Responder respond) {
    ++executions;
    EXPECT_EQ(sim::as_slice(payload), expect_invoke);
    respond(answer);
  };
  for (std::size_t in_segs = 1; in_segs <= 5; ++in_segs) {
    for (std::size_t out_segs = 1; out_segs <= 5; ++out_segs) {
      expect_invoke = random_bytes(rng, length_for(rng, in_segs, mtu));
      answer = random_bytes(rng, length_for(rng, out_segs, mtu));
      std::optional<std::string> got;
      bool called = false;
      initiator->invoke({gateway->addr(), kPort}, expect_invoke,
                        [&](std::optional<sim::MutSlice> r) {
                          called = true;
                          if (r.has_value()) got = std::string{sim::as_slice(*r)};
                        });
      const int before = executions;
      sim.run_until(sim.now() + sim::Time::minutes(2.0));
      ASSERT_TRUE(called) << in_segs << "x" << out_segs << " segments";
      ASSERT_TRUE(got.has_value()) << in_segs << "x" << out_segs;
      EXPECT_EQ(*got, answer) << in_segs << "x" << out_segs << " segments";
      // Copies that arrive after an exchange are recognized as finished,
      // except for the initiator's first invoke: its TID is also how a
      // restarted initiator starts, so a late copy of it runs again.
      if (in_segs == 1 && out_segs == 1) {
        EXPECT_GE(executions, before + 1);
      } else {
        EXPECT_EQ(executions, before + 1) << in_segs << "x" << out_segs;
      }
    }
  }
  EXPECT_GT(initiator->stats().counter("retransmissions").value(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Mtus, WtpSweep, ::testing::Values(7, 64, 1200));

TEST_F(WtpLink, DuplicateInvokeAfterTheResponseResendsTheCachedFrames) {
  build(/*mtu=*/100);
  sim::Rng rng{11};
  const std::string answer = random_bytes(rng, 350);  // four segments
  int executions = 0;
  responder->on_invoke = [&](sim::MutSlice, net::Endpoint,
                             WtpEndpoint::Responder respond) {
    ++executions;
    respond(answer);
  };
  // The phone loses the whole first result, so its retransmitted invoke
  // reaches a responder that has already answered.
  std::vector<std::string> first;
  std::vector<std::string> second;
  phone->add_filter([&](const net::PacketPtr& p, net::Interface*) {
    if (!is_wtp(p) || p->payload.rfind("RES ", 0) != 0) {
      return net::FilterVerdict::kPass;
    }
    if (first.size() < 4) {
      first.push_back(p->payload);
      return net::FilterVerdict::kConsumed;
    }
    second.push_back(p->payload);
    return net::FilterVerdict::kPass;
  });
  std::optional<std::string> got;
  initiator->invoke({gateway->addr(), kPort}, "GET 10.0.0.9:80/slow",
                    [&](std::optional<sim::MutSlice> r) {
                      if (r.has_value()) got = std::string{sim::as_slice(*r)};
                    });
  sim.run_until(sim::Time::seconds(30.0));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, answer);
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(responder->stats().counter("result_retransmissions").value(), 1u);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(second, first);  // byte-identical frames, in order
}

// A copy of an invoke delivered after its exchange has ended, whether the
// ACK closed it or the result cache expired, is dropped as stale: the
// request is not run again and nothing is sent back. A restarted initiator
// numbers its TIDs from the same start again and is served.
TEST_F(WtpLink, LateCopyOfAFinishedInvokeIsDroppedNotRerun) {
  build(/*mtu=*/1200);
  int executions = 0;
  responder->on_invoke = [&](sim::MutSlice, net::Endpoint,
                             WtpEndpoint::Responder respond) {
    ++executions;
    respond("OK");
  };
  // Keep a copy of every invoke; drop the third exchange's ACK, so only
  // its cache expiry ends that exchange.
  std::vector<std::pair<net::PacketPtr, net::Interface*>> invokes;
  auto ack_of = [](const net::PacketPtr& inv) {  // "INV <tid> ..."
    const std::string& f = inv->payload;
    return "ACK " + f.substr(4, f.find(' ', 4) - 4) + "\n";
  };
  gateway->add_filter([&](const net::PacketPtr& p, net::Interface* in) {
    if (!is_wtp(p)) return net::FilterVerdict::kPass;
    if (p->payload.rfind("INV ", 0) == 0) {
      invokes.emplace_back(p->clone(), in);
    } else if (invokes.size() == 3 && p->payload == ack_of(invokes[2].first)) {
      return net::FilterVerdict::kConsumed;
    }
    return net::FilterVerdict::kPass;
  });
  std::size_t phone_frames = 0;
  phone->add_filter([&](const net::PacketPtr& p, net::Interface*) {
    if (is_wtp(p)) ++phone_frames;
    return net::FilterVerdict::kPass;
  });
  int results = 0;
  auto exchange = [&] {
    initiator->invoke({gateway->addr(), kPort}, "POST /shop/buy?item=7",
                      [&](std::optional<sim::MutSlice> r) {
                        if (r.has_value()) ++results;
                      });
    sim.run_until(sim.now() + sim::Time::seconds(1.0));
  };
  for (int i = 0; i < 3; ++i) exchange();
  // Past the result cache's TTL: the last exchange is over too.
  sim.run_until(sim.now() + sim::Time::seconds(30.0));
  ASSERT_EQ(results, 3);
  ASSERT_EQ(executions, 3);
  ASSERT_EQ(invokes.size(), 3u);
  const std::size_t frames_before = phone_frames;

  // Late copies of the second and third invokes (the first TID an
  // initiator used is also how a restarted one starts: see below).
  const auto late = invokes;  // the filter records these copies too
  for (std::size_t i = 1; i < 3; ++i) {
    gateway->receive(late[i].first->clone(), late[i].second);
  }
  sim.run_until(sim.now() + sim::Time::seconds(30.0));
  EXPECT_EQ(executions, 3);
  EXPECT_EQ(responder->stats().counter("stale_invokes").value(), 2u);
  EXPECT_EQ(phone_frames, frames_before);  // no result re-sent

  initiator.reset();
  initiator = std::make_unique<WtpEndpoint>(*phone_udp, kPort);
  exchange();
  EXPECT_EQ(results, 4);
  EXPECT_EQ(executions, 4);
}

TEST_F(WtpLink, ViewHandedToOnInvokeDiesWhenTheCallbackReturns) {
  if (!sim::arena_poisoning_enabled()) {
    GTEST_SKIP() << "message-view poisoning needs MCS_SANITIZE=address";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  build(/*mtu=*/64);
  sim::Slice kept;
  responder->on_invoke = [&](sim::MutSlice payload, net::Endpoint,
                             WtpEndpoint::Responder respond) {
    kept = sim::as_slice(payload);  // the bug: a view kept past the call
    respond("ok");
  };
  // The ACK never arrives and the responder's cache outlives the run, so
  // only the end of the callback can have retired the buffer.
  gateway->add_filter([](const net::PacketPtr& p, net::Interface*) {
    return is_wtp(p) && p->payload.rfind("ACK ", 0) == 0
               ? net::FilterVerdict::kConsumed
               : net::FilterVerdict::kPass;
  });
  const std::string big(300, 'q');  // five segments: reassembled
  bool done = false;
  initiator->invoke({gateway->addr(), kPort}, big,
                    [&](std::optional<sim::MutSlice> r) { done = r.has_value(); });
  sim.run_until(sim::Time::seconds(5.0));
  ASSERT_TRUE(done);
  ASSERT_EQ(kept.size(), big.size());
  EXPECT_DEATH((void)*const_cast<const volatile char*>(kept.data() + 100),
               "use-after-poison");
}

}  // namespace
}  // namespace mcs::middleware
