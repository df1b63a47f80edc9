// Allocation proof for the WAP byte path (wtp.h, wtls.h, wap_gateway.h): a
// warm WTP exchange and a warm WTLS record cost no heap at all, and a warm
// secure page fetch through the WAP gateway allocates only the page's owned
// results. A counting operator new in this binary measures it directly, so
// a frame copied into a fresh string, a boxed respond callback or a
// string-returning seal fails here, not in a benchmark.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <type_traits>

#include "core/system.h"
#include "middleware/wtp.h"
#include "net/network.h"
#include "security/wtls.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  std::fputs("wap_alloc_test: out of memory\n", stderr);
  std::abort();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mcs {
namespace {

// The respond handle must ride in std::function's inline buffer
// (libstdc++ stores trivially copyable callables of up to 16 bytes there).
static_assert(std::is_trivially_copyable_v<middleware::WtpEndpoint::Responder>);
static_assert(sizeof(middleware::WtpEndpoint::Responder) <= 16);

template <class Fn>
std::uint64_t allocations(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

struct WtpAllocFixture : public ::testing::Test {
  WtpAllocFixture() : network{sim, 17} {
    phone = network.add_node("phone");
    gateway = network.add_node("gateway");
    network.connect(phone, gateway);
    network.compute_routes();
    phone_udp = std::make_unique<transport::UdpStack>(*phone);
    gw_udp = std::make_unique<transport::UdpStack>(*gateway);
    initiator = std::make_unique<middleware::WtpEndpoint>(*phone_udp, 9300);
    responder = std::make_unique<middleware::WtpEndpoint>(*gw_udp, 9300);
    responder->on_invoke = [](sim::MutSlice payload, net::Endpoint,
                              middleware::WtpEndpoint::Responder respond) {
      // Answer in place: the result is written straight into the
      // transaction's buffer.
      sim::BufWriter{respond.result()}.put("200 ").put(sim::as_slice(payload));
      respond.send();
    };
  }

  // One invoke, its result and the ACK, run to completion.
  void round_trip() {
    initiator->invoke({gateway->addr(), 9300},
                      "GET 10.0.0.9:80/catalog?user=acct3",
                      [this](std::optional<sim::MutSlice> r) {
                        ok = r.has_value() &&
                             sim::as_slice(*r) ==
                                 "200 GET 10.0.0.9:80/catalog?user=acct3";
                      });
    sim.run();
  }

  sim::Simulator sim;
  net::Network network;
  net::Node* phone;
  net::Node* gateway;
  std::unique_ptr<transport::UdpStack> phone_udp;
  std::unique_ptr<transport::UdpStack> gw_udp;
  std::unique_ptr<middleware::WtpEndpoint> initiator;
  std::unique_ptr<middleware::WtpEndpoint> responder;
  bool ok = false;
};

TEST_F(WtpAllocFixture, WarmSingleSegmentExchangeAllocatesNothing) {
  for (int i = 0; i < 8; ++i) round_trip();  // warm nodes, packets, timers
  ASSERT_TRUE(ok);
  for (int i = 0; i < 4; ++i) {
    ok = false;
    EXPECT_EQ(allocations([&] { round_trip(); }), 0u) << "round trip " << i;
    EXPECT_TRUE(ok);
  }
  EXPECT_EQ(initiator->stats().counter("transactions_completed").value(), 12u);
}

TEST(WtlsAllocTest, WarmSealAndOpenAllocateNothing) {
  security::SecureChannel phone{0x5EC12E7ull, 0};
  security::SecureChannel gateway{0x5EC12E7ull, 1};
  const std::string request = "GET 10.0.0.9:80/catalog?user=acct3&item=12";
  std::string frame;
  auto exchange = [&] {
    frame.clear();
    sim::BufWriter w{frame};
    w.put("WTLS-DATA ");
    const std::size_t record = phone.begin_seal(w);
    w.put(request);
    phone.end_seal(w, record);
    const auto opened =
        gateway.open(sim::MutSlice{frame.data() + 10, frame.size() - 10});
    return opened.has_value() && *opened == request;
  };
  ASSERT_TRUE(exchange());  // sizes the frame buffer
  bool ok = false;
  EXPECT_EQ(allocations([&] { ok = exchange(); }), 0u);
  EXPECT_TRUE(ok);
}

// What a warm secure page fetch may allocate, end to end through the phone,
// the air, the WAP gateway and the web server: the origin's response body
// as the gateway's HTTP client hands it over, and the page's owned results
// (decoded deck, title and text). The WTP frames, the WTLS records, the WSP
// messages and every callback cost nothing.
constexpr std::uint64_t kSecureBrowseBound = 4;

TEST(WapGatewayAllocTest, WarmSecureBrowseAllocatesOnlyThePage) {
  sim::Simulator sim;
  core::McSystemConfig cfg;
  cfg.num_mobiles = 0;
  core::McSystem sys{sim, cfg};
  // A query string keeps the page out of the handset cache.
  const std::string path = "/account?session=7";
  sys.web_server().add_content(
      path, "text/html",
      "<html><head><title>Bank of the Air</title></head><body>"
      "<p>BALANCE 1234.56 for account holder acct3</p></body></html>");
  net::Node* node = sys.network().add_node("phone");
  net::Interface* iface =
      node->add_interface(sys.network().allocate_address());
  wireless::FixedPosition pos{wireless::Position{10.0, 0}};
  sys.cell().associate(iface, &pos);
  sys.network().compute_routes();
  transport::UdpStack udp{*node};
  station::BrowserConfig bcfg;
  bcfg.mode = station::BrowserMode::kWap;
  bcfg.gateway = {sys.gateway_node()->addr(), middleware::kWapGatewayPort};
  bcfg.use_wtls = true;
  station::MicroBrowser browser{*node, station::ipaq_h3870(), bcfg, &udp,
                                nullptr};
  const std::string url = sys.web_url(path);
  bool ok = false;
  auto browse = [&] {
    ok = false;
    browser.browse(url, [&ok](station::MicroBrowser::PageResult r) {
      ok = r.ok && r.title == "Bank of the Air";
    });
    sim.run();
  };
  for (int i = 0; i < 8; ++i) browse();  // handshake, connections, buffers
  ASSERT_TRUE(ok);
  ASSERT_TRUE(browser.wtls_established());
  for (int i = 0; i < 4; ++i) {
    EXPECT_LE(allocations(browse), kSecureBrowseBound) << "browse " << i;
    EXPECT_TRUE(ok);
  }
}

}  // namespace
}  // namespace mcs
