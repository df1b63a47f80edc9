#include <gtest/gtest.h>

#include "middleware/markup.h"
#include "net/network.h"
#include "station/browser.h"
#include "station/cache.h"
#include "station/device.h"

namespace mcs::station {
namespace {

// --- Device profiles (Table 2) ----------------------------------------------

TEST(DeviceTest, Table2RowsMatchPaper) {
  const auto devices = all_devices();
  ASSERT_EQ(devices.size(), 5u);
  EXPECT_EQ(devices[0].name, "Compaq iPAQ H3870");
  EXPECT_EQ(devices[0].os, MobileOs::kPocketPc);
  EXPECT_DOUBLE_EQ(devices[0].cpu_mhz, 206.0);
  EXPECT_EQ(devices[0].ram_bytes, 64ull << 20);
  EXPECT_EQ(devices[0].rom_bytes, 32ull << 20);
  EXPECT_EQ(devices[1].name, "Nokia 9290 Communicator");
  EXPECT_EQ(devices[1].os, MobileOs::kSymbian);
  EXPECT_EQ(devices[2].name, "Palm i705");
  EXPECT_EQ(devices[2].os, MobileOs::kPalmOs);
  EXPECT_DOUBLE_EQ(devices[2].cpu_mhz, 33.0);
  EXPECT_EQ(devices[2].ram_bytes, 8ull << 20);
  EXPECT_EQ(devices[3].name, "SONY Clie PEG-NR70V");
  EXPECT_EQ(devices[4].name, "Toshiba E740");
  EXPECT_DOUBLE_EQ(devices[4].cpu_mhz, 400.0);
}

TEST(DeviceTest, PalmBatteryLastsTwiceAsLong) {
  // §4.1: Palm OS battery life "approximately twice that of its rivals".
  EXPECT_DOUBLE_EQ(palm_i705().battery.capacity_joules,
                   2.0 * ipaq_h3870().battery.capacity_joules);
}

TEST(DeviceTest, FasterCpuParsesFaster) {
  EXPECT_LT(toshiba_e740().parse_ms_per_kb(), palm_i705().parse_ms_per_kb());
  EXPECT_LT(toshiba_e740().render_ms_per_element(),
            nokia_9290().render_ms_per_element());
}

TEST(DeviceTest, LookupByName) {
  EXPECT_EQ(device_by_name("Palm i705").os, MobileOs::kPalmOs);
  EXPECT_THROW(device_by_name("iPhone"), std::out_of_range);
  EXPECT_STREQ(mobile_os_name(MobileOs::kSymbian), "Symbian OS");
}

// --- Battery -------------------------------------------------------------------

TEST(BatteryTest, DrainsByActivityAndIdle) {
  sim::Simulator sim;
  BatteryConfig cfg;
  cfg.capacity_joules = 100.0;
  cfg.tx_joule_per_byte = 0.001;
  cfg.rx_joule_per_byte = 0.0005;
  cfg.cpu_joule_per_ms = 0.01;
  cfg.idle_watts = 1.0;
  Battery b{sim, cfg};

  EXPECT_DOUBLE_EQ(b.remaining_joules(), 100.0);
  b.drain_tx_bytes(1000);  // 1 J
  b.drain_rx_bytes(2000);  // 1 J
  b.drain_cpu(sim::Time::millis(100));  // 1 J
  EXPECT_NEAR(b.remaining_joules(), 97.0, 1e-9);
  EXPECT_NEAR(b.spent_tx(), 1.0, 1e-9);
  EXPECT_NEAR(b.spent_rx(), 1.0, 1e-9);
  EXPECT_NEAR(b.spent_cpu(), 1.0, 1e-9);

  sim.run_until(sim::Time::seconds(10.0));  // 10 J idle
  EXPECT_NEAR(b.remaining_joules(), 87.0, 1e-9);
  EXPECT_NEAR(b.spent_idle(), 10.0, 1e-9);
  EXPECT_FALSE(b.depleted());

  sim.run_until(sim::Time::seconds(1000.0));
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.remaining_joules(), 0.0);
}

// --- LRU cache -------------------------------------------------------------------

TEST(LruCacheTest, PutGetEvict) {
  LruCache<std::string> c{100};
  c.put("a", "A", 40);
  c.put("b", "B", 40);
  EXPECT_EQ(c.get("a"), "A");  // refreshes a
  c.put("c", "C", 40);         // evicts b (LRU)
  EXPECT_EQ(c.get("b"), std::nullopt);
  EXPECT_EQ(c.get("a"), "A");
  EXPECT_EQ(c.get("c"), "C");
  EXPECT_EQ(c.size(), 2u);
  EXPECT_LE(c.used_bytes(), 100u);
}

TEST(LruCacheTest, OversizedItemRejected) {
  LruCache<int> c{10};
  c.put("big", 1, 100);
  EXPECT_EQ(c.get("big"), std::nullopt);
  EXPECT_EQ(c.size(), 0u);
}

TEST(LruCacheTest, OverwriteReplacesBytes) {
  LruCache<int> c{100};
  c.put("k", 1, 60);
  c.put("k", 2, 30);
  EXPECT_EQ(c.get("k"), 2);
  EXPECT_EQ(c.used_bytes(), 30u);
}

TEST(LruCacheTest, HitMissCounters) {
  LruCache<int> c{100};
  c.put("k", 1, 10);
  (void)c.get("k");
  (void)c.get("nope");
  EXPECT_EQ(c.hits(), 1u);
  EXPECT_EQ(c.misses(), 1u);
}

TEST(LruCacheTest, EraseAndClear) {
  LruCache<int> c{100};
  c.put("a", 1, 10);
  c.put("b", 2, 10);
  EXPECT_TRUE(c.erase("a"));
  EXPECT_FALSE(c.erase("a"));
  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.used_bytes(), 0u);
}

// --- MicroBrowser over a real gateway ------------------------------------------

struct BrowserFixture : public ::testing::Test {
  BrowserFixture() : network{sim, 43} {
    phone = network.add_node("phone");
    gateway = network.add_node("gateway");
    web = network.add_node("web");
    net::LinkConfig air;
    air.bandwidth_bps = 100e3;
    air.propagation = sim::Time::millis(40);
    network.connect(phone, gateway, air);
    network.connect(gateway, web);
    network.compute_routes();

    phone_udp = std::make_unique<transport::UdpStack>(*phone);
    phone_tcp = std::make_unique<transport::TcpStack>(*phone);
    gw_udp = std::make_unique<transport::UdpStack>(*gateway);
    gw_tcp = std::make_unique<transport::TcpStack>(*gateway);
    web_tcp = std::make_unique<transport::TcpStack>(*web);
    web_server = std::make_unique<host::HttpServer>(*web_tcp, 80);
    web_server->add_content(
        "/page", "text/html",
        "<html><head><title>P</title></head><body><h1>Page</h1>"
        "<p>Body text for the page</p></body></html>");
    wap_gw = std::make_unique<middleware::WapGateway>(
        *gateway, *gw_udp, *gw_tcp, middleware::dotted_quad_resolver());
    imode_gw = std::make_unique<middleware::IModeGateway>(
        *gw_tcp, middleware::dotted_quad_resolver());
  }

  std::unique_ptr<MicroBrowser> make_browser(BrowserMode mode,
                                             DeviceProfile device) {
    BrowserConfig cfg;
    cfg.mode = mode;
    cfg.gateway = mode == BrowserMode::kWap
                      ? net::Endpoint{gateway->addr(),
                                      middleware::kWapGatewayPort}
                      : net::Endpoint{gateway->addr(),
                                      middleware::kIModeGatewayPort};
    return std::make_unique<MicroBrowser>(*phone, device, cfg,
                                          phone_udp.get(), phone_tcp.get());
  }

  std::string url() const { return web->addr().to_string() + ":80/page"; }

  sim::Simulator sim;
  net::Network network;
  net::Node* phone;
  net::Node* gateway;
  net::Node* web;
  std::unique_ptr<transport::UdpStack> phone_udp;
  std::unique_ptr<transport::TcpStack> phone_tcp;
  std::unique_ptr<transport::UdpStack> gw_udp;
  std::unique_ptr<transport::TcpStack> gw_tcp;
  std::unique_ptr<transport::TcpStack> web_tcp;
  std::unique_ptr<host::HttpServer> web_server;
  std::unique_ptr<middleware::WapGateway> wap_gw;
  std::unique_ptr<middleware::IModeGateway> imode_gw;
};

TEST_F(BrowserFixture, WapPageLoadEndToEnd) {
  auto browser = make_browser(BrowserMode::kWap, ipaq_h3870());
  std::optional<MicroBrowser::PageResult> got;
  browser->browse(url(), [&](MicroBrowser::PageResult r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_EQ(got->title, "P");
  EXPECT_NE(got->content.find("Body text"), std::string::npos);
  EXPECT_GT(got->over_air_bytes, 0u);
  EXPECT_GT(got->network_time, sim::Time::millis(80));  // 2x 40ms propagation
  EXPECT_GT(got->total_time, got->network_time);
  EXPECT_FALSE(got->from_cache);
}

TEST_F(BrowserFixture, IModePageLoadEndToEnd) {
  auto browser = make_browser(BrowserMode::kImode, ipaq_h3870());
  std::optional<MicroBrowser::PageResult> got;
  browser->browse(url(), [&](MicroBrowser::PageResult r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_NE(got->content.find("Body text"), std::string::npos);
}

TEST_F(BrowserFixture, SecondVisitServedFromCache) {
  auto browser = make_browser(BrowserMode::kWap, ipaq_h3870());
  int loads = 0;
  std::optional<MicroBrowser::PageResult> second;
  browser->browse(url(), [&](MicroBrowser::PageResult) { ++loads; });
  sim.run();
  browser->browse(url(), [&](MicroBrowser::PageResult r) {
    ++loads;
    second = r;
  });
  sim.run();
  EXPECT_EQ(loads, 2);
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->from_cache);
  EXPECT_TRUE(second->network_time.is_zero());
  EXPECT_EQ(browser->cache().hits(), 1u);
}

TEST_F(BrowserFixture, PageTextAndRenderCostMatchReferenceParse) {
  // The one-pass summary must report what the reference tree reports for
  // the delivered deck, on a fetch and again on a cache hit (which prices
  // its render from the cached element count instead of re-parsing).
  for (const BrowserMode mode : {BrowserMode::kWap, BrowserMode::kImode}) {
    auto browser = make_browser(mode, ipaq_h3870());
    std::optional<MicroBrowser::PageResult> first;
    std::optional<MicroBrowser::PageResult> second;
    browser->browse(url(), [&](MicroBrowser::PageResult r) { first = r; });
    sim.run();
    browser->browse(url(), [&](MicroBrowser::PageResult r) { second = r; });
    sim.run();
    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    ASSERT_TRUE(first->ok);
    EXPECT_FALSE(first->from_cache);
    EXPECT_TRUE(second->from_cache);
    const middleware::MarkupDocument ref =
        middleware::parse_markup(first->content, middleware::MarkupKind::kWml);
    for (const MicroBrowser::PageResult* r : {&*first, &*second}) {
      EXPECT_EQ(r->content, first->content);
      EXPECT_EQ(r->title, ref.title());
      EXPECT_EQ(r->text, ref.root.inner_text());
      EXPECT_EQ(r->elements, ref.root.element_count());
      EXPECT_EQ(r->render_time,
                sim::Time::millis(static_cast<std::int64_t>(
                    ipaq_h3870().render_ms_per_element() *
                    static_cast<double>(ref.root.element_count()))));
    }
    EXPECT_NE(first->text.find("Body text for the page"), std::string::npos);
  }
}

TEST_F(BrowserFixture, SlowerDeviceSpendsMoreCpuTime) {
  auto fast = make_browser(BrowserMode::kWap, toshiba_e740());
  std::optional<MicroBrowser::PageResult> fast_r;
  fast->browse(url(), [&](MicroBrowser::PageResult r) { fast_r = r; });
  sim.run();
  auto slow = make_browser(BrowserMode::kWap, palm_i705());
  std::optional<MicroBrowser::PageResult> slow_r;
  slow->browse(url(), [&](MicroBrowser::PageResult r) { slow_r = r; });
  sim.run();
  ASSERT_TRUE(fast_r && slow_r);
  EXPECT_GT(slow_r->parse_time + slow_r->render_time,
            fast_r->parse_time + fast_r->render_time);
}

TEST_F(BrowserFixture, BrowsingDrainsBattery) {
  auto browser = make_browser(BrowserMode::kWap, palm_i705());
  const double before = browser->battery().remaining_joules();
  browser->browse(url(), [](MicroBrowser::PageResult) {});
  sim.run();
  EXPECT_LT(browser->battery().remaining_joules(), before);
  EXPECT_GT(browser->battery().spent_rx(), 0.0);
  EXPECT_GT(browser->battery().spent_tx(), 0.0);
  EXPECT_GT(browser->battery().spent_cpu(), 0.0);
}

TEST_F(BrowserFixture, MissingPageReportsStatus) {
  auto browser = make_browser(BrowserMode::kWap, ipaq_h3870());
  std::optional<MicroBrowser::PageResult> got;
  browser->browse(web->addr().to_string() + ":80/missing",
                  [&](MicroBrowser::PageResult r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok);
  EXPECT_EQ(got->status, 404);
}

}  // namespace
}  // namespace mcs::station
