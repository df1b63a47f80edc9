// End-to-end middleware tests: WTP transactions, WAP gateway, i-mode gateway.

#include <gtest/gtest.h>

#include "middleware/wap_gateway.h"
#include "middleware/wbxml.h"
#include "net/network.h"

namespace mcs::middleware {
namespace {

std::string wsp_request(const std::string& url) {
  std::string out;
  sim::BufWriter w{out};
  wsp_encode_request(url, w);
  return out;
}

// A WTP result callback that copies the (transient) result into `into`.
WtpEndpoint::ResultCallback keep(std::optional<std::string>& into) {
  return [&into](std::optional<sim::MutSlice> r) {
    into = r.has_value() ? std::optional<std::string>{std::string{
                               sim::as_slice(*r)}}
                         : std::nullopt;
  };
}

// phone --(lossy-able link)-- gateway --(wired)-- web server
struct GatewayFixture : public ::testing::Test {
  GatewayFixture() : network{sim, 41} {
    phone = network.add_node("phone");
    gateway = network.add_node("gateway");
    web = network.add_node("web");
    net::LinkConfig air;  // stands in for the wireless hop
    air.bandwidth_bps = 100e3;
    air.propagation = sim::Time::millis(50);
    phone_link = network.connect(phone, gateway, air);
    network.connect(gateway, web);
    network.compute_routes();

    phone_udp = std::make_unique<transport::UdpStack>(*phone);
    phone_tcp = std::make_unique<transport::TcpStack>(*phone);
    gw_udp = std::make_unique<transport::UdpStack>(*gateway);
    gw_tcp = std::make_unique<transport::TcpStack>(*gateway);
    web_tcp = std::make_unique<transport::TcpStack>(*web);
    web_server = std::make_unique<host::HttpServer>(*web_tcp, 80);
    web_server->add_content(
        "/index.html", "text/html",
        "<html><head><title>Shop</title></head><body>"
        "<h1>Welcome</h1><p>Special offers today</p>"
        "<img src=\"banner.gif\" alt=\"banner\">"
        "<a href=\"/cart\">Your cart</a></body></html>");
  }

  std::string web_host() const { return web->addr().to_string() + ":80"; }

  sim::Simulator sim;
  net::Network network;
  net::Node* phone;
  net::Node* gateway;
  net::Node* web;
  net::Link* phone_link;
  std::unique_ptr<transport::UdpStack> phone_udp;
  std::unique_ptr<transport::TcpStack> phone_tcp;
  std::unique_ptr<transport::UdpStack> gw_udp;
  std::unique_ptr<transport::TcpStack> gw_tcp;
  std::unique_ptr<transport::TcpStack> web_tcp;
  std::unique_ptr<host::HttpServer> web_server;
};

TEST(WspTest, RequestResponseEncoding) {
  EXPECT_EQ(wsp_request("10.0.0.1:80/x"), "GET 10.0.0.1:80/x");
  EXPECT_EQ(*wsp_decode_request("GET host/path"), "host/path");
  EXPECT_FALSE(wsp_decode_request("POST x").has_value());
  std::string resp = "kept|";
  sim::BufWriter w{resp};
  wsp_encode_response(200, "text/vnd.wap.wml", "<wml/>", w);
  EXPECT_EQ(resp, "kept|200 text/vnd.wap.wml\n<wml/>");
  EXPECT_EQ(wsp_response_size(200, "text/vnd.wap.wml", "<wml/>"),
            resp.size() - 5);
  const sim::Slice payload = sim::Slice{resp}.substr(5);
  const auto back = wsp_decode_response(payload);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, 200);
  EXPECT_EQ(back->content_type, "text/vnd.wap.wml");
  EXPECT_EQ(back->body, "<wml/>");
  // Views into the payload, not copies.
  EXPECT_EQ(back->body.data(), payload.data() + payload.size() - 6);
  EXPECT_FALSE(wsp_decode_response("no newline").has_value());
}

TEST(ResolverTest, DottedQuad) {
  const auto r = dotted_quad_resolver();
  const auto ep = r("10.0.0.5", 80);
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->addr, (net::IpAddress{10, 0, 0, 5}));
  EXPECT_FALSE(r("shop.example", 80).has_value());
  EXPECT_FALSE(r("10.0.0", 80).has_value());
  EXPECT_FALSE(r("10.0.0.999", 80).has_value());
  // Four fields of ASCII digits and nothing else.
  EXPECT_FALSE(r("10.0.0.1x", 80).has_value());
  EXPECT_FALSE(r(" 10.0.0.1", 80).has_value());
  EXPECT_FALSE(r("+10.0.0.1", 80).has_value());
  EXPECT_FALSE(r("10.0.0.-0", 80).has_value());
  EXPECT_FALSE(r("10.0.0.1.", 80).has_value());
  EXPECT_FALSE(r("10..0.1", 80).has_value());
  EXPECT_FALSE(r("10.0.0.256", 80).has_value());
  EXPECT_EQ(r("10.0.0.255", 80)->addr, (net::IpAddress{10, 0, 0, 255}));
}

TEST_F(GatewayFixture, WtpInvokeResultRoundTrip) {
  WtpEndpoint responder{*gw_udp, 9300};
  WtpEndpoint initiator{*phone_udp, 9300};
  responder.on_invoke = [](sim::MutSlice payload, net::Endpoint,
                           WtpEndpoint::Responder respond) {
    respond(sim::cat("echo:", sim::as_slice(payload)));
  };
  std::optional<std::string> got;
  initiator.invoke({gateway->addr(), 9300}, "hello",
                   keep(got));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "echo:hello");
  EXPECT_EQ(initiator.stats().counter("transactions_completed").value(), 1u);
}

TEST_F(GatewayFixture, WtpSegmentsLargePayloads) {
  WtpEndpoint responder{*gw_udp, 9300};
  WtpEndpoint initiator{*phone_udp, 9300};
  const std::string big(5'000, 'z');  // > 4 segments at mtu 1200
  responder.on_invoke = [&](sim::MutSlice payload, net::Endpoint,
                            WtpEndpoint::Responder respond) {
    EXPECT_EQ(sim::as_slice(payload), big);
    respond(std::string(3'000, 'w'));
  };
  std::optional<std::string> got;
  initiator.invoke({gateway->addr(), 9300}, std::string{big},
                   keep(got));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 3'000u);
  EXPECT_GT(initiator.stats().counter("datagrams_sent").value(), 4u);
}

TEST_F(GatewayFixture, WtpRetransmitsThroughLoss) {
  // Drop the first three WTP datagrams crossing the gateway.
  int dropped = 0;
  gateway->add_filter([&](const net::PacketPtr& p, net::Interface*) {
    if (p->proto == net::Protocol::kUdp && p->udp.dst_port == 9300 &&
        dropped < 3) {
      ++dropped;
      return net::FilterVerdict::kConsumed;
    }
    return net::FilterVerdict::kPass;
  });
  WtpEndpoint responder{*gw_udp, 9300};
  WtpEndpoint initiator{*phone_udp, 9300};
  responder.on_invoke = [](sim::MutSlice, net::Endpoint,
                           WtpEndpoint::Responder respond) {
    respond("ok");
  };
  std::optional<std::string> got;
  initiator.invoke({gateway->addr(), 9300}, "req",
                   keep(got));
  sim.run_until(sim::Time::seconds(30.0));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "ok");
  EXPECT_GT(initiator.stats().counter("retransmissions").value(), 0u);
}

TEST_F(GatewayFixture, WtpDuplicateInvokeIsNotReExecuted) {
  WtpEndpoint responder{*gw_udp, 9300};
  WtpEndpoint initiator{*phone_udp, 9300};
  int executions = 0;
  // Delay the result beyond the initiator's retry interval so a duplicate
  // invoke reaches the responder while the first is still pending / cached.
  responder.on_invoke = [&](sim::MutSlice, net::Endpoint,
                            WtpEndpoint::Responder respond) {
    ++executions;
    sim.after(sim::Time::seconds(1.0),
              [respond] { respond("slow"); });
  };
  std::optional<std::string> got;
  initiator.invoke({gateway->addr(), 9300}, "req",
                   keep(got));
  sim.run_until(sim::Time::seconds(30.0));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(executions, 1);
}

TEST_F(GatewayFixture, WtpFailsAfterMaxRetries) {
  // No responder bound on the far side at all.
  WtpEndpoint initiator{*phone_udp, 9333};
  std::optional<std::string> got = "sentinel";
  initiator.invoke({gateway->addr(), 9333}, "req",
                   keep(got));
  sim.run_until(sim::Time::minutes(2.0));
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(initiator.stats().counter("transactions_failed").value(), 1u);
}

TEST_F(GatewayFixture, WapGatewayTranslatesHtmlToWbxmlDeck) {
  WapGateway gw{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver()};
  WtpEndpoint phone_wtp{*phone_udp, kWapGatewayPort};
  std::optional<std::string> result;
  phone_wtp.invoke({gateway->addr(), kWapGatewayPort},
                   wsp_request(web_host() + "/index.html"),
                   keep(result));
  sim.run();
  ASSERT_TRUE(result.has_value());
  const auto wsp = wsp_decode_response(*result);
  ASSERT_TRUE(wsp.has_value());
  EXPECT_EQ(wsp->status, 200);
  EXPECT_EQ(wsp->content_type, "application/vnd.wap.wmlc");
  const auto deck = wbxml_decode(std::string{wsp->body});
  ASSERT_TRUE(deck.has_value());
  ASSERT_NE(deck->find("card"), nullptr);
  EXPECT_EQ(*deck->find("card")->attr("title"), "Shop");
  const std::string text = deck->root.inner_text();
  EXPECT_NE(text.find("Welcome"), std::string::npos);
  EXPECT_NE(text.find("[banner]"), std::string::npos);  // image -> alt
  EXPECT_EQ(gw.stats().requests, 1u);
  EXPECT_EQ(gw.stats().translations, 1u);
  EXPECT_GT(gw.stats().html_bytes_in, 0u);
}

TEST_F(GatewayFixture, WapGatewayWbxmlShrinksAirBytes) {
  // Same page through a WBXML gateway and a text-WML gateway.
  auto run = [&](bool wbxml, std::uint16_t port) {
    WapGatewayConfig cfg;
    cfg.wtp_port = port;
    cfg.encode_wbxml = wbxml;
    WapGateway gw{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver(), cfg};
    WtpEndpoint phone_wtp{*phone_udp, port};
    std::size_t air = 0;
    phone_wtp.invoke({gateway->addr(), port},
                     wsp_request(web_host() + "/index.html"),
                     [&](std::optional<sim::MutSlice> r) {
                       if (r.has_value()) air = r->size();
                     });
    sim.run();
    return air;
  };
  const std::size_t wbxml_bytes = run(true, 9201);
  const std::size_t text_bytes = run(false, 9202);
  ASSERT_GT(wbxml_bytes, 0u);
  ASSERT_GT(text_bytes, 0u);
  EXPECT_LT(wbxml_bytes, text_bytes);
}

TEST_F(GatewayFixture, WapGatewayReportsOriginFailures) {
  WapGateway gw{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver()};
  WtpEndpoint phone_wtp{*phone_udp, kWapGatewayPort};
  std::optional<std::string> result;
  // Port 81: nothing listens there.
  phone_wtp.invoke({gateway->addr(), kWapGatewayPort},
                   wsp_request(web->addr().to_string() + ":81/x"),
                   keep(result));
  sim.run_until(sim::Time::minutes(1.0));
  ASSERT_TRUE(result.has_value());
  const auto wsp = wsp_decode_response(*result);
  ASSERT_TRUE(wsp.has_value());
  EXPECT_EQ(wsp->status, 502);
  EXPECT_EQ(gw.stats().upstream_failures, 1u);
}

TEST_F(GatewayFixture, IModeGatewayServesChtml) {
  IModeGateway gw{*gw_tcp, dotted_quad_resolver()};
  host::HttpClient phone_http{*phone_tcp};
  std::optional<host::HttpResponse> got;
  phone_http.get({gateway->addr(), kIModeGatewayPort},
                 "/" + web_host() + "/index.html",
                 [&](std::optional<host::HttpResponse> r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  const auto doc = parse_markup(got->body, MarkupKind::kChtml);
  EXPECT_NE(doc.root.inner_text().find("Welcome"), std::string::npos);
  EXPECT_EQ(doc.find("script"), nullptr);
  EXPECT_EQ(gw.stats().requests, 1u);
}

TEST_F(GatewayFixture, IModeResponseWireSizeMatchesSerializedBytes) {
  // The handset prices i-mode air bytes with wire_size(), which must equal
  // the serialized response it stands in for (status line, headers, body).
  IModeGateway gw{*gw_tcp, dotted_quad_resolver()};
  host::HttpClient phone_http{*phone_tcp};
  std::optional<host::HttpResponse> got;
  phone_http.get({gateway->addr(), kIModeGatewayPort},
                 "/" + web_host() + "/index.html",
                 [&](std::optional<host::HttpResponse> r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  ASSERT_NE(got->header_count(), 0u);
  ASSERT_FALSE(got->body.empty());
  EXPECT_EQ(got->wire_size(), got->serialize().size());
}

// An origin on web:8080 that records the raw request bytes and answers each
// request with `reply` (the first one also sets a cookie).
struct RawOrigin {
  explicit RawOrigin(transport::TcpStack& tcp) {
    tcp.listen(8080, [this](transport::TcpSocket::Ptr s) {
      transport::TcpSocket* raw = s.get();
      s->on_data = [this, raw](const std::string& bytes) {
        got += bytes;
        for (; answered < count_heads(); ++answered) {
          raw->send(answered == 0
                        ? "HTTP/1.1 200 OK\r\nSet-Cookie: sid=7\r\n"
                          "Content-Length: 2\r\n\r\nhi"
                        : "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi");
        }
      };
      sockets.push_back(std::move(s));
    });
  }
  std::size_t count_heads() const {
    std::size_t n = 0;
    for (std::size_t at = got.find("\r\n\r\n"); at != std::string::npos;
         at = got.find("\r\n\r\n", at + 4)) {
      ++n;
    }
    return n;
  }
  std::string got;
  std::size_t answered = 0;
  std::vector<transport::TcpSocket::Ptr> sockets;
};

TEST_F(GatewayFixture, IModeUpstreamRequestsMatchGoldenWireBytes) {
  RawOrigin origin{*web_tcp};
  IModeGateway gw{*gw_tcp, dotted_quad_resolver()};
  host::HttpClient phone_http{*phone_tcp};
  const std::string target = web->addr().to_string() + ":8080";
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    phone_http.get({gateway->addr(), kIModeGatewayPort},
                   "/" + target + "/cart?item=5",
                   [&](std::optional<host::HttpResponse> r) {
                     if (r.has_value()) ++done;
                   });
    sim.run();
  }
  EXPECT_EQ(done, 2);
  // The second request plays the cookie the first response set, and the
  // fields go out in byte order of their names.
  const std::string get = "GET /cart?item=5 HTTP/1.1\r\n";
  EXPECT_EQ(origin.got,
            get + "Host: " + target +
                "\r\nUser-Agent: mcs-imode-gateway/1.0\r\n\r\n" + get +
                "Cookie: sid=7\r\nHost: " + target +
                "\r\nUser-Agent: mcs-imode-gateway/1.0\r\n\r\n");
}

TEST_F(GatewayFixture, WapUpstreamRequestsMatchGoldenWireBytes) {
  RawOrigin origin{*web_tcp};
  WapGateway gw{*gateway, *gw_udp, *gw_tcp, dotted_quad_resolver()};
  WtpEndpoint phone_wtp{*phone_udp, 9400};
  const std::string target = web->addr().to_string() + ":8080";
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    phone_wtp.invoke({gateway->addr(), kWapGatewayPort},
                     wsp_request(target + "/cart?item=5"),
                     [&](std::optional<sim::MutSlice> r) {
                       if (r.has_value()) ++done;
                     });
    sim.run_until(sim.now() + sim::Time::seconds(30.0));
  }
  EXPECT_EQ(done, 2);
  const std::string get = "GET /cart?item=5 HTTP/1.1\r\n";
  EXPECT_EQ(origin.got,
            get + "Host: " + target +
                "\r\nUser-Agent: mcs-wap-gateway/1.0\r\n\r\n" + get +
                "Cookie: sid=7\r\nHost: " + target +
                "\r\nUser-Agent: mcs-wap-gateway/1.0\r\n\r\n");
}

TEST_F(GatewayFixture, IModePersistentConnectionHandlesManyRequests) {
  IModeGateway gw{*gw_tcp, dotted_quad_resolver()};
  host::HttpClient phone_http{*phone_tcp};
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    phone_http.get({gateway->addr(), kIModeGatewayPort},
                   "/" + web_host() + "/index.html",
                   [&](std::optional<host::HttpResponse> r) {
                     if (r.has_value() && r->status == 200) ++done;
                   });
  }
  sim.run();
  EXPECT_EQ(done, 5);
  // Always-on: the phone used one TCP connection for everything.
  EXPECT_EQ(phone_http.stats().counter("connections_opened").value(), 1u);
}

}  // namespace
}  // namespace mcs::middleware
