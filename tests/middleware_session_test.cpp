// Cookie / session tests: the CookieJar itself, and gateway-held sessions
// over both middleware stacks (§7: "client-side programs such as cookies" —
// which WAP-era phones could not store, so the gateway holds them).

#include <gtest/gtest.h>

#include "core/system.h"
#include "sim/util.h"

namespace mcs::middleware {
namespace {

// --- CookieJar unit tests -----------------------------------------------------

TEST(CookieJarTest, StoresAndFormatsCookies) {
  host::CookieJar jar;
  host::HttpResponse resp;
  resp.set_header("Set-Cookie", "sid=abc123; Path=/");
  jar.update_from("10.0.0.2:80", resp);
  EXPECT_EQ(jar.cookie_header("10.0.0.2:80"), "sid=abc123");
  EXPECT_EQ(jar.cookie_header("10.0.0.3:80"), "");  // origin isolation
  EXPECT_EQ(jar.size(), 1u);
}

TEST(CookieJarTest, MultipleCookiesAndOverwrite) {
  host::CookieJar jar;
  jar.set("o", "a", "1");
  jar.set("o", "b", "2");
  EXPECT_EQ(jar.cookie_header("o"), "a=1; b=2");
  jar.set("o", "a", "9");
  EXPECT_EQ(jar.cookie_header("o"), "a=9; b=2");
  jar.clear();
  EXPECT_EQ(jar.size(), 0u);
}

TEST(CookieJarTest, FoldedSetCookieHeaderParses) {
  host::CookieJar jar;
  host::HttpResponse resp;
  resp.set_header("Set-Cookie", "a=1; Path=/, b=2; HttpOnly");
  jar.update_from("o", resp);
  EXPECT_EQ(jar.cookie_header("o"), "a=1; b=2");
}

TEST(CookieJarTest, MalformedPairsIgnored) {
  host::CookieJar jar;
  host::HttpResponse resp;
  resp.set_header("Set-Cookie", "noequals, =novalue, ok=yes");
  jar.update_from("o", resp);
  EXPECT_EQ(jar.cookie_header("o"), "ok=yes");
}

TEST(CookieJarTest, RepeatedSetCookieFieldsAllCount) {
  // Two Set-Cookie lines in one response are two cookies, not the last one.
  host::HttpParser parser{host::HttpParser::Mode::kResponse};
  host::CookieJar jar;
  parser.on_response = [&](host::HttpResponse& resp) {
    jar.update_from("o", resp);
  };
  parser.feed(
      "HTTP/1.1 200 OK\r\nSet-Cookie: a=1; Path=/\r\n"
      "Set-Cookie: b=2, c=3\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(jar.cookie_header("o"), "a=1; b=2; c=3");
  EXPECT_EQ(jar.size(), 3u);
}

// --- Gateway-held sessions end to end ------------------------------------------

// Install a tiny session app: /login?user=X sets a cookie; /me reads it.
void install_session_app(host::HttpServer& web) {
  web.route("GET", "/login", [](const host::HttpRequest& req) {
    const std::string user{host::query_param(req.path(), "user")};
    auto resp = host::HttpResponse::make(
        200, "text/html", "<p>WELCOME " + user + "</p>");
    resp.set_header("Set-Cookie", "session=" + user + "-token");
    return resp;
  });
  web.route("GET", "/me", [](const host::HttpRequest& req) {
    const std::string cookies{req.header("Cookie")};
    const std::size_t at = cookies.find("session=");
    if (at == std::string::npos) {
      return host::HttpResponse::make(401, "text/html",
                                      "<p>NO-SESSION</p>");
    }
    return host::HttpResponse::make(
        200, "text/html", "<p>SESSION " + cookies.substr(at + 8) + "</p>");
  });
}

class GatewaySessionTest
    : public ::testing::TestWithParam<station::BrowserMode> {};

TEST_P(GatewaySessionTest, GatewayPlaysCookiesPerPhone) {
  sim::Simulator sim;
  core::McSystemConfig cfg;
  cfg.middleware = GetParam();
  cfg.num_mobiles = 2;
  core::McSystem sys{sim, cfg};
  install_session_app(sys.web_server());

  auto browse = [&](std::size_t phone, const std::string& path) {
    std::string text;
    sys.mobile(phone).browser->browse(
        sys.web_url(path),
        [&](station::MicroBrowser::PageResult r) { text = r.content; });
    sim.run();
    return text;
  };

  // Before login: no session.
  EXPECT_NE(browse(0, "/me").find("NO-SESSION"), std::string::npos);
  // Phone 0 logs in as alice; phone 1 as bob.
  EXPECT_NE(browse(0, "/login?user=alice").find("WELCOME alice"),
            std::string::npos);
  EXPECT_NE(browse(1, "/login?user=bob").find("WELCOME bob"),
            std::string::npos);
  // Each phone gets ITS OWN session back: the gateway kept separate jars.
  EXPECT_NE(browse(0, "/me").find("SESSION alice-token"), std::string::npos);
  EXPECT_NE(browse(1, "/me").find("SESSION bob-token"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(BothMiddlewares, GatewaySessionTest,
                         ::testing::Values(station::BrowserMode::kWap,
                                           station::BrowserMode::kImode),
                         [](const auto& tinfo) {
                           return tinfo.param == station::BrowserMode::kWap
                                      ? "wap"
                                      : "imode";
                         });

TEST(GatewaySessionTest2, XPeerHeaderIdentifiesClients) {
  sim::Simulator sim;
  core::EcSystemConfig cfg;
  cfg.num_clients = 2;
  core::EcSystem sys{sim, cfg};
  std::vector<std::string> peers;
  sys.web_server().route("GET", "/whoami", [&](const host::HttpRequest& req) {
    peers.push_back(req.peer.to_string());
    return host::HttpResponse::make(200, "text/plain", "ok");
  });
  sys.client(0).driver->fetch(sys.web_url("/whoami"), [](auto) {});
  sys.client(1).driver->fetch(sys.web_url("/whoami"), [](auto) {});
  sim.run();
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_NE(peers[0], peers[1]);
  EXPECT_NE(peers[0].find(':'), std::string::npos);  // "addr:port" form
}

}  // namespace
}  // namespace mcs::middleware
