#include "host/http.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "sim/random.h"
#include "sim/util.h"

namespace mcs::host {
namespace {

TEST(HttpMessageTest, RequestSerializeIncludesContentLength) {
  HttpRequest req;
  req.set_method("POST");
  req.set_path("/order");
  req.set_header("Host", "shop");
  req.body = "item=5";
  const std::string wire = req.serialize();
  EXPECT_NE(wire.find("POST /order HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 6\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\nitem=5"), std::string::npos);
}

TEST(HttpMessageTest, HeaderLookupIsCaseInsensitive) {
  HttpResponse resp;
  resp.set_header("Content-Type", "text/html");
  EXPECT_EQ(resp.header("content-type"), "text/html");
  EXPECT_EQ(resp.header("CONTENT-TYPE"), "text/html");
  EXPECT_EQ(resp.header("missing"), "");
}

TEST(HttpMessageTest, MakeHelpers) {
  const auto r = HttpResponse::make(200, "text/plain", "hi");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.reason(), "OK");
  EXPECT_EQ(r.body, "hi");
  EXPECT_EQ(HttpResponse::not_found("/x").status, 404);
  EXPECT_EQ(HttpResponse::bad_request("y").status, 400);
  EXPECT_EQ(HttpResponse::server_error("z").status, 500);
  EXPECT_STREQ(reason_for_status(503), "Service Unavailable");
}

TEST(HttpParserTest, ParsesSingleRequest) {
  HttpParser p{HttpParser::Mode::kRequest};
  std::vector<HttpRequest> got;
  p.on_request = [&](HttpRequest& r) { got.push_back(r); };
  p.feed("GET /index.html HTTP/1.1\r\nHost: shop\r\nUser-Agent: ua\r\n\r\n");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].method(), "GET");
  EXPECT_EQ(got[0].path(), "/index.html");
  EXPECT_EQ(got[0].header("host"), "shop");
}

TEST(HttpParserTest, HandlesSplitDelivery) {
  HttpParser p{HttpParser::Mode::kRequest};
  int got = 0;
  std::string body;
  p.on_request = [&](HttpRequest& r) {
    ++got;
    body = r.body;
  };
  const std::string wire =
      "POST /pay HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world";
  // Deliver byte by byte (worst-case TCP segmentation).
  for (char c : wire) p.feed(std::string(1, c));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(body, "hello world");
}

TEST(HttpParserTest, HandlesPipelinedMessages) {
  HttpParser p{HttpParser::Mode::kRequest};
  std::vector<std::string> paths;
  p.on_request = [&](HttpRequest& r) { paths.emplace_back(r.path()); };
  p.feed(
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\n\r\n"
      "GET /c HTTP/1.1\r\n\r\n");
  EXPECT_EQ(paths, (std::vector<std::string>{"/a", "/b", "/c"}));
}

TEST(HttpParserTest, ParsesResponseWithBody) {
  HttpParser p{HttpParser::Mode::kResponse};
  std::vector<HttpResponse> got;
  p.on_response = [&](HttpResponse& r) { got.push_back(r); };
  HttpResponse out = HttpResponse::make(404, "text/plain", "nope");
  p.feed(out.serialize());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, 404);
  EXPECT_EQ(got[0].body, "nope");
}

TEST(HttpParserTest, RoundTripLargeBody) {
  HttpParser p{HttpParser::Mode::kResponse};
  std::string body(100'000, 'q');
  body[12345] = 'Z';
  HttpResponse out = HttpResponse::make(200, "application/octet-stream", body);
  std::string received;
  p.on_response = [&](HttpResponse& r) { received = r.body; };
  const std::string wire = out.serialize();
  // Feed in 1460-byte MSS chunks.
  for (std::size_t i = 0; i < wire.size(); i += 1460) {
    p.feed(wire.substr(i, 1460));
  }
  EXPECT_EQ(received, body);
}

TEST(HttpParserTest, MalformedStartLineFails) {
  HttpParser p{HttpParser::Mode::kRequest};
  std::string err;
  p.on_error = [&](const std::string& e) { err = e; };
  p.feed("NOT-HTTP\r\n\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_FALSE(err.empty());
}

// Feeds `wire` and reports what the parser did with it.
struct RequestFeed {
  std::vector<HttpRequest> got;
  std::string error;
  bool failed = false;
};
RequestFeed feed_requests(const std::vector<std::string>& segments) {
  RequestFeed out;
  HttpParser p{HttpParser::Mode::kRequest};
  p.on_request = [&](HttpRequest& r) { out.got.push_back(r); };
  p.on_error = [&](const std::string& e) { out.error = e; };
  for (const auto& s : segments) p.feed(s);
  out.failed = p.failed();
  return out;
}

TEST(HttpParserTest, NegativeContentLengthFailsInsteadOfWrapping) {
  // "-1" used to wrap head_len + body_len: the POST was delivered with a
  // 2-byte body, one stale head byte stayed buffered, and the valid GET
  // behind it failed as a malformed request line.
  const auto r = feed_requests(
      {"POST /a HTTP/1.1\r\nContent-Length: -1\r\n\r\nxy",
       "GET /b HTTP/1.1\r\nHost: shop\r\n\r\n"});
  EXPECT_TRUE(r.got.empty());
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("Content-Length"), std::string::npos) << r.error;
}

TEST(HttpParserTest, ContentLengthAcceptsOnlyDigitsThatFit) {
  // 18446744073709551615 fits a 64-bit size_t but not with the head
  // before it.
  for (const char* bad : {"12abc", "+5", "99999999999999999999", " ", "0x10",
                          "5 5", "18446744073709551615"}) {
    const auto r = feed_requests({sim::cat(
        "POST /a HTTP/1.1\r\nContent-Length: ", std::string_view{bad},
        "\r\n\r\n0123456789012345")});
    EXPECT_TRUE(r.failed) << bad;
    EXPECT_TRUE(r.got.empty()) << bad;
  }
  // A valid length with leading zeros frames exactly, and the pipelined
  // request behind it still parses.
  const auto ok = feed_requests(
      {"POST /a HTTP/1.1\r\nContent-Length: 0005\r\n\r\nhelloGET /b HTTP/1.1"
       "\r\n\r\n"});
  ASSERT_EQ(ok.got.size(), 2u);
  EXPECT_EQ(ok.got[0].body, "hello");
  EXPECT_EQ(ok.got[1].path(), "/b");
  EXPECT_FALSE(ok.failed);
}

TEST(HttpParserTest, MoreFieldsThanAHeadHoldsFails) {
  std::string head = "GET /a HTTP/1.1\r\n";
  for (std::size_t i = 0; i < HttpHead::kMaxFields; ++i) {
    head += sim::strf("X-%zu: v\r\n", i);
  }
  const auto full = feed_requests({head + "\r\n"});
  ASSERT_EQ(full.got.size(), 1u);
  EXPECT_EQ(full.got[0].header_count(), HttpHead::kMaxFields);
  const auto over = feed_requests({head + "X-last: v\r\n\r\n"});
  EXPECT_TRUE(over.got.empty());
  EXPECT_TRUE(over.failed);
  EXPECT_EQ(over.error, "too many header fields");
}

TEST(HttpParserTest, RepeatedFieldsAreAllKeptAndLastWins) {
  HttpParser p{HttpParser::Mode::kResponse};
  std::vector<HttpResponse> got;
  p.on_response = [&](HttpResponse& r) { got.push_back(r); };
  p.feed("HTTP/1.1 200 OK\r\nSet-Cookie: a=1\r\nContent-Length: 0\r\n"
         "Set-Cookie: b=2\r\n\r\n");
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].header_count(), 3u);
  EXPECT_EQ(got[0].header("set-cookie"), "b=2");
  std::vector<std::string> values;
  got[0].for_each_header("SET-COOKIE", [&](sim::Slice v) {
    values.emplace_back(v);
  });
  EXPECT_EQ(values, (std::vector<std::string>{"a=1", "b=2"}));
  // Re-serialized, every field line goes out, sorted by name.
  EXPECT_EQ(got[0].serialize(),
            "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nSet-Cookie: a=1\r\n"
            "Set-Cookie: b=2\r\n\r\n");
}

TEST(HttpMessageTest, HeadersSerializeInByteOrderWithLengthLast) {
  HttpRequest req;
  req.set_method("POST");
  req.set_path("/bank/prepare?txn=k1");
  req.set_header("User-Agent", "ua");
  req.set_header("Host", "10.0.0.2:80");
  req.set_header("Cookie", "sid=1");
  req.set_header("Host", "10.0.0.3:80");  // replaces, keeps its place
  req.body = "abc";
  EXPECT_EQ(req.serialize(),
            "POST /bank/prepare?txn=k1 HTTP/1.1\r\nCookie: sid=1\r\n"
            "Host: 10.0.0.3:80\r\nUser-Agent: ua\r\nContent-Length: 3\r\n"
            "\r\nabc");
  EXPECT_EQ(req.wire_size(), req.serialize().size());
  const HttpResponse copy = [&] {
    HttpResponse r = HttpResponse::make(404, "text/plain", "gone");
    HttpResponse moved = std::move(r);
    EXPECT_EQ(r.header_count(), 0u);  // a moved-from head is empty
    return moved;
  }();
  EXPECT_EQ(copy.serialize(),
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n"
            "Content-Length: 4\r\n\r\ngone");
}

TEST(HttpMessageTest, SetHeaderFromOwnViewSurvivesGrowth) {
  // Each copy spills the head buffer further: first out of the inline
  // bytes, then out of its first heap block, while the value being copied
  // still points into the old one.
  const std::string type(150, 't');
  HttpResponse resp = HttpResponse::make(200, type);
  resp.set_header("X-A", resp.header("Content-Type"));
  resp.set_header("X-B", resp.header("X-A"));
  resp.set_header("X-C", resp.header("X-B"));
  EXPECT_EQ(resp.header("x-c"), type);
  EXPECT_EQ(resp.header("content-type"), type);
  HttpRequest req;
  req.set_path("/a/b/c");
  req.set_path(req.path().substr(2));
  EXPECT_EQ(req.path(), "/b/c");
}

// --- Parse property: random messages at every split point ------------------

// Test-local reference for what the parser must report: header values are
// trimmed, the map keeps the last value of each exact name, and a lookup
// takes the first case-insensitive match in byte order.
struct RefMessage {
  std::string start[3];
  std::vector<std::pair<std::string, std::string>> fields;  // wire order
  std::string body;

  std::string lookup(const std::string& name) const {
    std::map<std::string, std::string> m;
    for (const auto& [k, v] : fields) m[k] = v;
    for (const auto& [k, v] : m) {
      if (sim::to_lower(k) == sim::to_lower(name)) return v;
    }
    return "";
  }
};

std::string random_token(sim::Rng& rng, std::size_t max_len, bool allow_space) {
  static const char kAlpha[] = "abcXYZ09-_/?=&.;,%";
  std::string s;
  const auto n = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(max_len)));
  for (std::size_t i = 0; i < n; ++i) {
    if (allow_space && i > 0 && i + 1 < n && rng.uniform_int(0, 9) == 0) {
      s += ' ';
    } else {
      s += kAlpha[rng.uniform_int(0, sizeof kAlpha - 2)];
    }
  }
  return s;
}

// One random request or response and its wire bytes.
std::pair<RefMessage, std::string> random_message(sim::Rng& rng,
                                                  bool request) {
  static const char* kNames[] = {"Host", "host", "Cookie", "User-Agent",
                                 "Accept", "X-A", "Set-Cookie"};
  RefMessage m;
  std::string wire;
  if (request) {
    m.start[0] = rng.uniform_int(0, 1) == 0 ? "GET" : "POST";
    m.start[1] = "/" + random_token(rng, 24, false);
    m.start[2] = "HTTP/1.1";
  } else {
    m.start[0] = "HTTP/1.1";
    m.start[1] = sim::strf("%d", static_cast<int>(rng.uniform_int(100, 599)));
    m.start[2] = random_token(rng, 12, false);
  }
  wire = m.start[0] + " " + m.start[1] + " " + m.start[2] + "\r\n";
  const auto nfields = rng.uniform_int(0, 8);
  for (std::int64_t i = 0; i < nfields; ++i) {
    std::string name = kNames[rng.uniform_int(0, 6)];
    std::string value = random_token(rng, 16, true);
    m.fields.emplace_back(name, value);
    const char* pad = rng.uniform_int(0, 2) == 0 ? "  " : " ";
    wire += name + ":" + pad + value + (rng.uniform_int(0, 3) == 0 ? " " : "") +
            "\r\n";
  }
  const int body_len = static_cast<int>(rng.uniform_int(0, 40));
  for (int i = 0; i < body_len; ++i) {
    m.body += static_cast<char>('a' + rng.uniform_int(0, 25));
  }
  if (body_len > 0 || rng.uniform_int(0, 1) == 0) {
    wire += sim::strf("Content-Length: %d\r\n", body_len);
    m.fields.emplace_back("Content-Length", sim::strf("%d", body_len));
  }
  wire += "\r\n" + m.body;
  return {m, wire};
}

template <typename Msg>
void expect_matches(const Msg& got, const RefMessage& want, int seed,
                    std::size_t split) {
  SCOPED_TRACE(sim::strf("seed %d split %zu", seed, split));
  EXPECT_EQ(got.body, want.body);
  EXPECT_EQ(got.header_count(), want.fields.size());
  for (const auto& [name, value] : want.fields) {
    EXPECT_EQ(got.header(name), want.lookup(name)) << name;
  }
  // Every field line is kept, in byte order of names (stable on ties).
  std::vector<std::pair<std::string, std::string>> sorted = want.fields;
  std::stable_sort(
      sorted.begin(), sorted.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string want_head;
  for (const auto& [name, value] : sorted) {
    want_head += name + ": " + value + "\r\n";
  }
  std::string wire = got.serialize();
  const std::size_t line_end = wire.find("\r\n") + 2;
  EXPECT_EQ(wire.substr(line_end, want_head.size()), want_head);
  EXPECT_EQ(got.wire_size(), wire.size());
}

TEST(HttpParserProperty, RandomMessagesParseIdenticallyAtEverySplit) {
  for (int seed = 1; seed <= 60; ++seed) {
    sim::Rng rng{static_cast<std::uint64_t>(seed)};
    const bool request = seed % 2 == 0;
    const auto [ref, wire] = random_message(rng, request);
    const auto [ref2, wire2] = random_message(rng, request);
    for (std::size_t split = 0; split <= wire.size(); ++split) {
      // Two pipelined messages: the first split at `split`, the second in
      // the same segment as the first's tail.
      const std::string head = wire.substr(0, split);
      const std::string tail = wire.substr(split) + wire2;
      HttpParser p{request ? HttpParser::Mode::kRequest
                           : HttpParser::Mode::kResponse};
      std::vector<HttpRequest> reqs;
      std::vector<HttpResponse> resps;
      std::vector<std::size_t> sizes;
      p.on_request = [&](HttpRequest& r) {
        reqs.push_back(r);
        sizes.push_back(p.message_size());
      };
      p.on_response = [&](HttpResponse& r) {
        resps.push_back(r);
        sizes.push_back(p.message_size());
      };
      p.on_error = [&](const std::string& e) { ADD_FAILURE() << e; };
      p.feed(head);
      p.feed(tail);
      ASSERT_FALSE(p.failed());
      ASSERT_EQ(sizes, (std::vector<std::size_t>{wire.size(), wire2.size()}))
          << "seed " << seed << " split " << split;
      if (request) {
        ASSERT_EQ(reqs.size(), 2u);
        for (int i = 0; i < 3; ++i) {
          EXPECT_EQ(i == 0   ? reqs[0].method()
                    : i == 1 ? reqs[0].path()
                             : reqs[0].version(),
                    ref.start[i]);
        }
        expect_matches(reqs[0], ref, seed, split);
        expect_matches(reqs[1], ref2, seed, split);
      } else {
        ASSERT_EQ(resps.size(), 2u);
        EXPECT_EQ(resps[0].status, std::atoi(ref.start[1].c_str()));
        EXPECT_EQ(resps[0].reason(), ref.start[2]);
        expect_matches(resps[0], ref, seed, split);
        expect_matches(resps[1], ref2, seed, split);
      }
    }
  }
}

TEST(UrlTest, ParsesHostPortPath) {
  auto u = parse_url("http://10.0.0.5:8080/cart?item=1");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "10.0.0.5");
  EXPECT_EQ(u->port, 8080);
  EXPECT_EQ(u->path, "/cart?item=1");
}

TEST(UrlTest, DefaultsPort80AndRootPath) {
  auto u = parse_url("shop.example");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->host, "shop.example");
  EXPECT_EQ(u->port, 80);
  EXPECT_EQ(u->path, "/");
}

TEST(UrlTest, RejectsGarbage) {
  EXPECT_FALSE(parse_url("").has_value());
  EXPECT_FALSE(parse_url("http://").has_value());
  EXPECT_FALSE(parse_url("host:99999/x").has_value());
  // The port is ASCII digits only: no suffix, sign or space.
  EXPECT_FALSE(parse_url("shop:80abc/x").has_value());
  EXPECT_FALSE(parse_url("shop:+80/x").has_value());
  EXPECT_FALSE(parse_url("shop: 80/x").has_value());
  EXPECT_FALSE(parse_url("shop:/x").has_value());
  EXPECT_FALSE(parse_url("shop:0/x").has_value());
  ASSERT_TRUE(parse_url("shop:080/x").has_value());
  EXPECT_EQ(parse_url("shop:080/x")->port, 80);
}

}  // namespace
}  // namespace mcs::host
