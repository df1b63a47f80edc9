// Allocation proof for the HTTP message layer (http.h, http_server.h): a
// warm keep-alive round trip allocates only the bodies it hands over. A
// counting operator new in this binary measures it directly, so a header
// map, a copied request or a boxed respond callback fails here, not in a
// benchmark.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <type_traits>

#include "host/http_server.h"
#include "net/network.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  std::fputs("http_alloc_test: out of memory\n", stderr);
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

namespace mcs::host {
namespace {

// The respond handle must ride in std::function's inline buffer
// (libstdc++ stores trivially copyable callables of up to 16 bytes there).
static_assert(std::is_trivially_copyable_v<HttpServer::Responder>);
static_assert(sizeof(HttpServer::Responder) <= 16);

template <class Fn>
std::uint64_t allocations(Fn&& fn) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

// Longer than the small-string buffer, so each handed-over body shows.
const std::string kBody(64, 'b');

struct HttpAllocFixture : public ::testing::Test {
  HttpAllocFixture() : network{sim, 11} {
    client_node = network.add_node("client");
    server_node = network.add_node("server");
    network.connect(client_node, server_node);
    network.compute_routes();
    client_tcp = std::make_unique<transport::TcpStack>(*client_node);
    server_tcp = std::make_unique<transport::TcpStack>(*server_node);
    server = std::make_unique<HttpServer>(*server_tcp, 80);
    client = std::make_unique<HttpClient>(*client_tcp);
    server->route("GET", "/page", [](const HttpRequest&) {
      return HttpResponse::make(200, "text/html", kBody);
    });
    server->add_content("/static", "text/plain", kBody);
    request.set_path("/page?user=acct3&item=12");
    request.set_header("Host", "10.0.0.2:80");
    request.set_header("User-Agent", "mcs-alloc-test/1.0");
    request.set_header("Accept", "text/html");
  }

  net::Endpoint server_ep() { return {server_node->addr(), 80}; }

  // One request and its response, run to completion.
  void round_trip() {
    client->request(server_ep(), request,
                    [this](std::optional<HttpResponse> r) {
                      ok = r.has_value() && r->status == 200 &&
                           r->body == kBody;
                    });
    sim.run();
  }

  sim::Simulator sim;
  net::Network network;
  net::Node* client_node;
  net::Node* server_node;
  std::unique_ptr<transport::TcpStack> client_tcp;
  std::unique_ptr<transport::TcpStack> server_tcp;
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<HttpClient> client;
  HttpRequest request;
  bool ok = false;
};

TEST_F(HttpAllocFixture, WarmKeepAliveRoundTripAllocatesOnlyTheBodies) {
  for (int i = 0; i < 8; ++i) round_trip();  // connect and warm every buffer
  ASSERT_TRUE(ok);
  for (int i = 0; i < 4; ++i) {
    ok = false;
    // The handler's body, and the body the client hands to its callback.
    EXPECT_LE(allocations([&] { round_trip(); }), 2u) << "round trip " << i;
    EXPECT_TRUE(ok);
  }
  EXPECT_EQ(client->stats().counter("connections_opened").value(), 1u);
}

TEST_F(HttpAllocFixture, WarmStaticHitAllocatesOnlyTheClientBody) {
  request.set_path("/static");
  for (int i = 0; i < 8; ++i) round_trip();
  ASSERT_TRUE(ok);
  // Static content goes from the server's copy straight into the outbox.
  EXPECT_LE(allocations([&] { round_trip(); }), 1u);
  EXPECT_TRUE(ok);
}

TEST(HttpMessageAllocTest, BuildSerializeAndParseInPlace) {
  HttpResponse resp = HttpResponse::make(404, "text/plain; charset=cp932");
  resp.set_header("Server", "mcs-httpd/1.0");
  resp.set_header("Connection", "close");
  std::string wire;
  sim::BufWriter w{wire};
  resp.serialize_to(w, "not found: /some/longer/path?with=query");
  HttpParser parser{HttpParser::Mode::kResponse};
  std::size_t seen = 0;
  parser.on_response = [&seen](HttpResponse& r) { seen += r.header_count(); };
  parser.feed(wire);  // warm: the first parse sizes the body buffer
  ASSERT_EQ(seen, 4u);
  // A fresh small response, its header edits and a warm re-parse: no heap.
  EXPECT_EQ(allocations([&] {
              HttpResponse r = HttpResponse::make(200, "text/html");
              r.set_header("Server", "mcs-httpd/1.0");
              r.set_header("Connection", "close");
              parser.feed(wire);
            }),
            0u);
  EXPECT_EQ(seen, 8u);
}

}  // namespace
}  // namespace mcs::host
