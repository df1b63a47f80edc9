#include "host/http_server.h"

#include <gtest/gtest.h>

#include "host/app_server.h"
#include "net/network.h"

namespace mcs::host {
namespace {

struct WebFixture : public ::testing::Test {
  WebFixture() : network{sim, 29} {
    client_node = network.add_node("client");
    server_node = network.add_node("server");
    network.connect(client_node, server_node);
    network.compute_routes();
    client_tcp = std::make_unique<transport::TcpStack>(*client_node);
    server_tcp = std::make_unique<transport::TcpStack>(*server_node);
    server = std::make_unique<HttpServer>(*server_tcp, 80);
    client = std::make_unique<HttpClient>(*client_tcp);
  }

  net::Endpoint server_ep() { return {server_node->addr(), 80}; }

  sim::Simulator sim;
  net::Network network;
  net::Node* client_node;
  net::Node* server_node;
  std::unique_ptr<transport::TcpStack> client_tcp;
  std::unique_ptr<transport::TcpStack> server_tcp;
  std::unique_ptr<HttpServer> server;
  std::unique_ptr<HttpClient> client;
};

TEST_F(WebFixture, ServesStaticContent) {
  server->add_content("/index.html", "text/html", "<html>hello</html>");
  std::optional<HttpResponse> got;
  client->get(server_ep(), "/index.html", [&](auto r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(got->body, "<html>hello</html>");
  EXPECT_EQ(got->header("content-type"), "text/html");
  EXPECT_EQ(got->header("server"), "mcs-httpd/1.0");
}

TEST_F(WebFixture, Returns404ForUnknownPath) {
  std::optional<HttpResponse> got;
  client->get(server_ep(), "/missing", [&](auto r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 404);
}

TEST_F(WebFixture, DynamicRouteAndLongestPrefixWins) {
  server->route("GET", "/api", [](const HttpRequest&) {
    return HttpResponse::make(200, "text/plain", "api-root");
  });
  server->route("GET", "/api/cart", [](const HttpRequest&) {
    return HttpResponse::make(200, "text/plain", "cart");
  });
  std::optional<HttpResponse> r1, r2;
  client->get(server_ep(), "/api/cart?id=1", [&](auto r) { r1 = r; });
  client->get(server_ep(), "/api/other", [&](auto r) { r2 = r; });
  sim.run();
  ASSERT_TRUE(r1 && r2);
  EXPECT_EQ(r1->body, "cart");
  EXPECT_EQ(r2->body, "api-root");
}

TEST_F(WebFixture, MethodsAreDistinct) {
  server->route("POST", "/submit", [](const HttpRequest& req) {
    return HttpResponse::make(201, "text/plain", "created:" + req.body);
  });
  std::optional<HttpResponse> got;
  HttpRequest req;
  req.set_method("POST");
  req.set_path("/submit");
  req.body = "payload";
  client->request(server_ep(), req, [&](auto r) { got = r; });

  std::optional<HttpResponse> wrong;
  client->get(server_ep(), "/submit", [&](auto r) { wrong = r; });
  sim.run();
  ASSERT_TRUE(got && wrong);
  EXPECT_EQ(got->status, 201);
  EXPECT_EQ(got->body, "created:payload");
  EXPECT_EQ(wrong->status, 404);
}

TEST_F(WebFixture, KeepAliveReusesOneConnection) {
  server->add_content("/a", "text/plain", "A");
  server->add_content("/b", "text/plain", "B");
  int done = 0;
  client->get(server_ep(), "/a", [&](auto) { ++done; });
  client->get(server_ep(), "/b", [&](auto) { ++done; });
  sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(client->stats().counter("connections_opened").value(), 1u);
  EXPECT_EQ(server->stats().counter("connections").value(), 1u);
  EXPECT_EQ(server->stats().counter("requests").value(), 2u);
}

TEST_F(WebFixture, ConnectionCloseHeaderClosesAfterResponse) {
  server->add_content("/a", "text/plain", "A");
  HttpRequest req;
  req.set_path("/a");
  req.set_header("Connection", "close");
  std::optional<HttpResponse> got;
  client->request(server_ep(), req, [&](auto r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->header("connection"), "close");
  EXPECT_EQ(client->pooled_connections(), 0u);  // evicted on close
}

TEST_F(WebFixture, AsyncHandlerRespondsLater) {
  server->route_async("GET", "/slow",
                      [this](const HttpRequest&, auto respond) {
                        sim.after(sim::Time::millis(250), [respond] {
                          respond(HttpResponse::make(200, "text/plain", "ok"));
                        });
                      });
  std::optional<HttpResponse> got;
  sim::Time when;
  client->get(server_ep(), "/slow", [&](auto r) {
    got = r;
    when = sim.now();
  });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_GT(when, sim::Time::millis(250));
}

TEST_F(WebFixture, ProcessingDelayAddsLatency) {
  server->route("GET", "/cgi", [](const HttpRequest&) {
    return HttpResponse::make(200, "text/plain", "done");
  });
  server->set_processing_delay(sim::Time::millis(100));
  sim::Time when;
  client->get(server_ep(), "/cgi", [&](auto) { when = sim.now(); });
  sim.run();
  EXPECT_GT(when, sim::Time::millis(100));
}

TEST_F(WebFixture, FailedConnectionReportsNullopt) {
  bool called = false;
  client->get({server_node->addr(), 81}, "/x", [&](auto r) {
    called = true;
    EXPECT_FALSE(r.has_value());
  });
  sim.run();
  EXPECT_TRUE(called);
}

TEST_F(WebFixture, QueryParamHelpers) {
  EXPECT_EQ(query_param("/buy?item=5&qty=2", "item"), "5");
  EXPECT_EQ(query_param("/buy?item=5&qty=2", "qty"), "2");
  EXPECT_EQ(query_param("/buy?item=5", "missing"), "");
  EXPECT_EQ(query_param("/buy", "item"), "");
  EXPECT_EQ(query_param("/buy=5", "buy"), "");             // no '?'
  EXPECT_EQ(query_param("/buy?item=&qty=2", "item"), "");  // empty value
  EXPECT_EQ(query_param("/buy?item=&qty=2", "qty"), "2");
  EXPECT_EQ(query_param("/buy?flag&item=5", "flag"), "");  // pair without '='
  EXPECT_EQ(query_param("/buy?flag&item=5", "item"), "5");
  // A key that prefixes another key matches only itself, in either order.
  EXPECT_EQ(query_param("/p?username=bob&user=al", "user"), "al");
  EXPECT_EQ(query_param("/p?username=bob&user=al", "username"), "bob");
  EXPECT_EQ(query_param("/p?user=al&username=bob", "username"), "bob");
  EXPECT_EQ(query_param("/p?user=al&username=bob", "user"), "al");
  EXPECT_EQ(query_param("/p?a=1&a=2", "a"), "1");  // first match wins
  EXPECT_EQ(query_param("/p?a=1&", "a"), "1");     // trailing '&'
  EXPECT_EQ(query_param("/p?a=1&&b=2", "b"), "2");
  EXPECT_EQ(query_param("/p?a=x=y", "a"), "x=y");  // value keeps later '='
  EXPECT_EQ(path_without_query("/buy?item=5"), "/buy");
  EXPECT_EQ(path_without_query("/buy"), "/buy");
}

TEST_F(WebFixture, PipelinedResponsesStayInRequestOrder) {
  // Regression: a slow async handler followed by a fast static hit must not
  // let the fast response overtake the slow one on the shared connection.
  server->route_async("GET", "/slow",
                      [this](const HttpRequest&, auto respond) {
                        sim.after(sim::Time::millis(300), [respond] {
                          respond(HttpResponse::make(200, "text/plain",
                                                     "slow"));
                        });
                      });
  server->add_content("/fast", "text/plain", "fast");
  std::vector<std::string> order;
  client->get(server_ep(), "/slow", [&](auto r) {
    ASSERT_TRUE(r.has_value());
    order.push_back(r->body);
  });
  client->get(server_ep(), "/fast", [&](auto r) {
    ASSERT_TRUE(r.has_value());
    order.push_back(r->body);
  });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "slow");
  EXPECT_EQ(order[1], "fast");
  EXPECT_EQ(client->stats().counter("connections_opened").value(), 1u);
}

// Raw bytes on the wire, golden: status line, header order (byte order of
// names, a synthesized Content-Length last) and bodies.
TEST_F(WebFixture, ResponsesMatchGoldenWireBytes) {
  server->add_content("/hello", "text/plain", "hello");
  server->route("POST", "/echo", [](const HttpRequest& req) {
    return HttpResponse::make(201, "text/plain", "got:" + req.body);
  });
  std::string got;
  auto raw = client_tcp->connect(server_ep());
  raw->on_data = [&](const std::string& bytes) { got += bytes; };
  const std::string requests =
      "GET /hello HTTP/1.1\r\nHost: shop\r\n\r\n"
      "GET /nope HTTP/1.1\r\n\r\n"
      "POST /echo HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"
      "GET /hello HTTP/1.1\r\nConnection: close\r\n\r\n";
  raw->send(requests);
  sim.run();
  EXPECT_EQ(got,
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
            "Server: mcs-httpd/1.0\r\nContent-Length: 5\r\n\r\nhello"
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n"
            "Server: mcs-httpd/1.0\r\nContent-Length: 16\r\n\r\n"
            "not found: /nope"
            "HTTP/1.1 201 Created\r\nContent-Type: text/plain\r\n"
            "Server: mcs-httpd/1.0\r\nContent-Length: 7\r\n\r\ngot:abc"
            "HTTP/1.1 200 OK\r\nConnection: close\r\n"
            "Content-Type: text/plain\r\nServer: mcs-httpd/1.0\r\n"
            "Content-Length: 5\r\n\r\nhello");
  // Only the bytes parsed off the wire count as request bytes.
  EXPECT_EQ(server->stats().counter("request_bytes").value(),
            requests.size());
}

TEST_F(WebFixture, ClientRequestsMatchGoldenWireBytes) {
  std::string got;
  std::vector<transport::TcpSocket::Ptr> accepted;
  server_tcp->listen(8080, [&](transport::TcpSocket::Ptr s) {
    s->on_data = [&](const std::string& bytes) { got += bytes; };
    accepted.push_back(std::move(s));
  });
  const net::Endpoint raw_ep{server_node->addr(), 8080};
  client->get(raw_ep, "/a/b?c=1", [](auto) {});
  HttpRequest post;
  post.set_method("POST");
  post.set_path("/submit");
  post.set_header("Host", "shop");
  post.set_header("Accept", "*/*");
  post.body = "payload";
  client->request(raw_ep, post, [](auto) {});
  sim.run();
  const std::string host = raw_ep.to_string();
  EXPECT_EQ(got, "GET /a/b?c=1 HTTP/1.1\r\nHost: " + host +
                     "\r\n\r\n"
                     "POST /submit HTTP/1.1\r\nAccept: */*\r\nHost: shop\r\n"
                     "Content-Length: 7\r\n\r\npayload");
}

TEST_F(WebFixture, AppServerInstallsPrograms) {
  AppServer::Context ctx;
  ctx.sim = &sim;
  AppServer app{*server, ctx};
  app.install("GET", "/app/hello",
              [](const HttpRequest& req, AppServer::Context&, auto respond) {
                respond(HttpResponse::make(
                    200, "text/plain",
                    sim::cat("hello ", query_param(req.path(), "name"))));
              });
  EXPECT_EQ(app.installed_programs(), 1u);
  std::optional<HttpResponse> got;
  client->get(server_ep(), "/app/hello?name=bob", [&](auto r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->body, "hello bob");
}

}  // namespace
}  // namespace mcs::host
