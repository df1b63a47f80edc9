#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "host/http.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "transport/tcp.h"

namespace mcs::host {

// Web server component of the paper's host computer (§7): serves static
// content and dynamic CGI-style handlers over HTTP/1.1 with keep-alive.
class HttpServer {
  struct Connection;

 public:
  // Completes one request. A trivially copyable 16-byte handle, so storing
  // it in a std::function uses the inline buffer. Call it exactly once,
  // while the server lives.
  class Responder {
   public:
    void operator()(HttpResponse resp) const;
    // Respond with `resp`'s status line and headers and `body` in place of
    // resp.body: the bytes go straight into the connection's outbox, so a
    // caller's reused buffer reaches the wire without an intermediate copy.
    void operator()(HttpResponse resp, sim::Slice body) const;

   private:
    friend class HttpServer;
    Responder(Connection* conn, std::uint32_t slot, std::uint32_t gen)
        : conn_{conn}, slot_{slot}, gen_{gen} {}
    Connection* conn_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  // Synchronous handler: compute the response inline.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  // Asynchronous handler: respond later (e.g. after a database round trip).
  // The request is valid only during the call.
  using AsyncHandler = std::function<void(const HttpRequest&, Responder)>;

  HttpServer(transport::TcpStack& stack, std::uint16_t port,
             std::string server_name = "mcs-httpd/1.0");
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;
  ~HttpServer();

  // Static content: exact-path resources ("the Web pages stored on the Web
  // site's database" in the paper's description).
  void add_content(const std::string& path, const std::string& content_type,
                   std::string body);
  bool has_content(const std::string& path) const {
    return content_.contains(path);
  }

  // Dynamic routes: longest matching (method, path-prefix) wins.
  void route(const std::string& method, const std::string& path_prefix,
             Handler h);
  void route_async(const std::string& method, const std::string& path_prefix,
                   AsyncHandler h);

  // Simulated server-side processing time added to every dynamic response
  // (CGI fork/exec, script startup); zero by default.
  void set_processing_delay(sim::Time d) { processing_delay_ = d; }

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

 private:
  struct Route {
    std::string method;
    std::string prefix;
    AsyncHandler handler;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  // One request from dispatch until its response is flushed. HTTP/1.1
  // keep-alive requires responses in request order even when handlers
  // complete out of order (async DB round trips vs. static hits), so slots
  // queue FIFO per connection and flush strictly in order. Slots are
  // recycled with their warm buffers.
  struct Slot {
    std::string wire;   // the serialized response
    HttpRequest held;   // a request whose handler waits out processing_delay_
    obs::TraceContext req_ctx;
    obs::TraceContext app;  // application-program span (dynamic routes)
    sim::Time app_start;
    std::uint32_t gen = 0;        // bumped on release: stale handles trap
    std::uint32_t next = kNoSlot;  // outbox FIFO or free-list link
    bool ready = false;
    bool close_after = false;
    bool dynamic = false;
  };
  // Owned by the server: socket callbacks and Responders point at it. It is
  // freed once its socket has closed and no slot is in use.
  struct Connection {
    HttpServer* server = nullptr;
    transport::TcpSocket::Ptr socket;
    HttpParser parser{HttpParser::Mode::kRequest};
    std::deque<Slot> slots;  // stable addresses; indices are handles
    std::uint32_t free = kNoSlot;
    std::uint32_t head = kNoSlot;  // oldest unflushed slot
    std::uint32_t tail = kNoSlot;
    std::uint32_t in_use = 0;
    bool closed = false;  // the socket fired on_closed: no more callbacks
  };

  void on_accept(transport::TcpSocket::Ptr s);
  void dispatch(Connection* c, const HttpRequest& req, std::size_t wire_bytes);
  void finish(const Responder& r, HttpResponse& resp, sim::Slice body);
  void flush_outbox(Connection* c);
  std::uint32_t take_slot(Connection* c);
  void release_slot(Connection* c, std::uint32_t s);
  const Route* match(const HttpRequest& req) const;

  transport::TcpStack& stack_;
  std::string server_name_;
  struct Content {
    std::string type;
    std::string body;
  };
  std::map<std::string, Content, std::less<>> content_;
  std::vector<Route> routes_;
  std::vector<std::unique_ptr<Connection>> connections_;
  sim::Time processing_delay_;
  sim::StatsRegistry stats_;
  // Telemetry handles, cached at construction (obs/metrics.h). Application
  // programs (dynamic routes) count separately under "application." so the
  // Figure-2 application bucket has its own throughput series.
  obs::TsCounter* m_requests_ = obs::metric_counter("host.http.requests");
  obs::TsCounter* m_app_responses_ =
      obs::metric_counter("application.responses");
  obs::TsLogHist* m_app_us_ = obs::metric_histogram("application.latency_us");
};

// Minimal async HTTP client with per-endpoint persistent connections
// (keep-alive); used by gateways, browsers and app servers.
class HttpClient {
 public:
  using ResponseCallback = std::function<void(std::optional<HttpResponse>)>;

  explicit HttpClient(transport::TcpStack& stack) : stack_{stack} {}
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Issue a request; reuses an existing connection to `server` when one is
  // open, otherwise dials. Calls back with nullopt on connection failure.
  // `req` is serialized before the call returns.
  void request(net::Endpoint server, const HttpRequest& req,
               ResponseCallback cb);
  void get(net::Endpoint server, sim::Slice path, ResponseCallback cb);

  // Close all pooled connections.
  void reset_pool();
  std::size_t pooled_connections() const { return pool_.size(); }

  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }

 private:
  struct PooledConn {
    transport::TcpSocket::Ptr socket;
    std::shared_ptr<HttpParser> parser;
    // Callbacks of the requests in flight, oldest at waiters[next_waiter].
    std::vector<ResponseCallback> waiters;
    std::size_t next_waiter = 0;
    std::string out;  // serialized request, reused across requests
    bool broken = false;
  };

  PooledConn& conn_for(net::Endpoint server);

  transport::TcpStack& stack_;
  HttpRequest get_request_;  // reused by get()
  std::unordered_map<net::Endpoint, std::shared_ptr<PooledConn>> pool_;
  sim::StatsRegistry stats_;
};

}  // namespace mcs::host
