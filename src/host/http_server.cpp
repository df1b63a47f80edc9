#include "host/http_server.h"

#include <cstring>

#include "obs/trace.h"
#include "sim/contract.h"
#include "sim/logging.h"
#include "sim/util.h"

namespace mcs::host {

HttpServer::HttpServer(transport::TcpStack& stack, std::uint16_t port,
                       std::string server_name)
    : stack_{stack}, server_name_{std::move(server_name)} {
  stack_.listen(port,
                [this](transport::TcpSocket::Ptr s) { on_accept(std::move(s)); });
}

HttpServer::~HttpServer() {
  // Sockets may outlive the server (the TCP stack holds them): detach the
  // callbacks that point into connections about to be freed.
  for (auto& c : connections_) {
    c->socket->on_data = nullptr;
    c->socket->on_remote_close = nullptr;
    c->socket->on_closed = nullptr;
  }
}

void HttpServer::add_content(const std::string& path,
                             const std::string& content_type,
                             std::string body) {
  content_[path] = Content{content_type, std::move(body)};
}

void HttpServer::route(const std::string& method,
                       const std::string& path_prefix, Handler h) {
  MCS_ASSERT(!method.empty(), "routes match on an explicit HTTP method");
  route_async(method, path_prefix,
              [h = std::move(h)](const HttpRequest& req, Responder respond) {
                respond(h(req));
              });
}

void HttpServer::route_async(const std::string& method,
                             const std::string& path_prefix, AsyncHandler h) {
  routes_.push_back(Route{method, path_prefix, std::move(h)});
}

const HttpServer::Route* HttpServer::match(const HttpRequest& req) const {
  const Route* best = nullptr;
  for (const auto& r : routes_) {
    if (r.method != req.method()) continue;
    if (!req.path().starts_with(r.prefix)) continue;
    if (best == nullptr || r.prefix.size() > best->prefix.size()) best = &r;
  }
  return best;
}

void HttpServer::on_accept(transport::TcpSocket::Ptr s) {
  stats_.counter("connections").add();
  // Free connections whose sockets are gone and whose responses are out.
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    return c->closed && c->in_use == 0;
  });
  auto& owned = connections_.emplace_back(std::make_unique<Connection>());
  Connection* c = owned.get();
  c->server = this;
  c->socket = std::move(s);
  c->parser.on_request = [this, c](HttpRequest& req) {
    // The peer lets CGI programs and gateways identify the client
    // connection (sessions, per-phone cookie jars).
    req.peer = c->socket->remote();
    dispatch(c, req, c->parser.message_size());
  };
  c->parser.on_error = [this, c](const std::string&) {
    stats_.counter("parse_errors").add();
    c->socket->send(HttpResponse::bad_request("malformed").serialize());
    c->socket->close();
  };
  c->socket->on_data = [c](const std::string& bytes) { c->parser.feed(bytes); };
  c->socket->on_remote_close = [c] { c->socket->close(); };
  c->socket->on_closed = [c] { c->closed = true; };
}

std::uint32_t HttpServer::take_slot(Connection* c) {
  std::uint32_t s = c->free;
  if (s == kNoSlot) {
    s = static_cast<std::uint32_t>(c->slots.size());
    c->slots.emplace_back();
  } else {
    c->free = c->slots[s].next;
  }
  Slot& slot = c->slots[s];
  slot.next = kNoSlot;
  if (c->tail == kNoSlot) {
    c->head = s;
  } else {
    c->slots[c->tail].next = s;
  }
  c->tail = s;
  ++c->in_use;
  return s;
}

void HttpServer::release_slot(Connection* c, std::uint32_t s) {
  Slot& slot = c->slots[s];
  slot.wire.clear();
  slot.ready = false;
  slot.dynamic = false;
  ++slot.gen;
  slot.next = c->free;
  c->free = s;
  --c->in_use;
}

void HttpServer::flush_outbox(Connection* c) {
  while (c->head != kNoSlot && c->slots[c->head].ready) {
    const std::uint32_t s = c->head;
    Slot& slot = c->slots[s];
    c->head = slot.next;
    if (c->head == kNoSlot) c->tail = kNoSlot;
    c->socket->send(slot.wire);
    const bool close_after = slot.close_after;
    release_slot(c, s);
    if (close_after) {
      c->socket->close();
      return;
    }
  }
}

void HttpServer::Responder::operator()(HttpResponse resp) const {
  conn_->server->finish(*this, resp, resp.body);
}

void HttpServer::Responder::operator()(HttpResponse resp,
                                       sim::Slice body) const {
  conn_->server->finish(*this, resp, body);
}

void HttpServer::finish(const Responder& r, HttpResponse& resp,
                        sim::Slice body) {
  Connection* c = r.conn_;
  Slot& slot = c->slots[r.slot_];
  MCS_ASSERT(slot.gen == r.gen_ && !slot.ready,
             "a request is responded to exactly once");
  const sim::Time now = stack_.sim().now();
  if (slot.dynamic) {
    obs::end_span(slot.app, now);
    obs::metric_add(m_app_responses_);
    obs::metric_record(m_app_us_, (now - slot.app_start).to_micros());
  }
  resp.set_header("Server", server_name_);
  if (slot.close_after) resp.set_header("Connection", "close");
  sim::BufWriter wire{slot.wire};
  resp.serialize_to(wire, body);
  slot.ready = true;
  stats_.counter("response_bytes").add(slot.wire.size());
  // "status_<code>", formatted on the stack: only a status's first
  // response adds its counter.
  const sim::NumStr code = sim::i64s(resp.status);
  char name[7 + sizeof code.buf] = "status_";
  std::memcpy(name + 7, code.buf, code.len);
  stats_.counter(sim::Slice{name, 7u + code.len}).add();
  obs::end_span(slot.req_ctx, now);
  obs::ActiveScope scope{slot.req_ctx};
  flush_outbox(c);
}

void HttpServer::dispatch(Connection* c, const HttpRequest& req,
                          std::size_t wire_bytes) {
  stats_.counter("requests").add();
  stats_.counter("request_bytes").add(wire_bytes);
  obs::metric_add(m_requests_);
  const std::uint32_t s = take_slot(c);
  Slot& slot = c->slots[s];
  slot.close_after = sim::iequals(req.header("Connection"), "close") ||
                     req.version() == "HTTP/1.0";
  // Request span: child of whatever the arriving bytes were stamped with
  // (the gateway's span, or the browse span for direct clients). Closed by
  // the response; its bytes go out re-entered into it.
  slot.req_ctx = obs::begin_span(obs::Component::kHostWeb, "http.request",
                                 stack_.sim().now());
  const Responder respond{c, s, slot.gen};

  // Static content first (exact match), then dynamic routes.
  if (req.method() == "GET") {
    auto it = content_.find(req.path());
    if (it != content_.end()) {
      respond(HttpResponse::make(200, it->second.type), it->second.body);
      return;
    }
  }
  const Route* r = match(req);
  if (r == nullptr) {
    respond(HttpResponse::not_found(req.path()));
    return;
  }
  // Application-program span: processing delay plus everything the handler
  // awaits (database round trips) until it responds.
  slot.app = obs::begin_child(slot.req_ctx, obs::Component::kApplication,
                              "app.program", stack_.sim().now());
  slot.app_start = stack_.sim().now();
  slot.dynamic = true;
  if (processing_delay_.is_zero()) {
    obs::ActiveScope scope{slot.app};
    r->handler(req, respond);
    return;
  }
  // Simulate CGI / application-program processing time. The request waits
  // in its slot, which stays in use until the response.
  slot.held = req;
  stack_.sim().after(processing_delay_, [r, respond] {
    Slot& held = respond.conn_->slots[respond.slot_];
    obs::ActiveScope scope{held.app};
    r->handler(held.held, respond);
  });
}

// ---------------------------------------------------------------------------
// HttpClient
// ---------------------------------------------------------------------------

HttpClient::PooledConn& HttpClient::conn_for(net::Endpoint server) {
  auto it = pool_.find(server);
  if (it != pool_.end() && !it->second->broken) return *it->second;

  auto conn = std::make_shared<PooledConn>();
  conn->parser = std::make_shared<HttpParser>(HttpParser::Mode::kResponse);
  conn->socket = stack_.connect(server);
  stats_.counter("connections_opened").add();

  std::weak_ptr<PooledConn> weak = conn;
  conn->parser->on_response = [this, weak](HttpResponse& resp) {
    auto c = weak.lock();
    if (!c || c->next_waiter == c->waiters.size()) return;
    stats_.counter("responses").add();
    auto cb = std::move(c->waiters[c->next_waiter++]);
    if (c->next_waiter == c->waiters.size()) {
      c->waiters.clear();
      c->next_waiter = 0;
    } else if (c->next_waiter >= 32 &&
               2 * c->next_waiter >= c->waiters.size()) {
      // A pipeline that never drains: drop the answered prefix.
      c->waiters.erase(c->waiters.begin(),
                       c->waiters.begin() +
                           static_cast<std::ptrdiff_t>(c->next_waiter));
      c->next_waiter = 0;
    }
    cb(std::move(resp));
  };
  conn->socket->on_data = [c = conn](const std::string& bytes) {
    c->parser->feed(bytes);
  };
  auto fail_all = [this, weak, server] {
    auto c = weak.lock();
    if (!c) return;
    c->broken = true;
    auto waiters = std::move(c->waiters);
    const std::size_t first = c->next_waiter;
    c->waiters.clear();
    c->next_waiter = 0;
    // Only evict ourselves: a replacement may already occupy the slot.
    if (auto pit = pool_.find(server); pit != pool_.end() && pit->second == c) {
      pool_.erase(pit);
    }
    for (std::size_t i = first; i < waiters.size(); ++i) {
      stats_.counter("failed_requests").add();
      waiters[i](std::nullopt);
    }
  };
  conn->socket->on_remote_close = fail_all;
  conn->socket->on_closed = fail_all;

  pool_[server] = conn;
  return *conn;
}

void HttpClient::request(net::Endpoint server, const HttpRequest& req,
                         ResponseCallback cb) {
  MCS_ASSERT(cb != nullptr,
             "every request must have a completion callback (errors are "
             "reported through it too)");
  MCS_ASSERT(!req.method().empty() && !req.path().empty(),
             "a request needs a method and a path");
  PooledConn& conn = conn_for(server);
  conn.waiters.push_back(std::move(cb));
  stats_.counter("requests").add();
  conn.out.clear();
  sim::BufWriter w{conn.out};
  req.serialize_to(w);
  conn.socket->send(conn.out);
}

void HttpClient::get(net::Endpoint server, sim::Slice path,
                     ResponseCallback cb) {
  MCS_ASSERT(!path.empty(), "GET needs a target path");
  get_request_.clear();
  get_request_.set_path(path);
  get_request_.set_header("Host", server.text());
  request(server, get_request_, std::move(cb));
}

void HttpClient::reset_pool() {
  for (auto& [ep, conn] : pool_) {
    conn->broken = true;
    conn->socket->close();
  }
  pool_.clear();
  MCS_INVARIANT(pool_.empty(),
                "after a reset no cached connection may be reused");
}

}  // namespace mcs::host
