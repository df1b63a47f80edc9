#include "middleware/wap_gateway.h"

#include "middleware/translate.h"
#include "obs/trace.h"
#include "sim/arena.h"
#include "sim/contract.h"
#include "sim/util.h"

namespace mcs::middleware {


std::optional<net::IpAddress> parse_dotted_quad(sim::Slice host) {
  std::uint32_t v = 0;
  int fields = 0;
  std::size_t i = 0;
  while (fields < 4) {
    std::uint32_t octet = 0;
    const std::size_t start = i;
    for (; i < host.size() && host[i] >= '0' && host[i] <= '9'; ++i) {
      octet = octet * 10 + static_cast<std::uint32_t>(host[i] - '0');
      if (octet > 255) return std::nullopt;
    }
    if (i == start) return std::nullopt;
    v = (v << 8) | octet;
    ++fields;
    if (fields < 4) {
      if (i == host.size() || host[i] != '.') return std::nullopt;
      ++i;
    }
  }
  if (i != host.size()) return std::nullopt;
  return net::IpAddress{v};
}

HostResolver dotted_quad_resolver() {
  return [](sim::Slice host,
            std::uint16_t port) -> std::optional<net::Endpoint> {
    const auto addr = parse_dotted_quad(host);
    if (!addr.has_value()) return std::nullopt;
    return net::Endpoint{*addr, port};
  };
}

void wsp_encode_request(sim::Slice url, sim::BufWriter& out) {
  out.put("GET ").put(url);
}

std::optional<sim::Slice> wsp_decode_request(sim::Slice payload) {
  if (!payload.starts_with("GET ")) return std::nullopt;
  payload.remove_prefix(4);
  return payload;
}

std::size_t wsp_response_size(int status, sim::Slice content_type,
                              sim::Slice body) {
  return sim::i64s(status).len + 1 + content_type.size() + 1 + body.size();
}

void wsp_encode_response(int status, sim::Slice content_type, sim::Slice body,
                         sim::BufWriter& out) {
  out.need(wsp_response_size(status, content_type, body));
  out.i64(status).ch(' ').put(content_type).ch('\n').put(body);
}

std::optional<WspResponse> wsp_decode_response(sim::Slice payload) {
  const std::size_t nl = payload.find('\n');
  if (nl == sim::Slice::npos) return std::nullopt;
  // Head-line fields as views (split-on-' ' semantics, empty fields count);
  // only the status and content type are ever read.
  const sim::Slice head = payload.substr(0, nl);
  sim::Slice f[2];
  std::size_t nf = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= head.size(); ++i) {
    if (i == head.size() || head[i] == ' ') {
      if (nf < 2) f[nf] = head.substr(start, i - start);
      ++nf;
      start = i + 1;
    }
  }
  WspResponse r;
  // atoi semantics: leading whitespace, optional sign, digit prefix.
  std::size_t p = 0;
  while (p < f[0].size() && sim::is_ascii_space(f[0][p])) ++p;
  int sign = 1;
  if (p < f[0].size() && (f[0][p] == '+' || f[0][p] == '-')) {
    if (f[0][p] == '-') sign = -1;
    ++p;
  }
  long long v = 0;
  for (; p < f[0].size() && f[0][p] >= '0' && f[0][p] <= '9'; ++p) {
    v = v * 10 + (f[0][p] - '0');
  }
  r.status = static_cast<int>(sign * v);
  if (r.status == 0) return std::nullopt;
  if (nf > 1) r.content_type = f[1];
  r.body = payload.substr(nl + 1);
  return r;
}

// ---------------------------------------------------------------------------
// WapGateway
// ---------------------------------------------------------------------------

WapGateway::WapGateway(net::Node& node, transport::UdpStack& udp,
                       transport::TcpStack& tcp, HostResolver resolver,
                       WapGatewayConfig cfg)
    : node_{node},
      cfg_{cfg},
      resolver_{std::move(resolver)},
      wtp_{udp, cfg.wtp_port, cfg.wtp},
      http_{tcp} {
  // WTLS identity: an ephemeral static key certified by the configured CA.
  sim::Rng rng{0xCE27ull ^ node.addr().v};
  wtls_key_ = security::dh_generate(rng);
  wtls_cert_ = security::issue_certificate("wap-gateway",
                                           wtls_key_.public_key,
                                           cfg_.wtls_ca_key);
  wtp_.on_invoke = [this](sim::MutSlice payload, net::Endpoint from,
                          WtpEndpoint::Responder respond) {
    on_wtp_invoke(payload, from, respond);
  };
}

void WapGateway::on_wtp_invoke(sim::MutSlice payload, net::Endpoint from,
                               WtpEndpoint::Responder respond) {
  const sim::Slice bytes = sim::as_slice(payload);
  if (bytes.starts_with("WTLS-HELLO ") && cfg_.enable_wtls) {
    // Server side of the handshake; a fresh hello replaces any old session.
    security::WtlsHandshake server{security::WtlsHandshake::Role::kServer,
                                   sim::Rng{from.addr.v ^ from.port},
                                   cfg_.wtls_ca_key, wtls_cert_,
                                   wtls_key_.private_key};
    const auto shello = server.on_client_hello(bytes.substr(11));
    if (!shello.has_value()) {
      respond("WTLS-ERR bad-hello");
      return;
    }
    wtls_channels_.erase(from);
    wtls_channels_.emplace(from, server.channel());
    ++wtls_sessions_;
    MCS_INVARIANT(wtls_sessions_ >= wtls_channels_.size(),
                  "more live WTLS channels than sessions ever created");
    sim::BufWriter{respond.result()}.put("WTLS-SHELLO ").put(*shello);
    respond.send();
    return;
  }
  if (bytes.starts_with("WTLS-DATA ")) {
    auto it = wtls_channels_.find(from);
    if (it == wtls_channels_.end()) {
      respond("WTLS-ERR no-session");
      return;
    }
    // Decrypted where it landed: the WTP message buffer.
    const auto opened = it->second.open(payload.subspan(10));
    if (!opened.has_value()) {
      respond("WTLS-ERR bad-record");
      return;
    }
    // The WAP gap: from here on the request is plaintext inside the gateway.
    handle_request(*opened, from, respond, /*secure=*/true);
    return;
  }
  handle_request(bytes, from, respond, /*secure=*/false);
}

const host::CookieJar* WapGateway::jar_for(net::Endpoint phone) const {
  auto it = phone_jars_.find(phone);
  return it == phone_jars_.end() ? nullptr : &it->second;
}

void WapGateway::reply(std::uint32_t slot, int status,
                       sim::Slice content_type, sim::Slice body) {
  Pending& p = pending_[slot];
  obs::end_span(p.gw, node_.sim().now());
  obs::ActiveScope scope{p.gw};
  sim::BufWriter out{p.respond.result()};
  if (!p.secure) {
    wsp_encode_response(status, content_type, body, out);
  } else if (auto ch = wtls_channels_.find(p.from);
             ch == wtls_channels_.end()) {
    out.put("WTLS-ERR session-lost");
  } else {
    out.put("WTLS-DATA ");
    const std::size_t record = ch->second.begin_seal(out);
    wsp_encode_response(status, content_type, body, out);
    ch->second.end_seal(out, record);
  }
  p.respond.send();
  p.respond = {};
  pending_.release(slot);
}

void WapGateway::handle_request(sim::Slice payload, net::Endpoint from,
                                WtpEndpoint::Responder respond,
                                bool secure) {
  ++stats_.requests;
  obs::metric_add(m_requests_);
  // Gateway span: child of the stamped invoke (the phone's browse span).
  // reply() closes it and re-enters it so the WTP result datagrams carry
  // this context over the air.
  const std::uint32_t slot = pending_.acquire();
  Pending& p = pending_[slot];
  p.respond = respond;
  p.from = from;
  p.secure = secure;
  p.gw = obs::begin_span(obs::Component::kMiddleware, "wap.request",
                         node_.sim().now());
  const auto url = wsp_decode_request(payload);
  if (!url.has_value()) {
    reply(slot, 400, "text/plain", "bad WSP request");
    return;
  }
  const auto parsed = host::parse_url(*url);
  if (!parsed.has_value()) {
    reply(slot, 400, "text/plain", "bad url");
    return;
  }
  const auto upstream = resolver_(parsed->host, parsed->port);
  if (!upstream.has_value()) {
    reply(slot, 502, "text/plain", "cannot resolve host");
    return;
  }
  p.upstream = *upstream;
  // Play the phone's cookies toward the origin server.
  const net::EndpointText origin = upstream->text();
  up_req_.clear();
  up_req_.set_path(parsed->path);
  up_req_.set_header("Host", origin);
  up_req_.set_header("User-Agent", "mcs-wap-gateway/1.0");
  if (const std::string cookies = phone_jars_[from].cookie_header(origin);
      !cookies.empty()) {
    up_req_.set_header("Cookie", cookies);
  }
  obs::ActiveScope scope{p.gw};
  http_.request(*upstream, up_req_,
                [this, slot](std::optional<host::HttpResponse> resp) {
                  on_upstream(slot, resp);
                });
}

void WapGateway::on_upstream(std::uint32_t slot,
                             std::optional<host::HttpResponse>& resp) {
  Pending& p = pending_[slot];
  if (!resp.has_value()) {
    ++stats_.upstream_failures;
    reply(slot, 502, "text/plain", "origin unreachable");
    return;
  }
  stats_.html_bytes_in += resp->body.size();
  phone_jars_[p.from].update_from(p.upstream.text(), *resp);
  if (resp->status != 200) {
    reply(slot, resp->status, "text/plain", resp->body);
    return;
  }
  // Translate HTML -> WML, adapt, optionally compile to WBXML — after the
  // simulated translation CPU time. The body waits in the slot.
  p.xlate = obs::begin_child(p.gw, obs::Component::kMiddleware,
                             "wap.translate", node_.sim().now());
  p.body.swap(resp->body);
  node_.sim().after(cfg_.translation_delay, [this, slot] { translate(slot); });
}

void WapGateway::translate(std::uint32_t slot) {
  Pending& p = pending_[slot];
  obs::end_span(p.xlate, node_.sim().now());
  ++stats_.translations;
  obs::metric_add(m_translations_);
  // Fused zero-copy translation (translate.cpp): parse + translate + adapt +
  // serialize (+ WBXML) in one arena pass into reused buffers, byte-identical
  // to the legacy tree pipeline.
  translate_html(p.body, MarkupKind::kWml, cfg_.adaptation, wml_buf_,
                 cfg_.encode_wbxml ? &wbxml_buf_ : nullptr);
  stats_.wml_bytes_out += wml_buf_.size();
  const sim::Slice type = cfg_.encode_wbxml
                              ? sim::Slice{"application/vnd.wap.wmlc"}
                              : sim::Slice{"text/vnd.wap.wml"};
  const sim::Slice deck = cfg_.encode_wbxml ? wbxml_buf_ : wml_buf_;
  const std::size_t wsp_bytes = wsp_response_size(200, type, deck);
  stats_.air_bytes_out += wsp_bytes;
  obs::metric_add(m_air_bytes_, wsp_bytes);
  MCS_INVARIANT(stats_.translations <= stats_.requests,
                "gateway translated more responses than it saw requests");
  reply(slot, 200, type, deck);
}

// ---------------------------------------------------------------------------
// IModeGateway
// ---------------------------------------------------------------------------

IModeGateway::IModeGateway(transport::TcpStack& tcp, HostResolver resolver,
                           IModeGatewayConfig cfg)
    : tcp_{tcp},
      cfg_{cfg},
      resolver_{std::move(resolver)},
      server_{tcp, cfg.port, "imode-gw/1.0"},
      http_{tcp} {
  server_.route_async("GET", "/",
                      [this](const host::HttpRequest& req,
                             host::HttpServer::Responder respond) {
                        handle(req, respond);
                      });
}

void IModeGateway::reply(obs::TraceContext gw,
                         host::HttpServer::Responder respond,
                         host::HttpResponse resp) {
  obs::end_span(gw, tcp_.sim().now());
  obs::ActiveScope scope{gw};
  respond(std::move(resp));
}

void IModeGateway::handle(const host::HttpRequest& req,
                          host::HttpServer::Responder respond) {
  ++stats_.requests;
  obs::metric_add(m_requests_);
  const obs::TraceContext gw = obs::begin_span(
      obs::Component::kMiddleware, "imode.request", tcp_.sim().now());
  // The phone requests "/<host>:<port>/<path...>" through the gateway
  // (or passes an absolute URL in the path).
  sim::Slice target = req.path();
  if (!target.empty() && target.front() == '/') target.remove_prefix(1);
  const auto parsed = host::parse_url(target);
  if (!parsed.has_value()) {
    reply(gw, respond, host::HttpResponse::bad_request("bad target url"));
    return;
  }
  const auto upstream = resolver_(parsed->host, parsed->port);
  if (!upstream.has_value()) {
    reply(gw, respond,
          host::HttpResponse::make(502, "text/plain", "cannot resolve"));
    return;
  }
  // Cookies on behalf of the phone, keyed by its TCP endpoint.
  const net::Endpoint phone = req.peer;
  const net::EndpointText origin = upstream->text();
  up_req_.clear();
  up_req_.set_path(parsed->path);
  up_req_.set_header("Host", origin);
  up_req_.set_header("User-Agent", "mcs-imode-gateway/1.0");
  if (const std::string cookies = phone_jars_[phone].cookie_header(origin);
      !cookies.empty()) {
    up_req_.set_header("Cookie", cookies);
  }
  obs::ActiveScope scope{gw};
  http_.request(*upstream, up_req_,
            [this, phone, upstream = *upstream, gw, respond](
                std::optional<host::HttpResponse> resp) {
    if (!resp.has_value()) {
      ++stats_.upstream_failures;
      reply(gw, respond,
            host::HttpResponse::make(502, "text/plain", "origin down"));
      return;
    }
    stats_.html_bytes_in += resp->body.size();
    phone_jars_[phone].update_from(upstream.text(), *resp);
    if (resp->status != 200) {
      reply(gw, respond, std::move(*resp));
      return;
    }
    const obs::TraceContext xlate = obs::begin_child(
        gw, obs::Component::kMiddleware, "imode.translate", tcp_.sim().now());
    tcp_.sim().after(cfg_.translation_delay,
                     [this, xlate, gw, body = std::move(resp->body),
                      respond] {
      obs::end_span(xlate, tcp_.sim().now());
      // Fused zero-copy translation into the reused buffer (translate.cpp),
      // which goes to the wire as the body with no intermediate copy.
      translate_html(body, MarkupKind::kChtml, cfg_.adaptation, chtml_buf_);
      stats_.chtml_bytes_out += chtml_buf_.size();
      obs::metric_add(m_translations_);
      obs::end_span(gw, tcp_.sim().now());
      obs::ActiveScope in_gw{gw};
      respond(host::HttpResponse::make(200, "text/html; charset=cp932"),
              chtml_buf_);
    });
  });
}

void WapGateway::export_stats(sim::StatsSnapshot& snap,
                              const std::string& prefix) const {
  sim::StatsRegistry reg;
  reg.counter("requests").add(stats_.requests);
  reg.counter("upstream_failures").add(stats_.upstream_failures);
  reg.counter("html_bytes_in").add(stats_.html_bytes_in);
  reg.counter("wml_bytes_out").add(stats_.wml_bytes_out);
  reg.counter("air_bytes_out").add(stats_.air_bytes_out);
  reg.counter("translations").add(stats_.translations);
  reg.counter("wtls_sessions").add(wtls_sessions_);
  snap.add(prefix, reg);
}

void IModeGateway::export_stats(sim::StatsSnapshot& snap,
                                const std::string& prefix) const {
  sim::StatsRegistry reg;
  reg.counter("requests").add(stats_.requests);
  reg.counter("upstream_failures").add(stats_.upstream_failures);
  reg.counter("html_bytes_in").add(stats_.html_bytes_in);
  reg.counter("chtml_bytes_out").add(stats_.chtml_bytes_out);
  snap.add(prefix, reg);
}

}  // namespace mcs::middleware
