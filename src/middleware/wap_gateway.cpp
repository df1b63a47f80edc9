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

std::string wsp_encode_request(const std::string& url) { return "GET " + url; }

std::optional<sim::Slice> wsp_decode_request(sim::Slice payload) {
  if (!payload.starts_with("GET ")) return std::nullopt;
  payload.remove_prefix(4);
  return payload;
}

std::string wsp_encode_response(int status, sim::Slice content_type,
                                sim::Slice body) {
  return sim::cat(sim::i64s(status), " ", content_type, "\n", body);
}

std::optional<WspResponse> wsp_decode_response(const std::string& payload) {
  const std::size_t nl = payload.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  // Head-line fields as views (split-on-' ' semantics, empty fields count);
  // only the status and content type are ever read.
  const sim::Slice head{payload.data(), nl};
  sim::Slice f[2];
  std::size_t nf = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= head.size(); ++i) {
    if (i == head.size() || head[i] == ' ') {
      if (nf < 2) f[nf] = sim::Slice{head.data() + start, i - start};
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
  if (nf > 1) r.content_type.assign(f[1].data(), f[1].size());
  r.body.assign(payload, nl + 1, std::string::npos);
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
  wtp_.on_invoke = [this](const std::string& payload, net::Endpoint from,
                          std::function<void(std::string)> respond) {
    on_wtp_invoke(payload, from, std::move(respond));
  };
}

void WapGateway::on_wtp_invoke(const std::string& payload, net::Endpoint from,
                               std::function<void(std::string)> respond) {
  if (sim::starts_with(payload, "WTLS-HELLO ") && cfg_.enable_wtls) {
    // Server side of the handshake; a fresh hello replaces any old session.
    security::WtlsHandshake server{security::WtlsHandshake::Role::kServer,
                                   sim::Rng{from.addr.v ^ from.port},
                                   cfg_.wtls_ca_key, wtls_cert_,
                                   wtls_key_.private_key};
    const auto shello = server.on_client_hello(
        std::string_view{payload.data() + 11, payload.size() - 11});
    if (!shello.has_value()) {
      respond("WTLS-ERR bad-hello");
      return;
    }
    wtls_channels_.erase(from);
    wtls_channels_.emplace(from, server.channel());
    ++wtls_sessions_;
    MCS_INVARIANT(wtls_sessions_ >= wtls_channels_.size(),
                  "more live WTLS channels than sessions ever created");
    respond("WTLS-SHELLO " + *shello);
    return;
  }
  if (sim::starts_with(payload, "WTLS-DATA ")) {
    auto it = wtls_channels_.find(from);
    if (it == wtls_channels_.end()) {
      respond("WTLS-ERR no-session");
      return;
    }
    const auto opened = it->second.open(
        std::string_view{payload.data() + 10, payload.size() - 10});
    if (!opened.has_value()) {
      respond("WTLS-ERR bad-record");
      return;
    }
    // The WAP gap: from here on the request is plaintext inside the gateway.
    handle_request(*opened, from,
                   [this, from, respond = std::move(respond)](
                       std::string response) mutable {
                     auto ch = wtls_channels_.find(from);
                     if (ch == wtls_channels_.end()) {
                       respond("WTLS-ERR session-lost");
                       return;
                     }
                     respond("WTLS-DATA " + ch->second.seal(response));
                   });
    return;
  }
  handle_request(payload, from, std::move(respond));
}

const host::CookieJar* WapGateway::jar_for(net::Endpoint phone) const {
  auto it = phone_jars_.find(phone);
  return it == phone_jars_.end() ? nullptr : &it->second;
}

void WapGateway::handle_request(const std::string& payload,
                                net::Endpoint from,
                                std::function<void(std::string)> respond_raw) {
  ++stats_.requests;
  obs::metric_add(m_requests_);
  // Gateway span: child of the stamped invoke (the phone's browse span).
  // The wrapped respond closes it and re-enters it so the WTP result
  // datagrams carry this context over the air.
  const obs::TraceContext gw = obs::begin_span(
      obs::Component::kMiddleware, "wap.request", node_.sim().now());
  auto respond = [this, gw, respond_raw = std::move(respond_raw)](
                     std::string response) mutable {
    obs::end_span(gw, node_.sim().now());
    obs::ActiveScope scope{gw};
    respond_raw(std::move(response));
  };
  const auto url = wsp_decode_request(payload);
  if (!url.has_value()) {
    respond(wsp_encode_response(400, "text/plain", "bad WSP request"));
    return;
  }
  const auto parsed = host::parse_url(*url);
  if (!parsed.has_value()) {
    respond(wsp_encode_response(400, "text/plain", "bad url"));
    return;
  }
  const auto upstream = resolver_(parsed->host, parsed->port);
  if (!upstream.has_value()) {
    respond(wsp_encode_response(502, "text/plain", "cannot resolve host"));
    return;
  }
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
  obs::ActiveScope scope{gw};
  http_.request(*upstream, up_req_,
            [this, from, upstream = *upstream, gw,
             respond = std::move(respond)](
                std::optional<host::HttpResponse> resp) mutable {
    if (!resp.has_value()) {
      ++stats_.upstream_failures;
      respond(wsp_encode_response(502, "text/plain", "origin unreachable"));
      return;
    }
    stats_.html_bytes_in += resp->body.size();
    phone_jars_[from].update_from(upstream.text(), *resp);
    if (resp->status != 200) {
      respond(wsp_encode_response(resp->status, "text/plain", resp->body));
      return;
    }
    // Translate HTML -> WML, adapt, optionally compile to WBXML — after the
    // simulated translation CPU time.
    const obs::TraceContext xlate = obs::begin_child(
        gw, obs::Component::kMiddleware, "wap.translate", node_.sim().now());
    node_.sim().after(cfg_.translation_delay,
                      [this, xlate, body = std::move(resp->body),
                       respond = std::move(respond)]() mutable {
      obs::end_span(xlate, node_.sim().now());
      ++stats_.translations;
      obs::metric_add(m_translations_);
      // Fused zero-copy translation (translate.cpp): parse + translate +
      // adapt + serialize (+ WBXML) in one arena pass into reused buffers,
      // byte-identical to the legacy tree pipeline.
      translate_html(body, MarkupKind::kWml, cfg_.adaptation, wml_buf_,
                     cfg_.encode_wbxml ? &wbxml_buf_ : nullptr);
      stats_.wml_bytes_out += wml_buf_.size();
      // WSP framing, same bytes as wsp_encode_response(200, type, body).
      std::string out =
          cfg_.encode_wbxml
              ? sim::cat("200 application/vnd.wap.wmlc\n", wbxml_buf_)
              : sim::cat("200 text/vnd.wap.wml\n", wml_buf_);
      stats_.air_bytes_out += out.size();
      obs::metric_add(m_air_bytes_, out.size());
      MCS_INVARIANT(stats_.translations <= stats_.requests,
                    "gateway translated more responses than it saw requests");
      respond(std::move(out));
    });
  });
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
