#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "host/http_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "security/wtls.h"
#include "sim/pool.h"
#include "middleware/adaptation.h"
#include "middleware/wtp.h"

namespace mcs::middleware {

// Maps a symbolic or dotted host name (plus port) to a network endpoint;
// plays the role of DNS for gateways and browsers.
using HostResolver =
    std::function<std::optional<net::Endpoint>(sim::Slice host,
                                               std::uint16_t port)>;
// "a.b.c.d": four '.'-separated fields of ASCII digits, each 0-255.
std::optional<net::IpAddress> parse_dotted_quad(sim::Slice host);
// Resolves dotted-quad hosts only ("10.0.0.5"); returns nullopt otherwise.
HostResolver dotted_quad_resolver();

inline constexpr std::uint16_t kWapGatewayPort = 9201;

// WSP-lite request/response carried inside WTP transactions:
//   request:  "GET <url>"
//   response: "<status> <content-type>\n" <body bytes>
// Encoders append to the caller's writer (the WTP transaction's buffer, or
// the inside of a WTLS record); the decoders return views into the payload.
struct WspResponse {
  int status = 0;
  sim::Slice content_type;
  sim::Slice body;
};
void wsp_encode_request(sim::Slice url, sim::BufWriter& out);
// The URL, as a view into `payload`.
std::optional<sim::Slice> wsp_decode_request(sim::Slice payload);
void wsp_encode_response(int status, sim::Slice content_type,
                         sim::Slice body, sim::BufWriter& out);
// Bytes wsp_encode_response appends for these arguments.
std::size_t wsp_response_size(int status, sim::Slice content_type,
                              sim::Slice body);
std::optional<WspResponse> wsp_decode_response(sim::Slice payload);

// Pre-shared CA MAC key that phones ship with (models the root certificate
// burned into the handset firmware).
inline constexpr std::uint64_t kDefaultWtlsCaKey = 0xCA11AB1E5EC12E7ull;

struct WapGatewayConfig {
  std::uint16_t wtp_port = kWapGatewayPort;
  // Simulated CPU cost of HTML->WML translation + WBXML compilation.
  sim::Time translation_delay = sim::Time::millis(5);
  bool encode_wbxml = true;  // binary-encode decks for the air link
  AdaptationConfig adaptation;
  WtpConfig wtp;
  // WTLS: serve secure sessions to phones that request them. Note the
  // historical "WAP gap": the gateway terminates WTLS, so content transits
  // the gateway in plaintext between decryption and the wired TLS hop.
  bool enable_wtls = true;
  std::uint64_t wtls_ca_key = kDefaultWtlsCaKey;
};

// The WAP Gateway (§5.1): "requests from mobile stations are sent as a URL
// through the network to the WAP Gateway; responses are sent from the Web
// server to the WAP Gateway in HTML and are then translated in WML and sent
// to the mobile stations." Speaks WTP/WDP toward the phone and HTTP/TCP
// toward origin servers.
class WapGateway {
 public:
  WapGateway(net::Node& node, transport::UdpStack& udp,
             transport::TcpStack& tcp, HostResolver resolver,
             WapGatewayConfig cfg = {});
  WapGateway(const WapGateway&) = delete;
  WapGateway& operator=(const WapGateway&) = delete;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t upstream_failures = 0;
    std::uint64_t html_bytes_in = 0;    // from origin servers
    std::uint64_t wml_bytes_out = 0;    // textual WML after translation
    std::uint64_t air_bytes_out = 0;    // actually sent to the phone
    std::uint64_t translations = 0;
  };
  const Stats& stats() const { return stats_; }
  // Export the gateway counters into a system-wide snapshot under `prefix`
  // ("middleware.wap"), for the workload metrics layer.
  void export_stats(sim::StatsSnapshot& snap,
                    const std::string& prefix) const;
  WtpEndpoint& wtp() { return wtp_; }
  // WAP-era phones cannot store cookies; the gateway keeps one jar per
  // phone (keyed by its WDP endpoint) and plays the cookies toward origin
  // servers on the phone's behalf.
  const host::CookieJar* jar_for(net::Endpoint phone) const;
  std::uint64_t wtls_sessions() const { return wtls_sessions_; }

 private:
  // One phone request from its invoke to its WTP result: what the upstream
  // and translation callbacks need, so they capture only [this, slot] and
  // stay in std::function's and the kernel's inline storage. Recycled with
  // the body buffer.
  struct Pending {
    WtpEndpoint::Responder respond;
    net::Endpoint from;
    net::Endpoint upstream;
    obs::TraceContext gw;      // "wap.request"
    obs::TraceContext xlate;   // "wap.translate"
    bool secure = false;       // answer inside a WTLS record
    std::string body;          // origin HTML, held over the translation delay
  };

  void on_wtp_invoke(sim::MutSlice payload, net::Endpoint from,
                     WtpEndpoint::Responder respond);
  void handle_request(sim::Slice payload, net::Endpoint from,
                      WtpEndpoint::Responder respond, bool secure);
  void on_upstream(std::uint32_t slot,
                   std::optional<host::HttpResponse>& resp);
  void translate(std::uint32_t slot);
  // Close the request's span and answer inside it: the WSP response framed
  // straight into the WTP result buffer, sealed for a WTLS phone. Frees
  // `slot`.
  void reply(std::uint32_t slot, int status, sim::Slice content_type,
             sim::Slice body);

  net::Node& node_;
  WapGatewayConfig cfg_;
  HostResolver resolver_;
  WtpEndpoint wtp_;
  host::HttpClient http_;
  host::HttpRequest up_req_;  // origin request, rebuilt in place per request
  std::unordered_map<net::Endpoint, host::CookieJar> phone_jars_;
  // WTLS identity + one record channel per secured phone.
  security::DhKeyPair wtls_key_;
  security::Certificate wtls_cert_;
  std::unordered_map<net::Endpoint, security::SecureChannel> wtls_channels_;
  std::uint64_t wtls_sessions_ = 0;
  Stats stats_;
  // Telemetry handles, cached at construction (obs/metrics.h).
  obs::TsCounter* m_requests_ = obs::metric_counter("middleware.requests");
  obs::TsCounter* m_translations_ =
      obs::metric_counter("middleware.translations");
  obs::TsCounter* m_air_bytes_ = obs::metric_counter("middleware.air_bytes");
  // Translation output buffers, reused across requests so steady-state
  // translation allocates nothing (DESIGN.md §12).
  std::string wml_buf_;
  std::string wbxml_buf_;
  sim::SlotPool<Pending> pending_;
};

inline constexpr std::uint16_t kIModeGatewayPort = 8001;

struct IModeGatewayConfig {
  std::uint16_t port = kIModeGatewayPort;
  sim::Time translation_delay = sim::Time::millis(2);  // lighter than WAP
  AdaptationConfig adaptation;
};

// The i-mode service gateway (§5.1): phones keep an always-on HTTP
// connection to the gateway; content is Compact HTML, so translation is a
// simplification pass rather than a language change, and there is no
// binary recompilation step.
class IModeGateway {
 public:
  IModeGateway(transport::TcpStack& tcp, HostResolver resolver,
               IModeGatewayConfig cfg = {});
  IModeGateway(const IModeGateway&) = delete;
  IModeGateway& operator=(const IModeGateway&) = delete;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t upstream_failures = 0;
    std::uint64_t html_bytes_in = 0;
    std::uint64_t chtml_bytes_out = 0;
  };
  const Stats& stats() const { return stats_; }
  // As WapGateway::export_stats, under e.g. "middleware.imode".
  void export_stats(sim::StatsSnapshot& snap,
                    const std::string& prefix) const;

 private:
  void handle(const host::HttpRequest& req,
              host::HttpServer::Responder respond);
  // Close the gateway span, then answer inside it so the response bytes
  // carry its trace context.
  void reply(obs::TraceContext gw, host::HttpServer::Responder respond,
             host::HttpResponse resp);

  transport::TcpStack& tcp_;
  IModeGatewayConfig cfg_;
  HostResolver resolver_;
  host::HttpServer server_;
  host::HttpClient http_;
  host::HttpRequest up_req_;  // origin request, rebuilt in place per request
  // Per-phone cookie jar, keyed by the phone's TCP endpoint.
  std::unordered_map<net::Endpoint, host::CookieJar> phone_jars_;
  Stats stats_;
  // Telemetry handles, cached at construction (obs/metrics.h); shared names
  // with WapGateway so "middleware.*" totals cover either gateway flavour.
  obs::TsCounter* m_requests_ = obs::metric_counter("middleware.requests");
  obs::TsCounter* m_translations_ =
      obs::metric_counter("middleware.translations");
  // Reused translation output buffer (DESIGN.md §12).
  std::string chtml_buf_;
};

}  // namespace mcs::middleware
