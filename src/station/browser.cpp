#include "station/browser.h"

#include "middleware/markup_view.h"
#include "sim/arena.h"
#include "sim/logging.h"
#include "sim/util.h"

namespace mcs::station {

namespace {
// Local WDP port for the phone-side WTP endpoint.
constexpr std::uint16_t kPhoneWdpPort = 9200;
}  // namespace

MicroBrowser::MicroBrowser(net::Node& station, DeviceProfile device,
                           BrowserConfig cfg, transport::UdpStack* udp,
                           transport::TcpStack* tcp)
    : station_{station},
      device_{std::move(device)},
      cfg_{cfg},
      battery_{station.sim(), device_.battery},
      cache_{device_.cache_budget_bytes()} {
  if (cfg_.mode == BrowserMode::kWap) {
    wtp_ = std::make_unique<middleware::WtpEndpoint>(*udp, kPhoneWdpPort,
                                                     cfg_.wtp);
  } else {
    http_ = std::make_unique<host::HttpClient>(*tcp);
  }
}

void MicroBrowser::browse(const std::string& url, PageCallback cb) {
  const sim::Time started = station_.sim().now();
  stats_.counter("page_requests").add();
  obs::metric_add(m_browses_);

  // Browse span: child of the driver's request when one is active, else its
  // own trace root (a directly driven browser still yields a span tree).
  const obs::TraceContext page =
      obs::active_context().sampled()
          ? obs::begin_span(obs::Component::kStation, "browse", started)
          : obs::start_trace(obs::Component::kStation, "browse", started);
  PageCallback done = [this, page, started,
                       cb = std::move(cb)](PageResult r) mutable {
    obs::end_span(page, station_.sim().now());
    obs::metric_record(m_page_us_,
                       (station_.sim().now() - started).to_micros());
    cb(std::move(r));
  };

  // Cache hit: only render cost applies.
  if (auto hit = cache_.get(url); hit.has_value()) {
    stats_.counter("cache_hits").add();
    obs::metric_add(m_cache_hits_);
    PageResult r = std::move(*hit);
    r.from_cache = true;
    r.network_time = sim::Time::zero();
    r.render_time = sim::Time::millis(static_cast<std::int64_t>(
        device_.render_ms_per_element() * static_cast<double>(r.elements)));
    battery_.drain_cpu(r.render_time);
    const obs::TraceContext render = obs::begin_child(
        page, obs::Component::kStation, "parse_render", started);
    station_.sim().after(r.render_time, [this, r = std::move(r), started,
                                         render,
                                         cb = std::move(done)]() mutable {
      obs::end_span(render, station_.sim().now());
      r.total_time = station_.sim().now() - started;
      cb(std::move(r));
    });
    return;
  }

  if (cfg_.mode == BrowserMode::kWap) {
    if (cfg_.use_wtls) {
      secure_invoke(url, started, page, std::move(done));
      return;
    }
    auto payload = middleware::wsp_encode_request(url);
    battery_.drain_tx_bytes(payload.size() + 36);  // + WDP/IP framing
    obs::ActiveScope scope{page};
    wtp_->invoke(cfg_.gateway, std::move(payload),
                 [this, url, started, page, cb = std::move(done)](
                     std::optional<std::string> result) mutable {
      wsp_result(url, started, std::move(result), 0, page, std::move(cb));
    });
    return;
  }

  // i-mode: GET /<host:port/path> through the gateway over persistent HTTP.
  imode_path_.clear();
  sim::BufWriter{imode_path_}.put("/").put(url);
  battery_.drain_tx_bytes(imode_path_.size() + 60);
  obs::ActiveScope scope{page};
  http_->get(cfg_.gateway, imode_path_,
             [this, url, started, page, cb = std::move(done)](
                 std::optional<host::HttpResponse> resp) mutable {
    if (!resp.has_value()) {
      stats_.counter("failures").add();
      PageResult r;
      r.total_time = station_.sim().now() - started;
      cb(std::move(r));
      return;
    }
    const std::size_t air = resp->wire_size();
    battery_.drain_rx_bytes(air);
    finish_with_content(url, resp->status, std::move(resp->body), air,
                        started, /*was_wbxml=*/false, page, std::move(cb));
  });
}

// Decode one (possibly absent) WTP result into a page.
void MicroBrowser::wsp_result(const std::string& url, sim::Time started,
                              std::optional<std::string>&& result,
                              std::size_t air_bytes, obs::TraceContext page,
                              PageCallback cb) {
  if (!result.has_value()) {
    stats_.counter("failures").add();
    PageResult r;
    r.total_time = station_.sim().now() - started;
    cb(std::move(r));
    return;
  }
  battery_.drain_rx_bytes(result->size());
  auto wsp = middleware::wsp_decode_response(*result);
  if (!wsp.has_value()) {
    stats_.counter("failures").add();
    PageResult r;
    r.total_time = station_.sim().now() - started;
    cb(std::move(r));
    return;
  }
  const bool wbxml = wsp->content_type == "application/vnd.wap.wmlc";
  finish_with_content(url, wsp->status, std::move(wsp->body),
                      air_bytes != 0 ? air_bytes : result->size(), started,
                      wbxml, page, std::move(cb));
}

void MicroBrowser::secure_invoke(const std::string& url, sim::Time started,
                                 obs::TraceContext page, PageCallback cb) {
  if (!wtls_channel_.has_value()) {
    wtls_waiters_.push_back(SecureWaiter{url, page, std::move(cb)});
    if (wtls_handshaking_) return;
    wtls_handshaking_ = true;
    stats_.counter("wtls_handshakes").add();
    // The handshake object lives across the round trip.
    auto hs = std::make_shared<security::WtlsHandshake>(
        security::WtlsHandshake::Role::kClient, rng_.fork(),
        cfg_.wtls_ca_key);
    auto hello = sim::cat("WTLS-HELLO ", hs->client_hello());
    battery_.drain_tx_bytes(hello.size() + 36);
    obs::ActiveScope scope{page};
    wtp_->invoke(cfg_.gateway, std::move(hello),
                 [this, hs](std::optional<std::string> result) {
      wtls_handshaking_ = false;
      auto waiters = std::move(wtls_waiters_);
      wtls_waiters_.clear();
      const bool ok =
          result.has_value() && sim::starts_with(*result, "WTLS-SHELLO ") &&
          hs->on_server_hello(
                std::string_view{result->data() + 12, result->size() - 12})
              .has_value();
      if (!ok) {
        stats_.counter("wtls_failures").add();
        for (auto& w : waiters) {
          PageResult r;
          w.cb(std::move(r));
        }
        return;
      }
      wtls_channel_.emplace(hs->channel());
      // Flush everything that queued behind the handshake.
      for (auto& w : waiters) {
        secure_invoke(w.url, station_.sim().now(), w.page, std::move(w.cb));
      }
    });
    return;
  }
  auto sealed = sim::cat(
      "WTLS-DATA ", wtls_channel_->seal(middleware::wsp_encode_request(url)));
  battery_.drain_tx_bytes(sealed.size() + 36);
  obs::ActiveScope scope{page};
  wtp_->invoke(cfg_.gateway, std::move(sealed),
               [this, url, started, page, cb = std::move(cb)](
                   std::optional<std::string> result) mutable {
    if (result.has_value() && sim::starts_with(*result, "WTLS-DATA ")) {
      auto opened = wtls_channel_->open(
          std::string_view{result->data() + 10, result->size() - 10});
      if (opened.has_value()) {
        wsp_result(url, started, std::move(opened), result->size(), page,
                   std::move(cb));
        return;
      }
      stats_.counter("wtls_record_errors").add();
    } else if (result.has_value() &&
               sim::starts_with(*result, "WTLS-ERR")) {
      // Session lost at the gateway: drop ours so the next browse redials.
      wtls_channel_.reset();
      stats_.counter("wtls_failures").add();
    }
    wsp_result(url, started, std::nullopt, 0, page, std::move(cb));
  });
}

void MicroBrowser::finish_with_content(const std::string& url, int status,
                                       std::string&& content,
                                       std::size_t air_bytes,
                                       sim::Time started, bool was_wbxml,
                                       obs::TraceContext page,
                                       PageCallback cb) {
  PageResult r;
  r.status = status;
  r.ok = status == 200;
  r.over_air_bytes = air_bytes;
  r.network_time = station_.sim().now() - started;

  // Decode WBXML decks back to WML text.
  if (!was_wbxml) {
    r.content = std::move(content);
  } else if (!middleware::wbxml_decode_to(content, r.content)) {
    stats_.counter("decode_errors").add();
    r.ok = false;
    r.total_time = station_.sim().now() - started;
    cb(std::move(r));
    return;
  }

  // One arena pass yields everything the handset and the application need
  // from the page; the cached copy carries it, so a hit never re-parses.
  middleware::PageSummary summary;
  middleware::summarize_page(r.content, summary);
  r.title = std::move(summary.title);
  r.text = std::move(summary.text);
  r.elements = summary.elements;
  r.parse_time = sim::Time::micros(static_cast<std::int64_t>(
      device_.parse_ms_per_kb() * 1000.0 *
      static_cast<double>(r.content.size()) / 1024.0));
  r.render_time = sim::Time::millis(static_cast<std::int64_t>(
      device_.render_ms_per_element() *
      static_cast<double>(r.elements)));
  battery_.drain_cpu(r.parse_time + r.render_time);

  if (r.ok) {
    stats_.counter("pages_loaded").add();
    // Heuristic of the era: responses to parameterised requests are dynamic
    // (CGI output) and must not be reused; plain resources are cacheable.
    if (url.find('?') == std::string::npos) {
      cache_.put(url, r, r.content.size());
    }
  }
  const obs::TraceContext work = obs::begin_child(
      page, obs::Component::kStation, "parse_render", station_.sim().now());
  station_.sim().after(r.parse_time + r.render_time,
                       [this, r = std::move(r), started, work,
                        cb = std::move(cb)]() mutable {
    obs::end_span(work, station_.sim().now());
    r.total_time = station_.sim().now() - started;
    cb(std::move(r));
  });
}

}  // namespace mcs::station
