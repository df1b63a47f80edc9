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

void MicroBrowser::complete(std::uint32_t slot) {
  Fetch& f = fetches_[slot];
  obs::end_span(f.page, station_.sim().now());
  obs::metric_record(m_page_us_,
                     (station_.sim().now() - f.started).to_micros());
  PageCallback cb = std::move(f.cb);
  PageResult r = std::move(f.result);
  f.cb = nullptr;
  fetches_.release(slot);
  cb(std::move(r));
}

void MicroBrowser::fail(std::uint32_t slot) {
  Fetch& f = fetches_[slot];
  f.result = PageResult{};
  f.result.total_time = station_.sim().now() - f.sent;
  complete(slot);
}

void MicroBrowser::browse(const std::string& url, PageCallback cb) {
  const sim::Time started = station_.sim().now();
  stats_.counter("page_requests").add();
  obs::metric_add(m_browses_);

  const std::uint32_t slot = fetches_.acquire();
  Fetch& f = fetches_[slot];
  f.url.assign(url);
  f.started = started;
  f.sent = started;
  f.cb = std::move(cb);
  f.result = PageResult{};
  // Browse span: child of the driver's request when one is active, else its
  // own trace root (a directly driven browser still yields a span tree).
  f.page = obs::active_context().sampled()
               ? obs::begin_span(obs::Component::kStation, "browse", started)
               : obs::start_trace(obs::Component::kStation, "browse", started);

  // Cache hit: only render cost applies.
  if (auto hit = cache_.get(url); hit.has_value()) {
    stats_.counter("cache_hits").add();
    obs::metric_add(m_cache_hits_);
    PageResult& r = f.result;
    r = std::move(*hit);
    r.from_cache = true;
    r.network_time = sim::Time::zero();
    r.render_time = sim::Time::millis(static_cast<std::int64_t>(
        device_.render_ms_per_element() * static_cast<double>(r.elements)));
    battery_.drain_cpu(r.render_time);
    f.work = obs::begin_child(f.page, obs::Component::kStation,
                              "parse_render", started);
    station_.sim().after(r.render_time, [this, slot] { after_render(slot); });
    return;
  }

  if (cfg_.mode == BrowserMode::kWap) {
    if (cfg_.use_wtls) {
      secure_invoke(slot);
      return;
    }
    std::size_t sent = 0;
    obs::ActiveScope scope{f.page};
    wtp_->invoke(
        cfg_.gateway,
        [&](sim::BufWriter& w) {
          middleware::wsp_encode_request(f.url, w);
          sent = w.size();
        },
        [this, slot](std::optional<sim::MutSlice> result) {
          wsp_result(slot,
                     result.has_value()
                         ? std::optional<sim::Slice>{sim::as_slice(*result)}
                         : std::nullopt,
                     0);
        });
    battery_.drain_tx_bytes(sent + 36);  // + WDP/IP framing
    return;
  }

  // i-mode: GET /<host:port/path> through the gateway over persistent HTTP.
  imode_path_.clear();
  sim::BufWriter{imode_path_}.put("/").put(url);
  battery_.drain_tx_bytes(imode_path_.size() + 60);
  obs::ActiveScope scope{f.page};
  http_->get(cfg_.gateway, imode_path_,
             [this, slot](std::optional<host::HttpResponse> resp) {
    if (!resp.has_value()) {
      stats_.counter("failures").add();
      fail(slot);
      return;
    }
    const std::size_t air = resp->wire_size();
    battery_.drain_rx_bytes(air);
    fetches_[slot].result.content = std::move(resp->body);
    finish_page(slot, resp->status, air);
  });
}

void MicroBrowser::wsp_result(std::uint32_t slot,
                              std::optional<sim::Slice> payload,
                              std::size_t air_bytes) {
  if (!payload.has_value()) {
    stats_.counter("failures").add();
    fail(slot);
    return;
  }
  battery_.drain_rx_bytes(payload->size());
  const auto wsp = middleware::wsp_decode_response(*payload);
  if (!wsp.has_value()) {
    stats_.counter("failures").add();
    fail(slot);
    return;
  }
  const std::size_t air = air_bytes != 0 ? air_bytes : payload->size();
  // The page's one owned copy: the markup in the result, decoded from a
  // WBXML deck straight out of the WTP message.
  Fetch& f = fetches_[slot];
  PageResult& r = f.result;
  if (wsp->content_type != "application/vnd.wap.wmlc") {
    r.content.assign(wsp->body);
  } else if (!middleware::wbxml_decode_to(wsp->body, r.content)) {
    stats_.counter("decode_errors").add();
    r.status = wsp->status;
    r.over_air_bytes = air;
    r.network_time = station_.sim().now() - f.sent;
    r.total_time = r.network_time;
    complete(slot);
    return;
  }
  finish_page(slot, wsp->status, air);
}

void MicroBrowser::secure_invoke(std::uint32_t slot) {
  Fetch& f = fetches_[slot];
  if (!wtls_channel_.has_value()) {
    if (waiters_tail_ == kNoFetch) {
      waiters_head_ = slot;
    } else {
      fetches_[waiters_tail_].next_waiter = slot;
    }
    waiters_tail_ = slot;
    f.next_waiter = kNoFetch;
    if (wtls_handshaking_) return;
    wtls_handshaking_ = true;
    stats_.counter("wtls_handshakes").add();
    // The handshake object lives across the round trip.
    auto hs = std::make_shared<security::WtlsHandshake>(
        security::WtlsHandshake::Role::kClient, rng_.fork(),
        cfg_.wtls_ca_key);
    std::size_t sent = 0;
    obs::ActiveScope scope{f.page};
    wtp_->invoke(
        cfg_.gateway,
        [&](sim::BufWriter& w) {
          w.put("WTLS-HELLO ").put(hs->client_hello());
          sent = w.size();
        },
        [this, hs](std::optional<sim::MutSlice> result) {
          on_handshake(*hs, result);
        });
    battery_.drain_tx_bytes(sent + 36);
    return;
  }
  std::size_t sent = 0;
  obs::ActiveScope scope{f.page};
  wtp_->invoke(
      cfg_.gateway,
      [&](sim::BufWriter& w) {
        // "WTLS-DATA " + the sealed WSP request, written once.
        w.put("WTLS-DATA ");
        const std::size_t record = wtls_channel_->begin_seal(w);
        middleware::wsp_encode_request(f.url, w);
        wtls_channel_->end_seal(w, record);
        sent = w.size();
      },
      [this, slot](std::optional<sim::MutSlice> result) {
        on_secure_result(slot, result);
      });
  battery_.drain_tx_bytes(sent + 36);
}

void MicroBrowser::on_handshake(security::WtlsHandshake& hs,
                                std::optional<sim::MutSlice> result) {
  wtls_handshaking_ = false;
  std::uint32_t waiter = waiters_head_;
  waiters_head_ = kNoFetch;
  waiters_tail_ = kNoFetch;
  const sim::Slice reply =
      result.has_value() ? sim::as_slice(*result) : sim::Slice{};
  const bool ok = reply.starts_with("WTLS-SHELLO ") &&
                  hs.on_server_hello(reply.substr(12)).has_value();
  if (ok) {
    wtls_channel_ = hs.channel();
  } else {
    stats_.counter("wtls_failures").add();
  }
  // Flush everything that queued behind the handshake; on success their
  // request times start now.
  while (waiter != kNoFetch) {
    Fetch& f = fetches_[waiter];
    const std::uint32_t next = f.next_waiter;
    if (ok) {
      f.sent = station_.sim().now();
      secure_invoke(waiter);
    } else {
      f.result = PageResult{};
      complete(waiter);
    }
    waiter = next;
  }
}

void MicroBrowser::on_secure_result(std::uint32_t slot,
                                    std::optional<sim::MutSlice> result) {
  const sim::Slice bytes =
      result.has_value() ? sim::as_slice(*result) : sim::Slice{};
  if (bytes.starts_with("WTLS-DATA ") && wtls_channel_.has_value()) {
    // Opened in place, in the WTP message.
    const auto opened = wtls_channel_->open(result->subspan(10));
    if (opened.has_value()) {
      wsp_result(slot, opened, bytes.size());
      return;
    }
    stats_.counter("wtls_record_errors").add();
  } else if (bytes.starts_with("WTLS-ERR")) {
    // Session lost at the gateway: drop ours so the next browse redials.
    wtls_channel_.reset();
    stats_.counter("wtls_failures").add();
  }
  wsp_result(slot, std::nullopt, 0);
}

void MicroBrowser::finish_page(std::uint32_t slot, int status,
                               std::size_t air_bytes) {
  Fetch& f = fetches_[slot];
  PageResult& r = f.result;
  r.status = status;
  r.ok = status == 200;
  r.over_air_bytes = air_bytes;
  r.network_time = station_.sim().now() - f.sent;

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
    if (f.url.find('?') == std::string::npos) {
      cache_.put(f.url, r, r.content.size());
    }
  }
  f.work = obs::begin_child(f.page, obs::Component::kStation, "parse_render",
                            station_.sim().now());
  station_.sim().after(r.parse_time + r.render_time,
                       [this, slot] { after_render(slot); });
}

void MicroBrowser::after_render(std::uint32_t slot) {
  Fetch& f = fetches_[slot];
  obs::end_span(f.work, station_.sim().now());
  f.result.total_time = station_.sim().now() - f.sent;
  complete(slot);
}

}  // namespace mcs::station
