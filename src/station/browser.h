#pragma once

#include <functional>
#include <memory>
#include <string>

#include "middleware/wap_gateway.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "security/wtls.h"
#include "station/battery.h"
#include "station/cache.h"
#include "station/device.h"

namespace mcs::station {

// How the microbrowser reaches the web: through a WAP gateway (WTP/WDP +
// WBXML decks) or an i-mode gateway (persistent HTTP + cHTML). Table 3's
// two middleware columns.
enum class BrowserMode { kWap, kImode };

struct BrowserConfig {
  BrowserMode mode = BrowserMode::kWap;
  net::Endpoint gateway;  // WAP: WDP endpoint; i-mode: HTTP endpoint
  middleware::WtpConfig wtp;
  // WTLS (WAP mode only): run the handshake against the gateway and seal
  // every WSP transaction. The handset trusts certificates signed by ca_key
  // (its burned-in root).
  bool use_wtls = false;
  std::uint64_t wtls_ca_key = middleware::kDefaultWtlsCaKey;
};

// The microbrowser on a mobile station: issues page requests through the
// middleware, decodes/parses the returned deck, charges the device's CPU
// and battery for parse/render work, and caches pages in a RAM-budgeted LRU.
class MicroBrowser {
 public:
  struct PageResult {
    bool ok = false;
    int status = 0;
    std::string title;
    std::string content;        // decoded markup (WML or cHTML text)
    std::string text;           // the page's text content, markup stripped
    std::size_t elements = 0;   // element count; render time scales with it
    std::size_t over_air_bytes = 0;
    bool from_cache = false;
    sim::Time network_time;
    sim::Time parse_time;
    sim::Time render_time;
    sim::Time total_time;
  };
  using PageCallback = std::function<void(PageResult)>;

  MicroBrowser(net::Node& station, DeviceProfile device, BrowserConfig cfg,
               transport::UdpStack* udp, transport::TcpStack* tcp);
  MicroBrowser(const MicroBrowser&) = delete;
  MicroBrowser& operator=(const MicroBrowser&) = delete;

  // Fetch and "render" a page; url is "host:port/path" or "http://...".
  void browse(const std::string& url, PageCallback cb);

  Battery& battery() { return battery_; }
  const DeviceProfile& device() const { return device_; }
  LruCache<PageResult>& cache() { return cache_; }
  sim::StatsRegistry& stats() { return stats_; }
  const sim::StatsRegistry& stats() const { return stats_; }
  bool wtls_established() const { return wtls_channel_.has_value(); }

 private:
  // `page` is the browse span (obs/trace.h); parse/render child spans and
  // outgoing-request stamping hang off it.
  void finish_with_content(const std::string& url, int status,
                           std::string&& content, std::size_t air_bytes,
                           sim::Time started, bool was_wbxml,
                           obs::TraceContext page, PageCallback cb);
  // WAP+WTLS path: establish the session if needed, then run one sealed
  // WSP transaction.
  void secure_invoke(const std::string& url, sim::Time started,
                     obs::TraceContext page, PageCallback cb);
  // `air_bytes` of 0 means "use the result's size" (plain path); the WTLS
  // path passes the sealed wire size explicitly.
  void wsp_result(const std::string& url, sim::Time started,
                  std::optional<std::string>&& result, std::size_t air_bytes,
                  obs::TraceContext page, PageCallback cb);

  net::Node& station_;
  DeviceProfile device_;
  BrowserConfig cfg_;
  Battery battery_;
  LruCache<PageResult> cache_;
  std::unique_ptr<middleware::WtpEndpoint> wtp_;  // WAP mode
  std::unique_ptr<host::HttpClient> http_;        // i-mode mode
  std::string imode_path_;  // "/<url>" request target, reused per fetch
  sim::Rng rng_{0xB205E2ull};
  std::optional<security::SecureChannel> wtls_channel_;
  bool wtls_handshaking_ = false;
  struct SecureWaiter {
    std::string url;
    obs::TraceContext page;
    PageCallback cb;
  };
  std::vector<SecureWaiter> wtls_waiters_;
  sim::StatsRegistry stats_;
  // Telemetry handles, cached at construction (obs/metrics.h): null when no
  // registry is ambient, so each update is one predictable branch.
  obs::TsCounter* m_browses_ = obs::metric_counter("station.browse");
  obs::TsCounter* m_cache_hits_ = obs::metric_counter("station.cache_hits");
  obs::TsLogHist* m_page_us_ = obs::metric_histogram("station.page_us");
};

}  // namespace mcs::station
