#pragma once

#include <functional>
#include <memory>
#include <string>

#include "middleware/wap_gateway.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "security/wtls.h"
#include "sim/pool.h"
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
  static constexpr std::uint32_t kNoFetch = ~std::uint32_t{0};
  // One page fetch from browse() to its callback. The WTP, HTTP and timer
  // callbacks capture only [this, slot], so they fit std::function's and
  // the kernel's inline storage; fetches are recycled with their url buffer.
  struct Fetch {
    std::string url;
    sim::Time started;          // browse() call: the page latency metric
    sim::Time sent;             // request start: the PageResult times
    obs::TraceContext page;     // browse span
    obs::TraceContext work;     // parse_render span
    PageCallback cb;
    PageResult result;
    std::uint32_t next_waiter = kNoFetch;  // queue behind the handshake
  };

  // Close the browse span, hand the result to the caller, free the slot.
  void complete(std::uint32_t slot);
  // Fail the fetch: an empty result that took until now.
  void fail(std::uint32_t slot);
  // WAP+WTLS path: establish the session if needed, then run one sealed
  // WSP transaction.
  void secure_invoke(std::uint32_t slot);
  void on_handshake(security::WtlsHandshake& hs,
                    std::optional<sim::MutSlice> result);
  void on_secure_result(std::uint32_t slot,
                        std::optional<sim::MutSlice> result);
  // Decode one (possibly absent) WSP response into the page. `air_bytes` of
  // 0 means "the payload's size" (plain path); the WTLS path passes the
  // sealed wire size.
  void wsp_result(std::uint32_t slot, std::optional<sim::Slice> payload,
                  std::size_t air_bytes);
  // result.content holds the page's markup: summarise it, charge the CPU,
  // cache it, and finish after the parse and render time.
  void finish_page(std::uint32_t slot, int status, std::size_t air_bytes);
  void after_render(std::uint32_t slot);

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
  std::uint32_t waiters_head_ = kNoFetch;  // behind the handshake, FIFO
  std::uint32_t waiters_tail_ = kNoFetch;
  sim::SlotPool<Fetch> fetches_;
  sim::StatsRegistry stats_;
  // Telemetry handles, cached at construction (obs/metrics.h): null when no
  // registry is ambient, so each update is one predictable branch.
  obs::TsCounter* m_browses_ = obs::metric_counter("station.browse");
  obs::TsCounter* m_cache_hits_ = obs::metric_counter("station.cache_hits");
  obs::TsLogHist* m_page_us_ = obs::metric_histogram("station.page_us");
};

}  // namespace mcs::station
