#include "core/system.h"

#include <cmath>

#include "middleware/markup_view.h"
#include "sim/util.h"

namespace mcs::core {

// ---------------------------------------------------------------------------
// Client drivers
// ---------------------------------------------------------------------------

void BrowserClient::fetch(const std::string& url,
                          std::function<void(FetchResult)> cb) {
  browser_.browse(url, [cb = std::move(cb)](
                           station::MicroBrowser::PageResult r) {
    FetchResult f;
    f.ok = r.ok;
    f.status = r.status;
    f.raw = std::move(r.content);
    // Application payloads travel inside the translated markup; the browser
    // already extracted the text content while rendering.
    f.body = std::move(r.text);
    f.latency = r.total_time;
    f.over_air_bytes = r.over_air_bytes;
    f.client_cpu = r.parse_time + r.render_time;
    cb(std::move(f));
  });
}

void DesktopClient::fetch(const std::string& url,
                          std::function<void(FetchResult)> cb) {
  const auto parsed = host::parse_url(url);
  if (!parsed.has_value()) {
    cb(FetchResult{});
    return;
  }
  const auto addr = middleware::parse_dotted_quad(parsed->host);
  if (!addr.has_value()) {
    cb(FetchResult{});
    return;
  }
  const sim::Time start = sim_.now();
  http_.get(net::Endpoint{*addr, parsed->port}, parsed->path,
            [this, start, cb = std::move(cb)](
                std::optional<host::HttpResponse> resp) {
    FetchResult f;
    f.latency = sim_.now() - start;
    if (resp.has_value()) {
      f.ok = resp->status == 200;
      f.status = resp->status;
      // Desktop browsers read HTML; strip markup for the app layer too.
      middleware::PageSummary page;
      middleware::summarize_page(resp->body, page);
      f.body = std::move(page.text);
      f.raw = std::move(resp->body);
      f.over_air_bytes = 0;
    }
    cb(std::move(f));
  });
}

// ---------------------------------------------------------------------------
// McSystem
// ---------------------------------------------------------------------------

McSystem::McSystem(sim::Simulator& sim, McSystemConfig cfg)
    : sim_{sim}, cfg_{cfg}, network_{sim, cfg.seed} {
  // --- (v)/(vi) wired side: gateway -- web host -- db host ------------------
  gateway_ = network_.add_node("gateway");
  web_ = network_.add_node("web-host");
  db_host_ = network_.add_node("db-host");
  backbone_link_ = network_.connect(gateway_, web_, cfg_.backbone);
  network_.connect(web_, db_host_, cfg_.host_lan);

  // --- (iv) wireless cell ----------------------------------------------------
  cfg_.radio.phy = cfg_.phy;
  if (cfg_.deterministic_radio) {
    cfg_.radio.phy.base_loss_rate = 0.0;
    cfg_.radio.p_good_to_bad = 0.0;
  }
  cell_ = std::make_unique<wireless::WirelessMedium>(
      sim_, "cell0", wireless::Position{0, 0}, cfg_.radio,
      network_.rng().fork());
  cell_->set_ap_interface(gateway_->add_interface(network_.allocate_address()));
  network_.register_channel(cell_.get());

  // --- (ii) mobile stations --------------------------------------------------
  for (int i = 0; i < cfg_.num_mobiles; ++i) {
    auto m = std::make_unique<MobileStation>();
    m->node = network_.add_node(sim::strf("mobile%d", i));
    m->iface = m->node->add_interface(network_.allocate_address());
    // Spread stations around the AP, well inside coverage.
    const double angle = 2.0 * 3.14159265 * i /
                         std::max(1, cfg_.num_mobiles);
    const double r = 0.2 * cfg_.phy.range_m;
    m->position = std::make_unique<wireless::FixedPosition>(
        wireless::Position{r * std::cos(angle), r * std::sin(angle)});
    cell_->associate(m->iface, m->position.get());
    m->udp = std::make_unique<transport::UdpStack>(*m->node);
    m->tcp = std::make_unique<transport::TcpStack>(*m->node);
    mobiles_.push_back(std::move(m));
  }

  network_.compute_routes();

  // --- (iii) middleware on the gateway node -----------------------------------
  gateway_udp_ = std::make_unique<transport::UdpStack>(*gateway_);
  gateway_tcp_ = std::make_unique<transport::TcpStack>(*gateway_);
  wap_gateway_ = std::make_unique<middleware::WapGateway>(
      *gateway_, *gateway_udp_, *gateway_tcp_,
      middleware::dotted_quad_resolver(), cfg_.wap);
  imode_gateway_ = std::make_unique<middleware::IModeGateway>(
      *gateway_tcp_, middleware::dotted_quad_resolver(), cfg_.imode);

  // Browsers (need the gateway endpoint, so built after the gateways).
  for (auto& m : mobiles_) {
    station::BrowserConfig bcfg;
    bcfg.mode = cfg_.middleware;
    bcfg.use_wtls = cfg_.wap_use_wtls &&
                    cfg_.middleware == station::BrowserMode::kWap;
    bcfg.gateway = cfg_.middleware == station::BrowserMode::kWap
                       ? net::Endpoint{gateway_->addr(), cfg_.wap.wtp_port}
                       : net::Endpoint{gateway_->addr(), cfg_.imode.port};
    m->browser = std::make_unique<station::MicroBrowser>(
        *m->node, cfg_.device, bcfg, m->udp.get(), m->tcp.get());
    m->driver = std::make_unique<BrowserClient>(*m->browser);
  }

  // --- (vi) host computers -----------------------------------------------------
  web_tcp_ = std::make_unique<transport::TcpStack>(*web_);
  db_tcp_ = std::make_unique<transport::TcpStack>(*db_host_);
  db_server_ = std::make_unique<host::db::DbServer>(*db_tcp_, 5432, db_,
                                                    cfg_.db);
  web_server_ = std::make_unique<host::HttpServer>(*web_tcp_, 80);
  web_server_->set_processing_delay(cfg_.web_processing);
  web_db_client_ = std::make_unique<host::db::DbClient>(
      *web_tcp_, net::Endpoint{db_host_->addr(), 5432});
  web_http_client_ = std::make_unique<host::HttpClient>(*web_tcp_);
  app_server_ = std::make_unique<host::AppServer>(
      *web_server_,
      host::AppServer::Context{web_db_client_.get(), &sim_});

  // Payments: the bank participant runs on the web host too (a separate
  // institution in reality; one hop away is enough for the model).
  bank_ = std::make_unique<PaymentProcessor>(*web_server_, db_, sim_);
  payments_ = std::make_unique<PaymentCoordinator>(
      *web_http_client_, net::Endpoint{web_->addr(), 80}, db_, sim_);
}

std::string McSystem::web_url(const std::string& path) const {
  return web_->addr().to_string() + ":80" + path;
}

std::vector<ClientDriver*> McSystem::client_drivers() {
  std::vector<ClientDriver*> drivers;
  drivers.reserve(mobiles_.size());
  for (auto& m : mobiles_) drivers.push_back(m->driver.get());
  return drivers;
}

// ---------------------------------------------------------------------------
// EcSystem
// ---------------------------------------------------------------------------

EcSystem::EcSystem(sim::Simulator& sim, EcSystemConfig cfg)
    : sim_{sim}, cfg_{cfg}, network_{sim, cfg.seed} {
  router_ = network_.add_node("router");
  web_ = network_.add_node("web-host");
  db_host_ = network_.add_node("db-host");
  network_.connect(router_, web_, cfg_.backbone);
  network_.connect(web_, db_host_, cfg_.host_lan);

  for (int i = 0; i < cfg_.num_clients; ++i) {
    auto c = std::make_unique<DesktopStation>();
    c->node = network_.add_node(sim::strf("desktop%d", i));
    network_.connect(c->node, router_, cfg_.access);
    c->tcp = std::make_unique<transport::TcpStack>(*c->node);
    c->http = std::make_unique<host::HttpClient>(*c->tcp);
    c->driver = std::make_unique<DesktopClient>(*c->http, sim_);
    clients_.push_back(std::move(c));
  }
  network_.compute_routes();

  web_tcp_ = std::make_unique<transport::TcpStack>(*web_);
  db_tcp_ = std::make_unique<transport::TcpStack>(*db_host_);
  db_server_ = std::make_unique<host::db::DbServer>(*db_tcp_, 5432, db_,
                                                    cfg_.db);
  web_server_ = std::make_unique<host::HttpServer>(*web_tcp_, 80);
  web_server_->set_processing_delay(cfg_.web_processing);
  web_db_client_ = std::make_unique<host::db::DbClient>(
      *web_tcp_, net::Endpoint{db_host_->addr(), 5432});
  web_http_client_ = std::make_unique<host::HttpClient>(*web_tcp_);
  app_server_ = std::make_unique<host::AppServer>(
      *web_server_,
      host::AppServer::Context{web_db_client_.get(), &sim_});
  bank_ = std::make_unique<PaymentProcessor>(*web_server_, db_, sim_);
  payments_ = std::make_unique<PaymentCoordinator>(
      *web_http_client_, net::Endpoint{web_->addr(), 80}, db_, sim_);
}

std::string EcSystem::web_url(const std::string& path) const {
  return web_->addr().to_string() + ":80" + path;
}

std::vector<ClientDriver*> EcSystem::client_drivers() {
  std::vector<ClientDriver*> drivers;
  drivers.reserve(clients_.size());
  for (auto& c : clients_) drivers.push_back(c->driver.get());
  return drivers;
}

}  // namespace mcs::core
