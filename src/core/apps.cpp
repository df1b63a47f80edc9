#include "core/apps.h"

#include <algorithm>
#include <cstdlib>

#include "sim/arena.h"
#include "sim/util.h"

namespace mcs::core {

using host::HttpRequest;
using host::HttpResponse;
using host::query_param;
using host::db::Value;
using host::db::ValueType;
using sim::strf;

namespace {

// Wrap application text in a small HTML page so the middleware has real
// markup to translate (headings, paragraphs, links).
std::string html_page(sim::Slice title, sim::Slice body) {
  return sim::cat("<html><head><title>", title, "</title></head><body><h1>",
                  title, "</h1>", body, "</body></html>");
}

// ---------------------------------------------------------------------------
// 1. Commerce: mobile transactions and payments
// ---------------------------------------------------------------------------

class CommerceApp final : public Application {
 public:
  std::string name() const override { return "mobile-shop"; }
  std::string category() const override { return "Commerce"; }
  std::string major_application() const override {
    return "Mobile transactions and payments";
  }
  std::string clients() const override { return "Businesses"; }

  void install(AppEnvironment env) override {
    env_ = env;
    auto& db = *env.db;
    if (db.table("products") == nullptr) {
      db.create_table("products", {{"id", ValueType::kInt},
                                   {"name", ValueType::kText},
                                   {"category", ValueType::kText},
                                   {"price", ValueType::kReal},
                                   {"stock", ValueType::kInt}});
      const char* categories[] = {"electronics", "books", "music", "travel"};
      for (int i = 1; i <= 24; ++i) {
        db.insert("products",
                  {std::int64_t{i}, strf("Product %d", i),
                   std::string{categories[i % 4]}, 9.99 + i * 3.0,
                   std::int64_t{100}});
      }
    }
    // Catalog: personalized product list.
    env.programs->install("GET", "/shop/catalog",
                          [this](const HttpRequest& req,
                                 host::AppServer::Context& ctx, auto respond) {
      const std::string user{query_param(req.path(), "user")};
      ctx.db->scan("products", [this, user, respond](
                                   host::db::DbClient::Result r) {
        if (!r.ok) {
          respond(HttpResponse::server_error("db down"));
          return;
        }
        // Rank views into the result; the page copies id, name and price
        // straight from the wire fields (their text is what to_string() of
        // the typed value prints: "%lld" and "%.6g" round-trip exactly).
        std::vector<CatalogItem>& items = catalog_items_;
        items.clear();
        for (std::size_t i = 0; i < r.rows.size(); ++i) {
          const auto row = r.rows[i];
          if (row.size() < 5) continue;
          items.push_back({row[2], std::atof(row[3].data()), i});
        }
        env_.personalization->personalize_catalog(user, items);
        const std::size_t shown = std::min<std::size_t>(items.size(), 10);
        constexpr sim::Slice kOpen = "<li><a href=\"/shop/buy?item=";
        constexpr sim::Slice kName = "\">";
        constexpr sim::Slice kPrice = " ($";
        constexpr sim::Slice kClose = ")</a></li>";
        std::size_t est = 9;  // <ul></ul>
        for (std::size_t i = 0; i < shown; ++i) {
          const auto row = r.rows[items[i].row];
          est += kOpen.size() + kName.size() + kPrice.size() + kClose.size() +
                 row[0].size() + row[1].size() + row[3].size();
        }
        const std::string body = sim::build(est, [&](std::string& out) {
          sim::BufWriter w{out};
          w.put("<ul>");
          for (std::size_t i = 0; i < shown; ++i) {
            const auto row = r.rows[items[i].row];
            w.put(kOpen).put(row[0]).put(kName).put(row[1]).put(kPrice)
                .put(row[3]).put(kClose);
          }
          w.put("</ul>");
        });
        respond(HttpResponse::make(200, "text/html",
                                   html_page("Catalog", body)));
      });
    });
    // Buy: 2PC payment + stock decrement.
    env.programs->install("GET", "/shop/buy",
                          [this](const HttpRequest& req,
                                 host::AppServer::Context& ctx, auto respond) {
      const std::string item{query_param(req.path(), "item")};
      const std::string user{query_param(req.path(), "user")};
      const std::string key{query_param(req.path(), "key")};
      if (item.empty() || user.empty() || key.empty()) {
        respond(HttpResponse::bad_request("need item/user/key"));
        return;
      }
      ctx.db->get("products", item, [this, item, user, key, ctx, respond](
                                        host::db::DbClient::Result r) mutable {
        if (!r.ok || r.rows.empty()) {
          respond(HttpResponse::not_found("item " + item));
          return;
        }
        const double price = std::atof(r.rows[0][3].data());
        const auto stock = std::atoll(r.rows[0][4].data());
        if (stock <= 0) {
          respond(HttpResponse::make(409, "text/html",
                                     html_page("Sold out", "<p>0 left</p>")));
          return;
        }
        env_.personalization->record_interest(user, r.rows[0][2]);
        env_.payments->charge(
            key, user, price, std::string{r.rows[0][1]},
            [item, stock, ctx, respond](PaymentCoordinator::Outcome o) mutable {
          if (!o.ok) {
            respond(HttpResponse::make(
                402, "text/html",
                html_page("Payment failed", "<p>" + o.failure + "</p>")));
            return;
          }
          ctx.db->update(0, "products", item, 4, strf("%lld", stock - 1),
                         [](host::db::DbClient::Result) {});
          respond(HttpResponse::make(
              200, "text/html",
              html_page("Receipt", "<p>ORDER-OK " + o.order_id + "</p>")));
        });
      });
    });
  }

  void run_transaction(ClientDriver& client, const std::string& host,
                       std::uint64_t user_seq, TxnCallback done) override {
    const std::string user = strf("acct%llu",
                                  static_cast<unsigned long long>(user_seq % 8));
    const sim::Time start = env_.sim->now();
    client.fetch(host + "/shop/catalog?user=" + user,
                 [this, &client, host, user, user_seq, start,
                  done = std::move(done)](FetchResult cat) mutable {
      if (!cat.ok) {
        done(TxnResult{false, env_.sim->now() - start, cat.over_air_bytes,
                       "catalog failed"});
        return;
      }
      const std::string item =
          strf("%llu", static_cast<unsigned long long>(1 + user_seq % 24));
      const std::string key =
          strf("buy-%llu", static_cast<unsigned long long>(user_seq));
      const std::size_t bytes0 = cat.over_air_bytes;
      client.fetch(
          host + "/shop/buy?item=" + item + "&user=" + user + "&key=" + key,
          [this, start, bytes0, done = std::move(done)](FetchResult buy) {
        TxnResult t;
        t.ok = buy.ok && buy.body.find("ORDER-OK") != std::string::npos;
        t.latency = env_.sim->now() - start;
        t.over_air_bytes = bytes0 + buy.over_air_bytes;
        t.detail = t.ok ? "purchased" : "buy failed";
        done(std::move(t));
      });
    });
  }

 private:
  AppEnvironment env_;
  // Reused across catalog requests: ranking allocates nothing once warm.
  std::vector<CatalogItem> catalog_items_;
};

// ---------------------------------------------------------------------------
// 2. Education: mobile classrooms and labs
// ---------------------------------------------------------------------------

class EducationApp final : public Application {
 public:
  std::string name() const override { return "mobile-classroom"; }
  std::string category() const override { return "Education"; }
  std::string major_application() const override {
    return "Mobile classrooms and labs";
  }
  std::string clients() const override {
    return "Schools and training centers";
  }

  void install(AppEnvironment env) override {
    env_ = env;
    for (int i = 1; i <= 10; ++i) {
      std::string lesson = strf(
          "<p>Lesson %d: wireless networks primer.</p>"
          "<p>Question: at what nominal rate does 802.11b operate?</p>"
          "<ul><li>1 Mbps</li><li>11 Mbps</li><li>54 Mbps</li></ul>",
          i);
      env.web->add_content(strf("/edu/lesson%d", i), "text/html",
                           html_page(strf("Lesson %d", i), lesson));
    }
    env.programs->install("GET", "/edu/quiz",
                          [](const HttpRequest& req, host::AppServer::Context&,
                             auto respond) {
      const sim::Slice answer = query_param(req.path(), "answer");
      const bool correct = answer == "11";
      respond(HttpResponse::make(
          200, "text/html",
          html_page("Quiz result",
                    correct ? "<p>GRADE-PASS</p>" : "<p>GRADE-FAIL</p>")));
    });
  }

  void run_transaction(ClientDriver& client, const std::string& host,
                       std::uint64_t user_seq, TxnCallback done) override {
    const sim::Time start = env_.sim->now();
    const int lesson = 1 + static_cast<int>(user_seq % 10);
    client.fetch(host + strf("/edu/lesson%d", lesson),
                 [this, &client, host, start, done = std::move(done)](
                     FetchResult r1) mutable {
      if (!r1.ok) {
        done(TxnResult{false, env_.sim->now() - start, r1.over_air_bytes,
                       "lesson failed"});
        return;
      }
      const std::size_t bytes0 = r1.over_air_bytes;
      client.fetch(host + "/edu/quiz?answer=11",
                   [this, start, bytes0, done = std::move(done)](FetchResult r2) {
        TxnResult t;
        t.ok = r2.ok && r2.body.find("GRADE-PASS") != std::string::npos;
        t.latency = env_.sim->now() - start;
        t.over_air_bytes = bytes0 + r2.over_air_bytes;
        done(std::move(t));
      });
    });
  }

 private:
  AppEnvironment env_;
};

// ---------------------------------------------------------------------------
// 3. Enterprise resource planning
// ---------------------------------------------------------------------------

class ErpApp final : public Application {
 public:
  std::string name() const override { return "erp"; }
  std::string category() const override {
    return "Enterprise resource planning";
  }
  std::string major_application() const override {
    return "Resource management";
  }
  std::string clients() const override { return "All companies"; }

  void install(AppEnvironment env) override {
    env_ = env;
    auto& db = *env.db;
    if (db.table("resources") == nullptr) {
      db.create_table("resources", {{"id", ValueType::kText},
                                    {"available", ValueType::kInt}});
      const char* kinds[] = {"trucks", "crews", "cranes", "permits"};
      for (const char* k : kinds) {
        db.insert("resources", {std::string{k}, std::int64_t{50}});
      }
    }
    env.programs->install("GET", "/erp/status",
                          [](const HttpRequest& req,
                             host::AppServer::Context& ctx, auto respond) {
      const std::string id{query_param(req.path(), "resource")};
      ctx.db->get("resources", id,
                  [id, respond](host::db::DbClient::Result r) {
        if (!r.ok || r.rows.empty()) {
          respond(HttpResponse::not_found(id));
          return;
        }
        respond(HttpResponse::make(
            200, "text/html",
            html_page("Resource",
                      sim::cat("<p>AVAILABLE ", r.rows[0][1], "</p>"))));
      });
    });
    env.programs->install("GET", "/erp/allocate",
                          [](const HttpRequest& req,
                             host::AppServer::Context& ctx, auto respond) {
      const std::string id{query_param(req.path(), "resource")};
      const auto qty = sim::to_int64(query_param(req.path(), "qty"));
      ctx.db->get("resources", id, [id, qty, ctx, respond](
                                       host::db::DbClient::Result r) mutable {
        if (!r.ok || r.rows.empty()) {
          respond(HttpResponse::not_found(id));
          return;
        }
        const auto avail = std::atoll(r.rows[0][1].data());
        if (avail < qty) {
          respond(HttpResponse::make(
              409, "text/html", html_page("ERP", "<p>ALLOC-DENIED</p>")));
          return;
        }
        ctx.db->update(0, "resources", id, 1, strf("%lld", avail - qty),
                       [respond](host::db::DbClient::Result u) mutable {
          respond(HttpResponse::make(
              200, "text/html",
              html_page("ERP", u.ok ? "<p>ALLOC-OK</p>"
                                    : "<p>ALLOC-RETRY</p>")));
        });
      });
    });
  }

  void run_transaction(ClientDriver& client, const std::string& host,
                       std::uint64_t user_seq, TxnCallback done) override {
    const char* kinds[] = {"trucks", "crews", "cranes", "permits"};
    const std::string res = kinds[user_seq % 4];
    const sim::Time start = env_.sim->now();
    client.fetch(host + "/erp/status?resource=" + res,
                 [this, &client, host, res, start,
                  done = std::move(done)](FetchResult r1) mutable {
      if (!r1.ok) {
        done(TxnResult{false, env_.sim->now() - start, r1.over_air_bytes,
                       "status failed"});
        return;
      }
      const std::size_t bytes0 = r1.over_air_bytes;
      client.fetch(host + "/erp/allocate?resource=" + res + "&qty=1",
                   [this, start, bytes0, done = std::move(done)](FetchResult r2) {
        TxnResult t;
        t.ok = r2.ok && r2.body.find("ALLOC-OK") != std::string::npos;
        t.latency = env_.sim->now() - start;
        t.over_air_bytes = bytes0 + r2.over_air_bytes;
        done(std::move(t));
      });
    });
  }

 private:
  AppEnvironment env_;
};

// ---------------------------------------------------------------------------
// 4. Entertainment: music/video/game downloads
// ---------------------------------------------------------------------------

class EntertainmentApp final : public Application {
 public:
  std::string name() const override { return "media-downloads"; }
  std::string category() const override { return "Entertainment"; }
  std::string major_application() const override {
    return "Music/video/game downloads";
  }
  std::string clients() const override { return "Entertainment industry"; }

  void install(AppEnvironment env) override {
    env_ = env;
    sim::Rng rng{env.seed ^ 0xE47E47ull};
    for (int i = 1; i <= 5; ++i) {
      // "Media" payloads: sized blobs of printable noise inside a page.
      std::string blob;
      const std::size_t size = 8'000 + 4'000 * static_cast<std::size_t>(i);
      blob.reserve(size);
      for (std::size_t b = 0; b < size; ++b) {
        blob.push_back(static_cast<char>('A' + rng.uniform_int(0, 25)));
      }
      env.web->add_content(strf("/media/track%d", i), "text/html",
                           html_page(strf("Track %d", i),
                                     "<p>MEDIA-BEGIN " + blob +
                                         " MEDIA-END</p>"));
    }
  }

  void run_transaction(ClientDriver& client, const std::string& host,
                       std::uint64_t user_seq, TxnCallback done) override {
    const int track = 1 + static_cast<int>(user_seq % 5);
    const sim::Time start = env_.sim->now();
    client.fetch(host + strf("/media/track%d", track),
                 [this, start, done = std::move(done)](FetchResult r) {
      TxnResult t;
      // WAP decks truncate large media (adaptation size cap): receiving the
      // start of the stream counts as success; completeness is reported in
      // `detail` (and shows up in the Table 1 bench's byte counts).
      t.ok = r.ok && r.body.find("MEDIA-BEGIN") != std::string::npos;
      t.detail = r.body.find("MEDIA-END") != std::string::npos
                     ? "complete"
                     : "truncated-by-adaptation";
      t.latency = env_.sim->now() - start;
      t.over_air_bytes = r.over_air_bytes;
      done(std::move(t));
    });
  }

 private:
  AppEnvironment env_;
};

// ---------------------------------------------------------------------------
// 5. Health care: patient record accessing
// ---------------------------------------------------------------------------

class HealthCareApp final : public Application {
 public:
  std::string name() const override { return "patient-records"; }
  std::string category() const override { return "Health care"; }
  std::string major_application() const override {
    return "Patient record accessing";
  }
  std::string clients() const override {
    return "Hospitals and nursing homes";
  }

  void install(AppEnvironment env) override {
    env_ = env;
    auto& db = *env.db;
    if (db.table("patients") == nullptr) {
      db.create_table("patients", {{"id", ValueType::kText},
                                   {"name", ValueType::kText},
                                   {"record", ValueType::kText}});
      for (int i = 1; i <= 20; ++i) {
        db.insert("patients",
                  {strf("p%03d", i), strf("Patient %d", i),
                   strf("bp=120/80 pulse=%d allergies=none meds=2", 60 + i)});
      }
    }
    env.programs->install("GET", "/health/record",
                          [](const HttpRequest& req,
                             host::AppServer::Context& ctx, auto respond) {
      // Access control: staff token required (authentication requirement).
      if (query_param(req.path(), "token") != "staff-42") {
        respond(HttpResponse::make(401, "text/html",
                                   html_page("Denied", "<p>ACCESS-DENIED</p>")));
        return;
      }
      const std::string id{query_param(req.path(), "patient")};
      ctx.db->get("patients", id,
                  [id, respond](host::db::DbClient::Result r) {
        if (!r.ok || r.rows.empty()) {
          respond(HttpResponse::not_found(id));
          return;
        }
        respond(HttpResponse::make(
            200, "text/html",
            html_page("Record " + id,
                      sim::cat("<p>RECORD ", r.rows[0][1], ": ", r.rows[0][2],
                               "</p>"))));
      });
    });
  }

  void run_transaction(ClientDriver& client, const std::string& host,
                       std::uint64_t user_seq, TxnCallback done) override {
    const std::string id = strf("p%03llu", static_cast<unsigned long long>(
                                               1 + user_seq % 20));
    const sim::Time start = env_.sim->now();
    client.fetch(host + "/health/record?patient=" + id + "&token=staff-42",
                 [this, start, done = std::move(done)](FetchResult r) {
      TxnResult t;
      t.ok = r.ok && r.body.find("RECORD") != std::string::npos;
      t.latency = env_.sim->now() - start;
      t.over_air_bytes = r.over_air_bytes;
      done(std::move(t));
    });
  }

 private:
  AppEnvironment env_;
};

// ---------------------------------------------------------------------------
// 6. Inventory tracking and dispatching
// ---------------------------------------------------------------------------

class InventoryApp final : public Application {
 public:
  std::string name() const override { return "fleet-tracking"; }
  std::string category() const override {
    return "Inventory tracking and dispatching";
  }
  std::string major_application() const override {
    return "Product tracking and dispatching";
  }
  std::string clients() const override {
    return "Delivery services and transportation";
  }

  void install(AppEnvironment env) override {
    env_ = env;
    auto& db = *env.db;
    if (db.table("positions") == nullptr) {
      db.create_table("positions", {{"vehicle", ValueType::kText},
                                    {"x", ValueType::kReal},
                                    {"y", ValueType::kReal},
                                    {"cargo", ValueType::kText}});
    }
    // Vehicles report their GPS position (only feasible for *mobile*
    // commerce -- the paper's flagship MC-only example).
    env.programs->install("GET", "/track/report",
                          [](const HttpRequest& req,
                             host::AppServer::Context& ctx, auto respond) {
      const std::string vehicle{query_param(req.path(), "vehicle")};
      const std::string x{query_param(req.path(), "x")};
      const std::string y{query_param(req.path(), "y")};
      if (vehicle.empty()) {
        respond(HttpResponse::bad_request("no vehicle"));
        return;
      }
      auto finish = [respond](host::db::DbClient::Result r) mutable {
        respond(HttpResponse::make(
            200, "text/html",
            html_page("Track", r.ok ? "<p>REPORT-OK</p>"
                                    : "<p>REPORT-FAIL</p>")));
      };
      // Upsert: try update first, insert if missing; if the insert loses a
      // race with another reporter, fall back to update once more.
      ctx.db->update(0, "positions", vehicle, 1, x,
                     [vehicle, x, y, ctx, finish](
                         host::db::DbClient::Result r) mutable {
        if (r.ok) {
          ctx.db->update(0, "positions", vehicle, 2, y, std::move(finish));
          return;
        }
        ctx.db->insert(0, "positions", {vehicle, x, y, "parcels"},
                       [vehicle, y, ctx, finish](
                           host::db::DbClient::Result ins) mutable {
          if (ins.ok) {
            finish(std::move(ins));
            return;
          }
          ctx.db->update(0, "positions", vehicle, 2, y, std::move(finish));
        });
      });
    });
    env.programs->install("GET", "/track/locate",
                          [](const HttpRequest& req,
                             host::AppServer::Context& ctx, auto respond) {
      const std::string vehicle{query_param(req.path(), "vehicle")};
      ctx.db->get("positions", vehicle,
                  [respond](host::db::DbClient::Result r) mutable {
        if (!r.ok || r.rows.empty()) {
          respond(HttpResponse::make(
              200, "text/html", html_page("Track", "<p>UNKNOWN-VEHICLE</p>")));
          return;
        }
        respond(HttpResponse::make(
            200, "text/html",
            html_page("Track", sim::cat("<p>AT ", r.rows[0][1], ",",
                                        r.rows[0][2], "</p>"))));
      });
    });
  }

  void run_transaction(ClientDriver& client, const std::string& host,
                       std::uint64_t user_seq, TxnCallback done) override {
    const std::string vehicle =
        strf("van%llu", static_cast<unsigned long long>(user_seq % 6));
    const std::string url =
        host + strf("/track/report?vehicle=%s&x=%llu.0&y=%llu.0",
                    vehicle.c_str(),
                    static_cast<unsigned long long>(user_seq % 100),
                    static_cast<unsigned long long>(user_seq % 50));
    const sim::Time start = env_.sim->now();
    client.fetch(url, [this, &client, host, vehicle, start,
                       done = std::move(done)](FetchResult r1) mutable {
      if (!r1.ok || r1.body.find("REPORT-OK") == std::string::npos) {
        done(TxnResult{false, env_.sim->now() - start, r1.over_air_bytes,
                       "report failed"});
        return;
      }
      const std::size_t bytes0 = r1.over_air_bytes;
      client.fetch(host + "/track/locate?vehicle=" + vehicle,
                   [this, start, bytes0, done = std::move(done)](FetchResult r2) {
        TxnResult t;
        t.ok = r2.ok && r2.body.find("AT ") != std::string::npos;
        t.latency = env_.sim->now() - start;
        t.over_air_bytes = bytes0 + r2.over_air_bytes;
        done(std::move(t));
      });
    });
  }

 private:
  AppEnvironment env_;
};

// ---------------------------------------------------------------------------
// 7. Traffic: global positioning, directions, and traffic advisories
// ---------------------------------------------------------------------------

class TrafficApp final : public Application {
 public:
  std::string name() const override { return "traffic-advisories"; }
  std::string category() const override { return "Traffic"; }
  std::string major_application() const override {
    return "Global positioning, directions, and traffic advisories";
  }
  std::string clients() const override {
    return "Transportation and auto industries";
  }

  void install(AppEnvironment env) override {
    env_ = env;
    auto& db = *env.db;
    if (db.table("advisories") == nullptr) {
      db.create_table("advisories", {{"id", ValueType::kInt},
                                     {"zone", ValueType::kInt},
                                     {"text", ValueType::kText}});
      const char* kinds[] = {"congestion", "accident", "roadwork", "closure"};
      for (int i = 0; i < 32; ++i) {
        db.insert("advisories",
                  {std::int64_t{i}, std::int64_t{i % 8},
                   strf("%s on route %d", kinds[i % 4], 10 + i)});
      }
      db.table("advisories")->create_index(1);
    }
    env.programs->install("GET", "/traffic/advisories",
                          [](const HttpRequest& req,
                             host::AppServer::Context& ctx, auto respond) {
      // Position quantizes to a zone (the location-based-services bit).
      const double x = sim::to_double(query_param(req.path(), "x"));
      const double y = sim::to_double(query_param(req.path(), "y"));
      const int zone = (static_cast<int>(x / 100.0) +
                        static_cast<int>(y / 100.0) * 4) % 8;
      ctx.db->find_by("advisories", 1, strf("%d", zone),
                      [respond](host::db::DbClient::Result r) mutable {
        if (!r.ok) {
          respond(HttpResponse::server_error("db"));
          return;
        }
        std::string body;
        sim::BufWriter w{body};
        w.put("<p>ADVISORIES</p><ul>");
        for (std::size_t i = 0; i < r.rows.size(); ++i) {
          const auto row = r.rows[i];
          if (row.size() >= 3) w.put("<li>").put(row[2]).put("</li>");
        }
        w.put("</ul>");
        respond(HttpResponse::make(200, "text/html",
                                   html_page("Traffic", body)));
      });
    });
  }

  void run_transaction(ClientDriver& client, const std::string& host,
                       std::uint64_t user_seq, TxnCallback done) override {
    const sim::Time start = env_.sim->now();
    const std::string url =
        host + strf("/traffic/advisories?x=%llu.0&y=%llu.0",
                    static_cast<unsigned long long>((user_seq * 37) % 400),
                    static_cast<unsigned long long>((user_seq * 13) % 400));
    client.fetch(url, [this, start, done = std::move(done)](FetchResult r) {
      TxnResult t;
      t.ok = r.ok && r.body.find("ADVISORIES") != std::string::npos;
      t.latency = env_.sim->now() - start;
      t.over_air_bytes = r.over_air_bytes;
      done(std::move(t));
    });
  }

 private:
  AppEnvironment env_;
};

// ---------------------------------------------------------------------------
// 8. Travel and ticketing
// ---------------------------------------------------------------------------

class TravelApp final : public Application {
 public:
  std::string name() const override { return "travel-ticketing"; }
  std::string category() const override { return "Travel and ticketing"; }
  std::string major_application() const override {
    return "Travel management";
  }
  std::string clients() const override {
    return "Travel industry and ticket sales";
  }

  void install(AppEnvironment env) override {
    env_ = env;
    auto& db = *env.db;
    if (db.table("flights") == nullptr) {
      db.create_table("flights", {{"id", ValueType::kText},
                                  {"route", ValueType::kText},
                                  {"price", ValueType::kReal},
                                  {"seats", ValueType::kInt}});
      const char* routes[] = {"GRU-JFK", "NRT-SFO", "CDG-ORD", "SIN-LHR"};
      for (int i = 0; i < 12; ++i) {
        db.insert("flights",
                  {strf("FL%03d", 100 + i), std::string{routes[i % 4]},
                   199.0 + 25.0 * i, std::int64_t{40}});
      }
      db.table("flights")->create_index(1);
    }
    env.programs->install("GET", "/travel/search",
                          [](const HttpRequest& req,
                             host::AppServer::Context& ctx, auto respond) {
      const std::string route{query_param(req.path(), "route")};
      ctx.db->find_by("flights", 1, route,
                      [respond](host::db::DbClient::Result r) mutable {
        if (!r.ok) {
          respond(HttpResponse::server_error("db"));
          return;
        }
        std::string body;
        sim::BufWriter w{body};
        w.put("<p>FLIGHTS</p><ul>");
        for (std::size_t i = 0; i < r.rows.size(); ++i) {
          const auto row = r.rows[i];
          if (row.size() >= 4) {
            w.put("<li>").put(row[0]).put(" $").put(row[2]).put(" seats:")
                .put(row[3]).put("</li>");
          }
        }
        w.put("</ul>");
        respond(HttpResponse::make(200, "text/html",
                                   html_page("Search", body)));
      });
    });
    env.programs->install("GET", "/travel/book",
                          [this](const HttpRequest& req,
                                 host::AppServer::Context& ctx, auto respond) {
      const std::string flight{query_param(req.path(), "flight")};
      const std::string user{query_param(req.path(), "user")};
      const std::string key{query_param(req.path(), "key")};
      ctx.db->get("flights", flight, [this, flight, user, key, ctx, respond](
                                         host::db::DbClient::Result r) mutable {
        if (!r.ok || r.rows.empty()) {
          respond(HttpResponse::not_found(flight));
          return;
        }
        const double price = std::atof(r.rows[0][2].data());
        const auto seats = std::atoll(r.rows[0][3].data());
        if (seats <= 0) {
          respond(HttpResponse::make(
              409, "text/html", html_page("Booking", "<p>SOLD-OUT</p>")));
          return;
        }
        env_.payments->charge(
            key, user, price, "ticket " + flight,
            [flight, seats, ctx, respond](PaymentCoordinator::Outcome o) mutable {
          if (!o.ok) {
            respond(HttpResponse::make(
                402, "text/html",
                html_page("Booking", "<p>PAYMENT-FAIL " + o.failure + "</p>")));
            return;
          }
          ctx.db->update(0, "flights", flight, 3, strf("%lld", seats - 1),
                         [](host::db::DbClient::Result) {});
          respond(HttpResponse::make(
              200, "text/html",
              html_page("Ticket", "<p>TICKET-OK " + o.order_id + "</p>")));
        });
      });
    });
  }

  void run_transaction(ClientDriver& client, const std::string& host,
                       std::uint64_t user_seq, TxnCallback done) override {
    const char* routes[] = {"GRU-JFK", "NRT-SFO", "CDG-ORD", "SIN-LHR"};
    const std::string route = routes[user_seq % 4];
    const sim::Time start = env_.sim->now();
    client.fetch(host + "/travel/search?route=" + route,
                 [this, &client, host, user_seq, start,
                  done = std::move(done)](FetchResult r1) mutable {
      if (!r1.ok) {
        done(TxnResult{false, env_.sim->now() - start, r1.over_air_bytes,
                       "search failed"});
        return;
      }
      const std::string flight =
          strf("FL%03llu", static_cast<unsigned long long>(100 + user_seq % 12));
      const std::string user =
          strf("acct%llu", static_cast<unsigned long long>(user_seq % 8));
      const std::string key =
          strf("book-%llu", static_cast<unsigned long long>(user_seq));
      const std::size_t bytes0 = r1.over_air_bytes;
      client.fetch(host + "/travel/book?flight=" + flight + "&user=" + user +
                       "&key=" + key,
                   [this, start, bytes0, done = std::move(done)](FetchResult r2) {
        TxnResult t;
        t.ok = r2.ok && r2.body.find("TICKET-OK") != std::string::npos;
        t.latency = env_.sim->now() - start;
        t.over_air_bytes = bytes0 + r2.over_air_bytes;
        done(std::move(t));
      });
    });
  }

 private:
  AppEnvironment env_;
};

}  // namespace

std::unique_ptr<Application> make_commerce_app() {
  return std::make_unique<CommerceApp>();
}
std::unique_ptr<Application> make_education_app() {
  return std::make_unique<EducationApp>();
}
std::unique_ptr<Application> make_erp_app() {
  return std::make_unique<ErpApp>();
}
std::unique_ptr<Application> make_entertainment_app() {
  return std::make_unique<EntertainmentApp>();
}
std::unique_ptr<Application> make_health_care_app() {
  return std::make_unique<HealthCareApp>();
}
std::unique_ptr<Application> make_inventory_app() {
  return std::make_unique<InventoryApp>();
}
std::unique_ptr<Application> make_traffic_app() {
  return std::make_unique<TrafficApp>();
}
std::unique_ptr<Application> make_travel_app() {
  return std::make_unique<TravelApp>();
}

std::vector<std::unique_ptr<Application>> make_all_applications() {
  std::vector<std::unique_ptr<Application>> apps;
  apps.push_back(make_commerce_app());
  apps.push_back(make_education_app());
  apps.push_back(make_erp_app());
  apps.push_back(make_entertainment_app());
  apps.push_back(make_health_care_app());
  apps.push_back(make_inventory_app());
  apps.push_back(make_traffic_app());
  apps.push_back(make_travel_app());
  return apps;
}

void install_all(std::vector<std::unique_ptr<Application>>& apps,
                 const AppEnvironment& env) {
  for (auto& app : apps) app->install(env);
}

void seed_demo_accounts(PaymentProcessor& bank, int n, double balance) {
  for (int i = 0; i < n; ++i) {
    bank.open_account(sim::strf("acct%d", i), balance);
  }
}

AppEnvironment environment_for(McSystem& sys) {
  AppEnvironment env;
  env.sim = &sys.sim();
  env.web = &sys.web_server();
  env.programs = &sys.app_server();
  env.db = &sys.database();
  env.personalization = &sys.personalization();
  env.payments = &sys.payments();
  env.seed = sys.config().seed;
  return env;
}

AppEnvironment environment_for(EcSystem& sys) {
  AppEnvironment env;
  env.sim = &sys.sim();
  env.web = &sys.web_server();
  env.programs = &sys.app_server();
  env.db = &sys.database();
  env.personalization = &sys.personalization();
  env.payments = &sys.payments();
  env.seed = sys.config().seed;
  return env;
}

}  // namespace mcs::core
