// Every Table 1 application runs an end-to-end transaction over the full MC
// system (parameterised) and over the EC baseline.

#include "core/apps.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "sim/util.h"

namespace mcs::core {
namespace {

AppEnvironment env_for_mc(McSystem& sys, sim::Simulator& sim) {
  AppEnvironment env;
  env.sim = &sim;
  env.web = &sys.web_server();
  env.programs = &sys.app_server();
  env.db = &sys.database();
  env.personalization = &sys.personalization();
  env.payments = &sys.payments();
  env.seed = 11;
  return env;
}

AppEnvironment env_for_ec(EcSystem& sys, sim::Simulator& sim) {
  AppEnvironment env;
  env.sim = &sim;
  env.web = &sys.web_server();
  env.programs = &sys.app_server();
  env.db = &sys.database();
  env.personalization = &sys.personalization();
  env.payments = &sys.payments();
  env.seed = 11;
  return env;
}

TEST(AppCatalogTest, HasAllEightTable1Rows) {
  const auto apps = make_all_applications();
  ASSERT_EQ(apps.size(), 8u);
  EXPECT_EQ(apps[0]->category(), "Commerce");
  EXPECT_EQ(apps[1]->category(), "Education");
  EXPECT_EQ(apps[2]->category(), "Enterprise resource planning");
  EXPECT_EQ(apps[3]->category(), "Entertainment");
  EXPECT_EQ(apps[4]->category(), "Health care");
  EXPECT_EQ(apps[5]->category(), "Inventory tracking and dispatching");
  EXPECT_EQ(apps[6]->category(), "Traffic");
  EXPECT_EQ(apps[7]->category(), "Travel and ticketing");
  for (const auto& app : apps) {
    EXPECT_FALSE(app->name().empty());
    EXPECT_FALSE(app->major_application().empty());
    EXPECT_FALSE(app->clients().empty());
  }
}

// One MC transaction per application, over WAP.
class McAppParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(McAppParamTest, TransactionSucceedsOverWapSystem) {
  sim::Simulator sim;
  McSystem sys{sim};
  seed_demo_accounts(sys.bank());
  auto apps = make_all_applications();
  install_all(apps, env_for_mc(sys, sim));
  Application& app = *apps[GetParam()];

  std::optional<Application::TxnResult> got;
  app.run_transaction(*sys.mobile(0).driver, sys.web_url(""), 1,
                      [&](Application::TxnResult r) { got = r; });
  sim.run_until(sim::Time::minutes(2.0));
  ASSERT_TRUE(got.has_value()) << app.name();
  EXPECT_TRUE(got->ok) << app.name() << ": " << got->detail;
  EXPECT_GT(got->latency, sim::Time::zero());
  EXPECT_GT(got->over_air_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllApps, McAppParamTest,
                         ::testing::Range<std::size_t>(0, 8),
                         [](const auto& tinfo) {
                           std::string n =
                               make_all_applications()[tinfo.param]->name();
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// Same transactions over the EC baseline (desktop + wired).
class EcAppParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EcAppParamTest, TransactionSucceedsOverEcSystem) {
  sim::Simulator sim;
  EcSystem sys{sim};
  seed_demo_accounts(sys.bank());
  auto apps = make_all_applications();
  install_all(apps, env_for_ec(sys, sim));
  Application& app = *apps[GetParam()];

  std::optional<Application::TxnResult> got;
  app.run_transaction(*sys.client(0).driver, sys.web_url(""), 1,
                      [&](Application::TxnResult r) { got = r; });
  sim.run_until(sim::Time::minutes(2.0));
  ASSERT_TRUE(got.has_value()) << app.name();
  EXPECT_TRUE(got->ok) << app.name() << ": " << got->detail;
}

INSTANTIATE_TEST_SUITE_P(AllApps, EcAppParamTest,
                         ::testing::Range<std::size_t>(0, 8),
                         [](const auto& tinfo) {
                           std::string n =
                               make_all_applications()[tinfo.param]->name();
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(AppSequencesTest, CommerceTransactionsUpdateStockAndBalance) {
  sim::Simulator sim;
  McSystem sys{sim};
  seed_demo_accounts(sys.bank());
  auto apps = make_all_applications();
  install_all(apps, env_for_mc(sys, sim));
  Application& shop = *apps[0];

  int ok = 0;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    shop.run_transaction(*sys.mobile(0).driver, sys.web_url(""), seq,
                         [&](Application::TxnResult r) {
                           if (r.ok) ++ok;
                         });
    sim.run_until(sim.now() + sim::Time::minutes(1.0));
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(sys.database().table("orders")->size(), 3u);
  // Some account paid for each purchase.
  double total = 0.0;
  for (int i = 0; i < 8; ++i) {
    total += sys.bank().balance(sim::strf("acct%d", i));
  }
  EXPECT_LT(total, 8e6);
}

TEST(AppSequencesTest, InventoryReportsAreReadableByDispatch) {
  sim::Simulator sim;
  McSystem sys{sim};
  McSystemConfig cfg;
  auto apps = make_all_applications();
  install_all(apps, env_for_mc(sys, sim));
  Application& track = *apps[5];

  // Two vehicles report, then we locate one of them.
  int ok = 0;
  track.run_transaction(*sys.mobile(0).driver, sys.web_url(""), 7,
                        [&](Application::TxnResult r) {
                          if (r.ok) ++ok;
                        });
  sim.run_until(sim::Time::minutes(1.0));
  track.run_transaction(*sys.mobile(0).driver, sys.web_url(""), 14,
                        [&](Application::TxnResult r) {
                          if (r.ok) ++ok;
                        });
  sim.run_until(sim::Time::minutes(2.0));
  EXPECT_EQ(ok, 2);
  EXPECT_GE(sys.database().table("positions")->size(), 2u);
}

// The catalog page is rendered from views of the DB client's result, with
// the personaliser ranking lightweight items. The reference below renders
// it the way the typed path did: each row re-typed from its wire text
// (to_string() of the cell, parsed back as the column's type, so prices
// are the %.6g values the client sees), ranked by a stable sort on
// (interest rank, price) and printed with to_string().
std::string reference_catalog(const host::db::Table& products,
                              const PersonalizationEngine& eng,
                              const std::string& user) {
  using host::db::Row;
  std::vector<Row> rows;
  products.for_each([&](const Row& r) {
    Row typed;
    for (std::size_t c = 0; c < r.size(); ++c) {
      typed.push_back(host::db::parse_value(host::db::to_string(r[c]),
                                            products.columns()[c].type));
    }
    rows.push_back(std::move(typed));
  });
  if (const UserProfile* p = eng.profile(user); p != nullptr) {
    auto rank = [p](const Row& r) {
      const auto& c = std::get<std::string>(r[2]);
      for (std::size_t i = 0; i < p->interests.size(); ++i) {
        if (p->interests[i] == c) return i;
      }
      return p->interests.size();
    };
    std::erase_if(rows, [&](const Row& r) {
      return std::get<double>(r[3]) > p->spending_limit;
    });
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Row& a, const Row& b) {
                       if (rank(a) != rank(b)) return rank(a) < rank(b);
                       return std::get<double>(a[3]) < std::get<double>(b[3]);
                     });
  }
  std::string body = "<ul>";
  for (std::size_t i = 0; i < rows.size() && i < 10; ++i) {
    body += "<li><a href=\"/shop/buy?item=" + host::db::to_string(rows[i][0]) +
            "\">" + host::db::to_string(rows[i][1]) + " ($" +
            host::db::to_string(rows[i][3]) + ")</a></li>";
  }
  body += "</ul>";
  return "<html><head><title>Catalog</title></head><body><h1>Catalog</h1>" +
         body + "</body></html>";
}

TEST(CatalogPageTest, ByteIdenticalToTypedRowRenderingForEveryDemoUser) {
  sim::Simulator sim;
  EcSystem sys{sim};
  seed_demo_accounts(sys.bank());
  auto apps = make_all_applications();
  install_all(apps, env_for_ec(sys, sim));
  // Two products share a category and a price, so the ranking's tie-break
  // (result order) shows; one name needs escaping on the wire.
  auto& db = sys.database();
  ASSERT_TRUE(db.update("products", host::db::Value{std::int64_t{9}}, 3,
                        host::db::Value{24.99}));
  ASSERT_TRUE(db.update("products", host::db::Value{std::int64_t{7}}, 1,
                        host::db::Value{std::string{"Odd | 100% name"}}));
  // Six demo users with profiles, two (acct6, acct7) unknown: passthrough.
  const std::vector<std::vector<std::string>> interests = {
      {"music", "books"}, {"books"}, {"travel", "electronics", "music"},
      {}, {"electronics"}, {"books", "music", "travel", "electronics"}};
  const double limits[] = {1e18, 40.0, 60.0, 30.0, 1e18, 20.0};
  for (std::size_t i = 0; i < interests.size(); ++i) {
    UserProfile u;
    u.user_id = sim::strf("acct%zu", i);
    u.interests = interests[i];
    u.spending_limit = limits[i];
    sys.personalization().upsert_profile(u);
  }

  for (int i = 0; i < 8; ++i) {
    const std::string user = sim::strf("acct%d", i);
    std::optional<FetchResult> got;
    sys.client(0).driver->fetch(sys.web_url("/shop/catalog?user=" + user),
                                [&](FetchResult r) { got = std::move(r); });
    sim.run_until(sim.now() + sim::Time::minutes(1.0));
    ASSERT_TRUE(got.has_value()) << user;
    ASSERT_TRUE(got->ok) << user;
    EXPECT_EQ(got->raw, reference_catalog(*db.table("products"),
                                          sys.personalization(), user))
        << user;
  }
}

}  // namespace
}  // namespace mcs::core
