// Integration tests: the full six-component MC system and the EC baseline.

#include "core/system.h"

#include <gtest/gtest.h>

#include <cstring>

#include "core/apps.h"
#include "net/network.h"

namespace mcs::core {
namespace {

TEST(McSystemTest, BuildsAllSixComponents) {
  sim::Simulator sim;
  McSystemConfig cfg;
  cfg.num_mobiles = 3;
  McSystem sys{sim, cfg};
  EXPECT_EQ(sys.mobile_count(), 3u);
  EXPECT_EQ(sys.cell().station_count(), 3u);
  EXPECT_NE(sys.gateway_node(), nullptr);
  EXPECT_NE(sys.web_node(), nullptr);
  EXPECT_NE(sys.db_node(), nullptr);
  EXPECT_NE(sys.backbone_link(), nullptr);
}

TEST(McSystemTest, StaticPageOverWapEndToEnd) {
  sim::Simulator sim;
  McSystem sys{sim};
  sys.web_server().add_content(
      "/hello", "text/html",
      "<html><head><title>Hi</title></head><body><p>mobile web</p></body>"
      "</html>");
  std::optional<station::MicroBrowser::PageResult> got;
  sys.mobile(0).browser->browse(sys.web_url("/hello"),
                                [&](auto r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_NE(got->content.find("mobile web"), std::string::npos);
  EXPECT_EQ(sys.wap_gateway().stats().requests, 1u);
}

TEST(McSystemTest, StaticPageOverImodeEndToEnd) {
  sim::Simulator sim;
  McSystemConfig cfg;
  cfg.middleware = station::BrowserMode::kImode;
  McSystem sys{sim, cfg};
  sys.web_server().add_content(
      "/hello", "text/html", "<html><body><p>imode page</p></body></html>");
  std::optional<station::MicroBrowser::PageResult> got;
  sys.mobile(0).browser->browse(sys.web_url("/hello"),
                                [&](auto r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_EQ(sys.imode_gateway().stats().requests, 1u);
}

TEST(McSystemTest, DynamicRouteHitsDatabaseServer) {
  sim::Simulator sim;
  McSystem sys{sim};
  sys.database().create_table("kv", {{"k", host::db::ValueType::kText},
                                     {"v", host::db::ValueType::kText}});
  sys.database().insert("kv", {std::string{"greeting"}, std::string{"hey"}});
  sys.app_server().install(
      "GET", "/kv",
      [](const host::HttpRequest& req, host::AppServer::Context& ctx,
         auto respond) {
        ctx.db->get("kv", std::string{host::query_param(req.path(), "k")},
                    [respond](host::db::DbClient::Result r) mutable {
          respond(host::HttpResponse::make(
              200, "text/html",
              "<p>" + (r.ok && !r.rows.empty() ? std::string{r.rows[0][1]}
                                               : std::string{"?"}) +
                  "</p>"));
        });
      });
  std::optional<station::MicroBrowser::PageResult> got;
  sys.mobile(0).browser->browse(sys.web_url("/kv?k=greeting"),
                                [&](auto r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_NE(got->content.find("hey"), std::string::npos);
  EXPECT_GT(sys.db_server().stats().counter("requests").value(), 0u);
}

TEST(EcSystemTest, DesktopClientFetchesPage) {
  sim::Simulator sim;
  EcSystem sys{sim};
  sys.web_server().add_content("/p", "text/html",
                               "<html><body><p>desktop</p></body></html>");
  std::optional<FetchResult> got;
  sys.client(0).driver->fetch(sys.web_url("/p"),
                              [&](FetchResult r) { got = r; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_NE(got->body.find("desktop"), std::string::npos);
  EXPECT_EQ(got->over_air_bytes, 0u);
}

TEST(EcVsMcTest, McPaysMiddlewareAndWirelessOverhead) {
  // The same page through both systems, with the MC radio being a 2.5G
  // cellular link (the paper: cellular bandwidth "less than 1 Mbps"). The
  // MC path must be slower: air serialization + gateway translation. (Over
  // 802.11b WAP can actually tie wired access -- WTP saves the TCP
  // handshake -- which the fig2 bench quantifies.)
  const std::string page =
      "<html><head><title>X</title></head><body><p>same content</p></body>"
      "</html>";
  sim::Simulator sim1;
  EcSystem ec{sim1};
  ec.web_server().add_content("/x", "text/html", page);
  sim::Time ec_latency;
  ec.client(0).driver->fetch(ec.web_url("/x"), [&](FetchResult r) {
    ASSERT_TRUE(r.ok);
    ec_latency = r.latency;
  });
  sim1.run();

  sim::Simulator sim2;
  McSystemConfig mcfg;
  mcfg.phy = wireless::gprs();
  McSystem mc{sim2, mcfg};
  mc.web_server().add_content("/x", "text/html", page);
  sim::Time mc_latency;
  mc.mobile(0).driver->fetch(mc.web_url("/x"), [&](FetchResult r) {
    ASSERT_TRUE(r.ok);
    mc_latency = r.latency;
  });
  sim2.run();

  EXPECT_GT(mc_latency, ec_latency);
}

struct PaymentFixture : public ::testing::Test {
  PaymentFixture() : sys{sim} {
    seed_demo_accounts(sys.bank(), 8, 1000.0);
  }
  sim::Simulator sim;
  McSystem sys;
};

TEST_F(PaymentFixture, ChargeMovesMoneyAndRecordsOrder) {
  std::optional<PaymentCoordinator::Outcome> got;
  sys.payments().charge("k1", "acct0", 250.0, "phone",
                        [&](PaymentCoordinator::Outcome o) { got = o; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok);
  EXPECT_FALSE(got->order_id.empty());
  EXPECT_DOUBLE_EQ(sys.bank().balance("acct0"), 750.0);
  EXPECT_EQ(sys.database().table("orders")->size(), 1u);
}

TEST_F(PaymentFixture, IdempotentRetryDoesNotDoubleCharge) {
  std::optional<PaymentCoordinator::Outcome> first, second;
  sys.payments().charge("same-key", "acct1", 100.0, "book",
                        [&](PaymentCoordinator::Outcome o) { first = o; });
  sim.run();
  sys.payments().charge("same-key", "acct1", 100.0, "book",
                        [&](PaymentCoordinator::Outcome o) { second = o; });
  sim.run();
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(first->ok);
  EXPECT_TRUE(second->ok);
  EXPECT_TRUE(second->duplicate);
  EXPECT_EQ(second->order_id, first->order_id);
  EXPECT_DOUBLE_EQ(sys.bank().balance("acct1"), 900.0);  // charged once
  EXPECT_EQ(sys.database().table("orders")->size(), 1u);
}

TEST_F(PaymentFixture, InsufficientFundsVotesNo) {
  std::optional<PaymentCoordinator::Outcome> got;
  sys.payments().charge("k2", "acct2", 99'999.0, "yacht",
                        [&](PaymentCoordinator::Outcome o) { got = o; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok);
  EXPECT_NE(got->failure.find("insufficient"), std::string::npos);
  EXPECT_DOUBLE_EQ(sys.bank().balance("acct2"), 1000.0);
  EXPECT_EQ(sys.bank().reservations_active(), 0u);
}

TEST_F(PaymentFixture, UnknownAccountFails) {
  std::optional<PaymentCoordinator::Outcome> got;
  sys.payments().charge("k3", "nobody", 10.0, "gum",
                        [&](PaymentCoordinator::Outcome o) { got = o; });
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(got->ok);
}

TEST_F(PaymentFixture, ConcurrentChargesRespectReservations) {
  // Two charges against a 1000-balance account, 600 each: exactly one can
  // win the reservation race.
  int ok = 0;
  int failed = 0;
  sys.payments().charge("c1", "acct3", 600.0, "a",
                        [&](PaymentCoordinator::Outcome o) {
                          o.ok ? ++ok : ++failed;
                        });
  sys.payments().charge("c2", "acct3", 600.0, "b",
                        [&](PaymentCoordinator::Outcome o) {
                          o.ok ? ++ok : ++failed;
                        });
  sim.run();
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(failed, 1);
  EXPECT_DOUBLE_EQ(sys.bank().balance("acct3"), 400.0);
}

// The coordinator's 2PC messages on the wire, golden, against a raw bank
// that votes yes for "k-1" and no for everything else.
TEST(PaymentWireTest, TwoPhaseCommitPostsMatchGoldenWireBytes) {
  sim::Simulator sim;
  net::Network network{sim, 5};
  net::Node* merchant = network.add_node("merchant");
  net::Node* bank = network.add_node("bank");
  network.connect(merchant, bank);
  network.compute_routes();
  transport::TcpStack merchant_tcp{*merchant};
  transport::TcpStack bank_tcp{*bank};
  std::string got;
  std::size_t answered = 0;
  std::vector<transport::TcpSocket::Ptr> accepted;
  bank_tcp.listen(80, [&](transport::TcpSocket::Ptr s) {
    transport::TcpSocket* raw = s.get();
    s->on_data = [&, raw](const std::string& bytes) {
      got += bytes;
      // Bodiless POSTs: one request per blank line.
      std::size_t pos = 0;
      for (std::size_t i = 0; i < answered; ++i) {
        pos = got.find("\r\n\r\n", pos) + 4;
      }
      for (std::size_t end; (end = got.find("\r\n\r\n", pos)) !=
                            std::string::npos;
           pos = end + 4, ++answered) {
        const std::string line = got.substr(pos, got.find("\r\n", pos) - pos);
        const char* body = line.find("/bank/prepare?txn=k-1&") !=
                                   std::string::npos
                               ? "VOTE-YES"
                           : line.find("/bank/prepare") != std::string::npos
                               ? "VOTE-NO:insufficient"
                               : "DONE";
        raw->send(sim::strf("HTTP/1.1 200 OK\r\nContent-Length: %zu\r\n"
                            "\r\n%s",
                            std::strlen(body), body));
      }
    };
    accepted.push_back(std::move(s));
  });
  host::HttpClient http{merchant_tcp};
  host::db::Database orders{"orders"};
  PaymentCoordinator coordinator{http, {bank->addr(), 80}, orders, sim};
  std::vector<PaymentCoordinator::Outcome> outcomes;
  coordinator.charge("k-1", "acct1", 12.5, "book",
                     [&](PaymentCoordinator::Outcome o) {
                       outcomes.push_back(std::move(o));
                     });
  sim.run();
  coordinator.charge("k-2", "acct2", 99.999, "yacht",
                     [&](PaymentCoordinator::Outcome o) {
                       outcomes.push_back(std::move(o));
                     });
  sim.run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].failure, "prepare-refused: VOTE-NO:insufficient");
  EXPECT_EQ(got,
            "POST /bank/prepare?txn=k-1&account=acct1&amount=12.50 HTTP/1.1"
            "\r\n\r\n"
            "POST /bank/commit?txn=k-1 HTTP/1.1\r\n\r\n"
            "POST /bank/prepare?txn=k-2&account=acct2&amount=100.00 HTTP/1.1"
            "\r\n\r\n"
            "POST /bank/abort?txn=k-2 HTTP/1.1\r\n\r\n");
}

// A lost COMMIT answer leaves the charge in doubt, not failed. A relay in
// front of a real bank passes the first COMMIT through, then drops the
// merchant's connection instead of relaying the bank's answer. The retry
// asks the bank again, which replays COMMITTED, and only then is the order
// recorded: money is conserved and exactly one order exists.
TEST(PaymentInDoubtTest, LostCommitAnswerIsRetriedNotCachedAsFailure) {
  sim::Simulator sim;
  net::Network network{sim, 5};
  net::Node* merchant = network.add_node("merchant");
  net::Node* relay = network.add_node("relay");
  net::Node* bank = network.add_node("bank");
  network.connect(merchant, relay);
  network.connect(relay, bank);
  network.compute_routes();
  transport::TcpStack merchant_tcp{*merchant};
  transport::TcpStack relay_tcp{*relay};
  transport::TcpStack bank_tcp{*bank};

  host::HttpServer bank_http{bank_tcp, 80};
  host::db::Database ledger{"bank"};
  PaymentProcessor processor{bank_http, ledger, sim};
  processor.open_account("acct1", 1000.0);

  // The relay: bodiless POSTs in, forwarded to the bank, answers back.
  host::HttpClient upstream{relay_tcp};
  bool drop_next_commit = true;
  std::vector<transport::TcpSocket::Ptr> accepted;
  relay_tcp.listen(80, [&](transport::TcpSocket::Ptr s) {
    auto in = std::make_shared<std::string>();
    transport::TcpSocket* raw = s.get();
    s->on_data = [&, in, raw](const std::string& bytes) {
      *in += bytes;
      for (std::size_t end; (end = in->find("\r\n\r\n")) !=
                            std::string::npos;) {
        // "POST <path> HTTP/1.1"
        const std::string line = in->substr(0, in->find("\r\n"));
        in->erase(0, end + 4);
        const std::size_t sp = line.find(' ');
        host::HttpRequest req;
        req.set_method("POST");
        req.set_path(line.substr(sp + 1, line.rfind(' ') - sp - 1));
        const bool drop =
            drop_next_commit && req.path().starts_with("/bank/commit");
        if (drop) drop_next_commit = false;
        upstream.request({bank->addr(), 80}, req,
                         [raw, drop](std::optional<host::HttpResponse> r) {
                           if (drop || !r.has_value()) {
                             raw->close();
                             return;
                           }
                           raw->send(r->serialize());
                         });
      }
    };
    accepted.push_back(std::move(s));
  });

  host::HttpClient http{merchant_tcp};
  host::db::Database orders{"shop"};
  PaymentCoordinator coordinator{http, {relay->addr(), 80}, orders, sim};
  auto charge = [&] {
    std::optional<PaymentCoordinator::Outcome> got;
    coordinator.charge("k-doubt", "acct1", 250.0, "phone",
                       [&](PaymentCoordinator::Outcome o) {
                         got = std::move(o);
                       });
    sim.run();
    return got;
  };

  const auto first = charge();
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(first->ok);
  EXPECT_EQ(first->failure, "commit-in-doubt");
  EXPECT_DOUBLE_EQ(processor.balance("acct1"), 750.0);  // the bank committed
  EXPECT_EQ(orders.table("orders")->size(), 0u);

  const auto retry = charge();
  ASSERT_TRUE(retry.has_value());
  EXPECT_TRUE(retry->ok) << retry->failure;
  EXPECT_FALSE(retry->duplicate);
  EXPECT_FALSE(retry->order_id.empty());

  const auto replay = charge();
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(replay->ok);
  EXPECT_TRUE(replay->duplicate);
  EXPECT_EQ(replay->order_id, retry->order_id);

  // Money is conserved: the account lost exactly what the one order holds.
  ASSERT_EQ(orders.table("orders")->size(), 1u);
  double ordered = 0.0;
  orders.table("orders")->for_each(
      [&](const host::db::Row& r) { ordered += std::get<double>(r[3]); });
  EXPECT_DOUBLE_EQ(processor.balance("acct1") + ordered, 1000.0);
  EXPECT_EQ(processor.stats().counter("commits").value(), 1u);
  EXPECT_EQ(processor.reservations_active(), 0u);

  // The bank replays COMMITTED only for a txn it committed: a COMMIT
  // after an ABORT is refused.
  std::vector<int> statuses;
  for (const char* path : {"/bank/abort?txn=k-gone", "/bank/commit?txn=k-gone",
                           "/bank/commit?txn=k-doubt"}) {
    host::HttpRequest req;
    req.set_method("POST");
    req.set_path(path);
    upstream.request({bank->addr(), 80}, req,
                     [&](std::optional<host::HttpResponse> r) {
                       statuses.push_back(r.has_value() ? r->status : 0);
                     });
    sim.run();
  }
  EXPECT_EQ(statuses, (std::vector<int>{200, 409, 200}));
}

TEST(PersonalizationTest, CatalogRankingFollowsInterests) {
  PersonalizationEngine eng;
  UserProfile alice;
  alice.user_id = "alice";
  alice.interests = {"music", "books"};
  alice.spending_limit = 100.0;
  eng.upsert_profile(alice);

  // One item per catalog row; `row` indexes `names`.
  const std::vector<std::string> names = {"TV", "Album", "Novel", "Yacht"};
  const std::vector<CatalogItem> rows = {
      {"electronics", 80.0, 0},
      {"music", 15.0, 1},
      {"books", 10.0, 2},
      {"boats", 5000.0, 3},
  };
  auto ranked = rows;
  eng.personalize_catalog("alice", ranked);
  ASSERT_EQ(ranked.size(), 3u);  // yacht filtered by spending limit
  EXPECT_EQ(names[ranked[0].row], "Album");
  EXPECT_EQ(names[ranked[1].row], "Novel");
  EXPECT_EQ(names[ranked[2].row], "TV");
  // Unknown user: untouched.
  auto unknown = rows;
  eng.personalize_catalog("bob", unknown);
  ASSERT_EQ(unknown.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(unknown[i].row, rows[i].row);
  }
}

TEST(PersonalizationTest, RecordInterestPromotesCategory) {
  PersonalizationEngine eng;
  UserProfile u;
  u.user_id = "u";
  u.interests = {"books", "music"};
  eng.upsert_profile(u);
  eng.record_interest("u", "travel");
  ASSERT_EQ(eng.profile("u")->interests.front(), "travel");
  eng.record_interest("u", "music");
  EXPECT_EQ(eng.profile("u")->interests.front(), "music");
  EXPECT_EQ(eng.profile("u")->interests.size(), 3u);
  EXPECT_TRUE(eng.forget("u"));
  EXPECT_EQ(eng.profile("u"), nullptr);
}

}  // namespace
}  // namespace mcs::core
