// Property sweeps over the core layer: security-channel invariants under
// random tampering, payment-engine accounting invariants under concurrent
// storms, and whole-system determinism.

#include <gtest/gtest.h>

#include "core/apps.h"
#include "security/wtls.h"
#include "sim/util.h"

namespace mcs::core {
namespace {

std::string seal(security::SecureChannel& ch, std::string_view plaintext) {
  std::string out;
  sim::BufWriter w{out};
  ch.seal(plaintext, w);
  return out;
}

std::optional<std::string> open(security::SecureChannel& ch,
                                std::string record) {
  const auto plaintext = ch.open(sim::MutSlice{record.data(), record.size()});
  if (!plaintext.has_value()) return std::nullopt;
  return std::string{*plaintext};
}

// --- SecureChannel under random messages and mutations ------------------------

class SecureChannelSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SecureChannelSweep, RoundTripsArbitraryBinaryMessages) {
  sim::Rng rng{GetParam()};
  const security::DhKeyPair a = security::dh_generate(rng);
  const security::DhKeyPair b = security::dh_generate(rng);
  security::SecureChannel alice{security::dh_shared_secret(a.private_key, b.public_key), 0};
  security::SecureChannel bob{security::dh_shared_secret(b.private_key, a.public_key), 1};
  for (int round = 0; round < 50; ++round) {
    std::string msg;
    const int len = static_cast<int>(rng.uniform_int(0, 500));
    for (int i = 0; i < len; ++i) {
      msg += static_cast<char>(rng.uniform_int(0, 255));
    }
    const auto opened = open(bob, seal(alice, msg));
    ASSERT_TRUE(opened.has_value()) << "round " << round;
    EXPECT_EQ(*opened, msg);
  }
}

TEST_P(SecureChannelSweep, AnySingleByteMutationIsRejected) {
  sim::Rng rng{GetParam() ^ 0xF00D};
  security::SecureChannel alice{0x1234567890ABCDEFull, 0};
  security::SecureChannel bob{0x1234567890ABCDEFull, 1};
  for (int round = 0; round < 100; ++round) {
    const std::string msg = sim::strf("payment %d for $%lld", round,
                                      static_cast<long long>(
                                          rng.uniform_int(1, 10000)));
    std::string sealed = seal(alice, msg);
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(sealed.size() - 1)));
    const auto bit = static_cast<char>(1 << rng.uniform_int(0, 7));
    sealed[pos] = static_cast<char>(sealed[pos] ^ bit);
    EXPECT_FALSE(open(bob, sealed).has_value())
        << "mutation at byte " << pos << " accepted";
    // The genuine message must still be accepted afterwards.
    ASSERT_TRUE(open(bob, seal(alice, "resend:" + msg)).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SecureChannelSweep,
                         ::testing::Values(301, 302, 303));

// --- Payment engine accounting invariants --------------------------------------

class PaymentStorm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaymentStorm, MoneyIsConservedUnderConcurrentCharges) {
  const std::uint64_t seed = GetParam();
  sim::Simulator sim;
  McSystem sys{sim};
  constexpr double kInitial = 500.0;
  constexpr int kAccounts = 4;
  for (int i = 0; i < kAccounts; ++i) {
    sys.bank().open_account(sim::strf("acct%d", i), kInitial);
  }

  sim::Rng rng{seed};
  double charged_ok = 0.0;
  int outcomes = 0;
  constexpr int kCharges = 60;
  for (int i = 0; i < kCharges; ++i) {
    const std::string account =
        sim::strf("acct%lld", static_cast<long long>(rng.uniform_int(0, 3)));
    const double amount = static_cast<double>(rng.uniform_int(10, 300));
    sys.payments().charge(
        sim::strf("storm-%llu-%d", static_cast<unsigned long long>(seed), i),
        account, amount, "item",
        [&, amount](PaymentCoordinator::Outcome o) {
          ++outcomes;
          if (o.ok && !o.duplicate) charged_ok += amount;
        });
    // Random pacing: some charges overlap, some do not.
    sim.run_for(sim::Time::millis(rng.uniform_int(0, 120)));
  }
  sim.run();
  EXPECT_EQ(outcomes, kCharges);

  double remaining = 0.0;
  for (int i = 0; i < kAccounts; ++i) {
    const double bal = sys.bank().balance(sim::strf("acct%d", i));
    EXPECT_GE(bal, -1e-9) << "account overdrawn";
    remaining += bal;
  }
  // Conservation: what left the accounts equals what was charged.
  EXPECT_NEAR(kAccounts * kInitial - remaining, charged_ok, 1e-6);
  // Every successful charge produced exactly one order row.
  EXPECT_EQ(sys.bank().reservations_active(), 0u);
}

TEST_P(PaymentStorm, RetriesNeverDoubleCharge) {
  const std::uint64_t seed = GetParam();
  sim::Simulator sim;
  McSystem sys{sim};
  sys.bank().open_account("acct", 10'000.0);
  sim::Rng rng{seed};
  constexpr int kKeys = 15;
  int oks = 0;
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = sim::strf("retry-key-%d", k);
    const int attempts = static_cast<int>(rng.uniform_int(1, 4));
    for (int a = 0; a < attempts; ++a) {
      sys.payments().charge(key, "acct", 100.0, "thing",
                            [&](PaymentCoordinator::Outcome o) {
                              if (o.ok && !o.duplicate) ++oks;
                            });
      sim.run_for(sim::Time::seconds(rng.bernoulli(0.5) ? 0.0 : 2.0));
    }
    sim.run();
  }
  sim.run();
  EXPECT_EQ(oks, kKeys);  // one real charge per key, ever
  EXPECT_DOUBLE_EQ(sys.bank().balance("acct"), 10'000.0 - kKeys * 100.0);
  EXPECT_EQ(sys.database().table("orders")->size(),
            static_cast<std::size_t>(kKeys));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaymentStorm, ::testing::Values(41, 42, 43));

// --- Whole-system determinism ----------------------------------------------------

struct RunSignature {
  std::vector<std::int64_t> latencies_ns;
  std::uint64_t radio_bytes = 0;
  double money = 0.0;
};

RunSignature run_fixed_workload(std::uint64_t seed) {
  sim::Simulator sim;
  McSystemConfig cfg;
  cfg.seed = seed;
  cfg.num_mobiles = 2;
  McSystem sys{sim, cfg};
  seed_demo_accounts(sys.bank());
  auto apps = make_all_applications();
  AppEnvironment env;
  env.sim = &sim;
  env.web = &sys.web_server();
  env.programs = &sys.app_server();
  env.db = &sys.database();
  env.personalization = &sys.personalization();
  env.payments = &sys.payments();
  env.seed = seed;
  install_all(apps, env);

  RunSignature sig;
  for (std::uint64_t i = 1; i <= 6; ++i) {
    Application& app = *apps[i % apps.size()];
    app.run_transaction(*sys.mobile(i % 2).driver, sys.web_url(""), i,
                        [&](Application::TxnResult r) {
                          sig.latencies_ns.push_back(r.latency.ns());
                        });
    sim.run_until(sim.now() + sim::Time::minutes(1.0));
  }
  sim.run();
  sig.radio_bytes = sys.cell().stats().counter("delivered_bytes").value();
  for (int i = 0; i < 8; ++i) {
    sig.money += sys.bank().balance(sim::strf("acct%d", i));
  }
  return sig;
}

TEST(DeterminismTest, SameSeedSameRunExactly) {
  const RunSignature a = run_fixed_workload(12345);
  const RunSignature b = run_fixed_workload(12345);
  EXPECT_EQ(a.latencies_ns, b.latencies_ns);
  EXPECT_EQ(a.radio_bytes, b.radio_bytes);
  EXPECT_DOUBLE_EQ(a.money, b.money);
}

}  // namespace
}  // namespace mcs::core
