#include "security/wtls.h"

#include <gtest/gtest.h>

#include "sim/util.h"

namespace mcs::security {
namespace {

// A sealed record as an owned string, and an opened copy of one (the
// channel itself seals into a caller's writer and opens in place).
std::string seal(SecureChannel& ch, std::string_view plaintext) {
  std::string out;
  sim::BufWriter w{out};
  ch.seal(plaintext, w);
  return out;
}

std::optional<std::string> open(SecureChannel& ch, std::string record) {
  const auto plaintext = ch.open(sim::MutSlice{record.data(), record.size()});
  if (!plaintext.has_value()) return std::nullopt;
  return std::string{*plaintext};
}

// The record format with a byte-at-a-time keystream, as the channel
// generated it before it XORed whole words: the reference the word-at-a-time
// keystream must reproduce byte for byte.
class ByteKeystream {
 public:
  ByteKeystream(std::uint64_t secret, std::uint64_t nonce, int role)
      : state_{secret ^ (nonce * 0x9E3779B97F4A7C15ull) ^
               (static_cast<std::uint64_t>(role) << 62) ^
               0xD1B54A32D192ED03ull} {}
  char next() {
    if (byte_ == 0) {
      state_ ^= state_ << 13;
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
    }
    const char c = static_cast<char>((state_ >> (8 * byte_)) & 0xFF);
    byte_ = (byte_ + 1) & 7;
    return c;
  }

 private:
  std::uint64_t state_;
  int byte_ = 0;
};

std::string reference_seal(std::uint64_t secret, int role, std::uint32_t seq,
                           std::string_view plaintext) {
  std::string out;
  for (int shift = 24; shift >= 0; shift -= 8) {
    out += static_cast<char>(seq >> shift);
  }
  ByteKeystream ks{secret, seq, role};
  for (const char c : plaintext) out += static_cast<char>(c ^ ks.next());
  const std::uint64_t key = secret ^ static_cast<std::uint64_t>(role + 1);
  std::uint64_t mac = sim::fnv1a(&key, sizeof(key));
  mac = sim::fnv1a(out.data(), out.size(), mac);
  mac = sim::fnv1a(&key, sizeof(key), mac);
  for (int i = 7; i >= 0; --i) out += static_cast<char>((mac >> (8 * i)) & 0xFF);
  return out;
}

TEST(ModPowTest, KnownValues) {
  EXPECT_EQ(mod_pow(2, 10, 1'000'000), 1024u);
  EXPECT_EQ(mod_pow(3, 0, 7), 1u);
  EXPECT_EQ(mod_pow(5, 3, 13), 125 % 13);
  // Fermat: g^(p-1) == 1 mod p for prime p.
  EXPECT_EQ(mod_pow(kDhGenerator, kDhPrime - 1, kDhPrime), 1u);
}

TEST(DhTest, SharedSecretsAgree) {
  sim::Rng rng{7};
  const DhKeyPair a = dh_generate(rng);
  const DhKeyPair b = dh_generate(rng);
  EXPECT_NE(a.public_key, b.public_key);
  EXPECT_EQ(dh_shared_secret(a.private_key, b.public_key),
            dh_shared_secret(b.private_key, a.public_key));
}

TEST(CertificateTest, IssueVerifyAndTamper) {
  const std::uint64_t ca = 0xCA11AB1Eull;
  Certificate cert = issue_certificate("merchant.example", 12345, ca);
  EXPECT_TRUE(verify_certificate(cert, ca));
  EXPECT_FALSE(verify_certificate(cert, ca + 1));  // wrong CA
  Certificate forged = cert;
  forged.public_key = 99999;
  EXPECT_FALSE(verify_certificate(forged, ca));
  // Encode round trip.
  auto back = Certificate::decode(cert.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(verify_certificate(*back, ca));
  EXPECT_FALSE(Certificate::decode("junk").has_value());
}

TEST(SecureChannelTest, SealOpenRoundTrip) {
  SecureChannel alice{0x5EC12E7ull, 0};
  SecureChannel bob{0x5EC12E7ull, 1};
  const std::string msg = "PAY acct3 49.99 order-17";
  const std::string sealed = seal(alice, msg);
  EXPECT_NE(sealed.find(msg), 0u);  // not plaintext-prefixed
  EXPECT_EQ(sealed.size(), msg.size() + SecureChannel::kOverheadBytes);
  const auto opened = open(bob, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(SecureChannelTest, CiphertextDiffersFromPlaintext) {
  SecureChannel a{42, 0};
  const std::string msg(64, 'A');
  const std::string sealed = seal(a, msg);
  EXPECT_EQ(sealed.substr(4, msg.size()).find(msg), std::string::npos);
}

TEST(SecureChannelTest, TamperingIsDetected) {
  SecureChannel alice{999, 0};
  SecureChannel bob{999, 1};
  std::string sealed = seal(alice, "amount=10.00");
  sealed[8] = static_cast<char>(sealed[8] ^ 0x01);  // flip one payload bit
  EXPECT_FALSE(open(bob, sealed).has_value());
  EXPECT_EQ(bob.macs_rejected(), 1u);
}

TEST(SecureChannelTest, TruncationIsDetected) {
  SecureChannel alice{999, 0};
  SecureChannel bob{999, 1};
  std::string sealed = seal(alice, "hello");
  sealed.pop_back();
  EXPECT_FALSE(open(bob, sealed).has_value());
  EXPECT_FALSE(open(bob, "tiny").has_value());
}

TEST(SecureChannelTest, ReplayIsRejected) {
  SecureChannel alice{1234, 0};
  SecureChannel bob{1234, 1};
  const std::string s1 = seal(alice, "first");
  const std::string s2 = seal(alice, "second");
  EXPECT_TRUE(open(bob, s1).has_value());
  EXPECT_TRUE(open(bob, s2).has_value());
  EXPECT_FALSE(open(bob, s1).has_value());  // replayed
  EXPECT_EQ(bob.replays_rejected(), 1u);
}

TEST(SecureChannelTest, WrongKeyFailsToOpen) {
  SecureChannel alice{1111, 0};
  SecureChannel eve{2222, 1};
  EXPECT_FALSE(open(eve, seal(alice, "secret")).has_value());
}

TEST(SecureChannelTest, DirectionsUseDistinctKeystreams) {
  SecureChannel a{777, 0};
  SecureChannel b{777, 1};
  const std::string msg = "same plaintext";
  EXPECT_NE(seal(a, msg), seal(b, msg));
}

TEST(SecureChannelTest, WordKeystreamMatchesByteAtATimeGenerator) {
  sim::Rng rng{0x5EA1};
  for (int role = 0; role <= 1; ++role) {
    const std::uint64_t secret = rng.next_u64();
    SecureChannel sender{secret, role};
    SecureChannel receiver{secret, 1 - role};
    std::uint32_t seq = 0;
    for (int round = 0; round < 150; ++round) {
      // Skip ahead so sequence numbers spread beyond the first few.
      const auto skip = static_cast<int>(rng.uniform_int(0, 40));
      for (int i = 0; i < skip; ++i, ++seq) (void)seal(sender, "");
      std::string msg(static_cast<std::size_t>(rng.uniform_int(0, 3000)), '\0');
      for (char& c : msg) c = static_cast<char>(rng.uniform_int(0, 255));
      const std::string sealed = seal(sender, msg);
      ASSERT_EQ(sealed, reference_seal(secret, role, seq, msg))
          << "role " << role << " seq " << seq << " length " << msg.size();
      ++seq;
      receiver = SecureChannel{secret, 1 - role};  // accept any seq
      const auto opened = open(receiver, sealed);
      ASSERT_TRUE(opened.has_value());
      EXPECT_EQ(*opened, msg);
    }
  }
}

TEST(SecureChannelTest, SealsIntoTheCallersRecordAroundItsPlaintext) {
  SecureChannel alice{0xABCDull, 0};
  SecureChannel bob{0xABCDull, 1};
  std::string frame = "WTLS-DATA ";
  sim::BufWriter w{frame};
  const std::size_t record = alice.begin_seal(w);
  w.put("GET ").put("10.0.0.9:80/cart");
  alice.end_seal(w, record);
  EXPECT_EQ(frame.substr(0, 10), "WTLS-DATA ");
  EXPECT_EQ(frame.substr(10),
            reference_seal(0xABCDull, 0, 0, "GET 10.0.0.9:80/cart"));
  // Opened in place: the plaintext is a view into the frame's own bytes.
  const sim::MutSlice in_frame{frame.data() + 10, frame.size() - 10};
  const auto plaintext = bob.open(in_frame);
  ASSERT_TRUE(plaintext.has_value());
  EXPECT_EQ(*plaintext, "GET 10.0.0.9:80/cart");
  EXPECT_EQ(plaintext->data(), frame.data() + 14);
}

TEST(WtlsHandshakeTest, FullHandshakeEstablishesMatchingChannels) {
  const std::uint64_t ca = 0xAA55AA55ull;
  sim::Rng rng{3};
  // Server identity: static DH key + CA-signed certificate.
  DhKeyPair server_key = dh_generate(rng);
  Certificate cert = issue_certificate("shop", server_key.public_key, ca);

  WtlsHandshake client{WtlsHandshake::Role::kClient, rng.fork(), ca};
  WtlsHandshake server{WtlsHandshake::Role::kServer, rng.fork(), ca, cert,
                       server_key.private_key};

  const std::string hello = client.client_hello();
  const auto shello = server.on_client_hello(hello);
  ASSERT_TRUE(shello.has_value());
  const auto keyx = client.on_server_hello(*shello);
  ASSERT_TRUE(keyx.has_value());
  EXPECT_TRUE(server.on_client_key_exchange(*keyx));

  ASSERT_TRUE(client.established());
  ASSERT_TRUE(server.established());
  // Client -> server.
  auto opened = open(server.rx(), seal(client.tx(), "GET /cart"));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "GET /cart");
  // Server -> client.
  opened = open(client.rx(), seal(server.tx(), "200 OK"));
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "200 OK");
}

TEST(WtlsHandshakeTest, ForgedCertificateIsRejected) {
  const std::uint64_t ca = 0xAA55AA55ull;
  sim::Rng rng{5};
  DhKeyPair bogus_key = dh_generate(rng);
  // Signed by the WRONG ca key (an attacker's).
  Certificate forged = issue_certificate("shop", bogus_key.public_key, 0xBAD);

  WtlsHandshake client{WtlsHandshake::Role::kClient, rng.fork(), ca};
  WtlsHandshake server{WtlsHandshake::Role::kServer, rng.fork(), 0xBAD,
                       forged, bogus_key.private_key};
  const auto shello = server.on_client_hello(client.client_hello());
  ASSERT_TRUE(shello.has_value());
  EXPECT_FALSE(client.on_server_hello(*shello).has_value());
  EXPECT_FALSE(client.established());
}

}  // namespace
}  // namespace mcs::security
