#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "sim/arena.h"
#include "sim/random.h"

namespace mcs::security {

// WTLS-style security layer (§8: "Security issues (including payment)
// include data reliability, integrity, confidentiality, and authentication").
//
// SIMULATION-GRADE ONLY: the key exchange is Diffie-Hellman in a 61-bit
// prime group, the cipher is a keyed-xorshift keystream, and the MAC is a
// keyed FNV construction. This exercises the real code paths and byte
// overheads of a secure session (handshake round trip, per-message MAC
// trailer, sequence numbers for replay protection) but is NOT
// cryptographically secure and must never protect real data.

// Group parameters (2^61-1 is prime; generator 3).
inline constexpr std::uint64_t kDhPrime = 2305843009213693951ull;
inline constexpr std::uint64_t kDhGenerator = 3;

std::uint64_t mod_pow(std::uint64_t base, std::uint64_t exp,
                      std::uint64_t mod);

struct DhKeyPair {
  std::uint64_t private_key = 0;
  std::uint64_t public_key = 0;
};
DhKeyPair dh_generate(sim::Rng& rng);
std::uint64_t dh_shared_secret(std::uint64_t my_private,
                               std::uint64_t their_public);

// A toy certificate: identity + public key, "signed" by a CA MAC key that
// both sides share out of band (models a pre-installed root certificate).
struct Certificate {
  std::string subject;
  std::uint64_t public_key = 0;
  std::uint64_t signature = 0;

  std::string encode() const;
  static std::optional<Certificate> decode(std::string_view s);
};
Certificate issue_certificate(const std::string& subject,
                              std::uint64_t public_key,
                              std::uint64_t ca_key);
bool verify_certificate(const Certificate& cert, std::uint64_t ca_key);

// Authenticated-encryption channel derived from a DH shared secret. Each
// sealed message carries a 4-byte sequence number and an 8-byte MAC; open()
// rejects tampering, truncation and replays.
class SecureChannel {
 public:
  // `sender_role` disambiguates the two keystream directions (client=0,
  // server=1) so the two sides never reuse a keystream.
  SecureChannel(std::uint64_t shared_secret, int sender_role);

  // A record is seq(4) || ciphertext || mac(8), built and opened where it
  // lies (DESIGN.md §12.2). seal() appends the record for `plaintext` to
  // `out`. When the plaintext is itself being serialized, bracket that
  // serialization instead, so it is written once, straight into the record:
  //   const std::size_t at = ch.begin_seal(out);
  //   ... append the plaintext to out ...
  //   ch.end_seal(out, at);
  void seal(sim::Slice plaintext, sim::BufWriter& out);
  std::size_t begin_seal(sim::BufWriter& out);
  void end_seal(sim::BufWriter& out, std::size_t record);
  // Verifies `record` and decrypts it in place. The plaintext is a view into
  // `record`; nullopt (bytes untouched) on tampering, truncation or replay.
  std::optional<sim::Slice> open(sim::MutSlice record);

  static constexpr std::size_t kOverheadBytes = 12;  // seq(4) + mac(8)
  std::uint32_t messages_sealed() const { return send_seq_; }
  std::uint64_t replays_rejected() const { return replays_; }
  std::uint64_t macs_rejected() const { return bad_macs_; }

 private:
  std::uint64_t secret_ = 0;
  int role_ = 0;
  std::uint32_t send_seq_ = 0;
  std::uint32_t recv_next_ = 0;
  std::uint64_t replays_ = 0;
  std::uint64_t bad_macs_ = 0;
};

// One WTLS-like handshake driven through opaque messages the caller
// transports (over WTP, TCP, anything):
//   client_hello -> server_hello(cert, server_pub) -> client_key_exchange
// After finish(), both sides hold matching SecureChannels.
class WtlsHandshake {
 public:
  enum class Role { kClient, kServer };

  WtlsHandshake(Role role, sim::Rng rng, std::uint64_t ca_key,
                std::optional<Certificate> my_cert = std::nullopt,
                std::uint64_t my_private = 0);

  // Client: produce the first message.
  std::string client_hello();
  // Server: consume hello, produce server_hello. nullopt = refuse.
  std::optional<std::string> on_client_hello(std::string_view msg);
  // Client: consume server_hello (verifies the certificate), produce the
  // key-exchange message and derive keys. nullopt = handshake failed.
  std::optional<std::string> on_server_hello(std::string_view msg);
  // Server: consume key exchange, derive keys.
  bool on_client_key_exchange(std::string_view msg);

  bool established() const { return established_; }
  // Valid once established: this party's bidirectional channel (seals with
  // its own role, opens the peer's).
  SecureChannel& channel() { return *channel_; }
  SecureChannel& tx() { return *channel_; }
  SecureChannel& rx() { return *channel_; }

 private:
  Role role_;
  sim::Rng rng_;
  std::uint64_t ca_key_ = 0;
  std::optional<Certificate> cert_;
  std::uint64_t my_private_ = 0;
  DhKeyPair ephemeral_;
  bool established_ = false;
  std::optional<SecureChannel> channel_;
};

}  // namespace mcs::security
