#include "security/wtls.h"

#include <bit>
#include <cstring>

#include "sim/arena.h"
#include "sim/contract.h"
#include "sim/util.h"

namespace mcs::security {

std::uint64_t mod_pow(std::uint64_t base, std::uint64_t exp,
                      std::uint64_t mod) {
  // 61-bit modulus: products fit in unsigned __int128.
  unsigned __int128 result = 1;
  unsigned __int128 b = base % mod;
  while (exp > 0) {
    if (exp & 1) result = (result * b) % mod;
    b = (b * b) % mod;
    exp >>= 1;
  }
  return static_cast<std::uint64_t>(result);
}

DhKeyPair dh_generate(sim::Rng& rng) {
  DhKeyPair kp;
  kp.private_key = (rng.next_u64() % (kDhPrime - 2)) + 1;
  kp.public_key = mod_pow(kDhGenerator, kp.private_key, kDhPrime);
  return kp;
}

std::uint64_t dh_shared_secret(std::uint64_t my_private,
                               std::uint64_t their_public) {
  return mod_pow(their_public, my_private, kDhPrime);
}

namespace {

std::uint64_t keyed_mac(std::uint64_t key, std::string_view data) {
  // MAC(k, m) = FNV(k || m || k); keyed on both ends to resist extension.
  std::uint64_t h = sim::fnv1a(&key, sizeof(key));
  h = sim::fnv1a(data.data(), data.size(), h);
  return sim::fnv1a(&key, sizeof(key), h);
}

bool has_prefix(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}

// strtoull(.., 10) semantics over a view (handshake fields are produced by
// our own serializers, so signs/overflow never occur).
std::uint64_t parse_u64(std::string_view s) {
  std::size_t i = 0;
  while (i < s.size() && sim::is_ascii_space(s[i])) ++i;
  std::uint64_t v = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
  }
  return v;
}

// Split on ' ' exactly as sim::split would (empty fields count toward the
// total), capturing the first `cap` fields as views. Returns the full count.
std::size_t split_fields(std::string_view s, std::string_view* f,
                         std::size_t cap) {
  std::size_t nf = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ' ') {
      if (nf < cap) f[nf] = std::string_view{s.data() + start, i - start};
      ++nf;
      start = i + 1;
    }
  }
  return nf;
}

// Keyed-xorshift stream: the state advances once per 8 bytes, and the bytes
// of each state word are used little-end first. apply() XORs whole words and
// then the tail, so the output equals a byte-at-a-time generator's.
class Keystream {
 public:
  Keystream(std::uint64_t secret, std::uint64_t nonce, int sender_role)
      : state_{secret ^ (nonce * 0x9E3779B97F4A7C15ull) ^
               (static_cast<std::uint64_t>(sender_role) << 62) ^
               0xD1B54A32D192ED03ull} {}

  // XOR the stream into `p[0..n)`; called once per record.
  void apply(char* p, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const std::uint64_t k = step();
      if constexpr (std::endian::native == std::endian::little) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        w ^= k;
        std::memcpy(p + i, &w, 8);
      } else {
        xor_bytes(p + i, 8, k);
      }
    }
    if (i < n) xor_bytes(p + i, n - i, step());
  }

 private:
  std::uint64_t step() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }
  static void xor_bytes(char* p, std::size_t n, std::uint64_t k) {
    for (std::size_t b = 0; b < n; ++b) {
      p[b] = static_cast<char>(p[b] ^ static_cast<char>((k >> (8 * b)) & 0xFF));
    }
  }

  std::uint64_t state_;
};

std::uint64_t mac_key(std::uint64_t secret, int role) {
  return secret ^ static_cast<std::uint64_t>(role + 1);
}

}  // namespace

std::string Certificate::encode() const {
  return sim::cat("CERT ", subject, " ", sim::u64s(public_key), " ",
                  sim::u64s(signature));
}

std::optional<Certificate> Certificate::decode(std::string_view s) {
  std::string_view f[4];
  if (split_fields(s, f, 4) != 4 || f[0] != "CERT") return std::nullopt;
  Certificate c;
  c.subject.assign(f[1].data(), f[1].size());
  c.public_key = parse_u64(f[2]);
  c.signature = parse_u64(f[3]);
  return c;
}

Certificate issue_certificate(const std::string& subject,
                              std::uint64_t public_key, std::uint64_t ca_key) {
  Certificate c;
  c.subject = subject;
  c.public_key = public_key;
  c.signature = keyed_mac(ca_key, sim::cat(subject, "|", sim::u64s(public_key)));
  return c;
}

bool verify_certificate(const Certificate& cert, std::uint64_t ca_key) {
  return cert.signature ==
         keyed_mac(ca_key,
                   sim::cat(cert.subject, "|", sim::u64s(cert.public_key)));
}

// ---------------------------------------------------------------------------
// SecureChannel
// ---------------------------------------------------------------------------

SecureChannel::SecureChannel(std::uint64_t shared_secret, int sender_role)
    : secret_{shared_secret}, role_{sender_role} {}

void SecureChannel::seal(sim::Slice plaintext, sim::BufWriter& out) {
  out.need(plaintext.size() + kOverheadBytes);
  const std::size_t at = begin_seal(out);
  out.put(plaintext);
  end_seal(out, at);
}

std::size_t SecureChannel::begin_seal(sim::BufWriter& out) {
  const std::size_t at = out.size();
  const std::uint32_t seq = send_seq_++;
  out.ch(static_cast<char>(seq >> 24))
      .ch(static_cast<char>(seq >> 16))
      .ch(static_cast<char>(seq >> 8))
      .ch(static_cast<char>(seq));
  return at;
}

void SecureChannel::end_seal(sim::BufWriter& out, std::size_t record) {
  MCS_ASSERT(record + 4 <= out.size(),
             "end_seal needs the record begin_seal started in this buffer");
  std::string& buf = out.str();
  std::uint32_t seq = 0;
  for (std::size_t i = record; i < record + 4; ++i) {
    seq = (seq << 8) | static_cast<std::uint8_t>(buf[i]);
  }
  Keystream{secret_, seq, role_}.apply(buf.data() + record + 4,
                                       buf.size() - record - 4);
  const std::uint64_t mac = keyed_mac(
      mac_key(secret_, role_),
      std::string_view{buf.data() + record, buf.size() - record});
  for (int i = 7; i >= 0; --i) {
    out.ch(static_cast<char>((mac >> (8 * i)) & 0xFF));
  }
}

std::optional<sim::Slice> SecureChannel::open(sim::MutSlice record) {
  if (record.size() < kOverheadBytes) {
    ++bad_macs_;
    return std::nullopt;
  }
  const std::size_t macd = record.size() - 8;
  std::uint64_t mac = 0;
  for (std::size_t i = macd; i < record.size(); ++i) {
    mac = (mac << 8) | static_cast<std::uint8_t>(record[i]);
  }
  // The peer sealed with the opposite role.
  const int peer_role = 1 - role_;
  if (mac != keyed_mac(mac_key(secret_, peer_role),
                       std::string_view{record.data(), macd})) {
    ++bad_macs_;
    return std::nullopt;
  }
  std::uint32_t seq = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    seq = (seq << 8) | static_cast<std::uint8_t>(record[i]);
  }
  if (seq < recv_next_) {
    ++replays_;
    return std::nullopt;
  }
  recv_next_ = seq + 1;
  // Decrypt in place with the PEER's sending keystream.
  Keystream{secret_, seq, peer_role}.apply(record.data() + 4, macd - 4);
  return sim::Slice{record.data() + 4, macd - 4};
}

// ---------------------------------------------------------------------------
// WtlsHandshake
// ---------------------------------------------------------------------------

WtlsHandshake::WtlsHandshake(Role role, sim::Rng rng, std::uint64_t ca_key,
                             std::optional<Certificate> my_cert,
                             std::uint64_t my_private)
    : role_{role},
      rng_{rng},
      ca_key_{ca_key},
      cert_{std::move(my_cert)},
      my_private_{my_private} {}

std::string WtlsHandshake::client_hello() {
  ephemeral_ = dh_generate(rng_);
  return sim::cat("HELLO ", sim::u64s(ephemeral_.public_key));
}

std::optional<std::string> WtlsHandshake::on_client_hello(
    std::string_view msg) {
  if (role_ != Role::kServer || !cert_.has_value()) return std::nullopt;
  std::string_view f[2];
  if (split_fields(msg, f, 2) != 2 || f[0] != "HELLO") return std::nullopt;
  const std::uint64_t client_pub = parse_u64(f[1]);
  const std::uint64_t secret = dh_shared_secret(my_private_, client_pub);
  channel_ = SecureChannel{secret, /*sender_role=*/1};
  established_ = true;
  return sim::cat("SHELLO ", cert_->encode());
}

std::optional<std::string> WtlsHandshake::on_server_hello(
    std::string_view msg) {
  if (role_ != Role::kClient) return std::nullopt;
  if (!has_prefix(msg, "SHELLO ")) return std::nullopt;
  const auto cert =
      Certificate::decode(std::string_view{msg.data() + 7, msg.size() - 7});
  if (!cert.has_value() || !verify_certificate(*cert, ca_key_)) {
    return std::nullopt;  // authentication failure
  }
  const std::uint64_t secret =
      dh_shared_secret(ephemeral_.private_key, cert->public_key);
  channel_ = SecureChannel{secret, /*sender_role=*/0};
  established_ = true;
  return sim::cat("KEYX ", sim::u64s(ephemeral_.public_key));
}

bool WtlsHandshake::on_client_key_exchange(std::string_view msg) {
  // With a static server key the secret is already derived at SHELLO time;
  // the KEYX message exists for protocol-shape fidelity (and lets a server
  // double-check the client's public key).
  return role_ == Role::kServer && has_prefix(msg, "KEYX ") && established_;
}

}  // namespace mcs::security
