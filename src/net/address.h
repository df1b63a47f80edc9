#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace mcs::net {

using NodeId = std::uint32_t;

// IPv4-style address; value type, hashable, printable.
struct IpAddress {
  std::uint32_t v = 0;

  constexpr IpAddress() = default;
  constexpr explicit IpAddress(std::uint32_t raw) : v{raw} {}
  constexpr IpAddress(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                      std::uint8_t d)
      : v{(static_cast<std::uint32_t>(a) << 24) |
          (static_cast<std::uint32_t>(b) << 16) |
          (static_cast<std::uint32_t>(c) << 8) | d} {}

  constexpr bool is_unspecified() const { return v == 0; }
  friend constexpr auto operator<=>(IpAddress a, IpAddress b) = default;

  std::string to_string() const;
};

inline constexpr IpAddress kUnspecified{};

// "a.b.c.d:port" in a fixed buffer: an endpoint's text with no heap
// traffic. Converts to std::string_view (valid while this value lives).
struct EndpointText {
  char buf[24] = {};  // "255.255.255.255:65535" is 21 bytes
  unsigned char len = 0;
  // NOLINTNEXTLINE(runtime/explicit)
  operator std::string_view() const { return {buf, len}; }
};

// Address + port; identifies one transport endpoint.
struct Endpoint {
  IpAddress addr;
  std::uint16_t port = 0;

  friend constexpr auto operator<=>(const Endpoint&, const Endpoint&) = default;
  std::string to_string() const;
  EndpointText text() const;
};

}  // namespace mcs::net

template <>
struct std::hash<mcs::net::IpAddress> {
  std::size_t operator()(mcs::net::IpAddress a) const noexcept {
    return std::hash<std::uint32_t>{}(a.v);
  }
};

template <>
struct std::hash<mcs::net::Endpoint> {
  std::size_t operator()(const mcs::net::Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(e.addr.v) << 16) | e.port);
  }
};
