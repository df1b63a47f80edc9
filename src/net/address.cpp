#include "net/address.h"

#include "sim/arena.h"

namespace mcs::net {

namespace {

void append_ip(sim::BufWriter& w, IpAddress a) {
  w.u64((a.v >> 24) & 0xff)
      .ch('.')
      .u64((a.v >> 16) & 0xff)
      .ch('.')
      .u64((a.v >> 8) & 0xff)
      .ch('.')
      .u64(a.v & 0xff);
}

}  // namespace

std::string IpAddress::to_string() const {
  return sim::build(15, [&](std::string& out) {
    sim::BufWriter w{out};
    append_ip(w, *this);
  });
}

std::string Endpoint::to_string() const { return sim::cat(text()); }

EndpointText Endpoint::text() const {
  EndpointText out;
  const auto put = [&out](std::string_view s) {
    for (const char c : s) out.buf[out.len++] = c;
  };
  for (int shift = 24; shift >= 0; shift -= 8) {
    put(sim::u64s((addr.v >> shift) & 0xff));
    if (shift > 0) put(".");
  }
  put(":");
  put(sim::u64s(port));
  return out;
}

}  // namespace mcs::net
