#include "host/app_server.h"

#include "sim/arena.h"

namespace mcs::host {

sim::Slice query_param(sim::Slice path, sim::Slice key) {
  // Scan "k=v&k=v" in place; a pair without '=' never matches.
  const std::size_t q = path.find('?');
  if (q == sim::Slice::npos) return {};
  const sim::Slice qs = path.substr(q + 1);
  std::size_t start = 0;
  while (start <= qs.size()) {
    std::size_t end = qs.find('&', start);
    if (end == sim::Slice::npos) end = qs.size();
    const sim::Slice pair = qs.substr(start, end - start);
    const std::size_t eq = pair.find('=');
    if (eq != sim::Slice::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    start = end + 1;
  }
  return {};
}

sim::Slice path_without_query(sim::Slice path) {
  return path.substr(0, path.find('?'));
}

}  // namespace mcs::host
