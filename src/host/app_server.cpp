#include "host/app_server.h"

#include "sim/arena.h"

namespace mcs::host {

std::string query_param(const std::string& path, const std::string& key) {
  // Scan "k=v&k=v" in place: only the matched value becomes a string, and
  // the first pair whose key matches wins. A pair without '=' never matches.
  const std::size_t q = path.find('?');
  if (q == std::string::npos) return "";
  const sim::Slice qs = sim::Slice{path}.substr(q + 1);
  std::size_t start = 0;
  while (start <= qs.size()) {
    std::size_t end = qs.find('&', start);
    if (end == sim::Slice::npos) end = qs.size();
    const sim::Slice pair = qs.substr(start, end - start);
    const std::size_t eq = pair.find('=');
    if (eq != sim::Slice::npos && pair.substr(0, eq) == key) {
      return std::string{pair.substr(eq + 1)};
    }
    start = end + 1;
  }
  return "";
}

std::string path_without_query(const std::string& path) {
  const std::size_t q = path.find('?');
  return q == std::string::npos ? path : path.substr(0, q);
}

}  // namespace mcs::host
