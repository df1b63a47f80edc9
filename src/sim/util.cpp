#include "sim/util.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mcs::sim {

std::string vstrf(const char* fmt, std::va_list ap) {
  std::va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string strf(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::string out = vstrf(fmt, ap);
  va_end(ap);
  return out;
}

std::string human_bytes(std::uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  return u == 0 ? strf("%llu B", static_cast<unsigned long long>(bytes))
                : strf("%.1f %s", v, units[u]);
}

std::string human_rate(double bits_per_second) {
  const char* units[] = {"bps", "Kbps", "Mbps", "Gbps"};
  double v = bits_per_second;
  int u = 0;
  while (v >= 1000.0 && u < 3) {
    v /= 1000.0;
    ++u;
  }
  return strf("%.2f %s", v, units[u]);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string to_lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t seed) {
  return fnv1a(s.data(), s.size(), seed);
}

namespace {

// Run `parse` over a NUL-terminated copy of `s`.
template <typename Parse>
auto with_cstr(std::string_view s, Parse parse) {
  char buf[64];
  if (s.size() < sizeof buf) {
    std::memcpy(buf, s.data(), s.size());
    buf[s.size()] = '\0';
    return parse(buf);
  }
  const std::string copy{s};
  return parse(copy.c_str());
}

}  // namespace

double to_double(std::string_view s) {
  return with_cstr(s, [](const char* p) { return std::strtod(p, nullptr); });
}

long long to_int64(std::string_view s) {
  return with_cstr(s,
                   [](const char* p) { return std::strtoll(p, nullptr, 10); });
}

}  // namespace mcs::sim
