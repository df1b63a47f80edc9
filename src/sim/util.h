#pragma once

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mcs::sim {

// printf-style formatting into a std::string (gcc 12 lacks <format>).
[[gnu::format(printf, 1, 2)]] std::string strf(const char* fmt, ...);
std::string vstrf(const char* fmt, std::va_list ap);

// "1.5 KB", "3.2 MB" style rendering.
std::string human_bytes(std::uint64_t bytes);
// "11.0 Mbps" style rendering.
std::string human_rate(double bits_per_second);

// Split `s` on `sep`, keeping empty fields.
std::vector<std::string> split(const std::string& s, char sep);
// Trim ASCII whitespace from both ends.
std::string trim(const std::string& s);
// ASCII lowercase copy.
std::string to_lower(const std::string& s);
bool starts_with(const std::string& s, const std::string& prefix);
bool ends_with(const std::string& s, const std::string& suffix);

// `m[key]` for a map keyed by std::string with a transparent comparator
// (std::less<>): the key is copied into the map only when it is new, so a
// lookup by view never builds a temporary string.
template <typename Map>
typename Map::mapped_type& find_or_emplace(Map& m, std::string_view key) {
  auto it = m.lower_bound(key);
  if (it == m.end() || it->first != key) {
    it = m.try_emplace(it, std::string{key});
  }
  return it->second;
}

// Non-allocating counterparts used on the protocol hot path (DESIGN.md §12):
// views into the caller's buffer instead of trimmed/lowered copies.

inline char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

// Case-insensitive ASCII comparison without lowering either side.
inline bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

// Matches std::isspace in the C locale (the set trim() uses), branch-free
// on the common printable path.
inline bool is_ascii_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// View of `s` with whitespace removed from both ends; the zero-copy
// counterpart of trim() (identical character set).
inline std::string_view trim_view(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_ascii_space(s[b])) ++b;
  while (e > b && is_ascii_space(s[e - 1])) --e;
  return std::string_view{s.data() + b, e - b};
}

// std::strtod / std::strtoll (base 10) over a view that is not
// NUL-terminated: the result the C call gives on a copy of `s`, copied
// through a stack buffer when `s` is short.
double to_double(std::string_view s);
long long to_int64(std::string_view s);

// FNV-1a 64-bit hash; used for checksums and non-cryptographic MACs.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t seed = 14695981039346656037ull);
std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t seed = 14695981039346656037ull);

}  // namespace mcs::sim
