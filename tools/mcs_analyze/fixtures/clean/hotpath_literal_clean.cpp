// known-clean counterpart for hotpath-alloc's literal signal: a literal
// that fits the small-string buffer, and a long literal bound to a
// std::string_view parameter, build no heap temporary.
#include <map>
#include <string>
#include <string_view>

namespace fixture_literal_clean {

struct ViewRegistry {
  std::map<std::string, int, std::less<>> counts;
  int& counter(const std::string& name) { return counts.at(name); }
  int& counter_view(std::string_view name) { return counts.find(name)->second; }
};

}  // namespace fixture_literal_clean

int translate_html(fixture_literal_clean::ViewRegistry& reg) {
  int n = ++reg.counter("requests");  // 8 characters: inline
  n += ++reg.counter_view("delivered_packets");
  return n;
}
