// known-bad fixture for hotpath-alloc's literal signal: a literal longer
// than the 15-character small-string buffer passed to a project function
// whose parameter is `const std::string&` builds a heap temporary on every
// call from the translate_html entry point.
#include <map>
#include <string>

namespace fixture_literal {

struct LiteralRegistry {
  std::map<std::string, int> counts;
  int& counter(const std::string& name) { return counts.at(name); }
};

}  // namespace fixture_literal

int translate_html(fixture_literal::LiteralRegistry& reg) {
  return ++reg.counter("delivered_packets");  // 17 characters: not SSO
}
