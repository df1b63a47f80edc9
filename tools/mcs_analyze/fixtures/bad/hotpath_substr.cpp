// known-bad fixture for hotpath-alloc's substr signal: substr on an owning
// std::string builds a new heap string on every call from the
// translate_html entry point.
#include <string>

namespace fixture_substr {

std::string tail_of(const std::string& line) {
  return line.substr(4);  // a fresh std::string per call
}

}  // namespace fixture_substr

std::size_t translate_html(const std::string& html) {
  return fixture_substr::tail_of(html).size();
}
