// known-clean counterpart for hotpath-alloc's substr signal: substr on a
// std::string_view (or an alias of one, or a view-typed lambda parameter)
// returns another view and allocates nothing.
#include <string_view>

namespace fixture_substr_clean {

using Slice = std::string_view;

template <typename Fn>
void each_field(Slice line, Fn&& fn) {
  fn(line);
}

std::size_t head_of(std::string_view line) {
  const Slice head = line.substr(0, line.find(' '));
  std::size_t n = head.substr(1).size();
  each_field(line, [&n](Slice field) { n += field.substr(2).size(); });
  return n;
}

}  // namespace fixture_substr_clean

std::size_t translate_html(std::string_view html) {
  return fixture_substr_clean::head_of(html);
}
