// The arena markup view (markup_view.h). Byte-exactness against the owned
// tree is the contract: the parser is a line-for-line port of markup.cpp's
// Parser, the decoder of wbxml.cpp's Decoder, and the serializer of
// serialize_node; middleware_property_test asserts the equivalences over
// the corpus, random documents and adversarial inputs. When touching either
// side, change both.

#include "middleware/markup_view.h"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "middleware/wbxml.h"
#include "sim/contract.h"

namespace mcs::middleware {
namespace view {

sim::ArenaPool& arenas() {
  static thread_local sim::ArenaPool t_pool;
  return t_pool;
}

namespace {

bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

bool is_void_tag(Slice tag) {
  return tag == "br" || tag == "img" || tag == "hr" || tag == "input" ||
         tag == "meta" || tag == "link" || tag == "base" || tag == "area" ||
         tag == "col";
}

}  // namespace

Slice trim_ws(Slice s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return Slice{s.data() + b, e - b};
}

Slice arena_cat(Arena& arena, Slice a, Slice b, Slice c) {
  const std::size_t total = a.size() + b.size() + c.size();
  if (total == 0) return {};
  char* dst = arena.alloc_chars(total);
  char* p = dst;
  for (const Slice part : {a, b, c}) {
    // A default Slice has a null data(); memcpy must never see it.
    if (part.empty()) continue;
    std::memcpy(p, part.data(), part.size());
    p += part.size();
  }
  return Slice{dst, total};
}

namespace {

bool is_raw_text_tag(Slice tag) { return tag == "script" || tag == "style"; }

// Lowercased view: zero-copy when already lowercase (the common case for
// machine-generated markup), arena copy otherwise.
Slice lower_slice(Arena& arena, Slice s) {
  if (std::none_of(s.begin(), s.end(),
                   [](char c) { return c >= 'A' && c <= 'Z'; })) {
    return s;
  }
  char* dst = arena.alloc_chars(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    dst[i] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(s[i])));
  }
  return Slice{dst, s.size()};
}

// Arena-backed growable pointer stack for the parser's open-element chain.
class NodeStack {
 public:
  explicit NodeStack(Arena& arena) : arena_{arena} {}

  void push(VNode* n) {
    if (size_ == cap_) grow();
    data_[size_++] = n;
  }
  void resize(std::size_t n) {
    MCS_ASSERT(n <= size_, "NodeStack::resize only shrinks");
    size_ = n;
  }
  VNode* back() const { return data_[size_ - 1]; }
  VNode* at(std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }

 private:
  void grow() {
    const std::size_t new_cap = cap_ == 0 ? 16 : cap_ * 2;
    auto** fresh = static_cast<VNode**>(
        arena_.allocate(new_cap * sizeof(VNode*), alignof(VNode*)));
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(VNode*));
    data_ = fresh;
    cap_ = new_cap;
  }

  Arena& arena_;
  VNode** data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

// A slice-for-slice port of markup.cpp's Parser. Every branch and edge case
// (quote-aware tag ends, raw-text swallowing, stray end tags) matches the
// reference behavior; only the storage differs.
class ViewParser {
 public:
  ViewParser(Slice src, Arena& arena)
      : src_{src}, arena_{arena}, stack_{arena} {}

  VNode* parse() {
    VNode* root = new_node(arena_);
    stack_.push(root);
    while (pos_ < src_.size()) {
      if (src_[pos_] == '<') {
        parse_tag();
      } else {
        parse_text();
      }
    }
    return root;
  }

 private:
  VNode* top() { return stack_.back(); }

  // src_[from, from+len) clamped to the source, like std::string::substr.
  Slice sub(std::size_t from, std::size_t len) const {
    if (from >= src_.size()) return {};
    return Slice{src_.data() + from, std::min(len, src_.size() - from)};
  }

  void parse_text() {
    const std::size_t start = pos_;
    while (pos_ < src_.size() && src_[pos_] != '<') ++pos_;
    const Slice t = sub(start, pos_ - start);
    // Collapse pure-whitespace runs between tags; keep meaningful text.
    if (trim_ws(t).empty()) return;
    add_child(top(), new_text(arena_, t));
  }

  void parse_tag() {
    // pos_ at '<'
    if (src_.compare(pos_, 4, "<!--") == 0) {
      const std::size_t end = src_.find("-->", pos_);
      pos_ = end == Slice::npos ? src_.size() : end + 3;
      return;
    }
    if (pos_ + 1 < src_.size() &&
        (src_[pos_ + 1] == '!' || src_[pos_ + 1] == '?')) {
      const std::size_t end = src_.find('>', pos_);
      pos_ = end == Slice::npos ? src_.size() : end + 1;
      return;
    }
    if (pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
      // End tag.
      const std::size_t end = src_.find('>', pos_);
      const Slice name =
          lower_slice(arena_, trim_ws(sub(pos_ + 2, end - pos_ - 2)));
      pos_ = end == Slice::npos ? src_.size() : end + 1;
      close_tag(name);
      return;
    }
    // Start tag.
    const std::size_t end = find_tag_end(pos_);
    if (end == Slice::npos) {
      pos_ = src_.size();
      return;
    }
    Slice inside = sub(pos_ + 1, end - pos_ - 1);
    pos_ = end + 1;
    bool self_closing = false;
    if (!inside.empty() && inside.back() == '/') {
      self_closing = true;
      inside.remove_suffix(1);
    }
    std::size_t i = 0;
    while (i < inside.size() && !is_space(inside[i])) ++i;
    VNode* node =
        new_element(arena_, lower_slice(arena_, Slice{inside.data(), i}));
    if (node->tag.empty()) return;
    parse_attrs(Slice{inside.data() + i, inside.size() - i}, node);

    if (is_raw_text_tag(node->tag) && !self_closing) {
      // Swallow raw content up to the matching close tag. The reference
      // parser searches for "</" + the lowercased tag, so only these two
      // literals can occur.
      const char* close = node->tag == "script" ? "</script" : "</style";
      std::size_t raw_end = src_.find(close, pos_);
      if (raw_end == Slice::npos) raw_end = src_.size();
      const Slice raw = sub(pos_, raw_end - pos_);
      if (!raw.empty()) add_child(node, new_text(arena_, raw));
      const std::size_t gt = src_.find('>', raw_end);
      pos_ = gt == Slice::npos ? src_.size() : gt + 1;
      add_child(top(), node);
      return;
    }

    add_child(top(), node);
    if (!self_closing && !is_void_tag(node->tag)) stack_.push(node);
  }

  // '>' that terminates the tag, respecting quoted attribute values.
  std::size_t find_tag_end(std::size_t start) const {
    char quote = 0;
    for (std::size_t i = start + 1; i < src_.size(); ++i) {
      const char c = src_[i];
      if (quote != 0) {
        if (c == quote) quote = 0;
      } else if (c == '"' || c == '\'') {
        quote = c;
      } else if (c == '>') {
        return i;
      }
    }
    return Slice::npos;
  }

  void parse_attrs(Slice s, VNode* node) {
    std::size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && is_space(s[i])) ++i;
      if (i >= s.size()) break;
      const std::size_t name_start = i;
      while (i < s.size() && s[i] != '=' && s[i] != ' ' && s[i] != '\t' &&
             s[i] != '\n') {
        ++i;
      }
      const Slice name =
          lower_slice(arena_, Slice{s.data() + name_start, i - name_start});
      Slice value;
      while (i < s.size() && is_space(s[i])) ++i;
      if (i < s.size() && s[i] == '=') {
        ++i;
        while (i < s.size() && is_space(s[i])) ++i;
        if (i < s.size() && (s[i] == '"' || s[i] == '\'')) {
          const char q = s[i++];
          const std::size_t vstart = i;
          while (i < s.size() && s[i] != q) ++i;
          value = Slice{s.data() + vstart, i - vstart};
          if (i < s.size()) ++i;
        } else {
          const std::size_t vstart = i;
          while (i < s.size() && !is_space(s[i])) ++i;
          value = Slice{s.data() + vstart, i - vstart};
        }
      }
      if (!name.empty()) add_attr(arena_, node, name, value);
    }
  }

  void close_tag(Slice name) {
    // Find the nearest open ancestor with this tag; unwind to it. If none,
    // ignore the stray end tag (tag-soup tolerance).
    for (std::size_t i = stack_.size(); i-- > 1;) {
      if (stack_.at(i)->tag == name) {
        stack_.resize(i);
        return;
      }
    }
  }

  Slice src_;
  Arena& arena_;
  std::size_t pos_ = 0;
  NodeStack stack_;
};

// ---------------------------------------------------------------------------
// WBXML -> view tree: a port of wbxml.cpp's Decoder. Strings are slices into
// the input; the quirks are kept on purpose (an unreadable multi-byte index
// reads as 0, an out-of-range string-table offset names a tagless node whose
// subtree then serializes to nothing), because the output must match the
// reference decoder byte for byte.

class WbxmlReader {
 public:
  WbxmlReader(Slice b, Arena& arena) : b_{b}, arena_{arena} {}

  // The synthetic root holding every top-level node, or nullptr on
  // malformed input.
  VNode* decode() {
    if (!take_header()) return nullptr;
    VNode* root = new_node(arena_);
    while (pos_ < b_.size()) {
      VNode* node = decode_node();
      if (node == nullptr) return nullptr;
      add_child(root, node);
    }
    return root;
  }

 private:
  std::uint8_t peek() const { return static_cast<std::uint8_t>(b_[pos_]); }

  bool take_header() {
    if (b_.size() < 4) return false;
    if (static_cast<std::uint8_t>(b_[0]) != wbxml::kVersion13) return false;
    pos_ = 1;
    (void)read_mb_u32();  // public id
    (void)read_mb_u32();  // charset
    const std::uint32_t st_len = read_mb_u32();
    if (pos_ + st_len > b_.size()) return false;
    string_table_ = Slice{b_.data() + pos_, st_len};
    pos_ += st_len;
    return !failed_;
  }

  std::uint32_t read_mb_u32() {
    std::uint32_t v = 0;
    while (pos_ < b_.size()) {
      const auto c = static_cast<std::uint8_t>(b_[pos_++]);
      v = (v << 7) | (c & 0x7F);
      if ((c & 0x80) == 0) return v;
    }
    failed_ = true;
    return 0;
  }

  Slice read_cstr() {
    const std::size_t start = pos_;
    while (pos_ < b_.size() && b_[pos_] != '\0') ++pos_;
    const Slice s{b_.data() + start, pos_ - start};
    if (pos_ < b_.size()) ++pos_;  // consume NUL
    return s;
  }

  Slice table_string(std::uint32_t offset) const {
    if (offset >= string_table_.size()) return {};
    std::size_t end = string_table_.find('\0', offset);
    if (end == Slice::npos) end = string_table_.size();
    return Slice{string_table_.data() + offset, end - offset};
  }

  VNode* decode_node() {
    if (pos_ >= b_.size()) return nullptr;
    const std::uint8_t token = peek();
    ++pos_;
    if (token == wbxml::kStrI) return new_text(arena_, read_cstr());
    const std::uint8_t base = token & 0x3F;
    VNode* node = new_node(arena_);
    if (base == wbxml::kLiteral) {
      node->tag = table_string(read_mb_u32());
    } else {
      node->tag = wml_tag_name(base);
      if (node->tag.empty()) return nullptr;
    }
    if ((token & wbxml::kAttrFlag) != 0) {
      while (pos_ < b_.size() && peek() != wbxml::kEnd) {
        const std::uint8_t at = peek();
        ++pos_;
        const Slice name = at == wbxml::kLiteral ? table_string(read_mb_u32())
                                                 : wml_attr_name(at);
        if (name.empty()) return nullptr;
        Slice value;
        if (pos_ < b_.size() && peek() == wbxml::kStrI) {
          ++pos_;
          value = read_cstr();
        }
        add_attr(arena_, node, name, value);
      }
      if (pos_ >= b_.size()) return nullptr;
      ++pos_;  // END of attribute list
    }
    if ((token & wbxml::kContentFlag) != 0) {
      while (pos_ < b_.size() && peek() != wbxml::kEnd) {
        VNode* child = decode_node();
        if (child == nullptr) return nullptr;
        add_child(node, child);
      }
      if (pos_ >= b_.size()) return nullptr;
      ++pos_;  // END of content
    }
    return node;
  }

  Slice b_;
  Arena& arena_;
  std::size_t pos_ = 0;
  Slice string_table_;
  bool failed_ = false;
};

std::size_t text_size(const VNode& n) {
  std::size_t total = n.text.size();
  for (const VNode* c = n.first; c != nullptr; c = c->next) {
    total += text_size(*c);
  }
  return total;
}

void text_fill(const VNode& n, char*& dst) {
  if (!n.text.empty()) {
    std::memcpy(dst, n.text.data(), n.text.size());
    dst += n.text.size();
  }
  for (const VNode* c = n.first; c != nullptr; c = c->next) {
    text_fill(*c, dst);
  }
}

// MarkupNode::element_count: the synthetic root and text nodes are tagless.
std::size_t element_count(const VNode& n) {
  std::size_t total = n.is_text() ? 0 : 1;
  for (const VNode* c = n.first; c != nullptr; c = c->next) {
    total += element_count(*c);
  }
  return total;
}

// First element with this tag in document order (self included), mirroring
// MarkupNode::find.
const VNode* find_first(const VNode* n, Slice tag) {
  if (n->tag == tag) return n;
  for (const VNode* c = n->first; c != nullptr; c = c->next) {
    if (const VNode* hit = find_first(c, tag); hit != nullptr) return hit;
  }
  return nullptr;
}

}  // namespace

VNode* parse_view(Slice src, Arena& arena) {
  return ViewParser{src, arena}.parse();
}

Slice inner_text(Arena& arena, const VNode& n) {
  const std::size_t total = text_size(n);
  if (total == 0) return {};
  char* buf = arena.alloc_chars(total);
  char* p = buf;
  text_fill(n, p);
  MCS_INVARIANT(p == buf + total,
                "inner_text fill diverged from its size pass");
  return Slice{buf, total};
}

Slice title_of(Arena& arena, const VNode* root) {
  if (const VNode* t = find_first(root, "title"); t != nullptr) {
    return trim_ws(inner_text(arena, *t));
  }
  // WML keeps the title on the card element.
  if (const VNode* card = find_first(root, "card"); card != nullptr) {
    if (const VAttr* v = find_attr(card, "title"); v != nullptr) {
      return v->value;
    }
  }
  return {};
}

std::size_t serialized_size(const VNode& n) {
  if (n.is_text()) return n.text.size();
  std::size_t open = 1 + n.tag.size();
  for (const VAttr* a = n.attrs; a != nullptr; a = a->next) {
    open += 4 + a->name.size() + a->value.size();
  }
  if (n.first == nullptr && is_void_tag(n.tag)) return open + 2;
  std::size_t total = open + 1;
  for (const VNode* c = n.first; c != nullptr; c = c->next) {
    total += serialized_size(*c);
  }
  return total + 3 + n.tag.size();
}

void serialize_view(const VNode& n, sim::BufWriter& w) {
  if (n.is_text()) {
    w.put(n.text);
    return;
  }
  w.ch('<').put(n.tag);
  for (const VAttr* a = n.attrs; a != nullptr; a = a->next) {
    w.ch(' ').put(a->name).put("=\"").put(a->value).ch('"');
  }
  if (n.first == nullptr && is_void_tag(n.tag)) {
    w.put("/>");
    return;
  }
  w.ch('>');
  for (const VNode* c = n.first; c != nullptr; c = c->next) {
    serialize_view(*c, w);
  }
  w.put("</").put(n.tag).ch('>');
}

}  // namespace view

void summarize_page(sim::Slice markup, PageSummary& out) {
  const auto lease = view::arenas().acquire();
  const view::VNode* root = view::parse_view(markup, *lease);
  out.elements = view::element_count(*root);
  out.title = view::title_of(*lease, root);
  out.text.resize(view::text_size(*root));
  char* p = out.text.data();
  view::text_fill(*root, p);
}

bool wbxml_decode_to(sim::Slice bytes, std::string& wml_out) {
  wml_out.clear();
  const auto lease = view::arenas().acquire();
  const view::VNode* root = view::WbxmlReader{bytes, *lease}.decode();
  if (root == nullptr) return false;
  std::size_t total = 0;
  for (const view::VNode* c = root->first; c != nullptr; c = c->next) {
    total += view::serialized_size(*c);
  }
  wml_out.reserve(total);
  sim::BufWriter w{wml_out};
  for (const view::VNode* c = root->first; c != nullptr; c = c->next) {
    view::serialize_view(*c, w);
  }
  MCS_INVARIANT(wml_out.size() == total,
                "WML serialization diverged from its size pass");
  return true;
}

}  // namespace mcs::middleware
