#include "middleware/wbxml.h"

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/contract.h"

namespace mcs::middleware {

namespace {

using namespace wbxml;  // token constants (wbxml.h)

// WML 1.1 tag tokens (code page 0), per the WAP binary XML content format.
// Transparent comparator: the fused pipeline looks names up by slice.
const std::map<std::string, std::uint8_t, std::less<>>& tag_tokens() {
  static const std::map<std::string, std::uint8_t, std::less<>> kTags = {
      {"a", 0x1C},       {"td", 0x1D},     {"tr", 0x1E},    {"table", 0x1F},
      {"p", 0x20},       {"postfield", 0x21}, {"anchor", 0x22},
      {"access", 0x23},  {"b", 0x24},      {"big", 0x25},   {"br", 0x26},
      {"card", 0x27},    {"do", 0x28},     {"em", 0x29},    {"fieldset", 0x2A},
      {"go", 0x2B},      {"head", 0x2C},   {"i", 0x2D},     {"img", 0x2E},
      {"input", 0x2F},   {"meta", 0x30},   {"noop", 0x31},  {"prev", 0x32},
      {"onevent", 0x33}, {"optgroup", 0x34}, {"option", 0x35},
      {"refresh", 0x36}, {"select", 0x37}, {"small", 0x38}, {"strong", 0x39},
      {"template", 0x3B}, {"timer", 0x3C}, {"u", 0x3D},     {"setvar", 0x3E},
      {"wml", 0x3F},
  };
  return kTags;
}

// WML 1.1 attribute-start tokens (value encoded separately as STR_I).
const std::map<std::string, std::uint8_t, std::less<>>& attr_tokens() {
  static const std::map<std::string, std::uint8_t, std::less<>> kAttrs = {
      {"accept-charset", 0x05}, {"align", 0x52},  {"alt", 0x0C},
      {"class", 0x54},          {"columns", 0x53}, {"domain", 0x0F},
      {"emptyok", 0x10},        {"format", 0x12}, {"height", 0x13},
      {"href", 0x4A},           {"id", 0x55},     {"label", 0x18},
      {"maxlength", 0x1A},      {"method", 0x1B}, {"mode", 0x1C},
      {"multiple", 0x1D},       {"name", 0x1E},   {"optional", 0x21},
      {"path", 0x22},           {"src", 0x32},    {"title", 0x36},
      {"type", 0x37},           {"value", 0x39},  {"width", 0x3E},
  };
  return kAttrs;
}

// token -> name; tokens are unique within a code page.
std::array<std::string_view, 256> invert(
    const std::map<std::string, std::uint8_t, std::less<>>& tokens) {
  std::array<std::string_view, 256> names{};
  for (const auto& [name, token] : tokens) names[token] = name;
  return names;
}

void write_mb_u32(std::string& out, std::uint32_t v) {
  // Multi-byte unsigned integer, 7 bits per byte, high bit = continuation.
  char buf[5];
  int n = 0;
  do {
    buf[n++] = static_cast<char>(v & 0x7F);
    v >>= 7;
  } while (v != 0);
  for (int i = n - 1; i >= 0; --i) {
    char c = buf[i];
    if (i != 0) c = static_cast<char>(c | 0x80);
    out.push_back(c);
  }
}

class Encoder {
 public:
  std::string encode(const MarkupDocument& doc) {
    std::string body;
    for (const auto& c : doc.root.children) encode_node(c, body);

    std::string out;
    out.push_back(static_cast<char>(kVersion13));
    out.push_back(static_cast<char>(kPublicIdWml11));
    out.push_back(static_cast<char>(kCharsetUtf8));
    write_mb_u32(out, static_cast<std::uint32_t>(string_table_.size()));
    out += string_table_;
    out += body;
    // Header is version + public id + charset + at least a one-byte string
    // table length; a shorter result is not decodable WBXML.
    MCS_INVARIANT(out.size() >= 4 + string_table_.size(),
                  "encoded document lost its header or string table");
    return out;
  }

 private:
  std::uint32_t intern(const std::string& s) {
    auto it = offsets_.find(s);
    if (it != offsets_.end()) return it->second;
    const auto off = static_cast<std::uint32_t>(string_table_.size());
    string_table_ += s;
    string_table_.push_back('\0');
    offsets_[s] = off;
    return off;
  }

  void write_str_i(std::string& out, const std::string& s) {
    out.push_back(static_cast<char>(kStrI));
    out += s;
    out.push_back('\0');
  }

  void encode_node(const MarkupNode& n, std::string& out) {
    if (n.is_text()) {
      write_str_i(out, n.text);
      return;
    }
    const bool has_content = !n.children.empty();
    const bool has_attrs = !n.attrs.empty();
    const auto& tags = tag_tokens();
    auto it = tags.find(n.tag);
    std::uint8_t token;
    bool literal = false;
    if (it != tags.end()) {
      token = it->second;
    } else {
      token = kLiteral;
      literal = true;
    }
    if (has_content) token |= kContentFlag;
    if (has_attrs) token |= kAttrFlag;
    out.push_back(static_cast<char>(token));
    if (literal) write_mb_u32(out, intern(n.tag));

    if (has_attrs) {
      const auto& attrs = attr_tokens();
      for (const auto& [k, v] : n.attrs) {
        auto at = attrs.find(k);
        if (at != attrs.end()) {
          out.push_back(static_cast<char>(at->second));
        } else {
          out.push_back(static_cast<char>(kLiteral));
          write_mb_u32(out, intern(k));
        }
        if (!v.empty()) write_str_i(out, v);
      }
      out.push_back(static_cast<char>(kEnd));
    }
    if (has_content) {
      for (const auto& c : n.children) encode_node(c, out);
      out.push_back(static_cast<char>(kEnd));
    }
  }

  std::string string_table_;
  std::map<std::string, std::uint32_t> offsets_;
};

class Decoder {
 public:
  explicit Decoder(const std::string& bytes) : b_{bytes} {}

  std::optional<MarkupDocument> decode() {
    if (!take_header()) return std::nullopt;
    MarkupDocument doc;
    doc.kind = MarkupKind::kWml;
    while (pos_ < b_.size()) {
      auto node = decode_node();
      if (!node.has_value()) return std::nullopt;
      doc.root.children.push_back(std::move(*node));
    }
    return doc;
  }

 private:
  bool take_header() {
    if (b_.size() < 4) return false;
    if (static_cast<std::uint8_t>(b_[0]) != kVersion13) return false;
    pos_ = 1;
    (void)read_mb_u32();  // public id
    (void)read_mb_u32();  // charset
    const std::uint32_t st_len = read_mb_u32();
    if (pos_ + st_len > b_.size()) return false;
    string_table_ = b_.substr(pos_, st_len);
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

  std::string read_cstr() {
    std::string out;
    while (pos_ < b_.size() && b_[pos_] != '\0') out.push_back(b_[pos_++]);
    if (pos_ < b_.size()) ++pos_;  // consume NUL
    return out;
  }

  std::string table_string(std::uint32_t offset) const {
    if (offset >= string_table_.size()) return "";
    const std::size_t end = string_table_.find('\0', offset);
    return string_table_.substr(offset, end - offset);
  }

  std::optional<MarkupNode> decode_node() {
    if (pos_ >= b_.size()) return std::nullopt;
    const auto token = static_cast<std::uint8_t>(b_[pos_++]);
    if (token == kStrI) {
      return MarkupNode::text_node(read_cstr());
    }
    const bool has_attrs = (token & kAttrFlag) != 0;
    const bool has_content = (token & kContentFlag) != 0;
    const std::uint8_t base = token & 0x3F;
    MarkupNode node;
    if (base == kLiteral) {
      node.tag = table_string(read_mb_u32());
    } else {
      node.tag = wml_tag_name(base);
      if (node.tag.empty()) return std::nullopt;
    }
    if (has_attrs) {
      while (pos_ < b_.size() &&
             static_cast<std::uint8_t>(b_[pos_]) != kEnd) {
        const auto at = static_cast<std::uint8_t>(b_[pos_++]);
        std::string name = at == kLiteral ? table_string(read_mb_u32())
                                          : std::string{wml_attr_name(at)};
        if (name.empty()) return std::nullopt;
        std::string value;
        if (pos_ < b_.size() &&
            static_cast<std::uint8_t>(b_[pos_]) == kStrI) {
          ++pos_;
          value = read_cstr();
        }
        node.attrs.emplace_back(std::move(name), std::move(value));
      }
      if (pos_ >= b_.size()) return std::nullopt;
      ++pos_;  // END of attribute list
    }
    if (has_content) {
      while (pos_ < b_.size() &&
             static_cast<std::uint8_t>(b_[pos_]) != kEnd) {
        auto child = decode_node();
        if (!child.has_value()) return std::nullopt;
        node.children.push_back(std::move(*child));
      }
      if (pos_ >= b_.size()) return std::nullopt;
      ++pos_;  // END of content
    }
    return node;
  }

  const std::string& b_;
  std::size_t pos_ = 0;
  std::string string_table_;
  bool failed_ = false;
};

}  // namespace

std::uint8_t wml_tag_token(std::string_view tag) {
  const auto& tags = tag_tokens();
  const auto it = tags.find(tag);
  return it == tags.end() ? 0 : it->second;
}

std::uint8_t wml_attr_token(std::string_view name) {
  const auto& attrs = attr_tokens();
  const auto it = attrs.find(name);
  return it == attrs.end() ? 0 : it->second;
}

std::string_view wml_tag_name(std::uint8_t token) {
  static const std::array<std::string_view, 256> kNames = invert(tag_tokens());
  return kNames[token];
}

std::string_view wml_attr_name(std::uint8_t token) {
  static const std::array<std::string_view, 256> kNames =
      invert(attr_tokens());
  return kNames[token];
}

std::string wbxml_encode(const MarkupDocument& wml) {
  return Encoder{}.encode(wml);
}

std::optional<MarkupDocument> wbxml_decode(const std::string& bytes) {
  return Decoder{bytes}.decode();
}

}  // namespace mcs::middleware
