#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "middleware/markup.h"

namespace mcs::middleware {

// WBXML 1.3 global tokens and the WML 1.1 header bytes, shared by the tree
// codec (wbxml.cpp) and the arena encoder and decoder (translate.cpp,
// markup_view.cpp).
namespace wbxml {
inline constexpr std::uint8_t kEnd = 0x01;
inline constexpr std::uint8_t kStrI = 0x03;     // inline NUL-terminated string
inline constexpr std::uint8_t kLiteral = 0x04;  // name from the string table
inline constexpr std::uint8_t kContentFlag = 0x40;
inline constexpr std::uint8_t kAttrFlag = 0x80;
inline constexpr std::uint8_t kVersion13 = 0x03;
inline constexpr std::uint8_t kPublicIdWml11 = 0x04;
inline constexpr std::uint8_t kCharsetUtf8 = 0x6A;
}  // namespace wbxml

// WBXML: the WAP Forum's binary XML encoding. The WAP gateway compiles WML
// decks to WBXML so the over-the-air representation is compact; this is the
// source of WAP's bandwidth savings measured in the Table 3 bench.
//
// Implements the WBXML 1.3 framing (version, public id, charset, string
// table, tag/attr token space with content and attribute flags, STR_I inline
// strings, LITERAL tokens backed by the string table) with the WML 1.1 tag
// and attribute code pages. Encoder and decoder are exact inverses; byte
// values for tokens outside the WML 1.1 set use the LITERAL mechanism.

// Encode a WML document to WBXML bytes.
std::string wbxml_encode(const MarkupDocument& wml);

// WML 1.1 code-page lookups (0 when the name is outside the code page and
// needs the LITERAL/string-table mechanism). Exposed so the fused
// translate_html() pipeline emits the same token stream as the encoder.
std::uint8_t wml_tag_token(std::string_view tag);
std::uint8_t wml_attr_token(std::string_view name);
// The inverse lookups (empty for a token outside the code page); the views
// stay valid for the life of the program.
std::string_view wml_tag_name(std::uint8_t token);
std::string_view wml_attr_name(std::uint8_t token);

// Decode WBXML bytes back to a WML document; nullopt on malformed input.
std::optional<MarkupDocument> wbxml_decode(const std::string& bytes);

}  // namespace mcs::middleware
