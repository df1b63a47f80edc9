#pragma once

// Arena markup view (DESIGN.md §12): the one zero-copy markup parser on the
// request path. A page is parsed into bump-allocated nodes whose tags,
// attributes and text are slices into the source bytes (or into the arena
// when lowercasing or concatenating forces a copy). Three request-path users
// sit on top of it:
//
//   translate_html()   the gateways' fused HTML -> WML/cHTML (+ WBXML) pass
//                      (translate.cpp);
//   wbxml_decode_to()  the handset's WBXML deck -> WML text decode;
//   summarize_page()   the handset's and clients' render metrics and text:
//                      element count, title and inner text in one parse.
//
// Each runs on a lease from a per-thread recycled arena pool, so a warm
// thread parses a page without touching the system allocator; only the
// caller's owned output strings can allocate. The owned-tree API in
// markup.h / wbxml.h (parse_markup, MarkupDocument, wbxml_decode) is the
// reference oracle the equivalence tests hold every function here to.

#include <cstddef>
#include <string>
#include <type_traits>

#include "sim/arena.h"

namespace mcs::middleware {

// What a handset or client needs from a delivered page, owned. Each field
// equals the reference tree's answer for the same bytes:
// parse_markup(s).root.element_count(), .title() and .root.inner_text().
struct PageSummary {
  std::size_t elements = 0;
  std::string title;
  std::string text;
};

// One view pass over `markup`. `out` is overwritten; its strings keep their
// capacity, so a reused summary on a warm thread allocates nothing.
void summarize_page(sim::Slice markup, PageSummary& out);

// Decodes a WBXML deck into WML text in `wml_out` (cleared first; exactly
// reserved, so a fresh string costs one allocation and a warm one none).
// Byte-identical to wbxml_decode(bytes)->serialize(); returns false exactly
// when wbxml_decode returns nullopt, leaving `wml_out` empty.
bool wbxml_decode_to(sim::Slice bytes, std::string& wml_out);

namespace view {

using sim::Arena;
using sim::Slice;

// The per-thread arena pool every view user leases from.
sim::ArenaPool& arenas();

Slice trim_ws(Slice s);

// Arena-owned concatenation of up to three parts (empty or default-
// constructed parts contribute nothing).
Slice arena_cat(Arena& arena, Slice a, Slice b, Slice c);

// ---------------------------------------------------------------------------
// Nodes: bump-allocated, children and attributes are intrusive singly-linked
// lists, every string is a Slice.

struct VAttr {
  Slice name;
  Slice value;
  VAttr* next = nullptr;
};

struct VNode {
  Slice tag;   // empty for text nodes (and the synthetic root)
  Slice text;  // text nodes only
  VAttr* attrs = nullptr;
  VAttr* attrs_tail = nullptr;
  VNode* first = nullptr;  // children
  VNode* last = nullptr;
  VNode* next = nullptr;  // sibling
  bool synthetic = false;  // translate.cpp's wrap_loose marker

  bool is_text() const { return tag.empty(); }
};

static_assert(std::is_trivially_copyable_v<VNode> &&
                  std::is_trivially_copyable_v<VAttr>,
              "view nodes are raw-arena allocated; they must not need a "
              "constructor or destructor");

inline VNode* new_node(Arena& arena) {
  auto* n = static_cast<VNode*>(arena.allocate(sizeof(VNode), alignof(VNode)));
  *n = VNode{};
  return n;
}

inline VNode* new_text(Arena& arena, Slice t) {
  VNode* n = new_node(arena);
  n->text = t;
  return n;
}

inline VNode* new_element(Arena& arena, Slice tag) {
  VNode* n = new_node(arena);
  n->tag = tag;
  return n;
}

inline void add_child(VNode* parent, VNode* child) {
  if (parent->last != nullptr) {
    parent->last->next = child;
  } else {
    parent->first = child;
  }
  parent->last = child;
}

inline void add_attr(Arena& arena, VNode* n, Slice name, Slice value) {
  auto* a = static_cast<VAttr*>(arena.allocate(sizeof(VAttr), alignof(VAttr)));
  *a = VAttr{name, value, nullptr};
  if (n->attrs_tail != nullptr) {
    n->attrs_tail->next = a;
  } else {
    n->attrs = a;
  }
  n->attrs_tail = a;
}

inline const VAttr* find_attr(const VNode* n, Slice name) {
  for (const VAttr* a = n->attrs; a != nullptr; a = a->next) {
    if (a->name == name) return a;
  }
  return nullptr;
}

// Lenient tag-soup parse of `src` into `arena`: a slice-for-slice port of
// markup.cpp's Parser (quote-aware tag ends, raw-text script/style, stray end
// tags ignored). Returns the synthetic root.
VNode* parse_view(Slice src, Arena& arena);

// Concatenated text of every descendant text node, arena-owned.
Slice inner_text(Arena& arena, const VNode& n);

// The title rule of MarkupDocument::title(): the first <title>'s trimmed
// inner text, else the first <card>'s title attribute, else empty.
Slice title_of(Arena& arena, const VNode* root);

// serialize_view's output size, computed without writing it.
std::size_t serialized_size(const VNode& n);

// MarkupDocument::serialize()'s byte rules for one node: ' k="v"' per
// attribute, "/>" for childless void elements, "<tag>...</tag>" otherwise;
// text nodes (and tagless nodes) emit their text only.
void serialize_view(const VNode& n, sim::BufWriter& w);

}  // namespace view
}  // namespace mcs::middleware
