// Fused zero-copy translation pipeline (DESIGN.md §12). The legacy pipeline
// materializes four owned trees/strings per response: parse_markup copies
// every tag/attr/text into MarkupNode strings, html_to_wml copies the tree,
// adapt_document copies it again, serialize()/wbxml_encode build the output.
// This file does the same work in one pass over the arena markup view
// (markup_view.h), whose tags, attributes, and text are slices into the
// HTML source; the only heap traffic left is the caller's reused output
// buffer and the recycled arena chunks, both amortized to zero across
// requests.
//
// Byte-exactness is the contract: every rule below is a line-for-line port
// of the corresponding legacy rule (markup.cpp / adaptation.cpp), and the
// translate equivalence tests assert identical output bytes and counters
// over the corpus and randomized documents. When touching either side,
// change both.

#include "middleware/translate.h"

#include <cstring>

#include "middleware/markup_view.h"
#include "middleware/wbxml.h"
#include "sim/contract.h"

namespace mcs::middleware {
namespace {

using sim::BufWriter;
using namespace view;  // the shared arena markup view (markup_view.h)

// ---------------------------------------------------------------------------
// Fused translation + adaptation. A port of markup.cpp's translate_node and
// adaptation.cpp's adapt_node collapsed into one walk: every text node the
// translation emits passes through the truncation rule (matching adapt's
// pass over the translated tree), while text adapt itself synthesizes (the
// cHTML "[alt]" replacement, the "[more...]" marker) bypasses it, exactly
// as in the legacy ordering.

class Xlate {
 public:
  Xlate(Arena& arena, const AdaptationConfig& cfg, bool wml)
      : arena_{arena}, cfg_{cfg}, wml_{wml} {}

  TranslateCounters counters;

  void children(const VNode& from, VNode* to) {
    MCS_ASSERT(to != nullptr, "adapted children need a parent to land in");
    for (const VNode* c = from.first; c != nullptr; c = c->next) {
      node(*c, to);
    }
  }

  // Adapted text node: the truncation rule from adapt_node.
  void adapted_text(VNode* out, Slice t) {
    if (t.size() > cfg_.max_text_run) {
      t = arena_cat(arena_, Slice{t.data(), cfg_.max_text_run}, "...", {});
      ++counters.text_truncations;
    }
    MCS_INVARIANT(t.size() <= cfg_.max_text_run + 3,
                  "truncation must bound every emitted text run");
    add_child(out, new_text(arena_, t));
  }

  void node(const VNode& n, VNode* out) {
    MCS_ASSERT(out != nullptr, "an adapted node needs a parent to land in");
    if (n.is_text()) {
      adapted_text(out, n.text);
      return;
    }
    const Slice t = n.tag;
    if (t == "script" || t == "style" || t == "head" || t == "title" ||
        t == "meta" || t == "link" || t == "iframe" || t == "frameset" ||
        t == "object" || t == "applet") {
      return;  // not representable on the handset
    }
    if (t == "p" || t == "div" || t == "section" || t == "article" ||
        t == "blockquote" || t == "center") {
      VNode* p = new_element(arena_, "p");
      children(n, p);
      if (p->first != nullptr) add_child(out, p);
      return;
    }
    if (t.size() == 2 && t[0] == 'h' && t[1] >= '1' && t[1] <= '6') {
      // Headings become emphasized paragraphs.
      VNode* p = new_element(arena_, "p");
      VNode* b = new_element(arena_, "b");
      children(n, b);
      add_child(p, b);
      add_child(out, p);
      return;
    }
    if (t == "a") {
      VNode* a = new_element(arena_, "a");
      copy_attr(n, a, "href");
      children(n, a);
      add_child(out, a);
      return;
    }
    if (t == "b" || t == "strong") {
      emit_wrapped(n, out, "b");
      return;
    }
    if (t == "i" || t == "em") {
      emit_wrapped(n, out, "i");
      return;
    }
    if (t == "u") {
      emit_wrapped(n, out, "u");
      return;
    }
    if (t == "br") {
      add_child(out, new_element(arena_, "br"));
      return;
    }
    if (t == "img") {
      const VAttr* alt = find_attr(&n, "alt");
      if (wml_) {
        // WML decks drop images in translation; the alt text node then goes
        // through adapt's truncation like any other text.
        if (alt != nullptr && !alt->value.empty()) {
          adapted_text(out, arena_cat(arena_, "[", alt->value, "]"));
        }
      } else if (!cfg_.keep_images) {
        // cHTML keeps the <img> through translation; adapt drops it and
        // emits the alt marker after the truncation pass (never truncated).
        ++counters.images_dropped;
        if (alt != nullptr && !alt->value.empty()) {
          add_child(out,
                    new_text(arena_, arena_cat(arena_, "[", alt->value, "]")));
        }
      } else {
        VNode* img = new_element(arena_, "img");
        copy_attr(n, img, "src");
        copy_attr(n, img, "alt");
        add_child(out, img);
      }
      return;
    }
    if (t == "table") {
      // Linearize: one paragraph per row, cells joined with separators.
      for (const VNode* section = n.first; section != nullptr;
           section = section->next) {
        if (section->tag == "tr") {
          table_row(*section, out);
        } else {  // thead/tbody/tfoot
          for (const VNode* row = section->first; row != nullptr;
               row = row->next) {
            table_row(*row, out);
          }
        }
      }
      return;
    }
    if (t == "ul" || t == "ol") {
      std::uint64_t index = 1;
      for (const VNode* li = n.first; li != nullptr; li = li->next) {
        if (li->tag != "li") continue;
        VNode* p = new_element(arena_, "p");
        if (t == "ol") {
          const sim::NumStr num = sim::u64s(index++);
          adapted_text(p, arena_cat(arena_, num, ". ", {}));
        } else {
          adapted_text(p, "- ");
        }
        children(*li, p);
        add_child(out, p);
      }
      return;
    }
    if (t == "input") {
      VNode* input = new_element(arena_, "input");
      copy_attr(n, input, "name");
      copy_attr(n, input, "type");
      copy_attr(n, input, "value");
      add_child(out, input);
      return;
    }
    if (t == "select" || t == "option") {
      VNode* copy = new_element(arena_, t);
      copy_attr(n, copy, "name");
      copy_attr(n, copy, "value");
      children(n, copy);
      add_child(out, copy);
      return;
    }
    if (t == "form") {
      // Forms flatten into their controls; submission becomes an anchor.
      VNode* p = new_element(arena_, "p");
      children(n, p);
      if (const VAttr* action = find_attr(&n, "action"); action != nullptr) {
        VNode* a = new_element(arena_, "a");
        add_attr(arena_, a, "href", action->value);
        adapted_text(a, "[submit]");
        add_child(p, a);
      }
      add_child(out, p);
      return;
    }
    // Unknown/structural tag (html, body, span, ...): unwrap.
    children(n, out);
  }

 private:
  void emit_wrapped(const VNode& n, VNode* out, Slice tag) {
    VNode* el = new_element(arena_, tag);
    children(n, el);
    add_child(out, el);
  }

  void copy_attr(const VNode& from, VNode* to, Slice name) {
    if (const VAttr* a = find_attr(&from, name); a != nullptr) {
      add_attr(arena_, to, name, a->value);
    }
  }

  void table_row(const VNode& row, VNode* out) {
    if (row.tag != "tr") return;
    // Two passes over the cells: measure the joined line, then fill it.
    std::size_t line_len = 0;
    for (const VNode* cell = row.first; cell != nullptr; cell = cell->next) {
      if (cell->tag != "td" && cell->tag != "th") continue;
      const Slice text = trim_ws(inner_text(arena_, *cell));
      if (text.empty()) continue;
      line_len += (line_len != 0 ? 3 : 0) + text.size();  // " | " separators
    }
    if (line_len == 0) return;
    char* buf = arena_.alloc_chars(line_len);
    char* p = buf;
    for (const VNode* cell = row.first; cell != nullptr; cell = cell->next) {
      if (cell->tag != "td" && cell->tag != "th") continue;
      const Slice text = trim_ws(inner_text(arena_, *cell));
      if (text.empty()) continue;
      if (p != buf) {
        std::memcpy(p, " | ", 3);
        p += 3;
      }
      std::memcpy(p, text.data(), text.size());
      p += text.size();
    }
    MCS_INVARIANT(p == buf + line_len,
                  "table row fill diverged from its size pass");
    VNode* para = new_element(arena_, "p");
    adapted_text(para, Slice{buf, line_len});
    add_child(out, para);
  }

  Arena& arena_;
  const AdaptationConfig& cfg_;
  bool wml_ = false;
};

// WML cards may only contain certain top-level elements; wrap loose inline
// content in synthetic paragraphs (port of markup.cpp wrap_loose_inline —
// the marker is a node flag here instead of a stripped attribute).
void wrap_loose_runs(Arena& arena, VNode* card) {
  VNode* c = card->first;
  card->first = nullptr;
  card->last = nullptr;
  while (c != nullptr) {
    VNode* next = c->next;
    c->next = nullptr;
    const bool block = c->tag == "p" || c->tag == "do" || c->tag == "template";
    if (block) {
      add_child(card, c);
    } else {
      VNode* tail = card->last;
      if (tail == nullptr || !(tail->tag == "p" && tail->synthetic)) {
        VNode* p = new_element(arena, "p");
        p->synthetic = true;
        add_child(card, p);
        tail = p;
      }
      add_child(tail, c);
    }
    c = next;
  }
}

// ---------------------------------------------------------------------------
// The size-cap trim, ported from adaptation.cpp; sizes come from the view's
// serialized_size(), which mirrors serialize_node exactly.

// Remove the deepest trailing leaf, returning it (nullptr when the tree is
// already bare) — the counterpart of adaptation.cpp's drop_last_leaf.
VNode* drop_last_leaf(VNode* n) {
  if (n->first == nullptr) return nullptr;
  if (VNode* sub = drop_last_leaf(n->last); sub != nullptr) return sub;
  VNode* popped = n->last;
  if (n->first == popped) {
    n->first = nullptr;
    n->last = nullptr;
  } else {
    VNode* prev = n->first;
    while (prev->next != popped) prev = prev->next;
    prev->next = nullptr;
    n->last = prev;
  }
  return popped;
}

void cap_trim(Arena& arena, VNode* root, const AdaptationConfig& cfg,
              TranslateCounters& counters) {
  std::size_t total = 0;
  for (const VNode* c = root->first; c != nullptr; c = c->next) {
    total += serialized_size(*c);
  }
  while (total > cfg.max_serialized_bytes) {
    VNode* popped = drop_last_leaf(root);
    if (popped == nullptr) break;
    // The popped node is childless by construction, so its removal shrinks
    // the document by exactly its own serialization. (No generated void
    // element ever has children, so no parent flips to the "/>" form.)
    MCS_INVARIANT(popped->first == nullptr,
                  "drop_last_leaf popped a node with children");
    total -= serialized_size(*popped);
    ++counters.nodes_dropped;
  }
  if (counters.nodes_dropped > 0) {
    // Let the user see the page was cut.
    VNode* target = root;
    while (target->last != nullptr && !target->last->is_text() &&
           target->last->tag != "p") {
      target = target->last;
    }
    VNode* p = new_element(arena, "p");
    add_child(p, new_text(arena, "[more...]"));
    add_child(target, p);
  }
}

// ---------------------------------------------------------------------------
// WBXML compilation (wbxml.cpp Encoder port). The translation emits only
// WML 1.1 code-page tags and attributes, so the WBXML string table stays
// empty and the binary streams straight into the caller's buffer.

void wbxml_view(const VNode& n, BufWriter& w) {
  if (n.is_text()) {
    w.ch(wbxml::kStrI).put(n.text).ch('\0');
    return;
  }
  std::uint8_t token = wml_tag_token(n.tag);
  MCS_ASSERT(token != 0,
             "translated decks use only WML 1.1 code-page tags; a literal "
             "tag here means the translation emitted something new without "
             "updating the fused encoder");
  const bool has_content = n.first != nullptr;
  const bool has_attrs = n.attrs != nullptr;
  if (has_content) token |= wbxml::kContentFlag;
  if (has_attrs) token |= wbxml::kAttrFlag;
  w.ch(static_cast<char>(token));
  if (has_attrs) {
    for (const VAttr* a = n.attrs; a != nullptr; a = a->next) {
      const std::uint8_t at = wml_attr_token(a->name);
      MCS_ASSERT(at != 0, "translated decks use only WML 1.1 code-page "
                          "attributes");
      w.ch(static_cast<char>(at));
      if (!a->value.empty()) w.ch(wbxml::kStrI).put(a->value).ch('\0');
    }
    w.ch(wbxml::kEnd);
  }
  if (has_content) {
    for (const VNode* c = n.first; c != nullptr; c = c->next) {
      wbxml_view(*c, w);
    }
    w.ch(wbxml::kEnd);
  }
}

}  // namespace

TranslateCounters translate_html(sim::Slice html, MarkupKind target,
                                 const AdaptationConfig& cfg,
                                 std::string& text_out,
                                 std::string* wbxml_out) {
  MCS_ASSERT(target == MarkupKind::kWml || target == MarkupKind::kChtml,
             "translate_html targets a handset language, not HTML");
  MCS_ASSERT(wbxml_out == nullptr || target == MarkupKind::kWml,
             "WBXML compilation is defined for WML decks only");
  // Per-thread recycled arenas: a request's nodes and slices cost pointer
  // bumps into warmed chunks, released wholesale when the lease ends.
  const auto lease = arenas().acquire();
  Arena& arena = *lease;

  const VNode* parsed = parse_view(html, arena);

  const bool wml = target == MarkupKind::kWml;
  Xlate x{arena, cfg, wml};
  VNode* root = new_node(arena);
  if (wml) {
    VNode* deck = new_element(arena, "wml");
    VNode* card = new_element(arena, "card");
    add_attr(arena, card, "id", "main");
    if (const Slice title = title_of(arena, parsed); !title.empty()) {
      add_attr(arena, card, "title", title);
    }
    x.children(*parsed, card);
    wrap_loose_runs(arena, card);
    add_child(deck, card);
    add_child(root, deck);
  } else {
    VNode* doc = new_element(arena, "html");
    VNode* body = new_element(arena, "body");
    x.children(*parsed, body);
    add_child(doc, body);
    add_child(root, doc);
  }
  cap_trim(arena, root, cfg, x.counters);

  text_out.clear();
  BufWriter tw{text_out};
  tw.need(256);
  for (const VNode* c = root->first; c != nullptr; c = c->next) {
    serialize_view(*c, tw);
  }
  if (wbxml_out != nullptr) {
    wbxml_out->clear();
    BufWriter bw{*wbxml_out};
    bw.need(text_out.size() / 2 + 16);
    // WBXML 1.3 header: version, WML 1.1 public id, UTF-8, empty string
    // table (the translation never needs the LITERAL mechanism).
    bw.ch(wbxml::kVersion13).ch(wbxml::kPublicIdWml11)
        .ch(wbxml::kCharsetUtf8).ch(0x00);
    for (const VNode* c = root->first; c != nullptr; c = c->next) {
      wbxml_view(*c, bw);
    }
  }
  return x.counters;
}

}  // namespace mcs::middleware
