// Equivalence proof for the fused zero-copy translator (translate.cpp): over
// a tag-soup corpus, randomized documents, and adversarial configs, its
// output bytes and counters must match the legacy
// parse_markup + html_to_wml/html_to_chtml + adapt_document + serialize()
// (+ wbxml_encode) pipeline exactly. These are the golden tests that let the
// gateways run the fused path without changing a single over-the-air byte.

#include <gtest/gtest.h>

#include <string>

#include "middleware/adaptation.h"
#include "middleware/markup.h"
#include "middleware/markup_view.h"
#include "middleware/translate.h"
#include "middleware/wbxml.h"
#include "sim/random.h"
#include "sim/util.h"

namespace mcs::middleware {
namespace {

// Same corpus as middleware_property_test.cpp: every parser quirk the legacy
// pipeline tolerates must translate identically through the fused path.
const char* kCorpus[] = {
    "<html><body><p>plain</p></body></html>",
    "<p>unclosed paragraph",
    "<b><i>misnested</b></i>",
    "<div><div><div>deep</div></div></div>",
    "<table><tbody><tr><td>a</td><td>b</td></tr></tbody></table>",
    "<ul><li>one<li>two<li>three</ul>",
    "<a href='q?a=1&b=2'>link</a>",
    "<img src=x.png alt='pic'><br><hr>",
    "<form action=\"/go\"><input name=\"q\" value=\"v\"><select name=\"s\">"
    "<option value=\"1\">one</option></select></form>",
    "<!DOCTYPE html><!-- c --><head><meta charset=utf8><title>T</title>"
    "</head><body>after</body>",
    "<script>while (a<b) { x('</div>'); }</script><p>visible</p>",
    "<h1>One</h1><h2>Two</h2><h3>Three</h3><h6>Six</h6>",
    "text only, no tags at all",
    "",
    "<p>entity &amp; raw &lt; chars</p>",
    "<blockquote><center><u>styled</u></center></blockquote>",
    // Fused-path extras: title + images + table sections + ordered lists +
    // uppercase soup + raw-text swallowing + attribute edge cases.
    "<HTML><HEAD><TITLE>  Upper  </TITLE></HEAD><BODY><H1>Hi</H1>"
    "<IMG SRC=a.gif ALT=\"logo\"><P>Body</P></BODY></HTML>",
    "<table><thead><tr><th>h1</th><th>h2</th></tr></thead>"
    "<tr><td> x </td><td></td><td>y</td></tr>"
    "<tfoot><tr><td>f</td></tr></tfoot></table>",
    "<ol><li>first</li><li>second</li><li>third</li></ol>",
    "<style>p { color: red } </style><p>styled doc</p>",
    "<form action='/search'><input name=q type=text value='mobile commerce'>"
    "</form><a href=\"/next\">more</a>",
    "<card title=\"CardTitle\"><p>wml-ish input</p></card>",
    "<p a=1 b = \"two\" c='3' d>attr soup</p><p data-x>tail",
    "<img alt=''><img><img alt='kept'>",
    "<div>loose <b>inline</b> content<br>across lines</div>",
    "<h4>deep <a href='/l'>nested <i>link</i></a> heading</h4>",
};

struct LegacyOut {
  std::string text;
  std::string wbxml;
  AdaptationResult adapted;
};

LegacyOut legacy(const std::string& src, MarkupKind target,
                 const AdaptationConfig& cfg, bool want_wbxml) {
  LegacyOut out;
  const MarkupDocument html = parse_markup(src, MarkupKind::kHtml);
  const MarkupDocument xlated =
      target == MarkupKind::kWml ? html_to_wml(html) : html_to_chtml(html);
  out.adapted = adapt_document(xlated, cfg);
  out.text = out.adapted.document.serialize();
  if (want_wbxml) out.wbxml = wbxml_encode(out.adapted.document);
  return out;
}

void expect_equivalent(const std::string& src, MarkupKind target,
                       const AdaptationConfig& cfg, bool want_wbxml,
                       const char* label) {
  const LegacyOut ref = legacy(src, target, cfg, want_wbxml);
  std::string text;
  std::string wbxml;
  const TranslateCounters got = translate_html(
      src, target, cfg, text, want_wbxml ? &wbxml : nullptr);
  EXPECT_EQ(text, ref.text) << label << " src: " << src;
  if (want_wbxml) {
    EXPECT_EQ(wbxml, ref.wbxml) << label << " src: " << src;
  }
  EXPECT_EQ(got.text_truncations, ref.adapted.text_truncations)
      << label << " src: " << src;
  EXPECT_EQ(got.images_dropped, ref.adapted.images_dropped)
      << label << " src: " << src;
  EXPECT_EQ(got.nodes_dropped, ref.adapted.nodes_dropped)
      << label << " src: " << src;
}

// Configs that push every adaptation branch: defaults, aggressive text
// truncation (short enough to truncate bullets and "[submit]"), a byte cap
// tight enough to force node drops + the "[more...]" marker, and image
// retention for cHTML.
std::vector<std::pair<const char*, AdaptationConfig>> configs() {
  std::vector<std::pair<const char*, AdaptationConfig>> out;
  out.emplace_back("defaults", AdaptationConfig{});
  AdaptationConfig tiny_text;
  tiny_text.max_text_run = 3;
  out.emplace_back("tiny-text", tiny_text);
  AdaptationConfig tiny_doc;
  tiny_doc.max_serialized_bytes = 40;
  out.emplace_back("tiny-doc", tiny_doc);
  AdaptationConfig mid_doc;
  mid_doc.max_serialized_bytes = 120;
  mid_doc.max_text_run = 8;
  out.emplace_back("mid-doc", mid_doc);
  AdaptationConfig keep;
  keep.keep_images = true;
  out.emplace_back("keep-images", keep);
  return out;
}

class TranslateCorpus : public ::testing::TestWithParam<int> {};

TEST_P(TranslateCorpus, WmlBytesAndCountersMatchLegacyPipeline) {
  const std::string src = kCorpus[GetParam()];
  for (const auto& [label, cfg] : configs()) {
    expect_equivalent(src, MarkupKind::kWml, cfg, /*want_wbxml=*/true, label);
  }
}

TEST_P(TranslateCorpus, ChtmlBytesAndCountersMatchLegacyPipeline) {
  const std::string src = kCorpus[GetParam()];
  for (const auto& [label, cfg] : configs()) {
    expect_equivalent(src, MarkupKind::kChtml, cfg, /*want_wbxml=*/false,
                      label);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, TranslateCorpus,
                         ::testing::Range(0, static_cast<int>(
                                                 std::size(kCorpus))));

// --- Randomized documents --------------------------------------------------
// Random trees (same generator shape as middleware_property_test.cpp) are
// serialized to HTML text and pushed through both pipelines. This reaches
// interleavings the corpus can't: nested unknown tags, attribute spam,
// card-title fallbacks, deep misnesting.

MarkupNode random_node(sim::Rng& rng, int depth) {
  static const char* kTags[] = {"p",  "b",     "i",      "u",     "a",
                                "card", "select", "option", "weirdtag",
                                "img",  "table", "tr",     "td",    "ul",
                                "li",   "form",  "h2",     "div"};
  if (depth <= 0 || rng.bernoulli(0.4)) {
    std::string text;
    const int len = static_cast<int>(rng.uniform_int(1, 30));
    for (int i = 0; i < len; ++i) {
      text += static_cast<char>('a' + rng.uniform_int(0, 25));
    }
    return MarkupNode::text_node(text);
  }
  MarkupNode n = MarkupNode::element(
      kTags[rng.uniform_int(0, std::size(kTags) - 1)]);
  if (rng.bernoulli(0.5)) {
    n.set_attr("href", sim::strf("/x%lld", static_cast<long long>(
                                               rng.uniform_int(0, 999))));
  }
  if (rng.bernoulli(0.3)) n.set_attr("alt", "alt text");
  if (rng.bernoulli(0.3)) n.set_attr("customattr", "v v v");
  const int kids = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < kids; ++i) {
    n.children.push_back(random_node(rng, depth - 1));
  }
  return n;
}

class TranslateRandomDocs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TranslateRandomDocs, FusedMatchesLegacyOnRandomTrees) {
  sim::Rng rng{GetParam()};
  const auto cfgs = configs();
  for (int round = 0; round < 25; ++round) {
    MarkupDocument doc;
    doc.kind = MarkupKind::kHtml;
    const int tops = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < tops; ++i) {
      doc.root.children.push_back(random_node(rng, 4));
    }
    const std::string src = doc.serialize();
    const auto& [label, cfg] = cfgs[round % cfgs.size()];
    expect_equivalent(src, MarkupKind::kWml, cfg, /*want_wbxml=*/true, label);
    expect_equivalent(src, MarkupKind::kChtml, cfg, /*want_wbxml=*/false,
                      label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslateRandomDocs,
                         ::testing::Values(301, 302, 303, 304, 305, 306));

// --- Buffer reuse ----------------------------------------------------------

TEST(TranslateBuffers, OutputBuffersAreClearedAndReusedAcrossCalls) {
  const AdaptationConfig cfg;
  std::string text;
  std::string wbxml;
  translate_html(kCorpus[0], MarkupKind::kWml, cfg, text, &wbxml);
  const std::string first_text = text;
  const std::string first_wbxml = wbxml;
  // A second, different translation into the same (now warm) buffers...
  translate_html(kCorpus[4], MarkupKind::kWml, cfg, text, &wbxml);
  EXPECT_NE(text, first_text);
  // ...and back: same input bytes => same output bytes, no stale prefix.
  translate_html(kCorpus[0], MarkupKind::kWml, cfg, text, &wbxml);
  EXPECT_EQ(text, first_text);
  EXPECT_EQ(wbxml, first_wbxml);
}

// --- Empty slices ----------------------------------------------------------
// A default-constructed Slice has a null data(); concatenation must skip it
// rather than hand memcpy a null source (UBSan flags that even for n = 0).

TEST(ArenaCat, EmptyAndDefaultPartsContributeNothing) {
  sim::Arena arena;
  const sim::Slice none;
  const sim::Slice empty{""};
  EXPECT_TRUE(view::arena_cat(arena, none, none, none).empty());
  EXPECT_TRUE(view::arena_cat(arena, empty, none, empty).empty());
  EXPECT_EQ(view::arena_cat(arena, none, "ab", none), "ab");
  EXPECT_EQ(view::arena_cat(arena, "a", none, "c"), "ac");
  EXPECT_EQ(view::arena_cat(arena, empty, empty, "xyz"), "xyz");
  EXPECT_EQ(view::arena_cat(arena, "1", ". ", none), "1. ");
}

TEST(ArenaCat, TranslationsThatConcatenateEmptyPartsMatchLegacy) {
  // Ordered-list bullets and truncation markers pass a default Slice as the
  // third part; empty alt text reaches the image rule.
  AdaptationConfig tiny_text;
  tiny_text.max_text_run = 3;
  for (const char* src :
       {"<ol><li>one</li><li>two</li></ol>", "<p>truncate me</p>",
        "<img alt=''><img alt='x'>", "<ol><li></li></ol>"}) {
    for (const AdaptationConfig& cfg : {AdaptationConfig{}, tiny_text}) {
      expect_equivalent(src, MarkupKind::kWml, cfg, /*want_wbxml=*/true,
                        "empty-parts");
      expect_equivalent(src, MarkupKind::kChtml, cfg, /*want_wbxml=*/false,
                        "empty-parts");
    }
  }
}

TEST(TranslateBuffers, WbxmlHeaderIsCanonicalEmptyStringTable) {
  // Generated decks only use WML 1.1 code-page tokens, so the WBXML header
  // is exactly version 1.3 / WML 1.1 / UTF-8 / empty string table.
  const AdaptationConfig cfg;
  std::string text;
  std::string wbxml;
  translate_html("<p>x</p>", MarkupKind::kWml, cfg, text, &wbxml);
  ASSERT_GE(wbxml.size(), 4u);
  EXPECT_EQ(wbxml.substr(0, 4), std::string("\x03\x04\x6A\x00", 4));
}

}  // namespace
}  // namespace mcs::middleware
