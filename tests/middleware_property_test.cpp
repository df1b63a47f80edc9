// Property sweeps over the markup engine and the WBXML codec: serializer
// fixpoints, translation invariants, round-trip exactness on randomly
// generated documents, and decoder robustness against garbage bytes. The
// arena view's request-path functions (markup_view.h) are held to the owned
// tree here too: summarize_page against element_count/title/inner_text, and
// wbxml_decode_to against wbxml_decode + serialize.

#include <gtest/gtest.h>

#include "middleware/adaptation.h"
#include "middleware/markup.h"
#include "middleware/markup_view.h"
#include "middleware/wbxml.h"
#include "sim/random.h"
#include "sim/util.h"

namespace mcs::middleware {
namespace {

// --- A corpus of tag-soup documents ------------------------------------------

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
};

// The page summary must answer exactly what the reference tree answers.
void expect_summary_matches_tree(const std::string& src) {
  const MarkupDocument doc = parse_markup(src, MarkupKind::kHtml);
  PageSummary got;
  summarize_page(src, got);
  EXPECT_EQ(got.elements, doc.root.element_count()) << "src: " << src;
  EXPECT_EQ(got.title, doc.title()) << "src: " << src;
  EXPECT_EQ(got.text, doc.root.inner_text()) << "src: " << src;
}

// The streaming decode must accept exactly what the reference decoder
// accepts, and then produce its serialization byte for byte.
void expect_decode_matches_tree(const std::string& bytes) {
  const auto ref = wbxml_decode(bytes);
  std::string got = "stale output from an earlier page";
  const bool ok = wbxml_decode_to(bytes, got);
  ASSERT_EQ(ok, ref.has_value()) << "bytes: " << bytes.size();
  if (ok) {
    EXPECT_EQ(got, ref->serialize());
  } else {
    EXPECT_TRUE(got.empty());
  }
}

class MarkupCorpus : public ::testing::TestWithParam<int> {};

TEST_P(MarkupCorpus, PageSummaryMatchesTree) {
  const std::string src = kCorpus[GetParam()];
  expect_summary_matches_tree(src);
  // The handset summarises the deck the gateway produced, not the HTML.
  expect_summary_matches_tree(
      html_to_wml(parse_markup(src, MarkupKind::kHtml)).serialize());
}

TEST_P(MarkupCorpus, DecodeToMatchesTreeOnTranslatedDeck) {
  const auto html = parse_markup(kCorpus[GetParam()], MarkupKind::kHtml);
  expect_decode_matches_tree(wbxml_encode(html_to_wml(html)));
}

TEST_P(MarkupCorpus, SerializeParseFixpoint) {
  const std::string src = kCorpus[GetParam()];
  const auto doc1 = parse_markup(src, MarkupKind::kHtml);
  const std::string ser1 = doc1.serialize();
  const auto doc2 = parse_markup(ser1, MarkupKind::kHtml);
  // One round may normalize tag soup; after that it must be a fixpoint.
  EXPECT_EQ(doc2.serialize(), ser1);
}

TEST_P(MarkupCorpus, WmlTranslationProducesOnlyWmlTags) {
  static const char* kAllowed[] = {"wml", "card", "p",  "a",     "b",
                                   "i",   "u",    "br", "input", "select",
                                   "option"};
  const auto html = parse_markup(kCorpus[GetParam()], MarkupKind::kHtml);
  const auto wml = html_to_wml(html);
  std::function<void(const MarkupNode&)> check = [&](const MarkupNode& n) {
    if (!n.is_text()) {
      const bool ok = std::any_of(std::begin(kAllowed), std::end(kAllowed),
                                  [&](const char* t) { return n.tag == t; });
      EXPECT_TRUE(ok) << "unexpected WML tag <" << n.tag << ">";
    }
    for (const auto& c : n.children) check(c);
  };
  check(wml.root);
  // Deck shape: a single wml element holding a single card.
  ASSERT_EQ(wml.root.children.size(), 1u);
  EXPECT_EQ(wml.root.children[0].tag, "wml");
}

TEST_P(MarkupCorpus, TranslationPreservesVisibleText) {
  // Every non-whitespace text character visible in the HTML body must
  // survive into the WML deck (scripts/styles excluded by construction).
  const std::string src = kCorpus[GetParam()];
  const auto html = parse_markup(src, MarkupKind::kHtml);
  if (html.find("script") != nullptr || html.find("style") != nullptr) {
    GTEST_SKIP() << "script/style content is intentionally dropped";
  }
  const auto wml = html_to_wml(html);
  std::string wanted;
  std::function<void(const MarkupNode&)> collect = [&](const MarkupNode& n) {
    if (n.tag == "head" || n.tag == "title") return;  // not body content
    if (n.is_text()) {
      for (char c : n.text) {
        if (!std::isspace(static_cast<unsigned char>(c))) wanted += c;
      }
    }
    for (const auto& c : n.children) collect(c);
  };
  collect(html.root);
  std::string got;
  for (char c : wml.root.inner_text()) {
    if (!std::isspace(static_cast<unsigned char>(c))) got += c;
  }
  for (std::size_t i = 0; i + 20 <= wanted.size(); i += 20) {
    EXPECT_NE(got.find(wanted.substr(i, 20)), std::string::npos)
        << "lost text chunk from: " << src;
  }
}

TEST_P(MarkupCorpus, WbxmlRoundTripsTranslatedDeck) {
  const auto html = parse_markup(kCorpus[GetParam()], MarkupKind::kHtml);
  const auto wml = html_to_wml(html);
  const auto decoded = wbxml_decode(wbxml_encode(wml));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->serialize(), wml.serialize());
}

INSTANTIATE_TEST_SUITE_P(Corpus, MarkupCorpus,
                         ::testing::Range(0, static_cast<int>(
                                                 std::size(kCorpus))));

// --- Random document generator ------------------------------------------------

MarkupNode random_node(sim::Rng& rng, int depth) {
  static const char* kTags[] = {"p", "b", "i", "u", "a", "card", "select",
                                "option", "weirdtag"};
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
  if (rng.bernoulli(0.3)) n.set_attr("customattr", "v v v");
  const int kids = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < kids; ++i) {
    n.children.push_back(random_node(rng, depth - 1));
  }
  return n;
}

class WbxmlRandomDocs : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WbxmlRandomDocs, DecodeToMatchesTreeOnEncoderOutput) {
  // "weirdtag" and "customattr" are outside the WML 1.1 code page, so these
  // decks carry LITERAL tokens backed by the string table.
  sim::Rng rng{GetParam()};
  for (int round = 0; round < 20; ++round) {
    MarkupDocument doc;
    doc.kind = MarkupKind::kWml;
    const int tops = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < tops; ++i) {
      doc.root.children.push_back(random_node(rng, 4));
    }
    expect_decode_matches_tree(wbxml_encode(doc));
  }
}

TEST_P(WbxmlRandomDocs, EncodeDecodeIsIdentity) {
  sim::Rng rng{GetParam()};
  for (int round = 0; round < 20; ++round) {
    MarkupDocument doc;
    doc.kind = MarkupKind::kWml;
    const int tops = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < tops; ++i) {
      doc.root.children.push_back(random_node(rng, 4));
    }
    const std::string bytes = wbxml_encode(doc);
    const auto back = wbxml_decode(bytes);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->serialize(), doc.serialize());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WbxmlRandomDocs,
                         ::testing::Values(101, 102, 103, 104));

class WbxmlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WbxmlFuzz, GarbageNeverCrashesDecoder) {
  sim::Rng rng{GetParam()};
  for (int round = 0; round < 200; ++round) {
    std::string junk;
    const int len = static_cast<int>(rng.uniform_int(0, 300));
    for (int i = 0; i < len; ++i) {
      junk += static_cast<char>(rng.uniform_int(0, 255));
    }
    // Half the time, start from a valid header to reach deeper code paths.
    if (rng.bernoulli(0.5)) {
      junk = std::string("\x03\x04\x6A\x00", 4) + junk;
    }
    (void)wbxml_decode(junk);  // must not crash or hang
  }
  SUCCEED();
}

TEST_P(WbxmlFuzz, TruncatedValidDocsAreRejectedNotCrashing) {
  sim::Rng rng{GetParam()};
  const auto html = parse_markup(
      "<html><head><title>T</title></head><body><h1>H</h1><p>text here</p>"
      "<a href=\"/x\">l</a></body></html>",
      MarkupKind::kHtml);
  const std::string bytes = wbxml_encode(html_to_wml(html));
  for (int round = 0; round < 100; ++round) {
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size() - 1)));
    (void)wbxml_decode(bytes.substr(0, cut));
  }
  SUCCEED();
}

TEST_P(WbxmlFuzz, DecodeToAgreesWithTreeOnGarbage) {
  sim::Rng rng{GetParam()};
  for (int round = 0; round < 200; ++round) {
    std::string junk;
    const int len = static_cast<int>(rng.uniform_int(0, 300));
    for (int i = 0; i < len; ++i) {
      junk += static_cast<char>(rng.uniform_int(0, 255));
    }
    if (rng.bernoulli(0.5)) {
      junk = std::string("\x03\x04\x6A\x00", 4) + junk;
    }
    expect_decode_matches_tree(junk);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WbxmlFuzz, ::testing::Values(201, 202, 203));

class PageSummaryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PageSummaryFuzz, MatchesTreeOnRandomDocs) {
  sim::Rng rng{GetParam()};
  for (int round = 0; round < 20; ++round) {
    MarkupDocument doc;
    const int tops = static_cast<int>(rng.uniform_int(1, 4));
    for (int i = 0; i < tops; ++i) {
      doc.root.children.push_back(random_node(rng, 4));
    }
    expect_summary_matches_tree(doc.serialize());
  }
}

// Random tag soup: markup-significant fragments glued at random, so tags end
// mid-attribute, comments never close and end tags arrive unopened.
TEST_P(PageSummaryFuzz, MatchesTreeOnTagSoup) {
  static const char* kBits[] = {
      "<p>",     "</p>",    "<title>", "</title>", "<card title='ct'>",
      "</card>", "<script>", "</script>", "<style>", "</style",
      "<!--",    "-->",     "<",       ">",        "/",
      "text",    " ",       "<b",      "='",       "\"",
      "<TITLE>", "</ b>",   "<br/>",   "<img alt=a>", "<?x?>",
      "<!DOCTYPE x>", "<a href=x>", "</a>", "\n",   "<Card Title=\"u\">"};
  sim::Rng rng{GetParam()};
  for (int round = 0; round < 300; ++round) {
    std::string src;
    const int parts = static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < parts; ++i) {
      src += kBits[rng.uniform_int(0, std::size(kBits) - 1)];
    }
    expect_summary_matches_tree(src);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PageSummaryFuzz,
                         ::testing::Values(401, 402, 403));

TEST(PageSummary, AdversarialInputsMatchTree) {
  const char* kInputs[] = {
      // Stray end tags.
      "</p></div>text</b> tail",
      "<p>a</i></p>b</card>",
      // Raw-text elements: markup inside is text, an uppercase close tag
      // does not end them, an unclosed one runs to the end.
      "<script>if (a<b) { x('</p>'); }</script><p>shown</p>",
      "<style>p { x: y }</style >after",
      "<SCRIPT>x</SCRIPT><p>swallowed</p>",
      "<script>never closed <title>T</title>",
      "<script/><p>self-closed script</p>",
      // Unterminated tags and comments.
      "<p",
      "text <b",
      "<p class='x>y",
      "</p",
      "<!-- never closed <title>T</title>",
      "<!x",
      "<",
      "<>",
      // <title> inside tag soup: nested markup, duplicates, blank titles.
      "<b><title> T <i>x</i></b> y</title> after",
      "<p><title>one</title><title>two</title>",
      "<title>   </title><card title='card'>",
      "<title>\n\t padded \n</title>",
      "<TITLE>Upper</TITLE>",
      // Card-title fallback.
      "<wml><card id='main' title='Deck title'><p>x</p></card></wml>",
      "<card><p>no title</p></card><card title='second'>",
      "<card title=''><p>empty</p></card>",
      "<CARD TITLE=\"Shouted\">x</CARD>",
      "",
      "   \n  ",
  };
  for (const char* src : kInputs) expect_summary_matches_tree(src);
}

TEST(PageSummary, ReusedSummaryIsOverwritten) {
  PageSummary s;
  summarize_page("<title>A long title for the first page</title><p>one</p>",
                 s);
  summarize_page("<p>two</p>", s);
  EXPECT_EQ(s.elements, 1u);
  EXPECT_EQ(s.title, "");
  EXPECT_EQ(s.text, "two");
}

TEST(WbxmlDecodeTo, EveryTruncationOfAValidDeckMatchesTree) {
  const auto html = parse_markup(
      "<html><head><title>T</title></head><body><h1>H</h1><p>text here</p>"
      "<a href=\"/x\">l</a><weird k='v'>w</weird></body></html>",
      MarkupKind::kHtml);
  MarkupDocument wml = html_to_wml(html);
  // A literal tag and attribute so the string table is in play.
  MarkupNode extra = MarkupNode::element("weirdtag");
  extra.set_attr("customattr", "v");
  extra.children.push_back(MarkupNode::text_node("literal"));
  wml.root.children.push_back(extra);
  const std::string bytes = wbxml_encode(wml);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    expect_decode_matches_tree(bytes.substr(0, cut));
  }
}

TEST(WbxmlDecodeTo, LiteralAndStringTableEdgeCasesMatchTree) {
  const std::string hdr("\x03\x04\x6A", 3);
  using namespace std::string_literals;  // the bodies embed NULs
  const std::string kBodies[] = {
      // String table "ab\0cd" (no trailing NUL): LITERAL tag at offset 0,
      // then offset 3 (runs to the end of the table).
      "\x05" "ab\0cd" "\x04\x00"s,
      "\x05" "ab\0cd" "\x04\x03"s,
      // Out-of-range offset: a tagless node, whose subtree serializes to
      // nothing (content and attributes included).
      "\x03" "ab\0" "\x44\x09\x03hidden\0\x01\x03shown\0"s,
      "\x03" "ab\0" "\xC4\x09\x55\x03v\0\x01\x01"s,
      // LITERAL attribute names: resolvable, empty (malformed), and a
      // literal attribute with no value.
      "\x03" "ab\0" "\xA0\x04\x00\x03v\0\x01"s,
      "\x03" "ab\0" "\xA0\x04\x09\x01"s,
      "\x03" "ab\0" "\xA0\x04\x00\x01"s,
      // Unknown tag and attribute tokens (malformed).
      "\x00" "\x05"s,
      "\x00" "\xA0\x7F\x01"s,
      // A content-flagged void tag with no children, and an empty STR_I.
      "\x00" "\x66\x01"s,
      "\x00" "\x60\x03\0\x01"s,
      // Multi-byte string-table length that runs off the end.
      "\x85"s,
      // A string table longer than the input.
      "\x7F" "ab"s,
      // END and STR_I tokens where a tag must start.
      "\x00" "\x01"s,
      "\x00" "\x43"s,
  };
  for (const std::string& body : kBodies) {
    expect_decode_matches_tree(hdr + body);
  }
}

// --- Adaptation invariants ------------------------------------------------------

class AdaptationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AdaptationSweep, NeverExceedsBudgetAndIsIdempotent) {
  const std::size_t budget = GetParam();
  sim::Rng rng{budget};
  MarkupDocument doc;
  doc.kind = MarkupKind::kWml;
  for (int i = 0; i < 30; ++i) doc.root.children.push_back(random_node(rng, 3));

  AdaptationConfig cfg;
  cfg.max_serialized_bytes = budget;
  cfg.max_text_run = 64;
  const auto once = adapt_document(doc, cfg);
  EXPECT_LE(once.document.serialize().size(), budget + 32);  // + marker
  const auto twice = adapt_document(once.document, cfg);
  EXPECT_LE(twice.document.serialize().size(),
            once.document.serialize().size() + 32);
}

INSTANTIATE_TEST_SUITE_P(Budgets, AdaptationSweep,
                         ::testing::Values(200, 600, 1400, 4096, 1 << 20));

}  // namespace
}  // namespace mcs::middleware
