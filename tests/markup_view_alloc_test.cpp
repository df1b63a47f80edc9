// Allocation proof for the handset's per-page work (markup_view.h): once the
// thread's view arena is warm and the caller reuses its output buffers,
// decoding a WBXML deck and summarising a page perform no heap allocation at
// all. A counting operator new in this binary measures it directly, so a
// stray temporary on either path fails here, not in a benchmark.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "middleware/adaptation.h"
#include "middleware/markup.h"
#include "middleware/markup_view.h"
#include "middleware/translate.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  std::fputs("markup_view_alloc_test: out of memory\n", stderr);
  std::abort();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mcs::middleware {
namespace {

// A host page with a long title (past the small-string buffer), nested
// markup, a table, a list and a form: every rule the summary and the decode
// apply runs at least once.
const char* kPage =
    "<html><head><title>Mobile Commerce Catalog, page one</title></head>"
    "<body><h1>Catalog</h1><p>Our <b>offers</b> for <i>today</i>:</p>"
    "<ul><li>Ringtone bundle<li>News alerts</ul>"
    "<table><tr><td>Ringtone</td><td>$0.99</td></tr></table>"
    "<form action='/buy'><input name='item' value='ringtone'></form>"
    "<a href='/catalog?page=2'>next page</a></body></html>";

constexpr int kPages = 64;

template <class Fn>
std::uint64_t allocations_per_page(Fn&& page) {
  page();  // warm the arena and the reused outputs
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < kPages; ++i) page();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(MarkupViewAllocations, SummaryIsAllocationFreeWhenWarm) {
  std::string wml;
  translate_html(kPage, MarkupKind::kWml, AdaptationConfig{}, wml);
  const std::string html = kPage;
  PageSummary summary;
  EXPECT_EQ(allocations_per_page([&] { summarize_page(wml, summary); }), 0u);
  EXPECT_EQ(allocations_per_page([&] { summarize_page(html, summary); }), 0u);
  // The measured pass did the real work.
  const MarkupDocument ref = parse_markup(html, MarkupKind::kHtml);
  EXPECT_EQ(summary.title, ref.title());
  EXPECT_EQ(summary.text, ref.root.inner_text());
  EXPECT_EQ(summary.elements, ref.root.element_count());
}

TEST(MarkupViewAllocations, DecodeIsAllocationFreeWhenWarm) {
  std::string text;
  std::string deck;
  translate_html(kPage, MarkupKind::kWml, AdaptationConfig{}, text, &deck);
  std::string wml;
  bool ok = false;
  EXPECT_EQ(allocations_per_page([&] { ok = wbxml_decode_to(deck, wml); }),
            0u);
  ASSERT_TRUE(ok);
  EXPECT_EQ(wml, text);
}

TEST(MarkupViewAllocations, HandsetPageIsAllocationFreeWhenWarm) {
  // The station's whole per-page sequence: decode, then summarise.
  std::string text;
  std::string deck;
  translate_html(kPage, MarkupKind::kWml, AdaptationConfig{}, text, &deck);
  std::string wml;
  PageSummary summary;
  EXPECT_EQ(allocations_per_page([&] {
              ASSERT_TRUE(wbxml_decode_to(deck, wml));
              summarize_page(wml, summary);
            }),
            0u);
  EXPECT_EQ(summary.title, "Mobile Commerce Catalog, page one");
}

TEST(MarkupViewAllocations, FreshOutputsCostOneAllocationEach) {
  // A fresh string is exactly reserved: one allocation for the decoded deck,
  // one for the text (the title stays in the small-string buffer here).
  std::string text;
  std::string deck;
  translate_html("<p>a paragraph long enough to leave the small buffer</p>",
                 MarkupKind::kWml, AdaptationConfig{}, text, &deck);
  {
    std::string warm;
    PageSummary warm_summary;
    ASSERT_TRUE(wbxml_decode_to(deck, warm));
    summarize_page(warm, warm_summary);
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  {
    std::string wml;
    ASSERT_TRUE(wbxml_decode_to(deck, wml));
    PageSummary summary;
    summarize_page(wml, summary);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed) - before, 2u);
}

}  // namespace
}  // namespace mcs::middleware
