#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "net/address.h"
#include "sim/arena.h"
#include "sim/util.h"

namespace mcs::host {

// Start line and header fields of one HTTP message, stored as views into one
// owned byte buffer (DESIGN.md §12.2, "Host tier: HTTP"). The buffer keeps
// its first kInlineBytes inside the object, so a freshly built response
// (status, reason, Content-Type, Server) touches no heap; a bigger head
// spills to one heap block that a recycled message keeps across uses.
//
// Header fields stay ordered by name in byte order (equal names in arrival
// order), so serialization emits them in the order a sorted map would.
// Every parsed field line is kept, repeated names included. Lookups are a
// case-insensitive linear scan: messages carry a handful of fields.
class HttpHead {
 public:
  // Most header fields one message can hold; a parsed message with more is
  // a parse error, and set_header past it is a contract violation.
  static constexpr std::size_t kMaxFields = 24;

  // Value of the first field whose name matches case-insensitively; when
  // that exact name repeats, the last value wins. An absent field gives a
  // null view (a present empty value does not). The view lives as long as
  // the message is unchanged.
  sim::Slice header(sim::Slice name) const;
  // Replace every field spelled exactly `name` with one field, or insert it.
  void set_header(sim::Slice name, sim::Slice value);
  // Calls fn(value) for every field named `name` (case-insensitive), in
  // stored order: by name, repeats in arrival order.
  template <typename Fn>
  void for_each_header(sim::Slice name, Fn&& fn) const {
    for (std::size_t i = 0; i < nfields_; ++i) {
      if (sim::iequals(view(fields_[i].name), name)) fn(view(fields_[i].value));
    }
  }
  std::size_t header_count() const { return nfields_; }

 protected:
  struct Span {
    std::uint32_t at = 0;
    std::uint32_t len = 0;
  };

  HttpHead() = default;
  HttpHead(const HttpHead&) = default;
  HttpHead& operator=(const HttpHead&) = default;
  // A moved-from head is empty: no fields and empty start-line views.
  HttpHead(HttpHead&& o) noexcept;
  HttpHead& operator=(HttpHead&& o) noexcept;
  ~HttpHead() = default;

  sim::Slice view(Span s) const { return {bytes_.data() + s.at, s.len}; }
  // Span of a view into this head's own bytes.
  Span span_of(sim::Slice s) const {
    return Span{static_cast<std::uint32_t>(s.data() - bytes_.data()),
                static_cast<std::uint32_t>(s.size())};
  }
  Span store(sim::Slice s) {
    return Span{bytes_.append(s), static_cast<std::uint32_t>(s.size())};
  }
  // Drop every field and start-line byte; keeps the buffer's capacity.
  void clear_head();
  // Copy a raw head block (start line through the last header line) into
  // the buffer and index it; start_[0] spans the whole trimmed start line.
  // Returns false if it has too many fields.
  bool parse_head(sim::Slice head);
  // Header block bytes: "Name: value\r\n" per field, an optional
  // synthesized Content-Length, and the blank line.
  void serialize_fields(sim::BufWriter& w, std::size_t body_size) const;
  std::size_t fields_size(std::size_t body_size) const;

  // Start-line fields: method/path/version for a request,
  // version/-/reason for a response.
  Span start_[3];

 private:
  friend class HttpParser;
  // Byte buffer with inline storage for small heads.
  class Bytes {
   public:
    static constexpr std::uint32_t kInlineBytes = 192;
    Bytes() = default;
    Bytes(const Bytes& o) { append(o.view()); }
    Bytes& operator=(const Bytes& o);
    Bytes(Bytes&& o) noexcept { take(o); }
    Bytes& operator=(Bytes&& o) noexcept;
    ~Bytes() = default;

    const char* data() const { return heap_ ? heap_.get() : inline_; }
    sim::Slice view() const { return {data(), size_}; }
    // Append and return the offset the bytes start at.
    std::uint32_t append(sim::Slice s);
    void clear() { size_ = 0; }

   private:
    void take(Bytes& o) noexcept;
    std::unique_ptr<char[]> heap_;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = kInlineBytes;
    char inline_[kInlineBytes] = {};
  };
  struct Field {
    Span name;
    Span value;
  };
  void insert_field(Field f);

  Bytes bytes_;
  Field fields_[kMaxFields];
  std::uint32_t nfields_ = 0;
};

struct HttpRequest : HttpHead {
  HttpRequest();

  sim::Slice method() const { return view(start_[0]); }
  sim::Slice path() const { return view(start_[1]); }
  sim::Slice version() const { return view(start_[2]); }
  void set_method(sim::Slice m) { start_[0] = store(m); }
  void set_path(sim::Slice p) { start_[1] = store(p); }
  void set_version(sim::Slice v) { start_[2] = store(v); }
  // Back to "GET / HTTP/1.1" with no fields, body or peer; a recycled
  // request keeps its buffers' capacity.
  void clear();

  // The TCP peer a server received this request from (unset on requests a
  // client builds). CGI programs and gateways identify clients by it.
  net::Endpoint peer;
  std::string body;

  // Full wire form, with Content-Length synthesized from the body.
  std::string serialize() const;
  // Same bytes appended to a caller-owned (reused) buffer: the zero-copy
  // spelling for per-request send paths (DESIGN.md §12).
  void serialize_to(sim::BufWriter& w) const;
  // serialize().size() without building the bytes (stats/accounting).
  std::size_t wire_size() const;

 private:
  friend class HttpParser;
  // Split the start line parse_head left in start_[0]; false if malformed.
  bool parse_start_line();
};

struct HttpResponse : HttpHead {
  HttpResponse();

  int status = 200;
  sim::Slice version() const { return view(start_[0]); }
  sim::Slice reason() const { return view(start_[2]); }
  void set_version(sim::Slice v) { start_[0] = store(v); }
  void set_reason(sim::Slice r) { start_[2] = store(r); }
  std::string body;

  std::string serialize() const;
  void serialize_to(sim::BufWriter& w) const { serialize_to(w, body); }
  // Head of this response followed by `body` in place of this->body (the
  // Content-Length it synthesizes counts `body`).
  void serialize_to(sim::BufWriter& w, sim::Slice body) const;
  std::size_t wire_size() const;

  static HttpResponse make(int status, sim::Slice content_type,
                           std::string body = {});
  static HttpResponse not_found(sim::Slice what = {});
  static HttpResponse bad_request(sim::Slice why = {});
  static HttpResponse server_error(sim::Slice why = {});

 private:
  friend class HttpParser;
  bool parse_start_line();
};

const char* reason_for_status(int status);

// Incremental HTTP message parser: feed stream bytes as they arrive from a
// TCP socket; fires a callback per complete message. Handles pipelined
// messages and Content-Length framing (chunked encoding is not modelled).
//
// Each message is parsed into one recycled message owned by the parser and
// handed to the callback by reference. It is valid until the callback
// returns; the callback may annotate it (peer) or move its body out.
class HttpParser {
 public:
  enum class Mode { kRequest, kResponse };

  explicit HttpParser(Mode mode) : mode_{mode} {}

  std::function<void(HttpRequest&)> on_request;
  std::function<void(HttpResponse&)> on_response;
  // Fired on unrecoverable parse errors (the feed is then ignored).
  std::function<void(const std::string&)> on_error;

  void feed(sim::Slice bytes);
  bool failed() const { return failed_; }
  // Wire bytes (head and body) of the message being delivered; valid
  // inside on_request/on_response.
  std::size_t message_size() const { return message_size_; }

 private:
  // Parse and deliver one message from the front of `in`; returns the bytes
  // it consumed, or 0 if `in` holds no complete message (or on failure).
  std::size_t parse_one(sim::Slice in);
  void fail(sim::Slice why);

  Mode mode_;
  // Unconsumed tail of the stream (a partial message), if any.
  std::string buffer_;
  // Total size of the partial message in buffer_ once its head is known:
  // feeds that leave it short skip reparsing the head.
  std::size_t want_ = 0;
  std::size_t message_size_ = 0;
  bool failed_ = false;
  HttpRequest request_;
  HttpResponse response_;
};

// Cookie storage (§7: "client-side programs such as cookies"). Real WAP
// phones could not store cookies, so the WAP gateway keeps a jar per phone;
// desktop and i-mode clients can own one directly. Jars are partitioned by
// an opaque origin key (typically "host:port") so sites never see each
// other's cookies.
class CookieJar {
 public:
  // Record every Set-Cookie field of `resp` under `origin`.
  void update_from(sim::Slice origin, const HttpResponse& resp);
  void set(sim::Slice origin, sim::Slice name, sim::Slice value);
  // "name1=v1; name2=v2" for the Cookie request header; empty if none.
  std::string cookie_header(sim::Slice origin) const;
  std::size_t size() const;
  void clear() { jars_.clear(); }

 private:
  using Jar = std::map<std::string, std::string, std::less<>>;
  std::map<std::string, Jar, std::less<>> jars_;
};

// Parse a "host:port/path" or "http://host:port/path" URL into parts, as
// views into `url`. `host` may be a dotted address or a symbolic name for a
// resolver; the port, when present, is 1-65535 in ASCII digits only.
struct ParsedUrl {
  sim::Slice host;
  std::uint16_t port = 80;
  sim::Slice path = "/";
};
std::optional<ParsedUrl> parse_url(sim::Slice url);

}  // namespace mcs::host
