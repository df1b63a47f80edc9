#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "sim/arena.h"

namespace mcs::host {

// Case-insensitive header map (HTTP header names are case-insensitive).
// Transparent comparator: the parser probes by string_view without
// materializing key copies.
using HeaderMap = std::map<std::string, std::string, std::less<>>;

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  std::string header(const std::string& name) const;
  void set_header(sim::Slice name, sim::Slice value);
  // Full wire form, with Content-Length synthesized from the body.
  std::string serialize() const;
  // Same bytes appended to a caller-owned (reused) buffer: the zero-copy
  // spelling for per-request send paths (DESIGN.md §12).
  void serialize_to(sim::BufWriter& w) const;
  // serialize().size() without building the bytes (stats/accounting).
  std::size_t wire_size() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  HeaderMap headers;
  std::string body;

  std::string header(const std::string& name) const;
  void set_header(sim::Slice name, sim::Slice value);
  std::string serialize() const;
  void serialize_to(sim::BufWriter& w) const;
  std::size_t wire_size() const;

  static HttpResponse make(int status, std::string content_type,
                           std::string body);
  static HttpResponse not_found(const std::string& what = "");
  static HttpResponse bad_request(const std::string& why = "");
  static HttpResponse server_error(const std::string& why = "");
};

const char* reason_for_status(int status);

// Incremental HTTP message parser: feed stream bytes as they arrive from a
// TCP socket; fires a callback per complete message. Handles pipelined
// messages and Content-Length framing (chunked encoding is not modelled).
class HttpParser {
 public:
  enum class Mode { kRequest, kResponse };

  explicit HttpParser(Mode mode) : mode_{mode} {}

  std::function<void(HttpRequest&&)> on_request;
  std::function<void(HttpResponse&&)> on_response;
  // Fired on unrecoverable parse errors (the feed is then ignored).
  std::function<void(const std::string&)> on_error;

  void feed(const std::string& bytes);
  bool failed() const { return failed_; }

 private:
  bool try_parse_one();
  void fail(const std::string& why);

  Mode mode_;
  std::string buffer_;
  bool failed_ = false;
};

// Cookie storage (§7: "client-side programs such as cookies"). Real WAP
// phones could not store cookies, so the WAP gateway keeps a jar per phone;
// desktop and i-mode clients can own one directly. Jars are partitioned by
// an opaque origin key (typically "host:port") so sites never see each
// other's cookies.
class CookieJar {
 public:
  // Record every Set-Cookie header of `resp` under `origin`.
  void update_from(const std::string& origin, const HttpResponse& resp);
  void set(const std::string& origin, const std::string& name,
           const std::string& value);
  // "name1=v1; name2=v2" for the Cookie request header; empty if none.
  std::string cookie_header(const std::string& origin) const;
  std::size_t size() const;
  void clear() { jars_.clear(); }

 private:
  std::map<std::string, std::map<std::string, std::string>> jars_;
};

// Parse a "host:port/path" or "http://host:port/path" URL into parts.
// `host` may be a dotted address or a symbolic name for a resolver.
struct ParsedUrl {
  std::string host;
  std::uint16_t port = 80;
  std::string path = "/";
};
std::optional<ParsedUrl> parse_url(const std::string& url);

}  // namespace mcs::host
