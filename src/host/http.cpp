#include "host/http.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "sim/contract.h"

namespace mcs::host {

namespace {

using sim::Slice;

// atoi semantics (leading whitespace, optional sign, digit prefix) over a
// non-NUL-terminated view.
int parse_int(Slice s) {
  std::size_t i = 0;
  while (i < s.size() && sim::is_ascii_space(s[i])) ++i;
  long long sign = 1;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
    if (s[i] == '-') sign = -1;
    ++i;
  }
  long long v = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    v = v * 10 + (s[i] - '0');
  }
  return static_cast<int>(sign * v);
}

// A Content-Length value: one or more ASCII digits that fit in size_t.
// Anything else (sign, space, suffix, overflow) is not a length.
std::optional<std::size_t> parse_length(Slice s) {
  if (s.empty()) return std::nullopt;
  std::size_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto d = static_cast<std::size_t>(c - '0');
    if (v > (std::numeric_limits<std::size_t>::max() - d) / 10) {
      return std::nullopt;
    }
    v = v * 10 + d;
  }
  return v;
}

// Split a start line on ' ' (empty segments count, mirroring sim::split)
// into at most three views; returns the segment count.
std::size_t split_start_line(Slice line, Slice (&seg)[3]) {
  std::size_t nseg = 0;
  std::size_t field = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == ' ') {
      if (nseg < 3) seg[nseg] = Slice{line.data() + field, i - field};
      ++nseg;
      field = i + 1;
    }
  }
  return nseg;
}

}  // namespace

// ---------------------------------------------------------------------------
// HttpHead
// ---------------------------------------------------------------------------

HttpHead::Bytes& HttpHead::Bytes::operator=(const Bytes& o) {
  if (this != &o) {
    size_ = 0;
    append(o.view());
  }
  return *this;
}

HttpHead::Bytes& HttpHead::Bytes::operator=(Bytes&& o) noexcept {
  if (this != &o) take(o);
  return *this;
}

void HttpHead::Bytes::take(Bytes& o) noexcept {
  if (o.heap_) {
    heap_ = std::move(o.heap_);
    cap_ = o.cap_;
  } else {
    heap_.reset();
    cap_ = kInlineBytes;
    std::memcpy(inline_, o.inline_, o.size_);
  }
  size_ = o.size_;
  o.size_ = 0;
  o.cap_ = kInlineBytes;
}

std::uint32_t HttpHead::Bytes::append(Slice s) {
  const std::uint32_t at = size_;
  if (s.empty()) return at;
  MCS_ASSERT(s.size() <= std::numeric_limits<std::uint32_t>::max() - size_,
             "an HTTP message head is limited to 4 GiB");
  const std::uint32_t need = size_ + static_cast<std::uint32_t>(s.size());
  if (need > cap_) {
    std::uint32_t cap = cap_;
    while (cap < need) cap = cap > (1u << 30) ? need : cap * 2;
    auto grown = std::make_unique<char[]>(cap);
    std::memcpy(grown.get(), data(), size_);
    // `s` may view this buffer (a header copied from another field), so
    // it is copied before the old block is released.
    std::memcpy(grown.get() + size_, s.data(), s.size());
    heap_ = std::move(grown);
    cap_ = cap;
  } else {
    char* base = heap_ ? heap_.get() : inline_;
    std::memcpy(base + size_, s.data(), s.size());
  }
  size_ = need;
  return at;
}

HttpHead::HttpHead(HttpHead&& o) noexcept
    : start_{o.start_[0], o.start_[1], o.start_[2]},
      bytes_{std::move(o.bytes_)},
      nfields_{o.nfields_} {
  std::copy(o.fields_, o.fields_ + nfields_, fields_);
  o.clear_head();
}

HttpHead& HttpHead::operator=(HttpHead&& o) noexcept {
  if (this != &o) {
    std::copy(o.start_, o.start_ + 3, start_);
    bytes_ = std::move(o.bytes_);
    nfields_ = o.nfields_;
    std::copy(o.fields_, o.fields_ + nfields_, fields_);
    o.clear_head();
  }
  return *this;
}

void HttpHead::clear_head() {
  bytes_.clear();
  nfields_ = 0;
  start_[0] = start_[1] = start_[2] = Span{};
}

void HttpHead::insert_field(Field f) {
  // Sorted by name in byte order; an equal name goes after its peers.
  const Slice name = view(f.name);
  std::size_t i = nfields_;
  while (i > 0 && name < view(fields_[i - 1].name)) {
    fields_[i] = fields_[i - 1];
    --i;
  }
  fields_[i] = f;
  ++nfields_;
}

Slice HttpHead::header(Slice name) const {
  for (std::size_t i = 0; i < nfields_; ++i) {
    const Slice n = view(fields_[i].name);
    if (!sim::iequals(n, name)) continue;
    // Repeats of this exact spelling sit right after it: last one wins.
    while (i + 1 < nfields_ && view(fields_[i + 1].name) == n) ++i;
    return view(fields_[i].value);
  }
  return {};
}

void HttpHead::set_header(Slice name, Slice value) {
  for (std::size_t i = 0; i < nfields_; ++i) {
    if (view(fields_[i].name) != name) continue;
    fields_[i].value = store(value);
    std::size_t end = i + 1;
    while (end < nfields_ && view(fields_[end].name) == name) ++end;
    std::copy(fields_ + end, fields_ + nfields_, fields_ + i + 1);
    nfields_ -= static_cast<std::uint32_t>(end - i - 1);
    return;
  }
  MCS_ASSERT(nfields_ < kMaxFields, "too many header fields in one message");
  Field f;
  f.name = store(name);
  f.value = store(value);
  insert_field(f);
}

bool HttpHead::parse_head(Slice head) {
  clear_head();
  bytes_.append(head);
  const Slice all = bytes_.view();
  // Rows split on '\n' and trimmed (which drops the '\r'); the first is the
  // start line, which the message type splits. Rows without ':' are
  // ignored.
  std::size_t row_no = 0;
  std::size_t pos = 0;
  while (pos <= all.size()) {
    std::size_t nl = all.find('\n', pos);
    if (nl == Slice::npos) nl = all.size();
    const Slice row = sim::trim_view(Slice{all.data() + pos, nl - pos});
    if (row_no == 0) {
      start_[0] = span_of(row);
    } else if (const std::size_t colon = row.find(':'); colon != Slice::npos) {
      if (nfields_ == kMaxFields) return false;
      Field f;
      f.name = span_of(sim::trim_view(Slice{row.data(), colon}));
      f.value = span_of(sim::trim_view(
          Slice{row.data() + colon + 1, row.size() - colon - 1}));
      insert_field(f);
    }
    ++row_no;
    pos = nl + 1;
  }
  return true;
}

void HttpHead::serialize_fields(sim::BufWriter& w,
                                std::size_t body_size) const {
  bool have_length = false;
  for (std::size_t i = 0; i < nfields_; ++i) {
    const Slice name = view(fields_[i].name);
    w.put(name).put(": ").put(view(fields_[i].value)).put("\r\n");
    if (sim::iequals(name, "content-length")) have_length = true;
  }
  if (!have_length && body_size > 0) {
    w.put("Content-Length: ").u64(body_size).put("\r\n");
  }
  w.put("\r\n");
}

std::size_t HttpHead::fields_size(std::size_t body_size) const {
  bool have_length = false;
  std::size_t n = 2;  // final CRLF
  for (std::size_t i = 0; i < nfields_; ++i) {
    n += fields_[i].name.len + fields_[i].value.len + 4;
    if (sim::iequals(view(fields_[i].name), "content-length")) {
      have_length = true;
    }
  }
  if (!have_length && body_size > 0) {
    n += 16 + sim::u64s(body_size).len + 2;  // "Content-Length: %zu\r\n"
  }
  return n;
}

// ---------------------------------------------------------------------------
// HttpRequest / HttpResponse
// ---------------------------------------------------------------------------

HttpRequest::HttpRequest() { clear(); }

void HttpRequest::clear() {
  clear_head();
  set_method("GET");
  set_path("/");
  set_version("HTTP/1.1");
  peer = {};
  body.clear();
}

bool HttpRequest::parse_start_line() {
  Slice seg[3];
  if (split_start_line(view(start_[0]), seg) < 3) return false;
  for (int i = 0; i < 3; ++i) start_[i] = span_of(seg[i]);
  return true;
}

void HttpRequest::serialize_to(sim::BufWriter& w) const {
  w.need(wire_size());
  w.put(method()).ch(' ').put(path()).ch(' ').put(version()).put("\r\n");
  serialize_fields(w, body.size());
  w.put(body);
}

std::string HttpRequest::serialize() const {
  return sim::build(0, [this](std::string& out) {
    sim::BufWriter w{out};
    serialize_to(w);
  });
}

std::size_t HttpRequest::wire_size() const {
  return start_[0].len + start_[1].len + start_[2].len + 4 +
         fields_size(body.size()) + body.size();
}

HttpResponse::HttpResponse() {
  set_version("HTTP/1.1");
  set_reason("OK");
}

bool HttpResponse::parse_start_line() {
  Slice seg[3];
  const std::size_t nseg = split_start_line(view(start_[0]), seg);
  if (nseg < 2) return false;
  status = parse_int(seg[1]);
  start_[0] = span_of(seg[0]);
  start_[1] = Span{};
  // The reason is the third space-separated field only, not the rest of
  // the line: i-mode air-byte accounting prices a response by it.
  start_[2] = nseg > 2 ? span_of(seg[2]) : Span{};
  return true;
}

void HttpResponse::serialize_to(sim::BufWriter& w, Slice body_bytes) const {
  w.need(version().size() + reason().size() + 8 +
         fields_size(body_bytes.size()) + body_bytes.size());
  // Same bytes as strf("%s %d %s\r\n", version, status, reason).
  w.put(version()).ch(' ').i64(status).ch(' ').put(reason()).put("\r\n");
  serialize_fields(w, body_bytes.size());
  w.put(body_bytes);
}

std::string HttpResponse::serialize() const {
  return sim::build(0, [this](std::string& out) {
    sim::BufWriter w{out};
    serialize_to(w);
  });
}

std::size_t HttpResponse::wire_size() const {
  return version().size() + sim::i64s(status).len + reason().size() + 4 +
         fields_size(body.size()) + body.size();
}

const char* reason_for_status(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 302: return "Found";
    case 400: return "Bad Request";
    case 401: return "Unauthorized";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 409: return "Conflict";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
  }
  return "Unknown";
}

HttpResponse HttpResponse::make(int status, Slice content_type,
                                std::string body) {
  HttpResponse r;
  r.status = status;
  if (status != 200) r.set_reason(reason_for_status(status));
  if (!content_type.empty()) r.set_header("Content-Type", content_type);
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::not_found(Slice what) {
  return make(404, "text/plain", sim::cat("not found: ", what));
}
HttpResponse HttpResponse::bad_request(Slice why) {
  return make(400, "text/plain", sim::cat("bad request: ", why));
}
HttpResponse HttpResponse::server_error(Slice why) {
  return make(500, "text/plain", sim::cat("server error: ", why));
}

// ---------------------------------------------------------------------------
// HttpParser
// ---------------------------------------------------------------------------

void HttpParser::fail(Slice why) {
  failed_ = true;
  buffer_.clear();
  if (on_error) on_error(std::string{why});
}

void HttpParser::feed(Slice bytes) {
  MCS_ASSERT((mode_ == Mode::kRequest ? on_request != nullptr
                                      : on_response != nullptr) ||
                 on_error != nullptr,
             "a sink (message or error callback) must be wired before bytes "
             "arrive, or every parse outcome vanishes silently");
  if (failed_ || bytes.empty()) return;
  // Parse straight from the segment when no partial message is pending;
  // only an unfinished tail is carried over in buffer_.
  Slice in = bytes;
  if (!buffer_.empty()) {
    buffer_.append(bytes.data(), bytes.size());
    if (buffer_.size() < want_) return;  // body still incomplete
    in = buffer_;
  }
  std::size_t pos = 0;
  want_ = 0;
  while (!failed_ && pos < in.size()) {
    const std::size_t n = parse_one(Slice{in.data() + pos, in.size() - pos});
    if (n == 0) break;
    pos += n;
  }
  if (failed_) return;
  if (in.data() == buffer_.data()) {
    buffer_.erase(0, pos);
  } else {
    buffer_.assign(in.data() + pos, in.size() - pos);
  }
}

std::size_t HttpParser::parse_one(Slice in) {
  const std::size_t end = in.find("\r\n\r\n");
  if (end == Slice::npos) return 0;
  const std::size_t head_len = end + 4;
  const bool is_request = mode_ == Mode::kRequest;
  HttpHead& head = is_request ? static_cast<HttpHead&>(request_)
                              : static_cast<HttpHead&>(response_);
  if (!head.parse_head(Slice{in.data(), end})) {
    fail("too many header fields");
    return 0;
  }
  if (!(is_request ? request_.parse_start_line()
                   : response_.parse_start_line())) {
    fail(sim::cat(is_request ? "malformed request line: "
                             : "malformed status line: ",
                  head.view(head.start_[0])));
    return 0;
  }

  std::size_t body_len = 0;
  // A present but empty value is not a length.
  if (const Slice cl = head.header("Content-Length"); cl.data() != nullptr) {
    const auto n = parse_length(cl);
    // The message's total size must fit too: it frames the next message.
    if (!n.has_value() ||
        *n > std::numeric_limits<std::size_t>::max() - head_len) {
      fail(sim::cat("bad Content-Length: ", cl));
      return 0;
    }
    body_len = *n;
  }
  if (in.size() - head_len < body_len) {  // body incomplete
    want_ = body_len + head_len;
    return 0;
  }
  message_size_ = head_len + body_len;
  if (is_request) {
    request_.peer = {};
    request_.body.assign(in.data() + head_len, body_len);
    if (on_request) on_request(request_);
  } else {
    response_.body.assign(in.data() + head_len, body_len);
    if (on_response) on_response(response_);
  }
  return message_size_;
}

// ---------------------------------------------------------------------------
// CookieJar
// ---------------------------------------------------------------------------

void CookieJar::update_from(Slice origin, const HttpResponse& resp) {
  MCS_ASSERT(!origin.empty(),
             "cookies are scoped per-origin; an unscoped jar would leak "
             "them across hosts");
  // Every Set-Cookie field counts, and one field may also fold several
  // cookies: accept both "a=b" and "a=b, c=d" forms.
  resp.for_each_header("Set-Cookie", [&](Slice field) {
    std::size_t start = 0;
    while (start <= field.size()) {
      std::size_t comma = field.find(',', start);
      if (comma == Slice::npos) comma = field.size();
      const Slice part = field.substr(start, comma - start);
      // Ignore attributes after ';' (Path, Expires, ...): session semantics.
      const Slice pair = sim::trim_view(part.substr(0, part.find(';')));
      const std::size_t eq = pair.find('=');
      if (eq != Slice::npos && eq != 0) {
        set(origin, pair.substr(0, eq), pair.substr(eq + 1));
      }
      start = comma + 1;
    }
  });
}

void CookieJar::set(Slice origin, Slice name, Slice value) {
  MCS_ASSERT(!origin.empty() && !name.empty(),
             "a cookie has a name and belongs to one origin");
  auto it = jars_.find(origin);
  if (it == jars_.end()) it = jars_.emplace(std::string{origin}, Jar{}).first;
  sim::find_or_emplace(it->second, name).assign(value.data(), value.size());
}

std::string CookieJar::cookie_header(Slice origin) const {
  auto it = jars_.find(origin);
  if (it == jars_.end()) return "";
  std::string out;
  for (const auto& [name, value] : it->second) {
    if (!out.empty()) out += "; ";
    out.append(name).append("=").append(value);
  }
  return out;
}

std::size_t CookieJar::size() const {
  std::size_t n = 0;
  for (const auto& [origin, cookies] : jars_) n += cookies.size();
  return n;
}

// ---------------------------------------------------------------------------
// URLs
// ---------------------------------------------------------------------------

std::optional<ParsedUrl> parse_url(Slice url) {
  if (url.starts_with("http://")) url.remove_prefix(7);
  if (url.empty()) return std::nullopt;
  ParsedUrl out;
  const std::size_t slash = url.find('/');
  const Slice hostport = url.substr(0, slash);
  if (slash != Slice::npos) out.path = url.substr(slash);
  const std::size_t colon = hostport.find(':');
  out.host = hostport.substr(0, colon);
  if (colon != Slice::npos) {
    const Slice digits = hostport.substr(colon + 1);
    std::uint32_t port = 0;
    for (const char c : digits) {
      if (c < '0' || c > '9') return std::nullopt;
      port = port * 10 + static_cast<std::uint32_t>(c - '0');
      if (port > 65535) return std::nullopt;
    }
    if (port == 0) return std::nullopt;
    out.port = static_cast<std::uint16_t>(port);
  }
  if (out.host.empty()) return std::nullopt;
  return out;
}

}  // namespace mcs::host
