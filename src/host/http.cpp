#include "host/http.h"

#include <cstdlib>

#include "sim/contract.h"
#include "sim/util.h"

namespace mcs::host {

namespace {

using sim::Slice;

// First case-insensitive match, or nullptr. HTTP header names are
// case-insensitive; the map preserves the sender's spelling, so lookup
// compares without lowering either side.
const std::string* find_header(const HeaderMap& headers, Slice name) {
  for (const auto& [k, v] : headers) {
    if (sim::iequals(k, name)) return &v;
  }
  return nullptr;
}

void serialize_headers(sim::BufWriter& w, const HeaderMap& headers,
                       std::size_t body_size) {
  bool have_length = false;
  for (const auto& [k, v] : headers) {
    w.put(k).put(": ").put(v).put("\r\n");
    if (sim::iequals(k, "content-length")) have_length = true;
  }
  if (!have_length && body_size > 0) {
    w.put("Content-Length: ").u64(body_size).put("\r\n");
  }
  w.put("\r\n");
}

std::size_t wire_estimate(const HeaderMap& headers, std::size_t start_line,
                          std::size_t body_size) {
  std::size_t n = start_line + body_size + 32;
  for (const auto& [k, v] : headers) n += k.size() + v.size() + 8;
  return n;
}

// Exact byte count serialize_headers will emit.
std::size_t headers_size(const HeaderMap& headers, std::size_t body_size) {
  bool have_length = false;
  std::size_t n = 2;  // final CRLF
  for (const auto& [k, v] : headers) {
    n += k.size() + v.size() + 4;
    if (sim::iequals(k, "content-length")) have_length = true;
  }
  if (!have_length && body_size > 0) {
    n += 16 + sim::u64s(body_size).len + 2;  // "Content-Length: %zu\r\n"
  }
  return n;
}

// Shared start-line + header block parsing over views into `buf`. Returns
// bytes consumed through the blank line, or 0 if the block is incomplete.
// `start_line` is a trimmed view into `buf` (valid until the buffer
// changes); headers are the parse's one owning step, since they outlive
// the connection buffer.
std::size_t parse_head(const std::string& buf, Slice& start_line,
                       HeaderMap& headers) {
  const std::size_t end = buf.find("\r\n\r\n");
  if (end == std::string::npos) return 0;
  const Slice head{buf.data(), end};
  std::size_t row_no = 0;
  std::size_t pos = 0;
  while (pos <= head.size()) {
    std::size_t nl = head.find('\n', pos);
    if (nl == Slice::npos) nl = head.size();
    const Slice row = sim::trim_view(Slice{head.data() + pos, nl - pos});
    if (row_no == 0) {
      start_line = row;
    } else if (const std::size_t colon = row.find(':');
               colon != Slice::npos) {
      const Slice name = sim::trim_view(Slice{row.data(), colon});
      const Slice value = sim::trim_view(
          Slice{row.data() + colon + 1, row.size() - colon - 1});
      if (auto it = headers.find(name); it != headers.end()) {
        it->second.assign(value.data(), value.size());
      } else {
        headers.try_emplace({name.data(), name.size()}, value);
      }
    }
    ++row_no;
    pos = nl + 1;
  }
  return end + 4;
}

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

}  // namespace

std::string HttpRequest::header(const std::string& name) const {
  const std::string* v = find_header(headers, name);
  return v == nullptr ? "" : *v;
}
void HttpRequest::set_header(sim::Slice name, sim::Slice value) {
  sim::find_or_emplace(headers, name).assign(value.data(), value.size());
}

void HttpRequest::serialize_to(sim::BufWriter& w) const {
  w.need(wire_estimate(
      headers, method.size() + path.size() + version.size(), body.size()));
  w.put(method).ch(' ').put(path).ch(' ').put(version).put("\r\n");
  serialize_headers(w, headers, body.size());
  w.put(body);
}

std::string HttpRequest::serialize() const {
  return sim::build(0, [this](std::string& out) {
    sim::BufWriter w{out};
    serialize_to(w);
  });
}

std::size_t HttpRequest::wire_size() const {
  return method.size() + path.size() + version.size() + 4 +
         headers_size(headers, body.size()) + body.size();
}

std::string HttpResponse::header(const std::string& name) const {
  const std::string* v = find_header(headers, name);
  return v == nullptr ? "" : *v;
}
void HttpResponse::set_header(sim::Slice name, sim::Slice value) {
  sim::find_or_emplace(headers, name).assign(value.data(), value.size());
}

void HttpResponse::serialize_to(sim::BufWriter& w) const {
  w.need(wire_estimate(headers, version.size() + reason.size() + 8,
                       body.size()));
  // Same bytes as strf("%s %d %s\r\n", version, status, reason).
  w.put(version).ch(' ').i64(status).ch(' ').put(reason).put("\r\n");
  serialize_headers(w, headers, body.size());
  w.put(body);
}

std::string HttpResponse::serialize() const {
  return sim::build(0, [this](std::string& out) {
    sim::BufWriter w{out};
    serialize_to(w);
  });
}

std::size_t HttpResponse::wire_size() const {
  return version.size() + sim::i64s(status).len + reason.size() + 4 +
         headers_size(headers, body.size()) + body.size();
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

HttpResponse HttpResponse::make(int status, std::string content_type,
                                std::string body) {
  HttpResponse r;
  r.status = status;
  r.reason = reason_for_status(status);
  if (!content_type.empty()) r.set_header("Content-Type", content_type);
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::not_found(const std::string& what) {
  return make(404, "text/plain", "not found: " + what);
}
HttpResponse HttpResponse::bad_request(const std::string& why) {
  return make(400, "text/plain", "bad request: " + why);
}
HttpResponse HttpResponse::server_error(const std::string& why) {
  return make(500, "text/plain", "server error: " + why);
}

void HttpParser::fail(const std::string& why) {
  failed_ = true;
  if (on_error) on_error(why);
}

void HttpParser::feed(const std::string& bytes) {
  MCS_ASSERT((mode_ == Mode::kRequest ? on_request != nullptr
                                      : on_response != nullptr) ||
                 on_error != nullptr,
             "a sink (message or error callback) must be wired before bytes "
             "arrive, or every parse outcome vanishes silently");
  if (failed_) return;
  buffer_ += bytes;
  while (try_parse_one()) {
  }
}

bool HttpParser::try_parse_one() {
  if (failed_ || buffer_.empty()) return false;
  HeaderMap headers;
  Slice start_line;
  const std::size_t head_len = parse_head(buffer_, start_line, headers);
  if (head_len == 0) return false;

  std::size_t body_len = 0;
  if (const std::string* cl = find_header(headers, "Content-Length");
      cl != nullptr && !cl->empty()) {
    body_len = std::strtoull(cl->c_str(), nullptr, 10);
  }
  if (buffer_.size() < head_len + body_len) return false;  // body incomplete

  // Start-line fields, split on ' ' (empty segments count, mirroring
  // sim::split). Views into buffer_, so fields are copied out before the
  // consumed prefix is erased below.
  Slice seg[3];
  std::size_t nseg = 0;
  std::size_t field = 0;
  for (std::size_t i = 0; i <= start_line.size(); ++i) {
    if (i == start_line.size() || start_line[i] == ' ') {
      if (nseg < 3) {
        seg[nseg] = Slice{start_line.data() + field, i - field};
      }
      ++nseg;
      field = i + 1;
    }
  }

  if (mode_ == Mode::kRequest) {
    if (nseg < 3) {
      fail(sim::cat("malformed request line: ", start_line));
      return false;
    }
    HttpRequest req;
    req.method.assign(seg[0].data(), seg[0].size());
    req.path.assign(seg[1].data(), seg[1].size());
    req.version.assign(seg[2].data(), seg[2].size());
    req.headers = std::move(headers);
    req.body.assign(buffer_, head_len, body_len);
    buffer_.erase(0, head_len + body_len);
    if (on_request) on_request(std::move(req));
  } else {
    if (nseg < 2) {
      fail(sim::cat("malformed status line: ", start_line));
      return false;
    }
    HttpResponse resp;
    resp.version.assign(seg[0].data(), seg[0].size());
    resp.status = parse_int(seg[1]);
    if (nseg > 2) {
      resp.reason.assign(seg[2].data(), seg[2].size());
    } else {
      resp.reason.clear();
    }
    resp.headers = std::move(headers);
    resp.body.assign(buffer_, head_len, body_len);
    buffer_.erase(0, head_len + body_len);
    if (on_response) on_response(std::move(resp));
  }
  return true;
}

void CookieJar::update_from(const std::string& origin,
                            const HttpResponse& resp) {
  MCS_ASSERT(!origin.empty(),
             "cookies are scoped per-origin; an unscoped jar would leak "
             "them across hosts");
  // Multiple Set-Cookie values are folded into one header by our HeaderMap;
  // accept both "a=b" and "a=b, c=d" forms.
  const std::string header = resp.header("Set-Cookie");
  if (header.empty()) return;
  for (const auto& part : sim::split(header, ',')) {
    // Ignore attributes after ';' (Path, Expires, ...): session semantics.
    const std::string pair = sim::trim(sim::split(part, ';')[0]);
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) continue;
    jars_[origin][pair.substr(0, eq)] = pair.substr(eq + 1);
  }
}

void CookieJar::set(const std::string& origin, const std::string& name,
                    const std::string& value) {
  jars_[origin][name] = value;
}

std::string CookieJar::cookie_header(const std::string& origin) const {
  auto it = jars_.find(origin);
  if (it == jars_.end()) return "";
  std::string out;
  for (const auto& [name, value] : it->second) {
    if (!out.empty()) out += "; ";
    out += name + "=" + value;
  }
  return out;
}

std::size_t CookieJar::size() const {
  std::size_t n = 0;
  for (const auto& [origin, cookies] : jars_) n += cookies.size();
  return n;
}

std::optional<ParsedUrl> parse_url(const std::string& url) {
  std::string rest = url;
  if (sim::starts_with(rest, "http://")) rest = rest.substr(7);
  if (rest.empty()) return std::nullopt;
  ParsedUrl out;
  const std::size_t slash = rest.find('/');
  std::string hostport = slash == std::string::npos ? rest
                                                    : rest.substr(0, slash);
  out.path = slash == std::string::npos ? "/" : rest.substr(slash);
  const std::size_t colon = hostport.find(':');
  if (colon != std::string::npos) {
    out.host = hostport.substr(0, colon);
    const int port = std::atoi(hostport.c_str() + colon + 1);
    if (port <= 0 || port > 65535) return std::nullopt;
    out.port = static_cast<std::uint16_t>(port);
  } else {
    out.host = hostport;
  }
  if (out.host.empty()) return std::nullopt;
  return out;
}

}  // namespace mcs::host
