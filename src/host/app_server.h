#pragma once

#include <functional>
#include <string>

#include "host/db/db_server.h"
#include "host/http_server.h"
#include "sim/contract.h"

namespace mcs::host {

// "Application programs and support software" (§7): CGI-style server-side
// programs mounted on a web server, with access to the (remote) database
// server. Each program handles one route; the context carries shared
// resources.
class AppServer {
 public:
  struct Context {
    db::DbClient* db = nullptr;       // database-server connection
    sim::Simulator* sim = nullptr;
  };
  // A program answers asynchronously (database round trips are async).
  using Program = std::function<void(const HttpRequest&, Context&,
                                     HttpServer::Responder)>;

  AppServer(HttpServer& http, Context ctx) : http_{http}, ctx_{ctx} {}
  AppServer(const AppServer&) = delete;
  AppServer& operator=(const AppServer&) = delete;

  // Mount a program at (method, path prefix). Models CGI dispatch: the web
  // server hands matching requests to the program.
  void install(const std::string& method, const std::string& prefix,
               Program program) {
    MCS_ASSERT(!method.empty() && !prefix.empty(),
               "programs mount on an explicit (method, path prefix)");
    MCS_ASSERT(program != nullptr, "cannot install a null program");
    http_.route_async(method, prefix,
                      [this, program = std::move(program)](
                          const HttpRequest& req,
                          HttpServer::Responder respond) {
                        program(req, ctx_, respond);
                      });
    ++programs_;
  }

  std::size_t installed_programs() const { return programs_; }
  Context& context() { return ctx_; }

 private:
  HttpServer& http_;
  Context ctx_;
  std::size_t programs_ = 0;
};

// Query-string helper for CGI parameters: "/buy?item=5&qty=2". A view into
// `path`; the first pair whose key matches wins, empty if none does.
sim::Slice query_param(sim::Slice path, sim::Slice key);
// Path without the query string, as a view into `path`.
sim::Slice path_without_query(sim::Slice path);

}  // namespace mcs::host
