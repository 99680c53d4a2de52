#include "server/admin_server.h"

#include <utility>

namespace binchain {
namespace server {

AdminServer::AdminServer(AdminServerOptions options)
    // GET routes only: no body to read, one request per connection.
    : listener_(HttpListener::Config::From(options, /*max_body_bytes=*/0,
                                           /*max_requests_per_connection=*/1),
                [](const HttpRequest& req, ResponseWriter* writer) {
                  HttpResponse not_found;
                  not_found.status = 404;
                  not_found.body = "no handler for " + req.path + "\n";
                  return writer->Send(not_found);
                }) {}

void AdminServer::Handle(const std::string& path, HttpHandler handler) {
  listener_.Route("GET", path,
                  [handler = std::move(handler)](const HttpRequest& req,
                                                 ResponseWriter* writer) {
                    return writer->Send(handler(req));
                  });
}

}  // namespace server
}  // namespace binchain
