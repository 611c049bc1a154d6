// Minimal embedded HTTP/1.1 server (docs/SERVING.md "API").
//
// cavenet-serve needs exactly enough HTTP to admit job submissions and
// stream results on a LAN: blocking POSIX sockets, one accept loop, one
// thread per connection, `Connection: close` per request, no TLS, no
// third-party dependencies. Untrusted input is bounded the same way the
// JSON parser is: request head and body sizes are capped (431/413), the
// read path times out instead of blocking forever, and the target line
// is split into path segments before any routing looks at it.
//
// Responses are either a complete body (Content-Length) or a chunked
// stream fed by a pull callback — the `/events` endpoint uses the
// latter to follow a job's progress JSONL live.
#ifndef CAVENET_SERVE_HTTP_H
#define CAVENET_SERVE_HTTP_H

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace cavenet::serve {

struct HttpRequest {
  std::string method;  ///< uppercase ("GET", "POST", "DELETE", ...)
  std::string target;  ///< raw request target ("/v1/jobs/j1?follow=1")
  std::string path;    ///< target without the query string
  std::string query;   ///< query string without '?' ("" when absent)
  std::vector<std::pair<std::string, std::string>> headers;  ///< keys lowercased
  std::string body;

  /// First header named `name` (lowercase), or "" when absent.
  std::string header(const std::string& name) const;
  /// Value of `key` in the query string, or `fallback`.
  std::string query_param(const std::string& key,
                          const std::string& fallback = "") const;
  /// `path` split on '/' ("/v1/jobs/j1" -> {"v1", "jobs", "j1"}).
  std::vector<std::string> segments() const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// When set, the response streams with Transfer-Encoding: chunked:
  /// the callback is polled for the next chunk (empty string chunks are
  /// skipped); returning false ends the stream. `body` is sent first as
  /// the initial chunk when non-empty.
  std::function<bool(std::string* chunk)> chunks;
};

/// Reason phrase for `status` ("200" -> "OK"); "Unknown" otherwise.
std::string http_status_reason(int status);

struct HttpServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back via
  /// HttpServer::port()).
  int port = 0;
  std::size_t max_head_bytes = 16 * 1024;
  std::size_t max_body_bytes = 8 * 1024 * 1024;
  /// Per-recv timeout; bounds how long a stalled client can pin a
  /// connection thread, and how often shutdown is observed.
  double recv_timeout_s = 10.0;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  /// Binds and starts accepting on a background thread. Throws
  /// std::runtime_error when the socket cannot be bound. The handler
  /// runs on connection threads and must be thread-safe.
  HttpServer(Handler handler, HttpServerOptions options);
  /// Stops accepting, closes the listener, and joins every connection
  /// thread.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The bound port (the chosen one when options.port was 0).
  int port() const noexcept { return port_; }

  void stop();

 private:
  void accept_loop();
  void serve_connection(int fd);

  Handler handler_;
  HttpServerOptions options_;
  // Written by stop() while accept_loop() blocks on it -> atomic.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread accept_thread_;

  /// One connection thread; `done` flips when serve_connection returns,
  /// so accept_loop can join it before spawning the next one. Heap-held
  /// so the flag outlives moves of the vector.
  struct Connection {
    std::thread thread;
    std::unique_ptr<std::atomic<bool>> done;
  };

  std::mutex threads_mutex_;
  std::vector<Connection> connections_;
  bool stopping_ = false;
};

/// Blocking HTTP client for tests and tools: one request over a fresh
/// connection to 127.0.0.1:`port`. De-chunks chunked responses. Throws
/// std::runtime_error on connect/IO failure.
struct HttpClientResponse {
  int status = 0;
  std::string body;
};
HttpClientResponse http_request(int port, const std::string& method,
                                const std::string& target,
                                const std::string& body = "",
                                const std::vector<std::pair<std::string, std::string>>&
                                    headers = {});

}  // namespace cavenet::serve

#endif  // CAVENET_SERVE_HTTP_H
