// Embedded HTTP server: request parsing, routing helpers, size limits,
// and chunked streaming — over real loopback sockets.
#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/http.h"

#include <gtest/gtest.h>

namespace cavenet::serve {
namespace {

TEST(HttpRequestTest, HelpersParseTargetAndHeaders) {
  HttpRequest request;
  request.path = "/v1/jobs/j1/results";
  request.query = "follow=1&pretty";
  request.headers = {{"content-type", "application/json"}};
  EXPECT_EQ(request.segments(),
            (std::vector<std::string>{"v1", "jobs", "j1", "results"}));
  EXPECT_EQ(request.query_param("follow", "0"), "1");
  EXPECT_EQ(request.query_param("pretty", "missing"), "");
  EXPECT_EQ(request.query_param("absent", "fallback"), "fallback");
  EXPECT_EQ(request.header("content-type"), "application/json");
  EXPECT_EQ(request.header("x-none"), "");
}

TEST(HttpServerTest, EchoRoundTrip) {
  HttpServer server(
      [](const HttpRequest& request) {
        HttpResponse response;
        response.body = request.method + " " + request.path + " q=" +
                        request.query + " body=" + request.body;
        return response;
      },
      HttpServerOptions{});
  ASSERT_GT(server.port(), 0);

  const HttpClientResponse response = http_request(
      server.port(), "POST", "/v1/jobs?x=2", "{\"name\":\"t\"}");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "POST /v1/jobs q=x=2 body={\"name\":\"t\"}");
}

TEST(HttpServerTest, ConcurrentRequestsAllComplete) {
  HttpServer server(
      [](const HttpRequest& request) {
        HttpResponse response;
        response.body = request.body;
        return response;
      },
      HttpServerOptions{});
  for (int i = 0; i < 8; ++i) {
    const std::string body = "payload-" + std::to_string(i);
    const HttpClientResponse response =
        http_request(server.port(), "POST", "/echo", body);
    EXPECT_EQ(response.body, body);
  }
}

TEST(HttpServerTest, OversizedBodyIs413) {
  HttpServerOptions options;
  options.max_body_bytes = 64;
  HttpServer server(
      [](const HttpRequest&) { return HttpResponse{}; }, options);
  const HttpClientResponse response = http_request(
      server.port(), "POST", "/v1/jobs", std::string(65, 'x'));
  EXPECT_EQ(response.status, 413);
  EXPECT_NE(response.body.find("exceeds the maximum of 64 bytes"),
            std::string::npos)
      << response.body;
}

TEST(HttpServerTest, HandlerExceptionIs500) {
  HttpServer server(
      [](const HttpRequest&) -> HttpResponse {
        throw std::runtime_error("boom");
      },
      HttpServerOptions{});
  const HttpClientResponse response =
      http_request(server.port(), "GET", "/explode");
  EXPECT_EQ(response.status, 500);
  EXPECT_NE(response.body.find("boom"), std::string::npos);
}

TEST(HttpServerTest, ChunkedStreamIsReassembled) {
  HttpServer server(
      [](const HttpRequest&) {
        HttpResponse response;
        response.body = "first\n";
        auto remaining = std::make_shared<int>(3);
        response.chunks = [remaining](std::string* chunk) {
          if (*remaining == 0) return false;
          *chunk = "line-" + std::to_string(*remaining) + "\n";
          --*remaining;
          return true;
        };
        return response;
      },
      HttpServerOptions{});
  const HttpClientResponse response =
      http_request(server.port(), "GET", "/stream");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "first\nline-3\nline-2\nline-1\n");
}

TEST(HttpServerTest, StopJoinsCleanly) {
  auto server = std::make_unique<HttpServer>(
      [](const HttpRequest&) { return HttpResponse{}; }, HttpServerOptions{});
  const int port = server->port();
  EXPECT_EQ(http_request(port, "GET", "/ok").status, 200);
  server->stop();
  EXPECT_THROW(http_request(port, "GET", "/gone"), std::runtime_error);
}

// This process's virtual size in KiB (the VmSize line of
// /proc/self/status), or 0 when it cannot be read.
std::int64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return 0;
}

TEST(HttpServerTest, SequentialRequestsDoNotAccumulateThreads) {
  HttpServer server([](const HttpRequest&) { return HttpResponse{}; },
                    HttpServerOptions{});
  ASSERT_EQ(http_request(server.port(), "GET", "/warmup").status, 200);
  const std::int64_t before = vm_size_kib();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(http_request(server.port(), "GET", "/ping").status, 200);
  }
  // An unjoined connection thread keeps its 8 MiB stack mapped, so 300
  // of them would grow the process by about 2.4 GiB.
  EXPECT_LT(vm_size_kib() - before, 256 * 1024);
}

}  // namespace
}  // namespace cavenet::serve
