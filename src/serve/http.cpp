#include "serve/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace cavenet::serve {

namespace {

std::string to_lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

void set_recv_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec =
      static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

/// Writes all of `data`, retrying short writes. False on a broken pipe
/// (client went away — streaming responses use this to stop).
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t wrote = ::send(fd, data, size, MSG_NOSIGNAL);
    if (wrote <= 0) {
      if (wrote < 0 && errno == EINTR) continue;
      return false;
    }
    data += wrote;
    size -= static_cast<std::size_t>(wrote);
  }
  return true;
}

bool send_all(int fd, const std::string& data) {
  return send_all(fd, data.data(), data.size());
}

bool send_chunk(int fd, const std::string& chunk) {
  if (chunk.empty()) return true;
  char size_line[32];
  std::snprintf(size_line, sizeof size_line, "%zx\r\n", chunk.size());
  return send_all(fd, size_line, std::strlen(size_line)) &&
         send_all(fd, chunk) && send_all(fd, "\r\n", 2);
}

}  // namespace

std::string HttpRequest::header(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return "";
}

std::string HttpRequest::query_param(const std::string& key,
                                     const std::string& fallback) const {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const std::string pair = query.substr(pos, end - pos);
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      if (pair == key) return "";
    } else if (pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    pos = end + 1;
  }
  return fallback;
}

std::vector<std::string> HttpRequest::segments() const {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos < path.size()) {
    std::size_t end = path.find('/', pos);
    if (end == std::string::npos) end = path.size();
    if (end > pos) parts.push_back(path.substr(pos, end - pos));
    pos = end + 1;
  }
  return parts;
}

std::string http_status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpServer::HttpServer(Handler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("http: cannot create socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("http: cannot bind 127.0.0.1:") +
                             std::to_string(options_.port) + ": " +
                             std::strerror(err));
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  accept_thread_ = std::thread([this] { accept_loop(); });
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  // Closing the listener unblocks accept(); ::shutdown first so a
  // concurrent accept() returns instead of racing the close.
  const int listener = listen_fd_.exchange(-1);
  if (listener >= 0) {
    ::shutdown(listener, SHUT_RDWR);
    ::close(listener);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    connections.swap(connections_);
  }
  for (Connection& connection : connections) {
    if (connection.thread.joinable()) connection.thread.join();
  }
}

void HttpServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    std::lock_guard<std::mutex> lock(threads_mutex_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    // Join the connections that already finished, so a long-lived
    // daemon holds one thread per open connection rather than one
    // unjoined thread (and its stack) per request ever served.
    for (Connection& connection : connections_) {
      if (connection.done->load(std::memory_order_acquire)) {
        connection.thread.join();
      }
    }
    std::erase_if(connections_, [](const Connection& connection) {
      return !connection.thread.joinable();
    });
    auto done = std::make_unique<std::atomic<bool>>(false);
    std::atomic<bool>* flag = done.get();
    connections_.push_back({std::thread([this, fd, flag] {
                              serve_connection(fd);
                              flag->store(true, std::memory_order_release);
                            }),
                            std::move(done)});
  }
}

void HttpServer::serve_connection(int fd) {
  set_recv_timeout(fd, options_.recv_timeout_s);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  auto respond_error = [fd](int status, const std::string& message) {
    const std::string body =
        "{\"error\": \"" + message + "\"}\n";
    const std::string head =
        "HTTP/1.1 " + std::to_string(status) + " " +
        http_status_reason(status) +
        "\r\nContent-Type: application/json\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
    send_all(fd, head);
    send_all(fd, body);
  };

  // Read the request head (request line + headers) up to the size cap.
  std::string buffer;
  std::size_t head_end = std::string::npos;
  char scratch[4096];
  while (head_end == std::string::npos) {
    if (buffer.size() > options_.max_head_bytes) {
      respond_error(431, "request head exceeds " +
                             std::to_string(options_.max_head_bytes) +
                             " bytes");
      ::close(fd);
      return;
    }
    const ssize_t got = ::recv(fd, scratch, sizeof scratch, 0);
    if (got <= 0) {
      ::close(fd);  // timeout, reset, or clean close before a full head
      return;
    }
    buffer.append(scratch, static_cast<std::size_t>(got));
    head_end = buffer.find("\r\n\r\n");
  }

  HttpRequest request;
  {
    const std::string head = buffer.substr(0, head_end);
    std::size_t line_start = 0;
    bool first = true;
    while (line_start <= head.size()) {
      std::size_t line_end = head.find("\r\n", line_start);
      if (line_end == std::string::npos) line_end = head.size();
      const std::string line = head.substr(line_start, line_end - line_start);
      if (first) {
        const std::size_t sp1 = line.find(' ');
        const std::size_t sp2 = line.rfind(' ');
        if (sp1 == std::string::npos || sp2 <= sp1) {
          respond_error(400, "malformed request line");
          ::close(fd);
          return;
        }
        request.method = line.substr(0, sp1);
        request.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
        first = false;
      } else if (!line.empty()) {
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
          request.headers.emplace_back(to_lower(trim(line.substr(0, colon))),
                                       trim(line.substr(colon + 1)));
        }
      }
      line_start = line_end + 2;
    }
  }
  const std::size_t qmark = request.target.find('?');
  request.path = request.target.substr(0, qmark);
  request.query =
      qmark == std::string::npos ? "" : request.target.substr(qmark + 1);

  // Read the body per Content-Length (the only framing we accept).
  std::size_t content_length = 0;
  const std::string length_header = request.header("content-length");
  if (!length_header.empty()) {
    try {
      content_length = static_cast<std::size_t>(std::stoull(length_header));
    } catch (const std::exception&) {
      respond_error(400, "malformed content-length");
      ::close(fd);
      return;
    }
  }
  if (content_length > options_.max_body_bytes) {
    respond_error(413, "request body of " + std::to_string(content_length) +
                           " bytes exceeds the maximum of " +
                           std::to_string(options_.max_body_bytes) + " bytes");
    ::close(fd);
    return;
  }
  request.body = buffer.substr(head_end + 4);
  while (request.body.size() < content_length) {
    const ssize_t got = ::recv(fd, scratch, sizeof scratch, 0);
    if (got <= 0) {
      ::close(fd);
      return;
    }
    request.body.append(scratch, static_cast<std::size_t>(got));
  }
  request.body.resize(content_length);

  HttpResponse response;
  try {
    response = handler_(request);
  } catch (const std::exception& error) {
    response = HttpResponse{};
    response.status = 500;
    response.body = std::string("{\"error\": \"") + error.what() + "\"}\n";
  }

  std::string head = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     http_status_reason(response.status) +
                     "\r\nContent-Type: " + response.content_type +
                     "\r\nConnection: close\r\n";
  if (response.chunks) {
    head += "Transfer-Encoding: chunked\r\n\r\n";
    if (!send_all(fd, head) || !send_chunk(fd, response.body)) {
      ::close(fd);
      return;
    }
    std::string chunk;
    while (response.chunks(&chunk)) {
      if (!send_chunk(fd, chunk)) break;  // client went away
      chunk.clear();
    }
    send_all(fd, "0\r\n\r\n", 5);
  } else {
    head += "Content-Length: " + std::to_string(response.body.size()) +
            "\r\n\r\n";
    if (send_all(fd, head)) send_all(fd, response.body);
  }
  ::close(fd);
}

HttpClientResponse http_request(
    int port, const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("http client: cannot create socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("http client: cannot connect to 127.0.0.1:" +
                             std::to_string(port) + ": " + std::strerror(err));
  }

  std::string request = method + " " + target + " HTTP/1.1\r\n" +
                        "Host: 127.0.0.1:" + std::to_string(port) + "\r\n";
  for (const auto& [key, value] : headers) {
    request += key + ": " + value + "\r\n";
  }
  request += "Content-Length: " + std::to_string(body.size()) +
             "\r\nConnection: close\r\n\r\n" + body;
  if (!send_all(fd, request)) {
    ::close(fd);
    throw std::runtime_error("http client: send failed");
  }

  std::string raw;
  char scratch[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, scratch, sizeof scratch, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    raw.append(scratch, static_cast<std::size_t>(got));
  }
  ::close(fd);

  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.compare(0, 9, "HTTP/1.1 ") != 0) {
    throw std::runtime_error("http client: malformed response");
  }
  HttpClientResponse response;
  response.status = std::stoi(raw.substr(9, 3));
  const std::string head = to_lower(raw.substr(0, head_end));
  std::string payload = raw.substr(head_end + 4);
  if (head.find("transfer-encoding: chunked") != std::string::npos) {
    // De-chunk: <hex-size>\r\n<bytes>\r\n ... 0\r\n\r\n
    std::size_t pos = 0;
    for (;;) {
      const std::size_t line_end = payload.find("\r\n", pos);
      if (line_end == std::string::npos) break;
      const std::size_t size =
          static_cast<std::size_t>(std::stoull(payload.substr(pos, line_end - pos), nullptr, 16));
      if (size == 0) break;
      response.body += payload.substr(line_end + 2, size);
      pos = line_end + 2 + size + 2;  // skip the chunk's trailing CRLF
    }
  } else {
    response.body = std::move(payload);
  }
  return response;
}

}  // namespace cavenet::serve
