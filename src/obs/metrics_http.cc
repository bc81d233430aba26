#include "src/obs/metrics_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cuckoo {
namespace obs {

bool MetricsHttpServer::Start(std::uint16_t port) {
  if (running_.load(std::memory_order_acquire)) {
    return false;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return false;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&MetricsHttpServer::Serve, this);
  return true;
}

void MetricsHttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void MetricsHttpServer::Serve() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (n <= 0) {
      continue;  // timeout (checks the stop flag) or EINTR
    }
    const int conn = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      continue;
    }
    HandleConnection(conn);
    ::close(conn);
  }
}

void MetricsHttpServer::HandleConnection(int fd) {
  // Read until the end of the request head (or the scraper stops sending).
  // Request bodies are not supported and not needed for GET.
  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos && request.size() < 8192) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, /*timeout_ms=*/1000) <= 0) {
      return;  // slow or dead scraper: drop it, never block the loop
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      return;
    }
    request.append(buf, static_cast<std::size_t>(n));
  }

  std::string status = "200 OK";
  std::string body;
  const bool is_get = request.rfind("GET ", 0) == 0;
  const std::size_t path_end = request.find(' ', 4);
  const std::string path =
      (is_get && path_end != std::string::npos) ? request.substr(4, path_end - 4) : "";
  if (!is_get) {
    status = "405 Method Not Allowed";
    body = "only GET is supported\n";
  } else if (path == "/metrics" || path == "/metrics/") {
    body = catalog_->RenderPrometheus();
    requests_.fetch_add(1, std::memory_order_relaxed);
  } else if (path == "/" || path == "/health") {
    body = "ok\n";
  } else {
    status = "404 Not Found";
    body = "try /metrics\n";
  }

  std::string response = "HTTP/1.0 " + status +
                         "\r\n"
                         "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                         "Content-Length: " +
                         std::to_string(body.size()) +
                         "\r\n"
                         "Connection: close\r\n\r\n" +
                         body;
  std::size_t sent = 0;
  while (sent < response.size()) {
    // MSG_NOSIGNAL: a scraper that resets mid-response must cost an error
    // return, not a SIGPIPE that kills the embedding process.
    const ssize_t n =
        ::send(fd, response.data() + sent, response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace obs
}  // namespace cuckoo
