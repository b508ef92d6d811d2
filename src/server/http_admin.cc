#include "server/http_admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/errno.h"

namespace karl::server {

namespace {

util::Status Errno(const std::string& what) {
  return util::Status::IOError(what + ": " + util::ErrnoString(errno));
}

// Writes all of `data` to `fd`, tolerating short writes; gives up on
// error (the peer is an admin client — nothing to salvage).
void WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
}

std::string_view StatusText(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 431:
      return "Request Header Fields Too Large";
    default:
      return "Internal Server Error";
  }
}

// One full HTTP/1.1 response with Content-Length and Connection: close.
std::string BuildResponse(int code, std::string_view content_type,
                          std::string_view body,
                          std::string_view extra_header = {}) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " ";
  out += StatusText(code);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size());
  if (!extra_header.empty()) {
    out += "\r\n";
    out += extra_header;
  }
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

std::string PlainStatus(int code, std::string_view detail,
                        std::string_view extra_header = {}) {
  std::string body(StatusText(code));
  if (!detail.empty()) {
    body += ": ";
    body += detail;
  }
  body += "\n";
  return BuildResponse(code, "text/plain; charset=utf-8", body,
                       extra_header);
}

}  // namespace

AdminServer::~AdminServer() { Stop(); }

void AdminServer::Register(const std::string& path,
                           const std::string& content_type,
                           Handler handler) {
  endpoints_[path] = Endpoint{content_type, std::move(handler)};
}

util::Status AdminServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("admin socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::InvalidArgument("invalid admin address '" +
                                         options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const util::Status status = Errno("admin bind " + options_.host + ":" +
                                      std::to_string(options_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 16) < 0) {
    const util::Status status = Errno("admin listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    const util::Status status = Errno("admin getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(bound.sin_port);

  stop_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (stop_fd_ < 0) {
    const util::Status status = Errno("admin eventfd");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }

  started_ = true;
  thread_ = std::thread([this] { Loop(); });
  if (options_.logger != nullptr) {
    options_.logger->Log(util::LogLevel::kInfo, "admin.start",
                         {{"host", options_.host}, {"port", port_}});
  }
  return util::Status::OK();
}

void AdminServer::Stop() {
  if (!started_) return;
  started_ = false;
  const uint64_t one = 1;
  // A failed wake leaves the thread parked in poll(); nothing better to
  // do than join anyway (poll also watches the closed listener).
  [[maybe_unused]] const ssize_t n =
      ::write(stop_fd_, &one, sizeof(one));
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (stop_fd_ >= 0) ::close(stop_fd_);
  listen_fd_ = -1;
  stop_fd_ = -1;
  if (options_.logger != nullptr) {
    options_.logger->Log(util::LogLevel::kInfo, "admin.stop",
                         {{"port", port_}});
  }
}

void AdminServer::Loop() {
  while (true) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {stop_fd_, POLLIN, 0};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // Stop() poked us.
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) continue;
    timeval tv{};
    tv.tv_sec = kIoTimeoutMs / 1000;
    tv.tv_usec = (kIoTimeoutMs % 1000) * 1000;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    ServeConnection(conn);
    ::close(conn);
  }
}

void AdminServer::ServeConnection(int fd) {
  // Read until the end of the request head; the admin plane ignores
  // request bodies (GET only), so the head is the whole request.
  std::string head;
  char buffer[1024];
  while (head.find("\r\n\r\n") == std::string::npos) {
    if (head.size() > kMaxRequestBytes) {
      WriteAll(fd, PlainStatus(431, "request head exceeds " +
                                        std::to_string(kMaxRequestBytes) +
                                        " bytes"));
      return;
    }
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // Timeout (EAGAIN) or peer hangup mid-request.
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        WriteAll(fd, PlainStatus(408, "timed out reading request"));
      }
      return;
    }
    head.append(buffer, static_cast<size_t>(n));
    if (head.size() > kMaxRequestBytes &&
        head.find("\r\n") == std::string::npos) {
      // Oversized before even one complete line: reject immediately
      // instead of buffering an unbounded request line.
      WriteAll(fd, PlainStatus(431, "request line exceeds " +
                                        std::to_string(kMaxRequestBytes) +
                                        " bytes"));
      return;
    }
  }

  // Request line: METHOD SP TARGET SP VERSION.
  const size_t line_end = head.find("\r\n");
  const std::string_view line = std::string_view(head).substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    WriteAll(fd, PlainStatus(405, "malformed request line",
                             "Allow: GET"));
    return;
  }
  const std::string_view method = line.substr(0, sp1);
  std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (method != "GET") {
    WriteAll(fd, PlainStatus(405, "only GET is supported", "Allow: GET"));
    return;
  }
  std::string_view query;
  if (const size_t qmark = target.find('?');
      qmark != std::string_view::npos) {
    query = target.substr(qmark + 1);
    target = target.substr(0, qmark);
  }

  const auto it = endpoints_.find(std::string(target));
  if (it == endpoints_.end()) {
    std::string known = "known paths:";
    for (const auto& [path, endpoint] : endpoints_) known += " " + path;
    WriteAll(fd, PlainStatus(404, known));
    return;
  }
  const std::string body = it->second.handler(query);
  WriteAll(fd, BuildResponse(200, it->second.content_type, body));
}

}  // namespace karl::server
