#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/errno.h"

namespace karl::server {
namespace {

util::Status Errno(const std::string& what) {
  return util::Status::IOError(what + ": " + util::ErrnoString(errno));
}

Json QueryRequest(std::string_view kind, std::span<const double> q) {
  Json row = Json::Array();
  for (const double v : q) row.Append(Json::Number(v));
  return Json::Object()
      .Set("op", Json::Str("query"))
      .Set("kind", Json::Str(std::string(kind)))
      .Set("q", std::move(row));
}

Json BatchRequest(std::string_view kind, const data::Matrix& queries) {
  Json rows = Json::Array();
  for (size_t i = 0; i < queries.rows(); ++i) {
    Json row = Json::Array();
    for (const double v : queries.Row(i)) row.Append(Json::Number(v));
    rows.Append(std::move(row));
  }
  return Json::Object()
      .Set("op", Json::Str("batch"))
      .Set("kind", Json::Str(std::string(kind)))
      .Set("queries", std::move(rows));
}

// Pulls a required field out of a response object.
util::Result<const Json*> Field(const Json& response, std::string_view key) {
  const Json* value = response.Find(key);
  if (value == nullptr) {
    return util::Status::IOError("malformed server response: missing \"" +
                                 std::string(key) + "\"");
  }
  return value;
}

}  // namespace

util::Result<Client> Client::Connect(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::InvalidArgument("invalid server address '" + host +
                                         "'");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const util::Status st =
        Errno("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Client(fd);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), inbuf_(std::move(other.inbuf_)) {
  other.fd_ = -1;
}

util::Status Client::SendLine(const std::string& line) {
  if (fd_ < 0) return util::Status::FailedPrecondition("client not connected");
  std::string framed = line;
  if (framed.empty() || framed.back() != '\n') framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::write(fd_, framed.data() + sent, framed.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return util::Status::OK();
}

util::Result<std::string> Client::ReceiveLine() {
  if (fd_ < 0) return util::Status::FailedPrecondition("client not connected");
  while (true) {
    if (const size_t pos = inbuf_.find('\n'); pos != std::string::npos) {
      std::string line = inbuf_.substr(0, pos);
      inbuf_.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      inbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return util::Status::IOError("server closed the connection");
    }
    if (errno == EINTR) continue;
    return Errno("recv");
  }
}

util::Result<Json> Client::RoundTrip(const Json& request) {
  KARL_RETURN_NOT_OK(SendLine(request.Dump()));
  auto line = ReceiveLine();
  if (!line.ok()) return line.status();
  auto response = Json::Parse(line.value());
  if (!response.ok()) {
    return util::Status::IOError("malformed server response: " +
                                 response.status().message());
  }
  return response;
}

util::Result<Json> Client::Call(const Json& request) {
  auto response = RoundTrip(request);
  if (!response.ok()) return response.status();
  const Json* ok = response.value().Find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    return util::Status::IOError("malformed server response: missing \"ok\"");
  }
  if (!ok->bool_value()) {
    const Json* code = response.value().Find("error");
    const Json* detail = response.value().Find("detail");
    std::string message =
        "server error: " +
        (code != nullptr && code->is_string() ? code->string_value()
                                              : std::string("unknown"));
    if (detail != nullptr && detail->is_string()) {
      message += " (" + detail->string_value() + ")";
    }
    return util::Status::FailedPrecondition(std::move(message));
  }
  return response;
}

util::Result<bool> Client::Tkaq(std::span<const double> q, double tau) {
  Json request = QueryRequest("tkaq", q).Set("tau", Json::Number(tau));
  auto response = Call(request);
  if (!response.ok()) return response.status();
  auto above = Field(response.value(), "above");
  if (!above.ok()) return above.status();
  if (!above.value()->is_bool()) {
    return util::Status::IOError("malformed \"above\" in server response");
  }
  return above.value()->bool_value();
}

util::Result<double> Client::Ekaq(std::span<const double> q, double eps) {
  Json request = QueryRequest("ekaq", q).Set("eps", Json::Number(eps));
  auto response = Call(request);
  if (!response.ok()) return response.status();
  auto value = Field(response.value(), "value");
  if (!value.ok()) return value.status();
  if (!value.value()->is_number()) {
    return util::Status::IOError("malformed \"value\" in server response");
  }
  return value.value()->number_value();
}

util::Result<double> Client::Exact(std::span<const double> q) {
  auto response = Call(QueryRequest("exact", q));
  if (!response.ok()) return response.status();
  auto value = Field(response.value(), "value");
  if (!value.ok()) return value.status();
  if (!value.value()->is_number()) {
    return util::Status::IOError("malformed \"value\" in server response");
  }
  return value.value()->number_value();
}

util::Result<std::vector<uint8_t>> Client::TkaqBatch(
    const data::Matrix& queries, double tau) {
  Json request =
      BatchRequest("tkaq", queries).Set("tau", Json::Number(tau));
  auto response = Call(request);
  if (!response.ok()) return response.status();
  auto above = Field(response.value(), "above");
  if (!above.ok()) return above.status();
  if (!above.value()->is_array()) {
    return util::Status::IOError("malformed \"above\" in server response");
  }
  std::vector<uint8_t> out;
  out.reserve(above.value()->items().size());
  for (const Json& v : above.value()->items()) {
    if (!v.is_bool()) {
      return util::Status::IOError("malformed \"above\" in server response");
    }
    out.push_back(v.bool_value() ? 1 : 0);
  }
  return out;
}

namespace {

util::Result<std::vector<double>> NumberList(const util::Result<Json>& response) {
  if (!response.ok()) return response.status();
  const Json* values = response.value().Find("values");
  if (values == nullptr || !values->is_array()) {
    return util::Status::IOError("malformed \"values\" in server response");
  }
  std::vector<double> out;
  out.reserve(values->items().size());
  for (const Json& v : values->items()) {
    if (!v.is_number()) {
      return util::Status::IOError("malformed \"values\" in server response");
    }
    out.push_back(v.number_value());
  }
  return out;
}

}  // namespace

util::Result<std::vector<double>> Client::EkaqBatch(
    const data::Matrix& queries, double eps) {
  return NumberList(
      Call(BatchRequest("ekaq", queries).Set("eps", Json::Number(eps))));
}

util::Result<std::vector<double>> Client::ExactBatch(
    const data::Matrix& queries) {
  return NumberList(Call(BatchRequest("exact", queries)));
}

}  // namespace karl::server
