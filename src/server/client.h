// Small blocking client for the KARL query server — one TCP connection
// speaking the newline-delimited JSON protocol (server/protocol.h) in
// request/response lockstep. Used by `karl remote-query`, the CI smoke
// job, and the loopback integration tests.
//
// Not thread-safe: one Client per thread. Because every call is
// lockstep, responses always match the request just sent; pipelining
// (and therefore out-of-order completion) is possible only through the
// raw SendLine/ReceiveLine surface, where the caller matches responses
// via request "id"s.

#ifndef KARL_SERVER_CLIENT_H_
#define KARL_SERVER_CLIENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "data/matrix.h"
#include "server/json.h"
#include "util/status.h"

namespace karl::server {

/// See file comment.
class Client {
 public:
  /// Connects to `host`:`port` (numeric IPv4).
  static util::Result<Client> Connect(const std::string& host, int port);

  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&&) = delete;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// TKAQ: is F(q) > tau on the server's model?
  util::Result<bool> Tkaq(std::span<const double> q, double tau);

  /// eKAQ: F̂(q) within relative error eps.
  util::Result<double> Ekaq(std::span<const double> q, double eps);

  /// Exact F(q).
  util::Result<double> Exact(std::span<const double> q);

  /// Batch forms (one op=batch request each).
  util::Result<std::vector<uint8_t>> TkaqBatch(const data::Matrix& queries,
                                               double tau);
  util::Result<std::vector<double>> EkaqBatch(const data::Matrix& queries,
                                              double eps);
  util::Result<std::vector<double>> ExactBatch(const data::Matrix& queries);

  /// Sends one raw line (a trailing '\n' is added when missing) without
  /// reading a response — the pipelining/testing escape hatch.
  util::Status SendLine(const std::string& line);

  /// Blocks for the next response line (without the newline). An empty
  /// result with IOError means the server closed the connection.
  util::Result<std::string> ReceiveLine();

  /// SendLine + ReceiveLine + parse: returns the response object. A
  /// transport failure is an error; a `{"ok":false}` response is NOT —
  /// callers that want typed errors use the wrappers above.
  util::Result<Json> RoundTrip(const Json& request);

 private:
  explicit Client(int fd) : fd_(fd) {}

  // RoundTrip plus `ok` enforcement: {"ok":false} becomes a Status
  // carrying the server's error code and detail.
  util::Result<Json> Call(const Json& request);

  int fd_ = -1;
  std::string inbuf_;  // Bytes received past the last returned line.
};

}  // namespace karl::server

#endif  // KARL_SERVER_CLIENT_H_
