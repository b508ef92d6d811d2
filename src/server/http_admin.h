// Dependency-free HTTP/1.1 admin listener — the scrape plane of
// karl_server. Serves GET requests for registered paths (/metrics,
// /healthz, /flightz, /modelz, /explainz, /sloz) from its own thread,
// completely off the query event loop, so a stuck or slow scraper can
// never stall query traffic and a busy server always answers probes.
//
// Deliberately minimal: requests are served one connection at a time
// (admin traffic is a scraper every few seconds, not a fleet), each
// response carries Content-Length and Connection: close, and anything
// malformed gets a plain-status reply — 405 for non-GET methods, 404
// for unregistered paths, 431 when the request head exceeds
// kMaxRequestBytes, 408 when the peer stalls for kIoTimeoutMs. This is
// not a general web server and must never be exposed beyond the
// operations network.
//
// Concurrency: endpoints are registered before Start and immutable
// afterwards, so the serving thread reads the table without locks.
// Handlers run on the admin thread and must be thread-safe against the
// serving stack (the standard handlers only snapshot registries, which
// are).

#ifndef KARL_SERVER_HTTP_ADMIN_H_
#define KARL_SERVER_HTTP_ADMIN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <thread>

#include "util/log.h"
#include "util/status.h"

namespace karl::server {

/// See file comment.
class AdminServer {
 public:
  /// Cap on the request head (request line + headers); beyond it the
  /// connection gets 431 and is closed.
  static constexpr size_t kMaxRequestBytes = 8192;
  /// Per-connection read/write timeout.
  static constexpr int kIoTimeoutMs = 2000;

  struct Options {
    /// Numeric IPv4 listen address.
    std::string host = "127.0.0.1";
    /// TCP port; 0 picks an ephemeral port (read it back via port()).
    int port = 0;
    /// Diagnostics; may be null.
    util::Logger* logger = nullptr;
  };

  /// Produces a response body for one GET. `query` is the raw query
  /// string after '?' (possibly empty), undecoded.
  using Handler = std::function<std::string(std::string_view query)>;

  explicit AdminServer(const Options& options) : options_(options) {}
  ~AdminServer();
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Registers `handler` for GET `path` (no trailing slash, compared
  /// exactly; the query string is stripped before matching). Must be
  /// called before Start; replaces any previous handler for the path.
  void Register(const std::string& path, const std::string& content_type,
                Handler handler);

  /// Binds, listens, and spawns the serving thread. Fails if the
  /// address is unavailable.
  util::Status Start();

  /// Stops the serving thread and closes the listener. Idempotent;
  /// also run by the destructor.
  void Stop();

  /// The bound port (after Start); useful with Options::port == 0.
  int port() const { return port_; }

 private:
  struct Endpoint {
    std::string content_type;
    Handler handler;
  };

  void Loop();
  // Reads one request head from `fd` and writes the response.
  void ServeConnection(int fd);

  Options options_;
  std::map<std::string, Endpoint> endpoints_;  // Immutable after Start.
  int listen_fd_ = -1;
  int stop_fd_ = -1;  // eventfd poked by Stop().
  int port_ = 0;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace karl::server

#endif  // KARL_SERVER_HTTP_ADMIN_H_
