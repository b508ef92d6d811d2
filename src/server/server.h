// Epoll-based TCP front end for KARL engines served out of a model
// registry (registry/registry.h): requests pick a model by name,
// SIGHUP / op=reload hot-reloads the registry. Every served model is a
// mapped snapshot; a single built engine is served by writing it with
// registry::WriteSnapshot and registering the file
// (ModelRegistry::AddModelFile).
//
// Threading model (three kinds of threads, strict ownership):
//   * one event-loop thread owns every socket, connection buffer, and
//     the epoll set — no connection state is ever touched elsewhere;
//   * one coalescer dispatcher thread groups admitted queries and runs
//     them through core::BatchEvaluator (server/coalescer.h);
//   * the ThreadPool workers execute the batch fan-out.
// The two sides meet at exactly two lock-protected hand-offs: the
// coalescer's bounded admission queue (event loop -> dispatcher) and a
// completion vector + eventfd (dispatcher -> event loop).
//
// Protocol: newline-delimited JSON over TCP (server/protocol.h).
// Requests on one connection may be pipelined; coalesced answers can
// complete out of order, so pipelining clients should tag requests
// with "id".
//
// Backpressure, in order of the request path:
//   * read side: a line longer than kMaxLineBytes is answered with
//     `bad_request` and the connection is closed;
//   * admission: when max_pending queued rows are waiting, new queries
//     are answered immediately with `overloaded` — bounded memory, no
//     silent buffering;
//   * write side: a connection with more than kMaxWriteBufferBytes of
//     unread responses is dropped (slow or dead consumer).
//
// Shutdown: Shutdown() (async-signal-safe: one eventfd write) stops
// the listener, refuses new queries with `shutting_down`, lets every
// admitted query finish, flushes every response, then closes. Wait()
// returns once the drain (bounded by kDrainTimeoutMs) completed.
//
// Admin plane: with admin_port >= 0 a fourth thread runs the HTTP
// scrape listener (server/http_admin.h) serving /metrics, /healthz,
// /flightz, /modelz, /explainz and /sloz — the only status surface, one
// page per fact; in-band, the protocol answers just health. Its
// handlers only snapshot thread-safe state (registry, model registry,
// flight recorder, explain ring, SLO engine, an atomic draining flag),
// so a stuck scraper never touches the query path.
//
// Per-model observability: the router resolves every admitted
// request's model name up front, in the one registry call that also
// pins the model (the handle records the name it was loaded under), so
// completions carry it end to end — {model=...} labeled twins of the
// serving histograms and counters, the SLO engine's error budgets, the
// access log, the slow-query WARN, and the flight record all attribute
// to the concrete model served.

#ifndef KARL_SERVER_SERVER_H_
#define KARL_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "registry/registry.h"
#include "server/coalescer.h"
#include "server/http_admin.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/slo.h"
#include "util/log.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace karl::server {

/// Longest accepted request line, in bytes; a longer one is answered
/// with `bad_request` and its connection is closed.
inline constexpr size_t kMaxLineBytes = 4u << 20;
/// Unread-response bytes before a slow consumer is dropped.
inline constexpr size_t kMaxWriteBufferBytes = 64u << 20;
/// Hard cap on the graceful-shutdown drain.
inline constexpr int kDrainTimeoutMs = 10000;
/// How many completed requests the flight recorder (/flightz) keeps.
inline constexpr size_t kFlightRecorderCapacity = 256;
/// How many recent explain profiles /explainz keeps.
inline constexpr size_t kExplainRingCapacity = 32;

/// Server construction parameters.
struct ServerOptions {
  /// Listen address; must be a numeric IPv4 address.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Evaluation pool size; 0 uses the hardware thread count.
  size_t threads = 0;
  /// Admission-queue bound in query rows (see server/coalescer.h).
  size_t max_pending = 1024;
  /// Metrics registry; null falls back to telemetry::GlobalRegistry()
  /// (the /metrics page always has something to expose).
  telemetry::Registry* metrics = nullptr;
  /// Trace recorder for per-request spans and cross-thread flow events
  /// (see telemetry/context.h); null disables request tracing.
  telemetry::TraceRecorder* tracer = nullptr;
  /// Diagnostics logger (slow queries, lifecycle); null keeps quiet.
  util::Logger* logger = nullptr;
  /// Per-request access log (one NDJSON line per completed request);
  /// null disables.
  util::Logger* access_log = nullptr;
  /// Requests whose server-observed latency reaches this many
  /// microseconds get a WARN line on `logger` with the full stage
  /// breakdown and engine stats; 0 disables.
  uint64_t slow_query_us = 0;
  /// HTTP admin/scrape listener port (server/http_admin.h): GET
  /// /metrics, /healthz, /flightz, /modelz, /explainz, /sloz. -1
  /// disables the admin plane entirely; 0 binds an ephemeral port
  /// (read it back via admin_port()).
  int admin_port = -1;
  /// Admin listen address; must be a numeric IPv4 address.
  std::string admin_host = "127.0.0.1";
  /// Per-model SLO objectives (latency + availability error budgets
  /// with burn-rate alerting; see telemetry/slo.h). Always on: the
  /// default objective applies to every served model unless overridden
  /// (karl_server --slo-config, server/slo_config.h).
  telemetry::SloConfig slo;
};

/// Maps one parsed request to its action: answer health/reload inline, resolve the request's model through the registry, validate
/// query/batch requests against that engine (dimensionality, weighting
/// type) and admit them to the coalescer with the model pinned. Owns no
/// sockets — the Connection layer handles transport.
class Router {
 public:
  /// `tracer` emits the event-loop-side request spans (req/read,
  /// req/parse) and the flow start.
  Router(registry::ModelRegistry* models, Coalescer* coalescer,
         telemetry::Registry* metrics,
         telemetry::RequestTracer tracer = {});

  /// Outcome of routing one request line.
  struct Outcome {
    /// Response to send now; empty when the request was admitted to the
    /// coalescer (its response arrives as a Completion).
    std::string immediate_response;
    /// True when the line was admitted (the connection gains one
    /// in-flight request).
    bool enqueued = false;
    /// Load-shed reason ("overloaded" or "shutting_down") when an
    /// evaluation request was refused by load state rather than by its
    /// content; empty otherwise. The server turns these into access-log
    /// records with disposition "shed".
    std::string shed_code;
  };

  /// Routes one request line for connection `conn_id`. `draining`
  /// refuses new evaluation work with `shutting_down`. `ctx` carries
  /// the caller's read stamps; the router stamps admission and threads
  /// it into the coalescer with the work item.
  Outcome Handle(uint64_t conn_id, std::string_view line, bool draining,
                 telemetry::RequestContext ctx = {});

 private:
  registry::ModelRegistry* models_;
  Coalescer* coalescer_;
  telemetry::RequestTracer tracer_;
  telemetry::Counter* requests_total_ = nullptr;
  telemetry::Counter* bad_request_total_ = nullptr;
  telemetry::Counter* overload_total_ = nullptr;
};

/// The serving process: listener + event loop + coalescer + pool.
class Server {
 public:
  /// Binds, spawns the event loop, and serves every model in `models`
  /// (requests pick one with `"model":"<name>"`; op=reload / SIGHUP
  /// rescans). The registry must outlive the server.
  static util::Result<std::unique_ptr<Server>> StartWithRegistry(
      registry::ModelRegistry* models, ServerOptions options);

  /// Triggers shutdown (if still running) and joins everything.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound TCP port (resolves port 0).
  int port() const { return port_; }

  /// The bound HTTP admin port (resolves admin_port 0), or -1 when the
  /// admin plane is disabled.
  int admin_port() const { return admin_ != nullptr ? admin_->port() : -1; }

  /// Requests graceful shutdown. Async-signal-safe (a single eventfd
  /// write), callable from any thread or a signal handler, idempotent.
  void Shutdown();

  /// Blocks until the event loop exited (drain finished).
  void Wait();

  /// The flight recorder's ring as NDJSON, one completed request per
  /// line, oldest first (the /flightz admin page). Thread-safe.
  std::string FlightzNdjson() const;

  /// Per-model registry state as a JSON object (the /modelz admin
  /// page): default model, budget, resident bytes, and one entry per
  /// model with residency/usage/eviction counters, plus the engine's
  /// shape (dims, points, weighting type, bounds) while resident.
  /// Thread-safe.
  std::string ModelzJson() const;

  /// The most recent explain profiles as a JSON object (the /explainz
  /// admin page). `query` is a raw HTTP query string; "last=N" caps the
  /// result (newest first). Thread-safe.
  std::string ExplainzJson(std::string_view query) const;

  /// Per-model SLO state (error budgets, burn rates) as a JSON object
  /// (the /sloz admin page). Refreshes the burn-rate gauges as a side
  /// effect. Thread-safe.
  std::string SlozJson();

  /// Test hooks: freeze/unfreeze the coalescer dispatcher so tests can
  /// deterministically pile up a coalescable backlog or fill the
  /// admission queue. Never called on the serving path.
  void PauseCoalescerForTest() { coalescer_->Pause(); }
  void ResumeCoalescerForTest() { coalescer_->Resume(); }

 private:
  // Per-connection transport state; owned by the event-loop thread.
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    std::string in;        // Bytes read, not yet framed into lines.
    std::string out;       // Response bytes not yet written.
    size_t in_flight = 0;  // Requests admitted, response pending.
    bool saw_eof = false;  // Peer half-closed; flush then close.
    uint32_t events = 0;   // Last epoll interest set registered.
    std::string peer;      // "ip:port" of the remote end.
    // When the first byte of a not-yet-framed line was buffered
    // (MonotonicMicros); 0 between requests.
    uint64_t read_start_us = 0;
  };

  Server() = default;

  util::Status Bind();
  void Loop();
  void AcceptAll();
  void BeginShutdown();
  void OnReadable(Connection* conn);
  void OnWritable(Connection* conn);
  void ProcessLines(Connection* conn);
  // Writes as much of conn->out as the socket accepts; arms EPOLLOUT
  // for the rest. May close the connection (returns false then).
  bool FlushOut(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CloseConnection(uint64_t conn_id);
  void DrainCompletions();
  // Close-when-done check: EOF'd or draining connections with nothing
  // pending are closed.
  void MaybeFinish(Connection* conn);
  // Observability tail of one completion: req/write span + flow end,
  // stage histograms (global and {model=...} labeled), SLO observation,
  // flight record, access-log line, slow-query WARN. Runs exactly once
  // per admitted request, on the event-loop thread.
  void FinishRequest(const Completion& completion, bool ok,
                     const std::string& peer);

  registry::ModelRegistry* models_ = nullptr;
  ServerOptions options_;
  telemetry::Registry* registry_ = nullptr;

  std::unique_ptr<util::ThreadPool> pool_;
  std::unique_ptr<Coalescer> coalescer_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<AdminServer> admin_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;        // Shutdown trigger (eventfd).
  int completion_fd_ = -1;  // Dispatcher -> loop doorbell (eventfd).
  int port_ = 0;

  std::unordered_map<uint64_t, Connection> connections_;
  uint64_t next_conn_id_ = 16;  // Ids below 16 name the special fds.
  bool draining_ = false;        // Event-loop thread only.
  // Cross-thread mirror of draining_ for the admin /healthz handler.
  std::atomic<bool> draining_flag_{false};
  util::Stopwatch drain_watch_;  // Restarted when the drain begins.

  util::Mutex completion_mu_;
  std::vector<Completion> completions_ KARL_GUARDED_BY(completion_mu_);

  // Ring of recent explain profiles for /explainz: pushed by
  // FinishRequest (event-loop thread), snapshotted by the admin thread.
  struct ExplainRecord {
    uint64_t req = 0;
    std::string client_id;
    std::string kind;
    std::string json;  // Pre-rendered explain object.
  };
  mutable util::Mutex explain_mu_;
  std::deque<ExplainRecord> explain_ring_ KARL_GUARDED_BY(explain_mu_);

  telemetry::Counter* connections_total_ = nullptr;
  telemetry::Counter* dropped_slow_total_ = nullptr;
  telemetry::Gauge* connections_active_ = nullptr;

  // Request observability (tentpole of the serving stack's story):
  // per-stage latency histograms, the flight recorder, and the tracer
  // shared with the router and coalescer.
  telemetry::RequestTracer tracer_;
  std::unique_ptr<telemetry::FlightRecorder> flight_recorder_;
  telemetry::RollingHistogram* stage_read_us_ = nullptr;
  telemetry::RollingHistogram* stage_parse_us_ = nullptr;
  telemetry::RollingHistogram* stage_queue_wait_us_ = nullptr;
  telemetry::RollingHistogram* stage_coalesce_wait_us_ = nullptr;
  telemetry::RollingHistogram* stage_eval_us_ = nullptr;
  telemetry::RollingHistogram* stage_serialize_us_ = nullptr;
  telemetry::RollingHistogram* stage_write_us_ = nullptr;
  telemetry::RollingHistogram* stage_total_us_ = nullptr;

  // {model=...} twins of the serving metrics, interned lazily per model
  // on the event-loop thread (FinishRequest's sole caller) — no lock.
  // Recorded from the same context values as the globals, so per-model
  // series sum exactly to the unlabeled family.
  struct ModelServingMetrics {
    telemetry::RollingHistogram* eval_us = nullptr;
    telemetry::RollingHistogram* total_us = nullptr;
    telemetry::Counter* requests = nullptr;
    telemetry::Counter* errors = nullptr;
  };
  const ModelServingMetrics& ServingMetricsForModel(
      const std::string& model);
  std::unordered_map<std::string, ModelServingMetrics> model_serving_;

  // Per-model latency/availability error budgets; Observe()d by
  // FinishRequest, scraped by /sloz and the burn-rate gauges.
  std::unique_ptr<telemetry::SloEngine> slo_;

  // loop_thread_ is only joined under wait_mu_ (Wait may be called
  // concurrently from the signal-watcher path and the main path).
  std::thread loop_thread_;
  util::Mutex wait_mu_;
};

}  // namespace karl::server

#endif  // KARL_SERVER_SERVER_H_
