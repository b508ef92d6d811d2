#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <utility>

#include "core/simd/simd.h"
#include "server/json.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"
#include "util/build_info.h"
#include "util/check.h"
#include "util/errno.h"

namespace karl::server {
namespace {

// epoll user-data ids of the non-connection descriptors; connection ids
// start at 16 (Server::next_conn_id_).
constexpr uint64_t kListenerId = 0;
constexpr uint64_t kWakeId = 1;
constexpr uint64_t kCompletionId = 2;

util::Status Errno(const std::string& what) {
  return util::Status::IOError(what + ": " + util::ErrnoString(errno));
}

void DrainEventFd(int fd) {
  uint64_t value = 0;
  [[maybe_unused]] const ssize_t n = ::read(fd, &value, sizeof(value));
}

void SignalEventFd(int fd) {
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
}

// One completed request as typed fields, the single list behind the
// /flightz page, the access log and the slow-query WARN.
std::vector<util::LogField> RequestFields(const telemetry::RequestRecord& r) {
  const telemetry::RequestContext& ctx = r.ctx;
  std::vector<util::LogField> fields;
  fields.reserve(20);
  fields.emplace_back("req", ctx.id);
  if (!r.client_id.empty()) fields.emplace_back("id", r.client_id);
  if (!r.peer.empty()) fields.emplace_back("peer", r.peer);
  fields.emplace_back("disposition", "admitted");
  fields.emplace_back("kind", r.kind);
  if (!r.model.empty()) fields.emplace_back("model", r.model);
  fields.emplace_back("batch", r.batch);
  fields.emplace_back("rows", r.rows);
  fields.emplace_back("ok", r.ok);
  fields.emplace_back("read_us", ctx.read_us());
  fields.emplace_back("parse_us", ctx.parse_us());
  fields.emplace_back("queue_wait_us", ctx.queue_wait_us());
  fields.emplace_back("coalesce_wait_us", ctx.coalesce_wait_us());
  fields.emplace_back("eval_us", ctx.eval_us());
  fields.emplace_back("serialize_us", ctx.serialize_us());
  fields.emplace_back("write_us", ctx.write_us());
  fields.emplace_back("total_us", ctx.total_us());
  fields.emplace_back("iterations", ctx.stats.iterations);
  fields.emplace_back("nodes_expanded", ctx.stats.nodes_expanded);
  fields.emplace_back("kernel_evals", ctx.stats.kernel_evals);
  return fields;
}

Json FieldJson(const util::LogField& field) {
  switch (field.kind) {
    case util::LogField::Kind::kString:
      return Json::Str(field.str);
    case util::LogField::Kind::kNumber:
      return Json::Number(field.num);
    case util::LogField::Kind::kUint:
      return Json::Number(static_cast<double>(field.uint));
    case util::LogField::Kind::kInt:
      return Json::Number(static_cast<double>(field.int_));
    case util::LogField::Kind::kBool:
      return Json::Bool(field.flag);
  }
  return Json();
}

}  // namespace

// ---------------------------------------------------------------- Router

Router::Router(registry::ModelRegistry* models, Coalescer* coalescer,
               telemetry::Registry* metrics,
               telemetry::RequestTracer tracer)
    : models_(models), coalescer_(coalescer), tracer_(tracer) {
  requests_total_ = metrics->GetCounter("karl_server_requests_total");
  bad_request_total_ = metrics->GetCounter("karl_server_bad_request_total");
  overload_total_ = metrics->GetCounter("karl_server_overload_total");
}

Router::Outcome Router::Handle(uint64_t conn_id, std::string_view line,
                               bool draining,
                               telemetry::RequestContext ctx) {
  Outcome outcome;
  requests_total_->Increment();

  auto parsed = ParseRequest(line);
  if (!parsed.ok()) {
    bad_request_total_->Increment();
    outcome.immediate_response =
        ErrorResponse("", "bad_request", parsed.status().message());
    return outcome;
  }
  Request request = std::move(parsed).ValueOrDie();

  switch (request.op) {
    case Request::Op::kHealth:
      outcome.immediate_response =
          OkStatusResponse(draining ? "draining" : "serving");
      return outcome;
    case Request::Op::kReload: {
      // The request-path twin of SIGHUP: rescan the model directory.
      // Served even while draining — it is an admin op, not new work.
      const util::Status st = models_->Reload();
      outcome.immediate_response =
          st.ok() ? OkStatusResponse("reloaded")
                  : ErrorResponse("", "internal", st.message());
      return outcome;
    }
    case Request::Op::kQuery:
    case Request::Op::kBatch:
    case Request::Op::kExplain:
      break;
  }

  if (draining) {
    outcome.immediate_response =
        ErrorResponse(request.id, "shutting_down", "server is draining");
    outcome.shed_code = "shutting_down";
    return outcome;
  }
  if (request.queries.rows() == 0) {
    // An empty batch needs no evaluation; answer in place.
    outcome.immediate_response =
        request.kind == QueryKind::kTkaq
            ? OkBoolsResponse(request.id, {})
            : OkValuesResponse(request.id, {});
    return outcome;
  }
  // Resolve (and pin) the model this request evaluates against. The
  // handle rides the work item into the coalescer, so the engine stays
  // resident for the whole evaluation even if a reload or eviction
  // hits the registry meanwhile.
  auto acquired = models_->Acquire(request.model);
  if (!acquired.ok()) {
    const util::Status& st = acquired.status();
    std::string_view code = "internal";
    if (st.code() == util::StatusCode::kNotFound) code = "not_found";
    if (st.code() == util::StatusCode::kInvalidArgument) {
      code = "bad_request";
    }
    if (code != "internal") bad_request_total_->Increment();
    outcome.immediate_response =
        ErrorResponse(request.id, code, st.message());
    return outcome;
  }
  registry::ModelHandle handle = std::move(acquired).ValueOrDie();
  const Engine& engine = handle->engine();
  const size_t dims = engine.plus_tree().points().dims();
  if (request.queries.cols() != dims) {
    bad_request_total_->Increment();
    outcome.immediate_response = ErrorResponse(
        request.id, "bad_request",
        "query dimensionality " + std::to_string(request.queries.cols()) +
            " does not match the model (" + std::to_string(dims) + ")");
    return outcome;
  }
  if (request.kind == QueryKind::kEkaq &&
      engine.weighting_type() == WeightingType::kTypeIII) {
    bad_request_total_->Increment();
    outcome.immediate_response =
        ErrorResponse(request.id, "bad_request",
                      "ekaq supports Type I/II weighting only");
    return outcome;
  }

  WorkItem item;
  item.conn_id = conn_id;
  item.request_id = std::move(request.id);
  item.kind = request.kind;
  item.param = request.param;
  item.is_batch = request.op == Request::Op::kBatch;
  item.explain = request.op == Request::Op::kExplain;
  // Carry the *resolved* model name, read off the handle that was
  // resolved with it: per-model metrics, SLO budgets, and logs must
  // attribute default-model traffic to the concrete model it ran on,
  // not to "".
  item.model = handle->name();
  item.handle = std::move(handle);
  item.queries = std::move(request.queries);
  const std::string id = item.request_id;  // Enqueue consumes the item.
  const uint64_t rows = item.queries.rows();
  ctx.admitted_us = telemetry::MonotonicMicros();
  item.ctx = ctx;  // Stamped before the hand-off; the dispatcher may
                   // pick the item up the moment Enqueue releases it.
  if (!coalescer_->Enqueue(std::move(item))) {
    overload_total_->Increment();
    outcome.immediate_response = ErrorResponse(
        id, "overloaded", "pending-query limit reached; retry later");
    outcome.shed_code = "overloaded";
    return outcome;
  }
  outcome.enqueued = true;
  if (tracer_.enabled()) {
    // Event-loop-lane slices for the admitted request, with the flow
    // start inside req/parse so Perfetto anchors the request's arrow
    // chain on this thread.
    const double req = static_cast<double>(ctx.id);
    if (ctx.read_begin_us != 0) {
      tracer_.Span("req/read", ctx.read_begin_us, ctx.framed_us,
                   {{"req", req}});
    }
    tracer_.Span("req/parse", ctx.framed_us, ctx.admitted_us,
                 {{"req", req}, {"rows", static_cast<double>(rows)}});
    tracer_.FlowBegin(
        ctx.id, ctx.framed_us + (ctx.admitted_us - ctx.framed_us) / 2);
  }
  return outcome;
}

// ---------------------------------------------------------------- Server

util::Result<std::unique_ptr<Server>> Server::StartWithRegistry(
    registry::ModelRegistry* models, ServerOptions options) {
  std::unique_ptr<Server> server(new Server());
  server->models_ = models;
  server->options_ = std::move(options);
  server->registry_ = server->options_.metrics != nullptr
                          ? server->options_.metrics
                          : &telemetry::GlobalRegistry();

  if (auto st = server->Bind(); !st.ok()) return st;

  const size_t threads = server->options_.threads != 0
                             ? server->options_.threads
                             : util::ThreadPool::DefaultThreadCount();
  server->pool_ = std::make_unique<util::ThreadPool>(threads);
  server->pool_->AttachMetrics(server->registry_);

  if (server->options_.tracer != nullptr) {
    server->options_.tracer->AttachMetrics(server->registry_);
  }
  server->tracer_ = telemetry::RequestTracer(server->options_.tracer);
  server->flight_recorder_ =
      std::make_unique<telemetry::FlightRecorder>(kFlightRecorderCapacity);
  server->slo_ = std::make_unique<telemetry::SloEngine>(
      server->options_.slo, server->registry_, server->options_.logger);

  Server* raw = server.get();
  server->coalescer_ = std::make_unique<Coalescer>(
      server->pool_.get(), server->options_.max_pending,
      [raw](std::vector<Completion> completions) {
        {
          const util::MutexLock lock(&raw->completion_mu_);
          for (auto& c : completions) {
            raw->completions_.push_back(std::move(c));
          }
        }
        SignalEventFd(raw->completion_fd_);
      },
      server->registry_, server->tracer_);
  server->router_ = std::make_unique<Router>(
      models, server->coalescer_.get(), server->registry_, server->tracer_);

  server->connections_total_ =
      server->registry_->GetCounter("karl_server_connections_total");
  server->dropped_slow_total_ =
      server->registry_->GetCounter("karl_server_dropped_slow_total");
  server->connections_active_ =
      server->registry_->GetGauge("karl_server_connections_active");

  telemetry::Registry* reg = server->registry_;
  server->stage_read_us_ = reg->GetRollingHistogram("karl_server_read_us");
  server->stage_parse_us_ =
      reg->GetRollingHistogram("karl_server_parse_us");
  server->stage_queue_wait_us_ =
      reg->GetRollingHistogram("karl_server_queue_wait_us");
  server->stage_coalesce_wait_us_ =
      reg->GetRollingHistogram("karl_server_coalesce_wait_us");
  server->stage_eval_us_ = reg->GetRollingHistogram("karl_server_eval_us");
  server->stage_serialize_us_ =
      reg->GetRollingHistogram("karl_server_serialize_us");
  server->stage_write_us_ =
      reg->GetRollingHistogram("karl_server_write_us");
  server->stage_total_us_ =
      reg->GetRollingHistogram("karl_server_total_us");

  // Build identity as a constant gauge, so every scrape carries the
  // version/sha/build-type labels next to the numbers they explain; the
  // start time (Unix seconds, the process_start_time_seconds idiom)
  // gives uptime, and the SIMD tier is exported before any engine
  // attaches.
  reg->GetGauge(util::BuildInfoMetricName())->Set(1.0);
  reg->GetGauge("karl_server_start_time_seconds")
      ->Set(std::chrono::duration<double>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
  reg->GetGauge("karl_simd_tier")
      ->Set(static_cast<double>(core::simd::ActiveTier()));

  if (server->options_.admin_port >= 0) {
    AdminServer::Options admin_options;
    admin_options.host = server->options_.admin_host;
    admin_options.port = server->options_.admin_port;
    admin_options.logger = server->options_.logger;
    server->admin_ = std::make_unique<AdminServer>(admin_options);
    server->admin_->Register(
        "/healthz", "text/plain; charset=utf-8",
        [raw](std::string_view) -> std::string {
          return raw->draining_flag_.load(std::memory_order_relaxed)
                     ? "draining\n"
                     : "serving\n";
        });
    server->admin_->Register(
        "/metrics", "text/plain; version=0.0.4; charset=utf-8",
        [raw, reg](std::string_view) {
          // Burn rates are re-evaluated lazily; refresh so the scrape
          // exports current values even for an idle model.
          raw->slo_->RefreshGauges();
          return telemetry::DumpText(*reg);
        });
    server->admin_->Register(
        "/flightz", "application/x-ndjson",
        [raw](std::string_view) { return raw->FlightzNdjson(); });
    server->admin_->Register(
        "/modelz", "application/json",
        [raw](std::string_view) { return raw->ModelzJson(); });
    server->admin_->Register(
        "/explainz", "application/json",
        [raw](std::string_view query) { return raw->ExplainzJson(query); });
    server->admin_->Register(
        "/sloz", "application/json",
        [raw](std::string_view) { return raw->SlozJson(); });
    if (auto st = server->admin_->Start(); !st.ok()) return st;
  }

  server->loop_thread_ = std::thread([raw] { raw->Loop(); });
  return server;
}

Server::~Server() {
  Shutdown();
  Wait();
  // Stop the admin thread before any state its handlers snapshot
  // (registry, flight recorder, explain ring) starts dying.
  admin_.reset();
  // The loop closed every connection on its way out; the force-close
  // path guarantees it even for stuck peers. Joining the coalescer
  // (destruction) and the pool after the loop keeps the sink valid for
  // any group still finishing past the drain deadline.
  coalescer_.reset();
  router_.reset();
  pool_.reset();
  for (auto& [id, conn] : connections_) ::close(conn.fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (completion_fd_ >= 0) ::close(completion_fd_);
}

void Server::Shutdown() { SignalEventFd(wake_fd_); }

void Server::Wait() {
  const util::MutexLock lock(&wait_mu_);
  if (loop_thread_.joinable()) loop_thread_.join();
}

util::Status Server::Bind() {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return util::Status::InvalidArgument("invalid listen address '" +
                                         options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind " + options_.host + ":" +
                 std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) < 0) return Errno("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");
  completion_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (completion_fd_ < 0) return Errno("eventfd");

  const auto add = [this](int fd, uint64_t id) -> util::Status {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      return Errno("epoll_ctl add");
    }
    return util::Status::OK();
  };
  KARL_RETURN_NOT_OK(add(listen_fd_, kListenerId));
  KARL_RETURN_NOT_OK(add(wake_fd_, kWakeId));
  KARL_RETURN_NOT_OK(add(completion_fd_, kCompletionId));
  return util::Status::OK();
}

void Server::Loop() {
  epoll_event events[64];
  while (true) {
    // Pure event wait while serving; a short tick while draining so the
    // deadline is enforced even with no socket activity.
    const int timeout_ms = draining_ ? 10 : 1000;
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      const uint32_t ev = events[i].events;
      if (id == kListenerId) {
        AcceptAll();
        continue;
      }
      if (id == kWakeId) {
        DrainEventFd(wake_fd_);
        BeginShutdown();
        continue;
      }
      if (id == kCompletionId) {
        DrainEventFd(completion_fd_);
        DrainCompletions();
        continue;
      }
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // Closed earlier this wake.
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(id);
        continue;
      }
      if ((ev & EPOLLIN) != 0) OnReadable(&it->second);
      it = connections_.find(id);  // OnReadable may have closed it.
      if (it == connections_.end()) continue;
      if ((ev & EPOLLOUT) != 0) OnWritable(&it->second);
    }

    if (!draining_) continue;
    DrainCompletions();
    std::vector<uint64_t> ids;
    ids.reserve(connections_.size());
    for (const auto& [id, conn] : connections_) ids.push_back(id);
    for (const uint64_t id : ids) {
      if (auto it = connections_.find(id); it != connections_.end()) {
        MaybeFinish(&it->second);
      }
    }
    bool completions_pending;
    {
      const util::MutexLock lock(&completion_mu_);
      completions_pending = !completions_.empty();
    }
    if (connections_.empty() && coalescer_->Idle() && !completions_pending) {
      break;  // Fully drained.
    }
    if (drain_watch_.ElapsedSeconds() * 1000.0 >
        static_cast<double>(kDrainTimeoutMs)) {
      for (const uint64_t id : ids) CloseConnection(id);
      break;  // Deadline: give up on stuck peers.
    }
  }
}

void Server::BeginShutdown() {
  if (draining_) return;
  draining_ = true;
  draining_flag_.store(true, std::memory_order_relaxed);
  drain_watch_.Restart();
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  coalescer_->BeginDrain();
}

void Server::AcceptAll() {
  while (true) {
    sockaddr_in peer_addr{};
    socklen_t peer_len = sizeof(peer_addr);
    const int fd =
        ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&peer_addr),
                  &peer_len, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (or transient accept failure): wait for epoll.
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const uint64_t id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    Connection conn;
    conn.id = id;
    conn.fd = fd;
    conn.events = EPOLLIN;
    char ip[INET_ADDRSTRLEN] = {0};
    if (peer_len >= sizeof(sockaddr_in) &&
        ::inet_ntop(AF_INET, &peer_addr.sin_addr, ip, sizeof(ip)) !=
            nullptr) {
      conn.peer =
          std::string(ip) + ":" + std::to_string(ntohs(peer_addr.sin_port));
    }
    connections_.emplace(id, std::move(conn));
    connections_total_->Increment();
    connections_active_->Add(1.0);
  }
}

void Server::OnReadable(Connection* conn) {
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      if (conn->read_start_us == 0) {
        conn->read_start_us = telemetry::MonotonicMicros();
      }
      conn->in.append(buf, static_cast<size_t>(n));
      // Stop slurping once an oversized unterminated line is apparent;
      // the check below answers and closes.
      if (conn->in.size() > kMaxLineBytes &&
          conn->in.find('\n') == std::string::npos) {
        break;
      }
      continue;
    }
    if (n == 0) {
      conn->saw_eof = true;  // Peer half-closed; serve what we have.
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn->id);
    return;
  }
  ProcessLines(conn);
  if (!conn->saw_eof && conn->in.size() > kMaxLineBytes) {
    conn->out += ErrorResponse(
        "", "bad_request",
        "request line exceeds " + std::to_string(kMaxLineBytes) + " bytes");
    conn->saw_eof = true;  // Read side is done; flush, then close.
    conn->in.clear();
  }
  if (conn->saw_eof) conn->in.clear();  // Drop any partial trailing line.
  if (conn->in.empty()) conn->read_start_us = 0;
  if (!FlushOut(conn)) return;
  MaybeFinish(conn);
}

void Server::OnWritable(Connection* conn) {
  if (!FlushOut(conn)) return;
  MaybeFinish(conn);
}

void Server::ProcessLines(Connection* conn) {
  // Frames every complete line with a cursor and drops the consumed
  // prefix once per pass: a pipelined burst costs linear time, and each
  // line reaches the router as a view into the buffer.
  const std::string_view in = conn->in;
  size_t begin = 0;
  for (size_t end; (end = in.find('\n', begin)) != std::string_view::npos;) {
    // A complete-but-oversized line gets the same treatment as an
    // unterminated one: answer bad_request, stop reading, close.
    if (end - begin > kMaxLineBytes) {
      conn->out += ErrorResponse(
          "", "bad_request",
          "request line exceeds " + std::to_string(kMaxLineBytes) + " bytes");
      conn->saw_eof = true;
      conn->in.clear();
      return;
    }
    std::string_view line = in.substr(begin, end - begin);
    begin = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    // Birth of the request's observability context: a fresh monotonic
    // id plus the read-stage stamps. Pipelined lines framed from one
    // read share the buffer's first-byte stamp.
    telemetry::RequestContext ctx;
    ctx.id = telemetry::NextRequestId();
    ctx.read_begin_us = conn->read_start_us;
    ctx.framed_us = telemetry::MonotonicMicros();
    Router::Outcome outcome =
        router_->Handle(conn->id, line, draining_, ctx);
    if (outcome.enqueued) {
      ++conn->in_flight;
    } else {
      if (!outcome.shed_code.empty() && options_.access_log != nullptr) {
        // Shed traffic never reaches FinishRequest, so it gets its own
        // access-log record here — every refusal stays attributable to
        // a peer.
        options_.access_log->Log(util::LogLevel::kInfo, "request",
                                 {{"req", ctx.id},
                                  {"peer", conn->peer},
                                  {"disposition", "shed"},
                                  {"shed_code", outcome.shed_code},
                                  {"ok", false}});
      }
      conn->out += outcome.immediate_response;
    }
  }
  conn->in.erase(0, begin);
}

bool Server::FlushOut(Connection* conn) {
  while (!conn->out.empty()) {
    const ssize_t n = ::write(conn->fd, conn->out.data(), conn->out.size());
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(conn->id);
    return false;
  }
  UpdateInterest(conn);
  return true;
}

void Server::UpdateInterest(Connection* conn) {
  const uint32_t desired = (conn->saw_eof ? 0u : EPOLLIN) |
                           (conn->out.empty() ? 0u : EPOLLOUT);
  if (desired == conn->events) return;
  epoll_event ev{};
  ev.events = desired;
  ev.data.u64 = conn->id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->events = desired;
  }
}

void Server::MaybeFinish(Connection* conn) {
  if ((conn->saw_eof || draining_) && conn->in_flight == 0 &&
      conn->out.empty()) {
    CloseConnection(conn->id);
  }
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  connections_.erase(it);
  connections_active_->Add(-1.0);
}

void Server::DrainCompletions() {
  std::vector<Completion> batch;
  {
    const util::MutexLock lock(&completion_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    c.ctx.write_begin_us = telemetry::MonotonicMicros();
    auto it = connections_.find(c.conn_id);
    if (it == connections_.end()) {
      // Peer left; drop the answer but still file the record — every
      // admitted request appears in the flight recorder exactly once,
      // its total ending when the record is filed.
      c.ctx.write_end_us = telemetry::MonotonicMicros();
      FinishRequest(c, /*ok=*/false, "");
      continue;
    }
    Connection* conn = &it->second;
    const std::string peer = conn->peer;
    if (conn->in_flight > 0) --conn->in_flight;
    conn->out += c.response;
    bool ok = true;
    if (conn->out.size() > kMaxWriteBufferBytes) {
      dropped_slow_total_->Increment();
      CloseConnection(conn->id);
      ok = false;
    } else if (!FlushOut(conn)) {
      ok = false;  // Write error closed the connection mid-response.
    } else {
      MaybeFinish(conn);
    }
    c.ctx.write_end_us = telemetry::MonotonicMicros();
    FinishRequest(c, ok, peer);
  }
}

void Server::FinishRequest(const Completion& c, bool ok,
                           const std::string& peer) {
  const telemetry::RequestContext& ctx = c.ctx;

  if (tracer_.enabled() && ctx.write_end_us != 0) {
    // Back on the event-loop lane: the write slice closes the request's
    // flow ("bp":"e" binds the arrow head to this slice).
    tracer_.Span("req/write", ctx.write_begin_us, ctx.write_end_us,
                 {{"req", static_cast<double>(ctx.id)},
                  {"ok", ok ? 1.0 : 0.0}});
    tracer_.FlowEnd(ctx.id, ctx.write_begin_us +
                                (ctx.write_end_us - ctx.write_begin_us) / 2);
  }

  stage_read_us_->Record(static_cast<double>(ctx.read_us()));
  stage_parse_us_->Record(static_cast<double>(ctx.parse_us()));
  stage_queue_wait_us_->Record(static_cast<double>(ctx.queue_wait_us()));
  stage_coalesce_wait_us_->Record(
      static_cast<double>(ctx.coalesce_wait_us()));
  stage_eval_us_->Record(static_cast<double>(ctx.eval_us()));
  stage_serialize_us_->Record(static_cast<double>(ctx.serialize_us()));
  stage_write_us_->Record(static_cast<double>(ctx.write_us()));
  stage_total_us_->Record(static_cast<double>(ctx.total_us()));

  // Per-model twins, recorded from the same context values as the
  // globals above so the labeled series sum exactly to the unlabeled
  // family, then the SLO observation for this model's error budgets.
  const ModelServingMetrics& serving = ServingMetricsForModel(c.model);
  if (serving.eval_us != nullptr) {
    serving.eval_us->Record(static_cast<double>(ctx.eval_us()));
    serving.total_us->Record(static_cast<double>(ctx.total_us()));
    serving.requests->Increment();
    if (!ok) serving.errors->Increment();
  }
  slo_->Observe(c.model, static_cast<double>(ctx.total_us()), ok);

  telemetry::RequestRecord record;
  record.ctx = ctx;
  record.kind = std::string(QueryKindToString(c.kind));
  record.batch = c.is_batch;
  record.rows = c.rows;
  record.model = c.model;
  record.peer = peer;
  record.client_id = c.request_id;
  record.ok = ok;

  if (!c.explain_json.empty()) {
    const util::MutexLock lock(&explain_mu_);
    explain_ring_.push_back(
        ExplainRecord{ctx.id, c.request_id, record.kind, c.explain_json});
    while (explain_ring_.size() > kExplainRingCapacity) {
      explain_ring_.pop_front();
    }
  }

  if (options_.access_log != nullptr) {
    options_.access_log->Log(util::LogLevel::kInfo, "request",
                             RequestFields(record));
  }
  if (options_.slow_query_us != 0 && options_.logger != nullptr &&
      ctx.total_us() >= options_.slow_query_us) {
    std::vector<util::LogField> fields = RequestFields(record);
    fields.emplace_back("threshold_us", options_.slow_query_us);
    options_.logger->Log(util::LogLevel::kWarn, "slow_query",
                         std::move(fields));
  }
  flight_recorder_->Record(std::move(record));
}

const Server::ModelServingMetrics& Server::ServingMetricsForModel(
    const std::string& model) {
  auto it = model_serving_.find(model);
  if (it != model_serving_.end()) return it->second;
  ModelServingMetrics m;
  if (!model.empty()) {
    const telemetry::LabelSet labels{{"model", model}};
    m.eval_us =
        registry_->GetRollingHistogram("karl_serving_eval_us", labels);
    m.total_us =
        registry_->GetRollingHistogram("karl_serving_total_us", labels);
    m.requests =
        registry_->GetCounter("karl_serving_requests_total", labels);
    m.errors = registry_->GetCounter("karl_serving_errors_total", labels);
  }
  return model_serving_.emplace(model, m).first->second;
}

std::string Server::SlozJson() { return slo_->SlozJson(); }

std::string Server::ModelzJson() const {
  Json root = Json::Object();
  root.Set("default", Json::Str(models_->default_model()));
  root.Set("model_dir", Json::Str(models_->model_dir()));
  root.Set("memory_budget_bytes",
           Json::Number(static_cast<double>(
               models_->options().memory_budget_bytes)));
  root.Set("resident_bytes",
           Json::Number(static_cast<double>(models_->resident_bytes())));
  root.Set("evictions",
           Json::Number(static_cast<double>(models_->evictions())));
  root.Set("reloads",
           Json::Number(static_cast<double>(models_->reloads())));
  Json entries = Json::Array();
  for (const registry::ModelInfo& info : models_->List()) {
    Json entry =
        Json::Object()
            .Set("name", Json::Str(info.name))
            .Set("path", Json::Str(info.path))
            .Set("resident", Json::Bool(info.resident))
            .Set("file_bytes",
                 Json::Number(static_cast<double>(info.file_bytes)))
            .Set("resident_bytes",
                 Json::Number(static_cast<double>(info.resident_bytes)))
            .Set("coldstart_us",
                 Json::Number(static_cast<double>(info.coldstart_us)))
            .Set("queries", Json::Number(static_cast<double>(info.queries)))
            .Set("loads", Json::Number(static_cast<double>(info.loads)))
            .Set("evictions",
                 Json::Number(static_cast<double>(info.evictions)))
            .Set("generation",
                 Json::Number(static_cast<double>(info.generation)));
    if (info.resident) {
      entry.Set("dims", Json::Number(static_cast<double>(info.dims)))
          .Set("points", Json::Number(static_cast<double>(info.points)))
          .Set("weighting_type", Json::Str(info.weighting_type))
          .Set("bounds", Json::Str(info.bounds))
          .Set("frame", Json::Str(info.frame))
          .Set("frame_extent_ratio", Json::Number(info.frame_extent_ratio));
    }
    entries.Append(std::move(entry));
  }
  root.Set("models", std::move(entries));
  return root.Dump();
}

std::string Server::FlightzNdjson() const {
  std::string out;
  for (const telemetry::RequestRecord& r : flight_recorder_->Snapshot()) {
    Json entry = Json::Object();
    for (const util::LogField& field : RequestFields(r)) {
      entry.Set(field.key, FieldJson(field));
    }
    out += entry.Dump();
    out += "\n";
  }
  return out;
}

std::string Server::ExplainzJson(std::string_view query) const {
  size_t last = kExplainRingCapacity;
  while (!query.empty()) {
    const size_t amp = query.find('&');
    const std::string_view kv = query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view{}
                                          : query.substr(amp + 1);
    if (kv.substr(0, 5) == "last=") {
      const std::string_view value = kv.substr(5);
      size_t parsed = 0;
      const auto [ptr, ec] = std::from_chars(
          value.data(), value.data() + value.size(), parsed);
      if (ec == std::errc() && ptr == value.data() + value.size()) {
        last = parsed;
      }
    }
  }

  std::vector<ExplainRecord> records;
  {
    const util::MutexLock lock(&explain_mu_);
    const size_t n = std::min(last, explain_ring_.size());
    records.assign(explain_ring_.end() - static_cast<ptrdiff_t>(n),
                   explain_ring_.end());
  }
  // The per-request profiles are pre-rendered JSON, so the page is
  // assembled textually (newest first) instead of re-parsed.
  std::string out =
      "{\"count\": " + std::to_string(records.size()) + ", \"explains\": [";
  bool first = true;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (!first) out += ", ";
    first = false;
    out += "{\"req\": " + std::to_string(it->req);
    if (!it->client_id.empty()) {
      out += ", \"id\": " + Json::Str(it->client_id).Dump();
    }
    out += ", \"kind\": \"" + it->kind + "\"";
    out += ", \"explain\": " + it->json + "}";
  }
  out += "]}";
  return out;
}

}  // namespace karl::server
