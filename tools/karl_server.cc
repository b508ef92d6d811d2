// karl_server — network front end for KARL model snapshots.
//
//   karl_server --model <model.snap>
//               | --model-dir <dir> [--default-model <name>]
//               [--model-memory-budget <bytes>]
//               [--host 127.0.0.1] [--port 7070]
//               [--threads N] [--max-pending R]
//               [--log-level debug|info|warn|error] [--access-log <file>]
//               [--slow-query-us N] [--trace-out <file>] [--admin-port P]
//               [--admin-host 127.0.0.1] [--slo-config <file>]
//
// Models are mmap snapshots written by `karl build`, served through a
// registry (src/registry/registry.h): `--model` registers one file as
// the default model; `--model-dir` scans a directory of *.snap files,
// each served under its file stem, picked per request with the
// protocol's "model" field. `--default-model` names which of them
// answers unnamed requests (a single-model directory is its own
// default). `--model-memory-budget` bounds resident model bytes with LRU
// eviction (0 = unlimited; in-use models are never evicted). Models load
// lazily on first use; SIGHUP (or the protocol's op=reload) rescans the
// directory and atomically swaps changed files.
//
// The server answers the newline-delimited JSON protocol
// (src/server/protocol.h) until SIGINT/SIGTERM, then drains in-flight
// work, optionally writes the request trace to --trace-out, and exits 0.
// `--port 0` binds an ephemeral port; the chosen port is part of the
// "listening on" line printed (and flushed) at startup, so wrapper
// scripts can scrape it.
//
// Observability:
//   --admin-port     HTTP admin plane (GET /metrics /healthz /flightz
//                    /modelz /explainz /sloz) on its own thread — the
//                    server's one status surface, one page per fact; -1
//                    (default) disables, 0 binds an ephemeral port. The
//                    chosen port is part of the "admin on" line printed
//                    at startup.
//   --log-level      minimum severity of the stderr diagnostics log.
//   --access-log     one NDJSON line per completed request (stage
//                    breakdown + engine stats) appended to <file>.
//   --slow-query-us  requests at or above this server-observed latency
//                    get a WARN line with the full stage breakdown.
//   --trace-out      Chrome trace (Perfetto-loadable) with per-request
//                    spans flow-linked across threads, written at exit.
//   --slo-config     JSON file of per-model SLO objectives (see
//                    src/server/slo_config.h for the schema). Unset
//                    serves the built-in defaults: p99-style 100ms
//                    latency / 99.9% availability budgets per model
//                    with SRE-workbook burn-rate alert thresholds.

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <string>

#include "registry/registry.h"
#include "server/server.h"
#include "server/slo_config.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/flags.h"
#include "util/log.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "karl_server: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = karl::util::ParsedArgs::Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const karl::util::ParsedArgs& args = parsed.value();

  const std::string model_path = args.GetString("model");
  const std::string model_dir = args.GetString("model-dir");
  const std::string default_model_flag = args.GetString("default-model");
  const auto model_memory_budget = args.GetInt("model-memory-budget", 0);
  if (model_path.empty() && model_dir.empty()) {
    return Fail(
        "usage: karl_server --model <model.snap> | "
        "--model-dir <dir> [--default-model <name>] "
        "[--model-memory-budget <bytes>] [--host H] [--port P] "
        "[--threads N] [--max-pending R] [--log-level L] "
        "[--access-log <file>] [--slow-query-us N] [--trace-out <file>] "
        "[--admin-port P] [--admin-host H] [--slo-config <file>]");
  }
  const std::string host = args.GetString("host", "127.0.0.1");
  const auto port = args.GetInt("port", 7070);
  const auto threads = args.GetInt("threads", 0);
  const auto max_pending = args.GetInt("max-pending", 1024);
  const std::string log_level_name = args.GetString("log-level", "info");
  const std::string access_log_path = args.GetString("access-log");
  const auto slow_query_us = args.GetInt("slow-query-us", 0);
  const std::string trace_out = args.GetString("trace-out");
  const auto admin_port = args.GetInt("admin-port", -1);
  const std::string admin_host = args.GetString("admin-host", "127.0.0.1");
  const std::string slo_config_path = args.GetString("slo-config");
  if (!port.ok()) return Fail(port.status().ToString());
  if (!threads.ok()) return Fail(threads.status().ToString());
  if (!max_pending.ok()) return Fail(max_pending.status().ToString());
  if (!slow_query_us.ok()) return Fail(slow_query_us.status().ToString());
  if (port.value() < 0 || port.value() > 65535) {
    return Fail("--port must be in [0, 65535]");
  }
  if (threads.value() < 0) return Fail("--threads must be >= 0");
  if (max_pending.value() <= 0) return Fail("--max-pending must be > 0");
  if (slow_query_us.value() < 0) return Fail("--slow-query-us must be >= 0");
  if (!model_memory_budget.ok()) {
    return Fail(model_memory_budget.status().ToString());
  }
  if (model_memory_budget.value() < 0) {
    return Fail("--model-memory-budget must be >= 0 bytes (0 = unlimited)");
  }
  if (!admin_port.ok()) return Fail(admin_port.status().ToString());
  if (admin_port.value() < -1 || admin_port.value() > 65535) {
    return Fail("--admin-port must be -1 (off) or in [0, 65535]");
  }
  const auto log_level = karl::util::ParseLogLevel(log_level_name);
  if (!log_level.ok()) return Fail(log_level.status().ToString());
  for (const auto& flag : args.UnusedFlags()) {
    std::fprintf(stderr, "karl_server: warning: unused flag --%s\n",
                 flag.c_str());
  }

  karl::util::Logger::Options log_options;
  log_options.min_level = log_level.value();
  karl::util::Logger logger(stderr, log_options);

  std::unique_ptr<karl::util::Logger> access_log;
  if (!access_log_path.empty()) {
    karl::util::Logger::Options access_options;
    access_options.min_level = karl::util::LogLevel::kInfo;
    access_options.ndjson = true;
    auto opened = karl::util::Logger::Open(access_log_path, access_options);
    if (!opened.ok()) return Fail(opened.status().ToString());
    access_log = std::move(opened).ValueOrDie();
  }

  // Every resident model holds its snapshot's file descriptor open
  // (src/registry/registry.h), so a large --model-dir needs more than
  // the usual soft limit of 1024 descriptors: take the hard limit.
  if (rlimit fds{}; ::getrlimit(RLIMIT_NOFILE, &fds) == 0 &&
                    fds.rlim_cur < fds.rlim_max) {
    fds.rlim_cur = fds.rlim_max;
    if (::setrlimit(RLIMIT_NOFILE, &fds) != 0) {
      logger.Log(karl::util::LogLevel::kWarn, "server.fd_limit",
                 {{"error", "cannot raise RLIMIT_NOFILE"}});
    }
  }

  // Default-model resolution: --default-model wins; else --model's file
  // stem; else empty (a single-model directory defaults to itself, a
  // multi-model one requires requests to name their model).
  std::string default_model = default_model_flag;
  if (default_model.empty() && !model_path.empty()) {
    default_model = std::filesystem::path(model_path).stem().string();
  }

  karl::registry::RegistryOptions registry_options;
  registry_options.default_model = default_model;
  registry_options.memory_budget_bytes =
      static_cast<uint64_t>(model_memory_budget.value());
  registry_options.metrics = &karl::telemetry::GlobalRegistry();
  registry_options.logger = &logger;
  auto opened = karl::registry::ModelRegistry::Open(model_dir,
                                                    registry_options);
  if (!opened.ok()) return Fail(opened.status().ToString());
  std::unique_ptr<karl::registry::ModelRegistry> models =
      std::move(opened).ValueOrDie();
  if (!model_path.empty()) {
    const std::string name =
        std::filesystem::path(model_path).stem().string();
    if (auto st = models->AddModelFile(name, model_path); !st.ok()) {
      return Fail(st.ToString());
    }
  }
  if (models->List().empty()) {
    return Fail("no models: '" + model_dir +
                "' holds no *.snap files");
  }

  // Load the default model now (when one resolves) so a missing or
  // corrupt file fails startup with the path in the error instead of
  // surfacing on the first query. Other models stay lazy.
  size_t boot_points = 0;
  const bool have_default = !models->default_model().empty();
  if (have_default) {
    auto handle = models->Acquire("");
    if (!handle.ok()) return Fail(handle.status().ToString());
    const karl::Engine& engine = handle.value()->engine();
    boot_points = engine.plus_tree().points().rows();
    if (engine.minus_tree() != nullptr) {
      boot_points += engine.minus_tree()->points().rows();
    }
  }

  std::unique_ptr<karl::telemetry::TraceRecorder> tracer;
  if (!trace_out.empty()) {
    tracer = std::make_unique<karl::telemetry::TraceRecorder>(1u << 20);
  }

  // Block the lifecycle signals before Start() so every thread the
  // server spawns inherits the mask; the main thread then collects them
  // synchronously with sigwait — no async-signal-context restrictions
  // on what the SIGHUP reload may do.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGHUP);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  karl::server::ServerOptions options;
  options.host = host;
  options.port = static_cast<int>(port.value());
  options.threads = static_cast<size_t>(threads.value());
  options.max_pending = static_cast<size_t>(max_pending.value());
  options.metrics = &karl::telemetry::GlobalRegistry();
  options.tracer = tracer.get();
  options.logger = &logger;
  options.access_log = access_log.get();
  options.slow_query_us = static_cast<uint64_t>(slow_query_us.value());
  options.admin_port = static_cast<int>(admin_port.value());
  options.admin_host = admin_host;
  if (!slo_config_path.empty()) {
    auto slo = karl::server::LoadSloConfigFile(slo_config_path);
    if (!slo.ok()) return Fail(slo.status().ToString());
    options.slo = std::move(slo).ValueOrDie();
  }
  auto server =
      karl::server::Server::StartWithRegistry(models.get(), options);
  if (!server.ok()) return Fail(server.status().ToString());

  const size_t pool_threads =
      options.threads != 0 ? options.threads
                           : karl::util::ThreadPool::DefaultThreadCount();
  logger.Log(karl::util::LogLevel::kInfo, "server.start",
             {{"model_dir", model_dir.empty() ? "<none>" : model_dir},
              {"models", static_cast<uint64_t>(models->List().size())},
              {"default_model",
               have_default ? models->default_model() : "<none>"},
              {"model_memory_budget",
               static_cast<uint64_t>(model_memory_budget.value())},
              {"threads", static_cast<uint64_t>(pool_threads)},
              {"host", host},
              {"port", static_cast<int64_t>(server.value()->port())},
              {"admin_port",
               static_cast<int64_t>(server.value()->admin_port())},
              {"max_pending", static_cast<uint64_t>(max_pending.value())},
              {"slow_query_us",
               static_cast<uint64_t>(slow_query_us.value())},
              {"tracing", tracer != nullptr},
              {"access_log",
               access_log_path.empty() ? "<off>" : access_log_path},
              {"slo_config",
               slo_config_path.empty() ? "<defaults>" : slo_config_path}});
  if (!model_path.empty()) {
    std::printf("karl_server listening on %s:%d (model %s, %zu points)\n",
                host.c_str(), server.value()->port(), model_path.c_str(),
                boot_points);
  } else if (have_default) {
    std::printf("karl_server listening on %s:%d (model %s, %zu points)\n",
                host.c_str(), server.value()->port(),
                models->default_model().c_str(), boot_points);
  } else {
    std::printf(
        "karl_server listening on %s:%d (model-dir %s, %zu models)\n",
        host.c_str(), server.value()->port(), model_dir.c_str(),
        models->List().size());
  }
  if (server.value()->admin_port() >= 0) {
    std::printf("karl_server admin on %s:%d\n", admin_host.c_str(),
                server.value()->admin_port());
  }
  std::fflush(stdout);

  while (true) {
    int signum = 0;
    if (sigwait(&sigs, &signum) != 0) break;
    if (signum == SIGHUP) {
      // Hot reload: rescan the model directory and refresh explicit
      // files; in-flight queries finish on the old mappings. Requests
      // arriving meanwhile wait for the map and attach of each changed
      // file (2-4 ms at 11-18 MB), as they do for any cold load, but
      // not for the close of the replaced files: the registry's
      // reclaimer thread does that.
      const auto st = models->Reload();
      logger.Log(st.ok() ? karl::util::LogLevel::kInfo
                         : karl::util::LogLevel::kWarn,
                 "models.reload",
                 {{"ok", st.ok()},
                  {"models", static_cast<uint64_t>(models->List().size())},
                  {"error", st.ok() ? "" : st.ToString()}});
      continue;
    }
    logger.Log(karl::util::LogLevel::kInfo, "server.drain",
               {{"signal", static_cast<int64_t>(signum)}});
    server.value()->Shutdown();
    break;
  }
  server.value()->Wait();

  if (tracer != nullptr) {
    if (auto st = tracer->WriteJson(trace_out); !st.ok()) {
      return Fail(st.ToString());
    }
    logger.Log(karl::util::LogLevel::kInfo, "trace.written",
               {{"path", trace_out},
                {"events", static_cast<uint64_t>(tracer->size())},
                {"dropped", static_cast<uint64_t>(tracer->dropped())}});
  }
  std::printf("karl_server: drained and stopped\n");
  return 0;
}
