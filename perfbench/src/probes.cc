#include "probes.h"

#include <filesystem>
#include <numeric>

#include "stats.h"

namespace perfbench {

namespace {

constexpr const char* kStages[] = {"read",          "parse", "queue_wait",
                                   "coalesce_wait", "eval",  "serialize",
                                   "write",         "total"};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Answers one query row in process, adding its work to `work` if given.
void Ask(const Model& model, size_t row, Work* work) {
  const auto q = model.rows.Row(row);
  if (model.ekaq) {
    Ekaq(*model.engine, q, kEkaqEps, work);
  } else {
    Tkaq(*model.engine, q, model.tau, work);
  }
}

// Fastest of three in-process replays of one round's queries, in ns.
double ReplayNs(Workload& workload) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t start = NowNs();
    for (const QueryRef& ref : workload.queries()) {
      Ask(workload.models()[ref.model], ref.row, nullptr);
    }
    const double ns = static_cast<double>(NowNs() - start);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

Matrix FirstRows(const Matrix& rows, size_t count) {
  std::vector<size_t> first(std::min(count, rows.rows()));
  std::iota(first.begin(), first.end(), 0);
  return rows.SelectRows(first);
}

// One lockstep pass of the workload's lines over loopback, for workloads
// that run in-process: it gives the server layer something to measure.
std::unique_ptr<Serving> ServeOnce(Workload& workload, Tracer& tracer,
                                   uint32_t parent,
                                   std::vector<double>* latency_us,
                                   uint64_t* attempted, uint64_t* failed) {
  const std::string dir = workload.work_dir() + "/probe-serving";
  std::filesystem::create_directories(dir);
  for (const auto& model : workload.models()) {
    WriteSnapshot(dir + "/" + model.name + ".snap", *model.engine);
  }
  auto serving = Serving::Start(dir, 0, 2);
  auto connection = Connection::Open(serving->port());
  std::string line;
  Reply reply;
  for (size_t r = 0; r < workload.lines().size(); ++r) {
    const uint64_t start = NowNs();
    if (!connection->Send(workload.lines()[r]) ||
        !connection->Receive(&line)) {
      Die("server probe: connection failed");
    }
    const uint64_t end = NowNs();
    tracer.Add("server.request", start, end, parent, r + 1);
    latency_us->push_back(static_cast<double>(end - start) / 1e3);
    ++*attempted;
    if (!ParseReply(line, &reply) ||
        !SameAnswer(reply, workload.expected()[r])) {
      ++*failed;
    }
  }
  return serving;
}

}  // namespace

std::vector<Metric> LayerMetrics(Workload& workload, const TracedRun& run,
                                 Tracer& tracer, bool smoke,
                                 uint64_t* attempted, uint64_t* failed) {
  std::vector<Metric> out;
  auto add = [&](const char* name, double value, const char* unit) {
    out.push_back(Metric{name, value, unit});
  };
  auto& models = workload.models();

  // ---- core: exact work counts, then per-call costs and the split.
  {
    Tracer::Scope layer(tracer, "core");
    std::vector<Work> work(models.size());
    std::vector<double> queries(models.size(), 0.0);
    {
      Tracer::Scope span(tracer, "core.replay_with_stats", layer.id());
      for (const QueryRef& ref : workload.queries()) {
        Ask(models[ref.model], ref.row, &work[ref.model]);
        queries[ref.model] += 1.0;
      }
    }
    double query_ns = 0.0;
    {
      Tracer::Scope span(tracer, "core.replay", layer.id());
      query_ns = ReplayNs(workload);
    }
    double total_queries = 0.0, iterations = 0.0, expanded = 0.0,
           evals = 0.0, scanned = 0.0, bounded = 0.0, bound_ns = 0.0,
           leaf_ns = 0.0, leaf_scalar_ns = 0.0, batch_ns = 0.0,
           batch_rows = 0.0;
    for (size_t m = 0; m < models.size(); ++m) {
      const Model& model = models[m];
      const IndexShape shape = Shape(*model.engine);
      const Matrix sample = FirstRows(model.rows, smoke ? 8 : 64);
      double node_ns = 0.0, point_ns = 0.0, point_scalar_ns = 0.0;
      {
        Tracer::Scope span(tracer, "core.bound", layer.id());
        node_ns = BoundNsPerNode(*model.engine, sample);
      }
      {
        Tracer::Scope span(tracer, "core.leaf", layer.id());
        point_ns = LeafNsPerPoint(*model.engine, sample, false);
      }
      {
        Tracer::Scope span(tracer, "core.leaf_scalar", layer.id());
        point_scalar_ns = LeafNsPerPoint(*model.engine, sample, true);
      }
      {
        Tracer::Scope span(tracer, "core.batch", layer.id());
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
          const uint64_t start = NowNs();
          TkaqBatch(*model.engine, model.rows, model.tau);
          const double ns = static_cast<double>(NowNs() - start);
          if (rep == 0 || ns < best) best = ns;
        }
        batch_ns += best;
        batch_rows += static_cast<double>(model.rows.rows());
      }
      const double model_bounded =
          static_cast<double>(work[m].bound_calls);
      total_queries += queries[m];
      iterations += static_cast<double>(work[m].iterations);
      expanded += static_cast<double>(work[m].nodes_expanded);
      evals += static_cast<double>(work[m].kernel_evals);
      scanned += queries[m] * static_cast<double>(shape.points);
      bounded += model_bounded;
      bound_ns += model_bounded * node_ns;
      leaf_ns += static_cast<double>(work[m].kernel_evals) * point_ns;
      leaf_scalar_ns +=
          static_cast<double>(work[m].kernel_evals) * point_scalar_ns;
    }
    add("core.iterations_per_query", Ratio(iterations, total_queries),
        "count");
    add("core.nodes_expanded_per_query", Ratio(expanded, total_queries),
        "count");
    add("core.kernel_evals_per_query", Ratio(evals, total_queries), "count");
    add("core.prune_ratio", 1.0 - Ratio(evals, scanned), "ratio");
    add("core.bound_ns_per_node", Ratio(bound_ns, bounded), "ns");
    add("core.leaf_ns_per_point", Ratio(leaf_ns, evals), "ns");
    add("core.leaf_ns_per_point_scalar", Ratio(leaf_scalar_ns, evals), "ns");
    const double bound_share = Ratio(bound_ns, query_ns);
    const double leaf_share = Ratio(leaf_ns, query_ns);
    add("core.bound_share", bound_share, "ratio");
    add("core.leaf_share", leaf_share, "ratio");
    add("core.queue_share", std::max(0.0, 1.0 - bound_share - leaf_share),
        "ratio");
    add("core.batch_us_per_row", Ratio(batch_ns, batch_rows) / 1e3, "us");
  }

  // ---- index: the engine builds of set-up.
  {
    double build_ms = 0.0, bytes = 0.0, nodes = 0.0;
    for (const Model& model : models) {
      const IndexShape shape = Shape(*model.engine);
      build_ms += Median(model.build_ms);
      bytes += static_cast<double>(shape.bytes);
      nodes += static_cast<double>(shape.nodes);
    }
    add("index.build_ms", build_ms, "ms");
    add("index.bytes", bytes, "bytes");
    add("index.nodes", nodes, "count");
  }

  // ---- server: parse and serialize costs, then the stage histograms of
  // the serving stack the rounds ran against (or of one pass over
  // loopback for an in-process workload).
  {
    Tracer::Scope layer(tracer, "server");
    {
      Tracer::Scope span(tracer, "server.parse", layer.id());
      add("server.parse_us_per_request", ParseUsPerLine(workload.lines()),
          "us");
    }
    {
      Tracer::Scope span(tracer, "server.serialize", layer.id());
      add("server.serialize_us_per_request",
          SerializeUsPerReply(workload.expected()), "us");
    }
    std::vector<double> client = run.client_latency_us;
    std::unique_ptr<Serving> probe_serving;
    Serving* serving = workload.serving();
    if (serving == nullptr) {
      client.clear();
      probe_serving =
          ServeOnce(workload, tracer, layer.id(), &client, attempted, failed);
      serving = probe_serving.get();
    }
    for (const char* stage : kStages) {
      for (const double q : {0.5, 0.99}) {
        const std::string name = std::string("server.stage.") + stage +
                                 (q == 0.5 ? "_us_p50" : "_us_p99");
        out.push_back(
            Metric{name, serving->StageQuantile(stage, q), "us"});
      }
    }
    add("server.rows_per_batch", serving->RowsPerBatch(), "count");
    add("server.transport_us_p50",
        Median(client) - serving->StageQuantile("total", 0.5), "us");
  }

  // ---- util and telemetry: fixed micro-loops.
  {
    Tracer::Scope layer(tracer, "util.pool_fanout");
    add("util.pool_fanout_us", PoolFanoutUs(), "us");
  }
  {
    Tracer::Scope layer(tracer, "telemetry");
    {
      Tracer::Scope span(tracer, "telemetry.rolling_record", layer.id());
      add("telemetry.rolling_record_ns", RollingRecordNs(), "ns");
    }
    {
      Tracer::Scope span(tracer, "telemetry.slo_observe", layer.id());
      add("telemetry.slo_observe_ns", SloObserveNs(), "ns");
    }
    {
      Tracer::Scope span(tracer, "telemetry.flight_record", layer.id());
      add("telemetry.flight_record_ns", FlightRecordNs(), "ns");
    }
  }

  // ---- registry: one round's activity, then each step on this
  // workload's snapshots in a directory of their own.
  {
    Tracer::Scope layer(tracer, "registry");
    add("registry.cold_starts", static_cast<double>(run.registry.loads),
        "count");
    add("registry.evictions", static_cast<double>(run.registry.evictions),
        "count");
    add("registry.reloads", static_cast<double>(run.registry.reloads),
        "count");
    add("registry.cold_start_share",
        Ratio(static_cast<double>(run.registry.loads),
              static_cast<double>(workload.lines().size())),
        "ratio");

    const std::string dir = workload.work_dir() + "/probe-registry";
    std::filesystem::create_directories(dir);
    const int reps = smoke ? 2 : 3;
    std::vector<double> write_ms, map_ms, attach_ms, cold_ms, warm_us,
        reload_ms;
    double snapshot_bytes = 0.0;
    for (const Model& model : models) {
      const std::string path = dir + "/" + model.name + ".snap";
      for (int rep = 0; rep < reps; ++rep) {
        Tracer::Scope span(tracer, "registry.write_snapshot", layer.id());
        const uint64_t start = NowNs();
        WriteSnapshot(path, *model.engine);
        write_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
      }
      snapshot_bytes +=
          static_cast<double>(std::filesystem::file_size(path));
    }
    for (const Model& model : models) {
      const std::string path = dir + "/" + model.name + ".snap";
      for (int rep = 0; rep < reps; ++rep) {
        {
          Tracer::Scope span(tracer, "registry.map", layer.id());
          map_ms.push_back(MapMs(path));
        }
        {
          Tracer::Scope span(tracer, "registry.attach", layer.id());
          attach_ms.push_back(AttachMs(path));
        }
        {
          Tracer::Scope span(tracer, "registry.acquire_cold", layer.id());
          cold_ms.push_back(AcquireColdMs(dir, model.name));
        }
        {
          Tracer::Scope span(tracer, "registry.reload", layer.id());
          reload_ms.push_back(ReloadMs(dir, model.name, *model.engine));
        }
      }
      Tracer::Scope span(tracer, "registry.acquire_warm", layer.id());
      warm_us.push_back(AcquireWarmUs(dir, model.name));
    }
    add("registry.map_ms_p50", Median(map_ms), "ms");
    add("registry.attach_ms_p50", Median(attach_ms), "ms");
    add("registry.acquire_cold_ms_p50", Median(cold_ms), "ms");
    add("registry.acquire_warm_us_p50", Median(warm_us), "us");
    add("registry.reload_ms_p50", Median(reload_ms), "ms");
    add("registry.write_snapshot_ms_p50", Median(write_ms), "ms");
    add("registry.snapshot_mb", snapshot_bytes / 1e6, "MB");
  }

  add("bench.trace_overhead_pct",
      100.0 * (1.0 - Ratio(run.qps_traced, run.qps_untraced)), "%");
  return out;
}

}  // namespace perfbench
