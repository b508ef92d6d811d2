// karl — command-line front end to the KARL library.
//
// Subcommands:
//   generate  --dataset <name> --out <file.csv> [--n N]
//       Writes a benchmark-dataset simulacrum as CSV.
//   build     --data <file.csv|file.libsvm> --out <model.snap>
//             [--kernel gaussian|laplacian|cauchy|polynomial|sigmoid]
//             [--gamma G] [--beta B] [--degree D] [--weight W]
//             [--index kd|ball] [--leaf-capacity C] [--bounds karl|sota]
//       Builds an engine from data (libsvm labels become weights) and
//       writes it as an mmap snapshot (src/registry/snapshot.h), the one
//       persisted engine format: `query` and karl_server attach it in
//       microseconds instead of rebuilding the index. The written file is
//       then mapped back, attached, and checked: exact aggregates on 64
//       sampled queries must be bit-identical to the built engine's.
//   query     --model <model.snap> --queries <file.csv>
//             (--tau T | --eps E) [--limit N] [--threads N] [--explain]
//             [--metrics-out <file>] [--trace-out <file.json>]
//       Runs TKAQ or eKAQ over every query row; prints results,
//       throughput, and a per-query latency histogram summary.
//       --explain swaps the per-query output for one JSON line per
//       query carrying the EXPLAIN traversal profile (per-level
//       visited/pruned/exact-leaf counts and the (lb,ub) convergence
//       timeline); serial only.
//       --threads > 1 fans the queries across a worker pool via the
//       batch engine — output is bit-identical to the serial loop, in
//       the same order (per-query latency lines are then omitted; the
//       batch has no per-query timings). --metrics-out dumps the
//       telemetry registry as the Prometheus text karl_server's
//       /metrics serves; --trace-out writes a Chrome trace-event JSON
//       loadable in Perfetto.
//   tune      --data <file.csv|file.libsvm> --queries <file.csv>
//             (--tau T | --eps E) [build's kernel and weight flags]
//       Offline-tunes the index configuration (paper §III-C): builds
//       every index kind × leaf capacity over the data and reports the
//       grid. The candidates replace --index and --leaf-capacity.
//   remote-query  --port P [--host 127.0.0.1] --queries <file.csv>
//                 (--tau T | --eps E | --exact) [--limit N] [--batch]
//       Issues the query rows against a running karl_server (see
//       tools/karl_server.cc) over the newline-delimited JSON
//       protocol; output format matches the local `query` subcommand.
//       --batch sends one batch request instead of per-row queries.
//       Server status lives on karl_server's HTTP admin plane
//       (/metrics, /flightz, /modelz, ...), not here.
//
// Exit status: 0 on success, 1 on usage or runtime errors.

#include <cstdio>
#include <string>

#include "core/batch.h"
#include "core/tuning.h"
#include "data/csv_io.h"
#include "data/libsvm_io.h"
#include "data/synthetic.h"
#include "index/principal_frame.h"
#include "core/traversal_profile.h"
#include "ml/kde.h"
#include "registry/snapshot.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace {

using karl::util::ParsedArgs;

int Fail(const std::string& message) {
  std::fprintf(stderr, "karl: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: karl "
               "<generate|build|query|tune|remote-query> "
               "[--flags]\n"
               "run with a subcommand to see its required flags\n");
  return 1;
}

// Reads either CSV (dense) or LIBSVM (sparse, labelled) points. For
// LIBSVM input, labels are returned through `weights_out` when non-null.
karl::util::Result<karl::data::Matrix> ReadPoints(
    const std::string& path, std::vector<double>* weights_out) {
  if (path.size() > 7 && path.substr(path.size() - 7) == ".libsvm") {
    auto ds = karl::data::ReadLibsvmFile(path);
    if (!ds.ok()) return ds.status();
    if (weights_out != nullptr) *weights_out = ds.value().labels;
    return std::move(ds).ValueOrDie().points;
  }
  return karl::data::ReadCsvFile(path);
}

int RunGenerate(const ParsedArgs& args) {
  const std::string name = args.GetString("dataset");
  const std::string out = args.GetString("out");
  if (name.empty() || out.empty()) {
    return Fail("generate requires --dataset <name> --out <file.csv>");
  }
  auto spec = karl::data::FindDataset(name);
  if (!spec.ok()) return Fail(spec.status().ToString());
  auto n = args.GetInt("n", static_cast<int64_t>(spec.value().n));
  if (!n.ok()) return Fail(n.status().ToString());
  karl::data::DatasetSpec adjusted = spec.value();
  adjusted.n = static_cast<size_t>(n.value());
  const karl::data::Matrix points = karl::data::MakeUciLike(adjusted);
  if (auto st = karl::data::WriteCsvFile(out, points); !st.ok()) {
    return Fail(st.ToString());
  }
  std::printf("wrote %zu x %zu points to %s\n", points.rows(), points.cols(),
              out.c_str());
  return 0;
}

// What `build` and `tune` build an engine from: the points and weights
// of --data plus the kernel, weight, index and bound flags.
struct BuildInputs {
  karl::data::Matrix points;
  std::vector<double> weights;
  karl::EngineOptions options;
};

karl::util::Result<BuildInputs> ParseBuildInputs(const ParsedArgs& args) {
  using karl::util::Status;
  std::vector<double> labels;
  auto points = ReadPoints(args.GetString("data"), &labels);
  if (!points.ok()) return points.status();

  BuildInputs in;
  in.points = std::move(points).ValueOrDie();

  const auto weight_flag = args.GetDouble("weight", 1.0);
  if (!weight_flag.ok()) return weight_flag.status();
  if (!labels.empty() && !args.Has("weight")) {
    in.weights = std::move(labels);  // LIBSVM labels as weights.
  } else {
    in.weights.assign(in.points.rows(), weight_flag.value());
  }

  // Kernel selection; γ defaults to Scott's rule for distance kernels.
  const std::string kernel_name = args.GetString("kernel", "gaussian");
  const auto gamma_flag = args.GetDouble(
      "gamma",
      karl::ml::BandwidthToGamma(karl::ml::ScottBandwidth(in.points)));
  const auto beta_flag = args.GetDouble("beta", 0.0);
  const auto degree_flag = args.GetInt("degree", 3);
  if (!gamma_flag.ok()) return gamma_flag.status();
  if (!beta_flag.ok()) return beta_flag.status();
  if (!degree_flag.ok()) return degree_flag.status();
  const double gamma = gamma_flag.value();
  if (kernel_name == "gaussian") {
    in.options.kernel = karl::core::KernelParams::Gaussian(gamma);
  } else if (kernel_name == "laplacian") {
    in.options.kernel = karl::core::KernelParams::Laplacian(gamma);
  } else if (kernel_name == "cauchy") {
    in.options.kernel = karl::core::KernelParams::Cauchy(gamma);
  } else if (kernel_name == "polynomial") {
    in.options.kernel = karl::core::KernelParams::Polynomial(
        gamma, beta_flag.value(), static_cast<int>(degree_flag.value()));
  } else if (kernel_name == "sigmoid") {
    in.options.kernel =
        karl::core::KernelParams::Sigmoid(gamma, beta_flag.value());
  } else {
    return Status::InvalidArgument("unknown kernel '" + kernel_name + "'");
  }

  const std::string index_name = args.GetString("index", "kd");
  if (index_name == "kd") {
    in.options.index_kind = karl::index::IndexKind::kKdTree;
  } else if (index_name == "ball") {
    in.options.index_kind = karl::index::IndexKind::kBallTree;
  } else {
    return Status::InvalidArgument("unknown index '" + index_name +
                                   "' (kd|ball)");
  }
  const auto capacity = args.GetInt("leaf-capacity", 80);
  if (!capacity.ok()) return capacity.status();
  // Checked before the cast: a negative value would wrap to SIZE_MAX and
  // build a one-leaf (full scan) model.
  if (capacity.value() < 1) {
    return Status::InvalidArgument("leaf capacity must be >= 1");
  }
  in.options.leaf_capacity = static_cast<size_t>(capacity.value());
  const std::string bounds = args.GetString("bounds", "karl");
  in.options.bounds = bounds == "sota" ? karl::core::BoundKind::kSota
                                       : karl::core::BoundKind::kKarl;
  return in;
}

int RunBuild(const ParsedArgs& args) {
  const std::string out = args.GetString("out");
  if (args.GetString("data").empty() || out.empty()) {
    return Fail("build requires --data <file> --out <model.snap>");
  }
  auto in = ParseBuildInputs(args);
  if (!in.ok()) return Fail(in.status().ToString());
  const BuildInputs& model = in.value();

  auto engine =
      karl::Engine::Build(model.points, model.weights, model.options);
  if (!engine.ok()) return Fail(engine.status().ToString());

  // Round trip, on the written file before it takes the --out name:
  // attach an engine over it and require exact aggregates on sampled
  // queries to be bit-identical to the built engine's — the snapshot
  // stores the same doubles the builder computed, so any difference is
  // corruption, not rounding. A file that fails is removed, and no
  // --out file is left behind.
  const size_t samples = std::min<size_t>(64, model.points.rows());
  size_t file_bytes = 0;
  const auto round_trip =
      [&](const std::string& written) -> karl::util::Status {
    using karl::util::Status;
    auto mapped = karl::registry::MappedSnapshot::Map(written);
    if (!mapped.ok()) return mapped.status();
    file_bytes = mapped.value().file_bytes();
    auto attached =
        karl::registry::AttachEngine(mapped.value(), nullptr, nullptr);
    if (!attached.ok()) return attached.status();
    const size_t dims = model.points.cols();
    karl::util::Rng rng(0x6b61726cu);
    std::vector<double> q(dims);
    for (size_t i = 0; i < samples; ++i) {
      const auto base = model.points.Row((i * 7919) % model.points.rows());
      for (size_t d = 0; d < dims; ++d) {
        q[d] = base[d] + rng.Uniform(-0.05, 0.05);
      }
      const double expected = engine.value().Exact(q);
      const double actual = attached.value().Exact(q);
      if (expected != actual) {
        return Status::Internal(
            "round trip FAILED: exact aggregate mismatch on sample " +
            std::to_string(i) + " (built " + std::to_string(expected) +
            ", snapshot " + std::to_string(actual) + ")");
      }
    }
    return Status::OK();
  };
  if (auto st =
          karl::registry::WriteSnapshot(out, engine.value(), round_trip);
      !st.ok()) {
    return Fail(st.ToString());
  }

  std::printf("snapshot saved: %zu points, %zu dims, %s kernel "
              "(gamma=%.6g), %s index, %s bounds, %zu bytes -> %s\n",
              model.points.rows(), model.points.cols(),
              std::string(KernelTypeToString(model.options.kernel.type))
                  .c_str(),
              model.options.kernel.gamma,
              std::string(IndexKindToString(model.options.index_kind))
                  .c_str(),
              std::string(BoundKindToString(model.options.bounds)).c_str(),
              file_bytes, out.c_str());
  std::printf("frame: %s (sample extent ratio %.4f)\n",
              std::string(karl::index::FrameName(engine.value().plus_tree()))
                  .c_str(),
              engine.value().plus_tree().frame_extent_ratio());
  std::printf("round trip: %zu exact aggregates bit-identical\n", samples);
  return 0;
}

int RunQuery(const ParsedArgs& args) {
  const std::string model_path = args.GetString("model");
  const std::string query_path = args.GetString("queries");
  if (model_path.empty() || query_path.empty()) {
    return Fail("query requires --model <model.snap> --queries <file.csv>");
  }
  const bool threshold_mode = args.Has("tau");
  const bool approx_mode = args.Has("eps");
  if (threshold_mode == approx_mode) {
    return Fail("query requires exactly one of --tau or --eps");
  }
  const auto tau = args.GetDouble("tau", 0.0);
  const auto eps = args.GetDouble("eps", 0.1);
  if (!tau.ok()) return Fail(tau.status().ToString());
  if (!eps.ok()) return Fail(eps.status().ToString());
  const std::string metrics_out = args.GetString("metrics-out");
  const std::string trace_out = args.GetString("trace-out");

  // The mapping is declared before the engine attached over it, so it
  // outlives the engine.
  auto mapped = karl::registry::MappedSnapshot::Map(model_path);
  if (!mapped.ok()) return Fail(mapped.status().ToString());
  karl::telemetry::TraceRecorder tracer;
  auto engine = karl::registry::AttachEngine(
      mapped.value(),
      metrics_out.empty() ? nullptr : &karl::telemetry::GlobalRegistry(),
      trace_out.empty() ? nullptr : &tracer);
  if (!engine.ok()) return Fail(engine.status().ToString());
  auto queries = karl::data::ReadCsvFile(query_path);
  if (!queries.ok()) return Fail(queries.status().ToString());
  // Every query must be a point of the model's space: a row of another
  // width would be read past its end, or cut short.
  const size_t dims = engine.value().plus_tree().points().dims();
  if (queries.value().cols() != dims) {
    return Fail("query file " + query_path + " has " +
                std::to_string(queries.value().cols()) +
                " columns, but the model has " + std::to_string(dims) +
                " dimensions");
  }

  const auto limit = args.GetInt(
      "limit", static_cast<int64_t>(queries.value().rows()));
  if (!limit.ok()) return Fail(limit.status().ToString());
  const size_t count =
      std::min<size_t>(queries.value().rows(),
                       static_cast<size_t>(std::max<int64_t>(0, limit.value())));
  const auto threads_flag = args.GetInt("threads", 1);
  if (!threads_flag.ok()) return Fail(threads_flag.status().ToString());
  const size_t threads =
      static_cast<size_t>(std::max<int64_t>(1, threads_flag.value()));
  const bool explain = args.Has("explain");
  if (explain && threads > 1) {
    return Fail(
        "query --explain profiles one traversal at a time; drop --threads");
  }

  karl::telemetry::Histogram latency;
  karl::util::Stopwatch timer;
  if (threads > 1) {
    // Batch path: fan the query block across a worker pool. Results are
    // bit-identical to the serial loop below and printed in the same
    // index order.
    karl::data::Matrix block = std::move(queries).ValueOrDie();
    if (count < block.rows()) {
      std::vector<size_t> head(count);
      for (size_t i = 0; i < count; ++i) head[i] = i;
      block = block.SelectRows(head);
    }
    karl::util::ThreadPool pool(threads);
    if (threshold_mode) {
      const auto out = engine.value().TkaqBatch(block, tau.value(), &pool);
      for (size_t i = 0; i < out.size(); ++i) {
        std::printf("%zu\t%s\n", i, out[i] != 0 ? "above" : "below");
      }
    } else {
      const auto out = engine.value().EkaqBatch(block, eps.value(), &pool);
      for (size_t i = 0; i < out.size(); ++i) {
        std::printf("%zu\t%.12g\n", i, out[i]);
      }
    }
  } else {
    karl::util::Stopwatch query_timer;
    for (size_t i = 0; i < count; ++i) {
      const auto q = queries.value().Row(i);
      if (explain) {
        karl::core::TraversalProfile profile;
        karl::core::EvalStats stats;
        karl::server::Json out = karl::server::Json::Object();
        out.Set("query",
                karl::server::Json::Number(static_cast<double>(i)));
        query_timer.Restart();
        if (threshold_mode) {
          const bool above = engine.value().evaluator().QueryThreshold(
              q, tau.value(), &stats, nullptr, &profile);
          latency.Record(query_timer.ElapsedSeconds() * 1e6);
          out.Set("above", karl::server::Json::Bool(above));
        } else {
          const double value = engine.value().evaluator().QueryApproximate(
              q, eps.value(), &stats, nullptr, &profile);
          latency.Record(query_timer.ElapsedSeconds() * 1e6);
          out.Set("value", karl::server::Json::Number(value));
        }
        out.Set("explain", karl::server::TraversalProfileJson(profile));
        std::printf("%s\n", out.Dump().c_str());
      } else if (threshold_mode) {
        query_timer.Restart();
        const bool above = engine.value().Tkaq(q, tau.value());
        latency.Record(query_timer.ElapsedSeconds() * 1e6);
        std::printf("%zu\t%s\n", i, above ? "above" : "below");
      } else {
        query_timer.Restart();
        const double value = engine.value().Ekaq(q, eps.value());
        latency.Record(query_timer.ElapsedSeconds() * 1e6);
        std::printf("%zu\t%.12g\n", i, value);
      }
    }
  }
  const double elapsed = timer.ElapsedSeconds();
  std::fprintf(stderr, "%zu queries in %.3fs (%.0f q/s, %zu thread%s)\n",
               count, elapsed, count / std::max(elapsed, 1e-9), threads,
               threads == 1 ? "" : "s");
  const auto h = latency.Snapshot();
  if (h.count > 0) {
    std::fprintf(stderr,
                 "latency usec: min=%.1f p50=%.1f p95=%.1f p99=%.1f "
                 "max=%.1f\n",
                 h.min, h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99),
                 h.max);
  }

  if (!metrics_out.empty()) {
    if (auto st = karl::telemetry::WriteMetricsFile(
            karl::telemetry::GlobalRegistry(), metrics_out);
        !st.ok()) {
      return Fail(st.ToString());
    }
    std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (auto st = tracer.WriteJson(trace_out); !st.ok()) {
      return Fail(st.ToString());
    }
    std::fprintf(stderr, "trace written to %s (%zu events)\n",
                 trace_out.c_str(), tracer.size());
  }
  return 0;
}

int RunRemoteQuery(const ParsedArgs& args) {
  const std::string host = args.GetString("host", "127.0.0.1");
  const auto port = args.GetInt("port", 0);
  const std::string query_path = args.GetString("queries");
  if (!port.ok()) return Fail(port.status().ToString());
  if (port.value() <= 0 || query_path.empty()) {
    return Fail(
        "remote-query requires --port <port> --queries <file.csv> and one "
        "of --tau/--eps/--exact");
  }
  const bool threshold_mode = args.Has("tau");
  const bool approx_mode = args.Has("eps");
  const bool exact_mode = args.Has("exact");
  if (static_cast<int>(threshold_mode) + static_cast<int>(approx_mode) +
          static_cast<int>(exact_mode) !=
      1) {
    return Fail("remote-query requires exactly one of --tau, --eps, --exact");
  }
  const auto tau = args.GetDouble("tau", 0.0);
  const auto eps = args.GetDouble("eps", 0.1);
  if (!tau.ok()) return Fail(tau.status().ToString());
  if (!eps.ok()) return Fail(eps.status().ToString());
  const bool batch = args.Has("batch");

  auto queries = karl::data::ReadCsvFile(query_path);
  if (!queries.ok()) return Fail(queries.status().ToString());
  const auto limit = args.GetInt(
      "limit", static_cast<int64_t>(queries.value().rows()));
  if (!limit.ok()) return Fail(limit.status().ToString());
  const size_t count =
      std::min<size_t>(queries.value().rows(),
                       static_cast<size_t>(std::max<int64_t>(0, limit.value())));

  auto client = karl::server::Client::Connect(
      host, static_cast<int>(port.value()));
  if (!client.ok()) return Fail(client.status().ToString());

  karl::util::Stopwatch timer;
  if (batch) {
    karl::data::Matrix block = std::move(queries).ValueOrDie();
    if (count < block.rows()) {
      std::vector<size_t> head(count);
      for (size_t i = 0; i < count; ++i) head[i] = i;
      block = block.SelectRows(head);
    }
    if (threshold_mode) {
      auto out = client.value().TkaqBatch(block, tau.value());
      if (!out.ok()) return Fail(out.status().ToString());
      for (size_t i = 0; i < out.value().size(); ++i) {
        std::printf("%zu\t%s\n", i, out.value()[i] != 0 ? "above" : "below");
      }
    } else {
      auto out = approx_mode ? client.value().EkaqBatch(block, eps.value())
                             : client.value().ExactBatch(block);
      if (!out.ok()) return Fail(out.status().ToString());
      for (size_t i = 0; i < out.value().size(); ++i) {
        std::printf("%zu\t%.12g\n", i, out.value()[i]);
      }
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      const auto q = queries.value().Row(i);
      if (threshold_mode) {
        auto above = client.value().Tkaq(q, tau.value());
        if (!above.ok()) return Fail(above.status().ToString());
        std::printf("%zu\t%s\n", i, above.value() ? "above" : "below");
      } else {
        auto value = approx_mode ? client.value().Ekaq(q, eps.value())
                                 : client.value().Exact(q);
        if (!value.ok()) return Fail(value.status().ToString());
        std::printf("%zu\t%.12g\n", i, value.value());
      }
    }
  }
  const double elapsed = timer.ElapsedSeconds();
  std::fprintf(stderr, "%zu remote queries in %.3fs (%.0f q/s, %s)\n", count,
               elapsed, count / std::max(elapsed, 1e-9),
               batch ? "one batch request" : "per-row requests");
  return 0;
}

int RunTune(const ParsedArgs& args) {
  const std::string query_path = args.GetString("queries");
  if (args.GetString("data").empty() || query_path.empty()) {
    return Fail("tune requires --data <file> --queries <file.csv>");
  }
  const auto tau = args.GetDouble("tau", 0.0);
  const auto eps = args.GetDouble("eps", 0.2);
  if (!tau.ok()) return Fail(tau.status().ToString());
  if (!eps.ok()) return Fail(eps.status().ToString());

  auto model = ParseBuildInputs(args);
  if (!model.ok()) return Fail(model.status().ToString());
  auto queries = karl::data::ReadCsvFile(query_path);
  if (!queries.ok()) return Fail(queries.status().ToString());

  karl::core::QuerySpec spec;
  if (args.Has("tau")) {
    spec.kind = karl::core::QuerySpec::Kind::kThreshold;
    spec.tau = tau.value();
  } else {
    spec.kind = karl::core::QuerySpec::Kind::kApproximate;
    spec.eps = eps.value();
  }

  auto result = karl::core::OfflineTune(
      model.value().points, model.value().weights, model.value().options,
      queries.value(), spec, karl::core::DefaultTuningGrid());
  if (!result.ok()) return Fail(result.status().ToString());

  std::printf("%-12s %-14s %s\n", "index", "leaf-capacity", "queries/s");
  for (const auto& cand : result.value().candidates) {
    std::printf("%-12s %-14zu %.1f\n",
                std::string(IndexKindToString(cand.config.kind)).c_str(),
                cand.config.leaf_capacity, cand.throughput_qps);
  }
  std::printf("recommended: %s with leaf capacity %zu\n",
              std::string(IndexKindToString(result.value().best.kind))
                  .c_str(),
              result.value().best.leaf_capacity);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = ParsedArgs::Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  const ParsedArgs& args = parsed.value();

  int rc;
  if (args.command() == "generate") {
    rc = RunGenerate(args);
  } else if (args.command() == "build") {
    rc = RunBuild(args);
  } else if (args.command() == "query") {
    rc = RunQuery(args);
  } else if (args.command() == "tune") {
    rc = RunTune(args);
  } else if (args.command() == "remote-query") {
    rc = RunRemoteQuery(args);
  } else {
    return Usage();
  }

  for (const auto& flag : args.UnusedFlags()) {
    std::fprintf(stderr, "karl: warning: unused flag --%s\n", flag.c_str());
  }
  return rc;
}
