#include "adapter.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "core/bounds.h"
#include "core/evaluator.h"
#include "core/simd/simd.h"
#include "core/traversal_profile.h"
#include "data/synthetic.h"
#include "registry/registry.h"
#include "registry/snapshot.h"
#include "server/client.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "stats.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"
#include "telemetry/slo.h"
#include "util/build_info.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

// Keeps `value` observable so timed loops are not optimised away.
template <typename T>
void Keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

template <typename T>
T Unwrap(karl::util::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

void Check(const karl::util::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// Fastest of `reps` runs of `body`, which returns the number of calls it
// made; the result is nanoseconds per call.
template <typename Body>
double FastestNsPerCall(int reps, Body body) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const uint64_t start = NowNs();
    const double calls = static_cast<double>(body());
    const double ns = static_cast<double>(NowNs() - start) / calls;
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

std::vector<const karl::index::TreeIndex*> Trees(const Engine& engine) {
  std::vector<const karl::index::TreeIndex*> trees{&engine.plus_tree()};
  if (engine.minus_tree() != nullptr) trees.push_back(engine.minus_tree());
  return trees;
}

void AddWork(const karl::core::EvalStats& stats,
             const karl::core::TraversalProfile& profile, Work* work) {
  work->iterations += stats.iterations;
  work->nodes_expanded += stats.nodes_expanded;
  work->kernel_evals += stats.kernel_evals;
  for (const auto& level : profile.levels) {
    work->bound_calls += level.visited - level.exact_leaves;
  }
}

}  // namespace

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

Matrix MakeDataset(const std::string& dataset, size_t n) {
  auto spec = Unwrap(karl::data::FindDataset(dataset), "dataset");
  spec.n = n;
  return karl::data::MakeUciLike(spec);
}

std::unique_ptr<Engine> BuildEngine(const Matrix& points,
                                    std::span<const double> weights,
                                    double gamma) {
  karl::EngineOptions options;
  options.kernel = karl::core::KernelParams::Gaussian(gamma);
  options.bounds = karl::core::BoundKind::kKarl;
  options.index_kind = karl::index::IndexKind::kKdTree;
  options.leaf_capacity = 80;
  return std::make_unique<Engine>(
      Unwrap(Engine::Build(points, weights, options), "Engine::Build"));
}

double Ekaq(const Engine& engine, std::span<const double> q, double eps,
            Work* work) {
  if (work == nullptr) return engine.Ekaq(q, eps);
  karl::core::EvalStats stats;
  karl::core::TraversalProfile profile;
  const double value =
      engine.evaluator().QueryApproximate(q, eps, &stats, nullptr, &profile);
  AddWork(stats, profile, work);
  return value;
}

bool Tkaq(const Engine& engine, std::span<const double> q, double tau,
          Work* work) {
  if (work == nullptr) return engine.Tkaq(q, tau);
  karl::core::EvalStats stats;
  karl::core::TraversalProfile profile;
  const bool above =
      engine.evaluator().QueryThreshold(q, tau, &stats, nullptr, &profile);
  AddWork(stats, profile, work);
  return above;
}

std::vector<uint8_t> TkaqBatch(const Engine& engine, const Matrix& rows,
                               double tau) {
  return engine.TkaqBatch(rows, tau);
}

double ExactAggregate(const Matrix& points, std::span<const double> weights,
                      double gamma, std::span<const double> q) {
  return karl::core::ExactAggregate(
      points, weights, karl::core::KernelParams::Gaussian(gamma), q);
}

IndexShape Shape(const Engine& engine) {
  IndexShape shape;
  shape.bytes = engine.MemoryUsageBytes();
  for (const auto* tree : Trees(engine)) {
    shape.nodes += tree->num_nodes();
    shape.points += tree->points().rows();
    ++shape.trees;
  }
  return shape;
}

void WriteSnapshot(const std::string& path, const Engine& engine) {
  Check(karl::registry::WriteSnapshot(path, engine), "WriteSnapshot");
}

// ------------------------------------------------------------- Serving

struct Serving::State {
  karl::telemetry::Registry metrics;
  std::unique_ptr<karl::registry::ModelRegistry> models;
  std::unique_ptr<karl::server::Server> server;
};

Serving::Serving(std::unique_ptr<State> state) : state_(std::move(state)) {}

Serving::~Serving() {
  // The server must stop before the registry it serves goes away.
  state_->server.reset();
}

std::unique_ptr<Serving> Serving::Start(const std::string& model_dir,
                                        uint64_t budget_bytes,
                                        size_t threads) {
  auto state = std::make_unique<State>();
  karl::registry::RegistryOptions registry_options;
  registry_options.memory_budget_bytes = budget_bytes;
  registry_options.metrics = &state->metrics;
  state->models = Unwrap(
      karl::registry::ModelRegistry::Open(model_dir, registry_options),
      "ModelRegistry::Open");
  karl::server::ServerOptions server_options;
  server_options.threads = threads;
  server_options.metrics = &state->metrics;
  state->server = Unwrap(karl::server::Server::StartWithRegistry(
                             state->models.get(), server_options),
                         "Server::StartWithRegistry");
  return std::unique_ptr<Serving>(new Serving(std::move(state)));
}

int Serving::port() const { return state_->server->port(); }

void Serving::Reload() {
  Check(state_->models->Reload(), "ModelRegistry::Reload");
}

Serving::Counts Serving::RegistryCounts() const {
  Counts counts;
  for (const auto& info : state_->models->List()) counts.loads += info.loads;
  counts.evictions = state_->models->evictions();
  counts.reloads = state_->models->reloads();
  return counts;
}

double Serving::StageQuantile(const std::string& stage, double q) const {
  const auto* histogram = state_->metrics.GetRollingHistogram(
      "karl_server_" + stage + "_us");
  return histogram->CumulativeSnapshot().Quantile(q);
}

double Serving::RowsPerBatch() const {
  const auto snapshot =
      state_->metrics.GetRollingHistogram("karl_server_coalesced_rows")
          ->CumulativeSnapshot();
  return snapshot.count == 0
             ? 0.0
             : snapshot.sum / static_cast<double>(snapshot.count);
}

// ---------------------------------------------------------- Connection

struct Connection::State {
  karl::server::Client client;
};

Connection::Connection(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

Connection::~Connection() = default;

std::unique_ptr<Connection> Connection::Open(int port) {
  auto client = Unwrap(karl::server::Client::Connect("127.0.0.1", port),
                       "Client::Connect");
  return std::unique_ptr<Connection>(
      new Connection(std::make_unique<State>(State{std::move(client)})));
}

bool Connection::Send(const std::string& line) {
  return state_->client.SendLine(line).ok();
}

bool Connection::Receive(std::string* line) {
  auto result = state_->client.ReceiveLine();
  if (!result.ok()) return false;
  *line = std::move(result).ValueOrDie();
  return true;
}

bool ParseReply(std::string_view line, Reply* reply) {
  auto parsed = karl::server::Json::Parse(line);
  if (!parsed.ok() || !parsed.value().is_object()) return false;
  const karl::server::Json& json = parsed.value();
  *reply = Reply{};
  if (const auto* ok = json.Find("ok"); ok != nullptr && ok->is_bool()) {
    reply->ok = ok->bool_value();
  }
  if (const auto* id = json.Find("id"); id != nullptr && id->is_string()) {
    reply->id = id->string_value();
  }
  if (const auto* above = json.Find("above");
      above != nullptr && above->is_bool()) {
    reply->above.push_back(above->bool_value() ? 1 : 0);
  }
  if (const auto* v = json.Find("value"); v != nullptr && v->is_number()) {
    reply->value = v->number_value();
  }
  return true;
}

// --------------------------------------------------------------- probes

double BoundNsPerNode(const Engine& engine, const Matrix& queries) {
  const auto bound_fn =
      Unwrap(karl::core::MakeBoundFunction(engine.options().kernel,
                                           engine.options().bounds),
             "MakeBoundFunction");
  const auto trees = Trees(engine);
  return FastestNsPerCall(3, [&] {
    size_t calls = 0;
    double lb = 0.0;
    double ub = 0.0;
    for (size_t i = 0; i < queries.rows(); ++i) {
      const auto ctx = karl::core::QueryContext::Make(queries.Row(i));
      for (const auto* tree : trees) {
        const auto n = static_cast<karl::index::NodeId>(tree->num_nodes());
        for (karl::index::NodeId id = 0; id < n; ++id) {
          if (tree->node(id).is_leaf()) continue;
          bound_fn->NodeBounds(*tree, id, ctx, &lb, &ub);
          Keep(lb);
          Keep(ub);
          ++calls;
        }
      }
    }
    return calls;
  });
}

double LeafNsPerPoint(const Engine& engine, const Matrix& queries,
                      bool scalar) {
  namespace simd = karl::core::simd;
  const simd::Tier active = simd::ActiveTier();
  if (scalar) simd::ForceTier(simd::Tier::kScalar);
  const auto trees = Trees(engine);
  const double ns = FastestNsPerCall(3, [&] {
    size_t points = 0;
    for (size_t i = 0; i < queries.rows(); ++i) {
      for (const auto* tree : trees) {
        for (const auto& node : tree->nodes()) {
          if (!node.is_leaf()) continue;
          const double sum =
              simd::LeafAggregate(engine.options().kernel, tree->soa(),
                                  node.begin, node.end, queries.Row(i));
          Keep(sum);
          points += node.count();
        }
      }
    }
    return points;
  });
  simd::ForceTier(active);
  return ns;
}

double ParseUsPerLine(const std::vector<std::string>& lines) {
  return FastestNsPerCall(3, [&] {
           for (const auto& line : lines) {
             auto request = karl::server::ParseRequest(line);
             if (!request.ok()) Die("ParseRequest: " + line);
             Keep(request);
           }
           return lines.size();
         }) /
         1e3;
}

double SerializeUsPerReply(const std::vector<Reply>& replies) {
  return FastestNsPerCall(3, [&] {
           for (const auto& reply : replies) {
             std::string line;
             if (!reply.above.empty()) {
               line = karl::server::OkBoolResponse(reply.id, reply.above[0]);
             } else {
               line = karl::server::OkValueResponse(reply.id, reply.value);
             }
             Keep(line);
           }
           return replies.size();
         }) /
         1e3;
}

double PoolFanoutUs() {
  karl::util::ThreadPool pool(2);
  const auto empty = [](size_t, size_t, size_t) {};
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t start = NowNs();
    pool.ParallelFor(32, 1, empty);
    samples.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return Median(samples);
}

double RollingRecordNs() {
  karl::telemetry::RollingHistogram histogram;
  return FastestNsPerCall(5, [&] {
    constexpr size_t kCalls = 200000;
    for (size_t i = 0; i < kCalls; ++i) {
      histogram.Record(static_cast<double>(50 + (i & 1023)));
    }
    return kCalls;
  });
}

double SloObserveNs() {
  karl::telemetry::SloEngine slo(karl::telemetry::SloConfig{}, nullptr,
                                 nullptr);
  const std::string model = "model";
  return FastestNsPerCall(5, [&] {
    constexpr size_t kCalls = 100000;
    for (size_t i = 0; i < kCalls; ++i) {
      slo.Observe(model, static_cast<double>(50 + (i & 1023)), true);
    }
    return kCalls;
  });
}

double FlightRecordNs() {
  karl::telemetry::FlightRecorder recorder(256);
  karl::telemetry::RequestRecord record;
  record.kind = "tkaq";
  record.batch = true;
  record.rows = 32;
  record.model = "model";
  record.peer = "127.0.0.1:40000";
  record.client_id = "r123456";
  return FastestNsPerCall(5, [&] {
    constexpr size_t kCalls = 100000;
    for (size_t i = 0; i < kCalls; ++i) {
      record.ctx.id = i;
      recorder.Record(record);
    }
    return kCalls;
  });
}

double MapMs(const std::string& path) {
  const uint64_t start = NowNs();
  auto snapshot =
      Unwrap(karl::registry::MappedSnapshot::Map(path), "Map " + path);
  const uint64_t end = NowNs();
  Keep(snapshot);
  return static_cast<double>(end - start) / 1e6;
}

double AttachMs(const std::string& path) {
  auto snapshot =
      Unwrap(karl::registry::MappedSnapshot::Map(path), "Map " + path);
  const uint64_t start = NowNs();
  auto engine = Unwrap(
      karl::registry::AttachEngine(snapshot, nullptr, nullptr), "Attach");
  const uint64_t end = NowNs();
  Keep(engine);
  return static_cast<double>(end - start) / 1e6;
}

double AcquireColdMs(const std::string& model_dir, const std::string& name) {
  auto models = Unwrap(karl::registry::ModelRegistry::Open(model_dir, {}),
                       "ModelRegistry::Open");
  const uint64_t start = NowNs();
  auto handle = Unwrap(models->Acquire(name), "Acquire");
  const uint64_t end = NowNs();
  Keep(handle);
  return static_cast<double>(end - start) / 1e6;
}

double AcquireWarmUs(const std::string& model_dir, const std::string& name) {
  auto models = Unwrap(karl::registry::ModelRegistry::Open(model_dir, {}),
                       "ModelRegistry::Open");
  Unwrap(models->Acquire(name), "Acquire");
  return FastestNsPerCall(3, [&] {
           constexpr size_t kCalls = 2000;
           for (size_t i = 0; i < kCalls; ++i) {
             auto handle = models->Acquire(name);
             Keep(handle);
           }
           return kCalls;
         }) /
         1e3;
}

double ReloadMs(const std::string& model_dir, const std::string& name,
                const Engine& engine) {
  auto models = Unwrap(karl::registry::ModelRegistry::Open(model_dir, {}),
                       "ModelRegistry::Open");
  Unwrap(models->Acquire(name), "Acquire");
  const std::string path = model_dir + "/" + name + ".snap";
  WriteSnapshot(path + ".tmp", engine);
  std::filesystem::rename(path + ".tmp", path);
  const uint64_t start = NowNs();
  Check(models->Reload(), "ModelRegistry::Reload");
  const uint64_t end = NowNs();
  return static_cast<double>(end - start) / 1e6;
}

BuildContext Context() {
  return BuildContext{
      karl::util::BuildGitSha(), karl::util::BuildType(),
      std::string(karl::core::simd::TierName(
          karl::core::simd::ActiveTier()))};
}

}  // namespace perfbench
