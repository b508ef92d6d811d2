// The one place the benchmark calls into KARL. Every library call the
// workloads and layer probes make goes through here, so an API refactor
// in the library touches this file and nothing else.
//
// It deliberately uses only the surfaces the project keeps:
//   * models persist as KSNP snapshots written by registry::WriteSnapshot;
//   * servers start through Server::StartWithRegistry;
//   * reloads go through ModelRegistry::Reload, not the in-band op;
//   * metrics are read from the in-process telemetry::Registry;
//   * core::EvalStats and the TraversalProfile are requested only by
//     traced runs (the Work* out parameters below stay null otherwise).
// Failures of set-up calls are fatal: the benchmark prints a message and
// exits non-zero rather than record numbers from a broken run.
#ifndef PERFBENCH_ADAPTER_H_
#define PERFBENCH_ADAPTER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/karl.h"
#include "data/matrix.h"

namespace perfbench {

using Engine = karl::Engine;
using Matrix = karl::data::Matrix;

/// Prints `message` to stderr and exits with status 2.
[[noreturn]] void Die(const std::string& message);

// ---------------------------------------------------------------- models

/// The named dataset simulacrum (the library's deterministic generator),
/// resized to `n` points.
Matrix MakeDataset(const std::string& dataset, size_t n);

/// Builds an engine: Gaussian kernel with `gamma`, KARL bounds, kd-tree,
/// leaf capacity 80.
std::unique_ptr<Engine> BuildEngine(const Matrix& points,
                                    std::span<const double> weights,
                                    double gamma);

/// Refinement work of the queries answered: core::EvalStats totals, and
/// from each query's TraversalProfile the NodeBounds calls, i.e. the
/// admitted nodes that were not leaves (a leaf is aggregated exactly
/// instead of bounded).
struct Work {
  uint64_t iterations = 0;
  uint64_t nodes_expanded = 0;
  uint64_t kernel_evals = 0;
  uint64_t bound_calls = 0;
};

double Ekaq(const Engine& engine, std::span<const double> q, double eps,
            Work* work = nullptr);
bool Tkaq(const Engine& engine, std::span<const double> q, double tau,
          Work* work = nullptr);
/// Serial batch TKAQ (no pool).
std::vector<uint8_t> TkaqBatch(const Engine& engine, const Matrix& rows,
                               double tau);
/// Exact Σ w_i K(q, p_i) over the raw points by scan.
double ExactAggregate(const Matrix& points, std::span<const double> weights,
                      double gamma, std::span<const double> q);

struct IndexShape {
  size_t bytes = 0;   ///< Index memory footprint.
  size_t nodes = 0;   ///< Tree nodes over every tree.
  size_t points = 0;  ///< Indexed points over every tree.
  size_t trees = 0;   ///< 1, or 2 for Type III.
};
IndexShape Shape(const Engine& engine);

// ------------------------------------------------------------- snapshots

void WriteSnapshot(const std::string& path, const Engine& engine);

// ---------------------------------------------------------- serving stack

/// A model registry over one directory of .snap files, served on an
/// ephemeral loopback port, with its own metrics registry.
class Serving {
 public:
  /// `budget_bytes` = 0 means unlimited; `threads` pool workers.
  static std::unique_ptr<Serving> Start(const std::string& model_dir,
                                        uint64_t budget_bytes,
                                        size_t threads);
  ~Serving();
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  int port() const;
  /// ModelRegistry::Reload; fatal on error.
  void Reload();

  struct Counts {
    uint64_t loads = 0;
    uint64_t evictions = 0;
    uint64_t reloads = 0;
  };
  Counts RegistryCounts() const;
  /// q-quantile of the server stage histogram karl_server_<stage>_us.
  double StageQuantile(const std::string& stage, double q) const;
  /// Mean rows per coalesced evaluation group.
  double RowsPerBatch() const;

 private:
  struct State;
  explicit Serving(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

/// A blocking loopback client connection.
class Connection {
 public:
  static std::unique_ptr<Connection> Open(int port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Send(const std::string& line);
  /// Next response line, without the newline; false on transport error.
  bool Receive(std::string* line);

 private:
  struct State;
  explicit Connection(std::unique_ptr<State> state);
  std::unique_ptr<State> state_;
};

/// One decoded response line.
struct Reply {
  bool ok = false;
  std::string id;
  std::vector<uint8_t> above;  ///< tkaq: the decision, when given.
  double value = 0.0;          ///< single ekaq.
};
bool ParseReply(std::string_view line, Reply* reply);

// ------------------------------------------------- layer probes (timed)
// Each returns the per-call cost of one library surface, as the fastest
// of a few repetitions over the given inputs.

/// core: BoundFunction::NodeBounds over every internal node of every
/// tree (the evaluator never bounds a leaf).
double BoundNsPerNode(const Engine& engine, const Matrix& queries);
/// core: simd::LeafAggregate over every leaf; `scalar` forces the
/// scalar tier for the measurement and restores the active one after.
double LeafNsPerPoint(const Engine& engine, const Matrix& queries,
                      bool scalar);
/// server: ParseRequest per line.
double ParseUsPerLine(const std::vector<std::string>& lines);
/// server: the response formatters (OkBoolResponse, OkValueResponse), one
/// call per expected reply.
double SerializeUsPerReply(const std::vector<Reply>& replies);
/// util: ThreadPool::ParallelFor over 32 empty items on 2 workers.
double PoolFanoutUs();
/// telemetry: RollingHistogram::Record, SloEngine::Observe,
/// FlightRecorder::Record.
double RollingRecordNs();
double SloObserveNs();
double FlightRecordNs();
/// registry: one sample each of MappedSnapshot::Map, AttachEngine (over
/// an existing map), a cold ModelRegistry::Acquire and Reload with a
/// changed resident file; and the per-call cost of a warm Acquire.
double MapMs(const std::string& path);
double AttachMs(const std::string& path);
double AcquireColdMs(const std::string& model_dir, const std::string& name);
double AcquireWarmUs(const std::string& model_dir, const std::string& name);
double ReloadMs(const std::string& model_dir, const std::string& name,
                const Engine& engine);

// --------------------------------------------------------------- context

struct BuildContext {
  std::string git_sha;
  std::string build_type;
  std::string simd_tier;
};
BuildContext Context();

}  // namespace perfbench

#endif  // PERFBENCH_ADAPTER_H_
