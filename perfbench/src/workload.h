// The benchmark workloads behind one interface. Each owns its
// models and request sequence, replays that sequence in equal rounds from
// the same starting state, and checks every answer it gets.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "adapter.h"
#include "trace.h"

namespace perfbench {

/// ε of every eKAQ the benchmark asks.
inline constexpr double kEkaqEps = 0.05;

/// One served model and the benchmark's reference data for it.
struct Model {
  std::string name;     ///< Dataset simulacrum, registry name, file stem.
  bool ekaq = true;     ///< Query kind served: eKAQ, else TKAQ.
  double tau = 0.0;     ///< μ: mean exact aggregate over 100 points.
  double gamma = 0.0;
  Matrix points;
  std::vector<double> weights;
  std::unique_ptr<Engine> engine;
  std::vector<double> build_ms;  ///< One sample per set-up.
  std::string snapshot;          ///< Snapshot path, when one was written.
  Matrix rows;                   ///< Query rows this workload sends it.
};

/// One query row of a round: which model, which of its rows.
struct QueryRef {
  size_t model = 0;
  size_t row = 0;
};

/// What one round measured.
struct RoundResult {
  double wall_s = 0.0;              ///< Timed span of the round.
  uint64_t queries = 0;             ///< Query rows answered.
  uint64_t failed = 0;              ///< Wrong answers and errors.
  std::vector<double> latency_us;   ///< Per request, as the client saw it.
  Serving::Counts registry;         ///< Registry activity in the round.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Sets the system up afresh, ready to serve (a client connects after
  /// the clock stops); returns the wall seconds of its own set-up calls.
  /// The state of the last set-up is what the rounds use.
  virtual double SetUp() = 0;
  /// Untimed, after the set-ups: reference answers and the answer checks
  /// that need no round. Returns the number of failed checks.
  virtual uint64_t Prepare() = 0;
  /// Replays the request sequence once. A traced round records one span
  /// per request in `tracer`.
  virtual RoundResult Round(Tracer& tracer, bool traced) = 0;

  /// Set-ups timed together as one setup_s sample, enough that a sample
  /// outlasts the host's scheduling jitter (setup_s is the median
  /// sample's seconds per set-up).
  virtual int setup_group() const = 0;
  /// Every model, with the rows the workload sends it.
  std::vector<Model>& models() { return models_; }
  /// The query rows of one round, in the order they are sent.
  const std::vector<QueryRef>& queries() const { return queries_; }
  /// The request lines of one round, and the replies they expect.
  const std::vector<std::string>& lines() const { return lines_; }
  const std::vector<Reply>& expected() const { return expected_; }
  /// The serving stack, or null when the workload runs in-process.
  virtual Serving* serving() { return nullptr; }
  /// A directory for snapshots and other files the workload writes.
  const std::string& work_dir() const { return work_dir_; }

 protected:
  explicit Workload(std::string work_dir) : work_dir_(std::move(work_dir)) {}

  std::vector<Model> models_;
  std::vector<QueryRef> queries_;
  std::vector<std::string> lines_;
  std::vector<Reply> expected_;

 private:
  std::string work_dir_;
};

/// True when `got` is a success carrying exactly the answer `want` holds
/// (TKAQ decisions equal, eKAQ values bit-identical).
bool SameAnswer(const Reply& got, const Reply& want);

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Builds the named workload's inputs from `seed` (query rows, request
/// order, model switches, which snapshot is rewritten). `smoke` shrinks
/// every size for the self-test. Returns null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, bool smoke,
                                       const std::string& work_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
