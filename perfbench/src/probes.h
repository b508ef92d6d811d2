// Per-layer metrics of the traced run. Layers are the modules under the
// library's src/: core, index, server, util, telemetry, registry. Each
// number comes from timing a call into the layer's public functions on
// the workload's own models and request lines, or from counters and stage
// histograms the library already exports.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <string>
#include <vector>

#include "trace.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What the traced run's rounds measured, for the probes to build on.
struct TracedRun {
  double qps_untraced = 0.0;  ///< Median untraced round.
  double qps_traced = 0.0;    ///< Median traced round.
  Serving::Counts registry;   ///< Registry activity in one round.
  std::vector<double> client_latency_us;  ///< Every traced request.
};

/// Runs every layer probe, each inside a span, and returns the layer
/// metrics in BENCHMARK.json order. Probes that send queries check the
/// answers; wrong ones are added to `*failed` (and the queries sent to
/// `*attempted`).
std::vector<Metric> LayerMetrics(Workload& workload, const TracedRun& run,
                                 Tracer& tracer, bool smoke,
                                 uint64_t* attempted, uint64_t* failed);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
