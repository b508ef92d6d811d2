// perfbench: runs one workload and prints, as its last stdout line,
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). The line before it records the run's context.
//
//   perfbench --workload engine-kde --seed 1 --seconds 15 --trace 0
//             --work-dir DIR --source-digest HEX [--smoke]
//
// An untraced run sets the system up, plays one warm-up round, then
// replays equal rounds of the workload's seeded request sequence for
// --seconds. qps and the latency quantiles are each the median over the
// rounds of that round's figure: on a shared host the median round moved
// far less between runs than the fastest one (perfbench/STEADINESS.md).
// setup_s is the median of several samples taken first, each timing a
// few set-ups back to back, so that a sample outlasts the host's
// scheduling jitter. A traced run sets up the same way, then alternates
// untraced and traced rounds for half of --seconds (the gap between
// their median rounds is the tracing overhead), then runs the layer
// probes and writes every span to DIR/trace-<workload>.ndjson.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "probes.h"
#include "stats.h"
#include "workload.h"

#ifndef PERFBENCH_KARL_SANITIZE
#define PERFBENCH_KARL_SANITIZE ""
#endif
#ifndef PERFBENCH_KARL_AUDIT
#define PERFBENCH_KARL_AUDIT 0
#endif

namespace perfbench {
namespace {

constexpr int kMinRounds = 3;
// setup_s samples per run; each times Workload::setup_group() set-ups.
constexpr int kSetupSamples = 7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
  std::string source_digest;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Die("--seed wants an integer, got " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        Die("--seconds wants a positive number, got " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace wants 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) Die("--workload is required");
  if (args.work_dir.empty()) Die("--work-dir is required");
  if (args.source_digest.empty()) Die("--source-digest is required");
  return args;
}

// Numbers from a debug, sanitizer or bound-auditing build describe that
// build, not the system; refuse to record them.
void RefuseUnlessRelease(const BuildContext& context) {
  if (context.build_type != "Release") {
    Die("refusing to record numbers from a '" + context.build_type +
        "' build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  if (std::string(PERFBENCH_KARL_SANITIZE) != "" || PERFBENCH_KARL_AUDIT) {
    Die("refusing to record numbers from a sanitizer or audit build");
  }
}

std::string CpuFlags() {
  static const char* kWanted[] = {"sse4_2",   "avx",      "avx2",
                                  "fma",      "bmi2",     "avx512f",
                                  "avx512dq", "avx512bw", "avx512vl"};
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream tokens(line.substr(line.find(':') + 1));
    std::string token, out;
    while (tokens >> token) {
      for (const char* wanted : kWanted) {
        if (token == wanted) out += (out.empty() ? "" : " ") + token;
      }
    }
    return out;
  }
  return "unknown";
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  return out + "\"";
}

std::string ContextJson(const Args& args, const BuildContext& context,
                        int rounds) {
  std::ostringstream out;
  out << "{\"context\":{\"workload\":" << Quote(args.workload)
      << ",\"seed\":" << args.seed << ",\"seconds\":" << args.seconds
      << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"smoke\":" << (args.smoke ? "true" : "false")
      << ",\"rounds\":" << rounds << ",\"git_sha\":" << Quote(context.git_sha)
      << ",\"source_digest\":" << Quote(args.source_digest)
      << ",\"build_type\":" << Quote(context.build_type)
      << ",\"simd_tier\":" << Quote(context.simd_tier)
      << ",\"cpu_flags\":" << Quote(CpuFlags())
      << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN) << "}}";
  return out.str();
}

std::string ResultJson(uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ",";
    out += Quote(metrics[i].name) + ":{\"value\":" + buf +
           ",\"unit\":" + Quote(metrics[i].unit) + "}";
  }
  return out + "}}";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB.
}

double Qps(const RoundResult& round) {
  return static_cast<double>(round.queries) / round.wall_s;
}

int Run(const Args& args) {
  const BuildContext context = Context();
  RefuseUnlessRelease(context);
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    Die("unknown workload " + args.workload);
  }
  const std::string run_dir = args.work_dir + "/" + args.workload + "-" +
                              std::to_string(getpid());
  std::filesystem::create_directories(run_dir);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  int rounds = 0;
  std::vector<Metric> metrics;
  Tracer tracer(args.trace);
  {
    auto workload = MakeWorkload(args.workload, args.seed, args.smoke,
                                 run_dir);
    std::vector<double> setup_s;
    const int group = workload->setup_group();
    for (int sample = 0; sample < (args.smoke ? 2 : kSetupSamples);
         ++sample) {
      double seconds = 0.0;
      for (int rep = 0; rep < group; ++rep) seconds += workload->SetUp();
      setup_s.push_back(seconds / group);
    }
    failed += workload->Prepare();
    auto account = [&](const RoundResult& round) {
      attempted += round.queries;
      failed += round.failed;
      ++rounds;
    };
    account(workload->Round(tracer, false));  // Warm-up, not measured.

    const uint64_t start = NowNs();
    auto elapsed_s = [&] {
      return static_cast<double>(NowNs() - start) / 1e9;
    };
    if (!args.trace) {
      std::vector<double> qps, p50, p99;
      for (int r = 0; r < kMinRounds || elapsed_s() < args.seconds; ++r) {
        const RoundResult round = workload->Round(tracer, false);
        account(round);
        qps.push_back(Qps(round));
        p50.push_back(Quantile(round.latency_us, 0.5));
        p99.push_back(Quantile(round.latency_us, 0.99));
      }
      metrics = {
          {"qps", Median(qps), "1/s"},
          {"latency_p50_us", Median(p50), "us"},
          {"latency_p99_us", Median(p99), "us"},
          {"setup_s", Median(setup_s), "s"},
          {"peak_rss_mb", PeakRssMb(), "MB"},
      };
    } else {
      TracedRun run;
      std::vector<double> qps[2];
      for (int r = 0; r < 2 * kMinRounds || elapsed_s() < args.seconds / 2;
           ++r) {
        const bool traced = r % 2 == 1;
        const RoundResult round = workload->Round(tracer, traced);
        account(round);
        qps[traced].push_back(Qps(round));
        if (!traced) continue;
        if (qps[1].size() == 1) run.registry = round.registry;
        run.client_latency_us.insert(run.client_latency_us.end(),
                                     round.latency_us.begin(),
                                     round.latency_us.end());
      }
      run.qps_untraced = Median(qps[0]);
      run.qps_traced = Median(qps[1]);
      metrics = LayerMetrics(*workload, run, tracer, args.smoke, &attempted,
                             &failed);
    }
  }  // Servers stop and join here, before their files go.
  std::filesystem::remove_all(run_dir);

  const std::string context_json = ContextJson(args, context, rounds);
  if (args.trace) {
    const std::string path =
        args.work_dir + "/trace-" + args.workload + ".ndjson";
    if (!tracer.Write(path, context_json)) Die("cannot write " + path);
  }
  std::printf("%s\n%s\n", context_json.c_str(),
              ResultJson(attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
