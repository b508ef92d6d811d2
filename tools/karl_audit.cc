// karl_audit: randomized bound-invariant fuzz driver.
//
// Sweeps random datasets × kernels {Gaussian, Laplacian, Cauchy,
// polynomial even/odd, sigmoid} × weighting {Type I, II, III} × bound
// kinds {SOTA, KARL} × indexes {kd-tree, ball-tree} × queries {TKAQ,
// eKAQ}, with the runtime bound auditor enabled on every engine. Any
// violated invariant — a node bound excluding its exact aggregate, a
// narrow leaf interval excluding its leaf's fp64 sum, a global [lb, ub]
// excluding the exact answer, an inverted interval, or a non-monotone
// refinement where monotonicity is a theorem — aborts with full
// diagnostics. So does a wrong answer: a TKAQ decision other than
// exact > τ (τ at 0.6, 1 ± 1e-7 and 1.5 times the exact answer), or an
// eKAQ answer F̂ outside |F̂ − F| <= ε|F| + 1e-9·|F|, a relative slack
// with no absolute floor. Each query also runs the leaf audit: every
// leaf's narrow interval (core/simd LeafInterval), queried or not, must
// enclose ExactNodeAggregate with no tolerance, and so must the interval
// of every pair of sibling leaves, scanned as one range. A clean exit
// means zero violations over the whole sweep.
//
// Usage: karl_audit [--trials N] [--seed S] [--max-n N] [--verbose]
//                   [--metrics-out <file>] [--trace-out <file.json>]
//
// --metrics-out dumps the telemetry registry after the sweep (per-query
// latency/iteration/kernel-eval metrics across every audited engine) as
// Prometheus text;
// --trace-out records the sweep as Chrome trace-event JSON (bounded by
// the recorder's event cap, so long sweeps truncate rather than grow
// without bound).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bounds.h"
#include "core/karl.h"
#include "core/simd/simd.h"
#include "data/synthetic.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using karl::Engine;
using karl::EngineOptions;
using karl::core::BoundKind;
using karl::core::KernelParams;

KernelParams RandomKernel(karl::util::Rng& rng, size_t d) {
  const double gamma = rng.Uniform(0.2, 4.0) / static_cast<double>(d);
  switch (rng.UniformInt(6)) {
    case 0:
      return KernelParams::Gaussian(gamma * static_cast<double>(d) *
                                    rng.Uniform(1.0, 8.0));
    case 4:
      return KernelParams::Laplacian(gamma * std::sqrt(static_cast<double>(d)) *
                                     rng.Uniform(1.0, 8.0));
    case 5:
      return KernelParams::Cauchy(gamma * static_cast<double>(d) *
                                  rng.Uniform(1.0, 8.0));
    case 1:  // Even degree: convex profile, dips to 0 on mixed intervals.
      return KernelParams::Polynomial(gamma, rng.Uniform(-0.3, 0.3),
                                      rng.UniformInt(2) == 0 ? 2 : 4);
    case 2:  // Odd degree: the mixed concave/convex pivot construction.
      return KernelParams::Polynomial(gamma, rng.Uniform(-0.3, 0.3),
                                      rng.UniformInt(2) == 0 ? 3 : 5);
    default:
      return KernelParams::Sigmoid(gamma, rng.Uniform(-0.2, 0.2));
  }
}

std::vector<double> RandomWeights(karl::util::Rng& rng, size_t n,
                                  int weighting) {
  std::vector<double> w(n);
  for (auto& v : w) {
    switch (weighting) {
      case 1:
        v = 0.8;
        break;
      case 2:
        v = rng.Uniform(0.05, 2.0);
        break;
      default:
        v = rng.Uniform(-1.0, 1.0);
        if (v == 0.0) v = 0.5;
        break;
    }
  }
  return w;
}

// Checks the narrow interval for `q` (caller coordinates) of every range
// the narrow pass scans, each leaf and each node whose children are both
// leaves, against the exact fp64 sum, with no tolerance.
void AuditLeaves(const Engine& engine, const std::vector<double>& q,
                 int64_t trial) {
  namespace simd = karl::core::simd;
  const KernelParams& kernel = engine.options().kernel;
  for (const karl::index::TreeIndex* tree :
       {&engine.plus_tree(), engine.minus_tree()}) {
    if (tree == nullptr) continue;
    std::vector<double> in_frame = q;
    if (!tree->frame().empty()) {
      simd::ReflectRows(tree->frame(), q.size(), q.data(), 1,
                        in_frame.data());
    }
    const simd::NarrowQuery narrow(kernel, in_frame);
    if (!narrow.usable() || !tree->points().nonnegative_weights()) continue;
    for (size_t id = 0; id < tree->num_nodes(); ++id) {
      const auto node = static_cast<karl::index::NodeId>(id);
      const auto& nd = tree->node(node);
      if (!nd.is_leaf() && !(tree->node(nd.left).is_leaf() &&
                             tree->node(nd.right).is_leaf())) {
        continue;
      }
      const simd::NodeInterval iv = simd::LeafInterval(
          kernel, tree->points(), nd.begin, nd.end, narrow);
      const double exact =
          karl::core::ExactNodeAggregate(kernel, *tree, node, in_frame);
      KARL_CHECK(iv.lb <= exact && exact <= iv.ub)
          << ": narrow leaf interval excludes the exact sum at trial "
          << trial << "; kernel=" << karl::core::KernelTypeToString(kernel.type)
          << " tier=" << simd::TierName(simd::ActiveTier()) << " range=["
          << nd.begin << "," << nd.end << ") lb=" << iv.lb
          << " exact=" << exact << " ub=" << iv.ub;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = karl::util::ParsedArgs::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "argument error: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const auto& args = parsed.value();
  const int64_t trials = args.GetInt("trials", 200).value();
  const int64_t seed = args.GetInt("seed", 1).value();
  const int64_t max_n = args.GetInt("max-n", 260).value();
  const bool verbose = args.Has("verbose");
  const std::string metrics_out = args.GetString("metrics-out");
  const std::string trace_out = args.GetString("trace-out");
  if (trials <= 0 || max_n < 32) {
    std::fprintf(stderr, "need --trials > 0 and --max-n >= 32\n");
    return 2;
  }
  karl::telemetry::TraceRecorder tracer;

  karl::util::Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL +
                      1);
  size_t queries_run = 0;
  for (int64_t trial = 0; trial < trials; ++trial) {
    const size_t n =
        32 + rng.UniformInt(static_cast<uint64_t>(max_n) - 31);  // [32, max_n]
    const size_t d = 2 + rng.UniformInt(7);
    const int weighting = 1 + static_cast<int>(rng.UniformInt(3));
    karl::data::Matrix points = karl::data::SampleClustered(
        n, d, 1 + rng.UniformInt(4), rng.Uniform(0.03, 0.15), rng);
    const auto weights = RandomWeights(rng, n, weighting);

    EngineOptions options;
    options.kernel = RandomKernel(rng, d);
    options.bounds =
        rng.UniformInt(2) == 0 ? BoundKind::kSota : BoundKind::kKarl;
    options.index_kind = rng.UniformInt(2) == 0
                             ? karl::index::IndexKind::kKdTree
                             : karl::index::IndexKind::kBallTree;
    options.leaf_capacity = 2 + rng.UniformInt(30);
    options.audit_bounds = true;
    if (!metrics_out.empty()) {
      options.metrics = &karl::telemetry::GlobalRegistry();
    }
    if (!trace_out.empty()) options.tracer = &tracer;

    auto engine = Engine::Build(points, weights, options);
    if (!engine.ok()) {
      std::fprintf(stderr, "trial %lld: engine build failed: %s\n",
                   static_cast<long long>(trial),
                   engine.status().ToString().c_str());
      return 1;
    }

    if (verbose) {
      std::fprintf(
          stderr, "trial %lld: n=%zu d=%zu type=%s kernel=%s bounds=%s %s\n",
          static_cast<long long>(trial), n, d,
          std::string(
              karl::WeightingTypeToString(engine.value().weighting_type()))
              .c_str(),
          std::string(karl::core::KernelTypeToString(options.kernel.type))
              .c_str(),
          std::string(karl::core::BoundKindToString(options.bounds)).c_str(),
          std::string(karl::index::IndexKindToString(options.index_kind))
              .c_str());
    }

    for (int query = 0; query < 3; ++query) {
      std::vector<double> q(d);
      for (auto& v : q) v = rng.Uniform(-0.2, 1.2);
      const double exact = engine.value().Exact(q);
      // TKAQ around the exact answer (both decidable sides plus a far
      // threshold); every refinement step is audited, and so is the
      // decision.
      AuditLeaves(engine.value(), q, trial);
      for (const double rel : {0.6, 1.0 - 1e-7, 1.0 + 1e-7, 1.5}) {
        const double tau = exact * rel + (exact == 0.0 ? 0.1 : 0.0);
        const bool decision = engine.value().Tkaq(q, tau);
        KARL_CHECK(decision == (exact > tau))
            << ": wrong TKAQ decision at trial " << trial << " query "
            << query << "; exact=" << exact << " tau=" << tau
            << " decision=" << decision;
        ++queries_run;
      }
      // eKAQ is specified for Type I/II weighting only.
      if (weighting != 3) {
        const double eps = rng.Uniform(0.05, 0.5);
        const double answer = engine.value().Ekaq(q, eps);
        KARL_CHECK(std::abs(answer - exact) <=
                   eps * std::abs(exact) + 1e-9 * std::abs(exact))
            << ": eKAQ answer breaks the contract at trial " << trial
            << " query " << query << "; exact=" << exact
            << " answer=" << answer << " eps=" << eps;
        ++queries_run;
      }
    }
  }

  if (!metrics_out.empty()) {
    if (auto st = karl::telemetry::WriteMetricsFile(
            karl::telemetry::GlobalRegistry(), metrics_out);
        !st.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  if (!trace_out.empty()) {
    if (auto st = tracer.WriteJson(trace_out); !st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  std::printf(
      "karl_audit: %lld trials, %zu audited queries, 0 invariant "
      "violations\n",
      static_cast<long long>(trials), queries_run);
  return 0;
}
