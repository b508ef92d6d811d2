// engine-kde and model-churn. Why each exists, and which
// layers it loads, is in perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numbers>

#include "stats.h"
#include "workload.h"

namespace perfbench {

namespace {

// FNV-1a of a name: fixes each model's weights and threshold probe, so a
// model is the same whatever --seed a run gets.
uint64_t NameSeed(const std::string& name) {
  uint64_t seed = 0xcbf29ce484222325ULL;
  for (const char ch : name) {
    seed = (seed ^ static_cast<uint64_t>(ch)) * 0x100000001b3ULL;
  }
  return seed;
}

double Gaussian(SplitMix& rng) {
  const double u1 = 1.0 - rng.Unit();  // (0, 1]
  const double u2 = rng.Unit();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

// Scott's rule: mean per-dimension standard deviation times
// n^(-1/(d+4)), as a Gaussian γ = 1 / (2 h²).
double ScottGamma(const Matrix& points) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  double sigma_sum = 0.0;
  for (size_t j = 0; j < d; ++j) {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) mean += points(i, j);
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double diff = points(i, j) - mean;
      var += diff * diff;
    }
    sigma_sum += std::sqrt(var / static_cast<double>(n));
  }
  const double h = std::max(
      1e-9, std::pow(static_cast<double>(n), -1.0 / (d + 4.0)) *
                sigma_sum / static_cast<double>(d));
  return 1.0 / (2.0 * h * h);
}

Matrix SampleRows(const Matrix& points, size_t count, SplitMix& rng) {
  std::vector<size_t> rows(count);
  for (auto& row : rows) row = rng.Below(points.rows());
  return points.SelectRows(rows);
}

// Type I: uniform 1/n with Scott γ (KDE). Type II: 1-class-SVM-like
// coefficients, most at the box bound. Type III: the same magnitudes,
// signed by the side of a random hyperplane (2-class SVM). SVM models use
// LIBSVM's default γ = 1/d. Every model also gets τ = μ, the mean exact
// aggregate over 100 of its points.
Model MakeModel(const std::string& dataset, size_t n, int type) {
  Model model;
  model.name = dataset;
  model.ekaq = type != 3;
  model.points = MakeDataset(dataset, n);
  const size_t d = model.points.cols();
  SplitMix rng(NameSeed(dataset));
  model.weights.resize(n);
  if (type == 1) {
    std::fill(model.weights.begin(), model.weights.end(), 1.0 / n);
    model.gamma = ScottGamma(model.points);
  } else {
    std::vector<double> normal(d);
    double offset = 0.0;
    for (auto& v : normal) {
      v = Gaussian(rng);
      offset += 0.5 * v;
    }
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double alpha =
          rng.Unit() < 0.7 ? 1.0 : 0.05 + 0.95 * rng.Unit();
      double side = -offset;
      for (size_t j = 0; j < d; ++j) side += normal[j] * model.points(i, j);
      model.weights[i] = (type == 3 && side < 0.0) ? -alpha : alpha;
      total += alpha;
    }
    for (auto& w : model.weights) w /= total;
    model.gamma = 1.0 / static_cast<double>(d);
  }
  const Matrix probe = SampleRows(model.points, 100, rng);
  double sum = 0.0;
  for (size_t i = 0; i < probe.rows(); ++i) {
    sum += ExactAggregate(model.points, model.weights, model.gamma,
                          probe.Row(i));
  }
  model.tau = sum / static_cast<double>(probe.rows());
  return model;
}

void AppendRow(std::string* out, std::span<const double> row) {
  char buf[32];
  out->push_back('[');
  for (size_t j = 0; j < row.size(); ++j) {
    if (j > 0) out->push_back(',');
    std::snprintf(buf, sizeof(buf), "%.17g", row[j]);
    out->append(buf);
  }
  out->push_back(']');
}

std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Request ids are "r<request index>".
std::string RequestId(size_t index) {
  std::string id = "r";
  id += std::to_string(index);
  return id;
}

// One op=query line for `model`.
std::string QueryLine(const Model& model, std::span<const double> q,
                      size_t id) {
  std::string line = "{\"op\":\"query\",\"kind\":\"";
  line += model.ekaq ? "ekaq\",\"q\":" : "tkaq\",\"q\":";
  AppendRow(&line, q);
  line += model.ekaq ? ",\"eps\":" + Number(kEkaqEps)
                     : ",\"tau\":" + Number(model.tau);
  line += ",\"model\":\"" + model.name + "\",\"id\":\"r" +
          std::to_string(id) + "\"}";
  return line;
}

// In-process answer to one query row, shaped like the server's reply.
Reply Answer(const Model& model, std::span<const double> q, size_t id) {
  Reply reply;
  reply.ok = true;
  reply.id = RequestId(id);
  if (model.ekaq) {
    reply.value = Ekaq(*model.engine, q, kEkaqEps);
  } else {
    reply.above.push_back(Tkaq(*model.engine, q, model.tau) ? 1 : 0);
  }
  return reply;
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

Serving::Counts Delta(const Serving::Counts& after,
                      const Serving::Counts& before) {
  return {after.loads - before.loads, after.evictions - before.evictions,
          after.reloads - before.reloads};
}

// Frees every model's engine, so that a set-up starts from the same
// memory whenever it runs.
void FreeEngines(std::vector<Model>* models) {
  for (auto& model : *models) model.engine.reset();
}

// Builds (and times) every model's engine.
void BuildEngines(std::vector<Model>* models) {
  for (auto& model : *models) {
    const uint64_t start = NowNs();
    model.engine = BuildEngine(model.points, model.weights, model.gamma);
    model.build_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
}

// ------------------------------------------------------------ engine-kde
// Serial in-process eKAQ (ε = 0.05) on a Type I KDE of the home
// simulacrum at 10k points: an engine of about 1.9 MB, under the per-core
// L2, so the evaluator, the bounds and the SIMD leaf kernels do all the
// work.
class EngineKde : public Workload {
 public:
  EngineKde(uint64_t seed, bool smoke, std::string work_dir)
      : Workload(std::move(work_dir)),
        smoke_(smoke),
        check_rng_(seed ^ 0x5eedULL) {
    models_.push_back(MakeModel("home", smoke ? 2000 : 10000, 1));
    SplitMix rng(seed);
    Model& model = models_[0];
    model.rows = SampleRows(model.points, smoke ? 200 : 4000, rng);
    for (size_t i = 0; i < model.rows.rows(); ++i) {
      queries_.push_back({0, i});
      lines_.push_back(QueryLine(model, model.rows.Row(i), i));
    }
  }

  int setup_group() const override { return smoke_ ? 1 : 16; }

  double SetUp() override {
    FreeEngines(&models_);
    const uint64_t start = NowNs();
    BuildEngines(&models_);
    return SecondsSince(start);
  }

  uint64_t Prepare() override {
    const Model& model = models_[0];
    expected_.clear();
    for (size_t i = 0; i < model.rows.rows(); ++i) {
      expected_.push_back(Answer(model, model.rows.Row(i), i));
    }
    // eKAQ contract on a seeded sample: (1-ε)F ≤ F̂ ≤ (1+ε)F, with F the
    // exact aggregate over the raw points.
    uint64_t failed = 0;
    const size_t checks = smoke_ ? 50 : 512;
    for (size_t c = 0; c < checks; ++c) {
      const size_t i = check_rng_.Below(model.rows.rows());
      const double exact = ExactAggregate(model.points, model.weights,
                                          model.gamma, model.rows.Row(i));
      const double slack = 1e-12 * exact;
      if (expected_[i].value < (1.0 - kEkaqEps) * exact - slack ||
          expected_[i].value > (1.0 + kEkaqEps) * exact + slack) {
        ++failed;
      }
    }
    return failed;
  }

  RoundResult Round(Tracer& tracer, bool traced) override {
    const Model& model = models_[0];
    const size_t n = model.rows.rows();
    RoundResult result;
    result.latency_us.reserve(n);
    const uint64_t round_start = NowNs();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t start = NowNs();
      const double value = Ekaq(*model.engine, model.rows.Row(i), kEkaqEps);
      const uint64_t end = NowNs();
      result.latency_us.push_back(static_cast<double>(end - start) / 1e3);
      if (traced) tracer.Add("request", start, end, Tracer::kNone, i + 1);
      if (value != expected_[i].value) ++result.failed;
    }
    result.wall_s = SecondsSince(round_start);
    result.queries = n;
    return result;
  }

 private:
  bool smoke_;
  SplitMix check_rng_;
};

// ----------------------------------------------------------- model-churn
// Lockstep single-row queries over a registry of four snapshot models
// (eKAQ on Type I/II, TKAQ on Type III) whose memory budget holds about
// two. The sequence switches model every 10–40 requests, so a fixed
// share of requests cold-starts after an LRU eviction, and every fifth
// switch the client rewrites one snapshot (replace by rename) and calls
// Reload. The registry's map, checksum and attach steps set the tail and
// the throughput; the warm requests set the median. Its models do not fit
// in cache.
class ModelChurn : public Workload {
 public:
  ModelChurn(uint64_t seed, bool smoke, std::string work_dir)
      : Workload(std::move(work_dir)), smoke_(smoke) {
    const size_t scale = smoke ? 20 : 1;
    for (const auto& spec : kModels) {
      models_.push_back(
          MakeModel(spec.name, spec.points / scale, spec.type));
    }
    budget_bytes_ = (kBudgetMiB << 20) / scale;
    model_dir_ = this->work_dir() + "/models";
    std::filesystem::create_directories(model_dir_);

    SplitMix rng(seed);
    for (auto& model : models_) {
      model.rows = SampleRows(model.points, kRowsPerModel, rng);
      model.snapshot = model_dir_ + "/" + model.name + ".snap";
    }
    // The models are visited in a fixed cycle from a seeded starting
    // point. A cycle is the LRU worst case, so every switch cold-starts;
    // and with the cycle fixed, which models are resident together (and
    // so the peak RSS) does not depend on the seed either. Only where the
    // cycle starts and which rows are asked do.
    const size_t first = rng.Below(models_.size());
    const size_t segments = models_.size() * (smoke ? 2 : 15);
    for (size_t s = 0; s < segments; ++s) {
      const size_t model = (first + s) % models_.size();
      for (size_t i = 0; i < kModels[model].visit; ++i) {
        queries_.push_back({model, rng.Below(kRowsPerModel)});
        events_.push_back(Event{false, queries_.size() - 1});
      }
      // Every fifth switch rewrites the model just served; 5 is coprime
      // with the cycle, so the rewrites rotate through every model.
      if ((s + 1) % kRewriteEvery == 0) events_.push_back(Event{true, model});
      if (s < models_.size()) order_.push_back(model);
    }
    for (size_t r = 0; r < queries_.size(); ++r) {
      const Model& model = models_[queries_[r].model];
      lines_.push_back(QueryLine(model, model.rows.Row(queries_[r].row), r));
    }
  }

  int setup_group() const override { return 1; }
  Serving* serving() override { return serving_.get(); }

  double SetUp() override {
    connection_.reset();
    serving_.reset();
    FreeEngines(&models_);
    const uint64_t start = NowNs();
    BuildEngines(&models_);
    for (const auto& model : models_) {
      WriteSnapshot(model.snapshot, *model.engine);
    }
    serving_ = Serving::Start(model_dir_, budget_bytes_, 2);
    const double seconds = SecondsSince(start);
    connection_ = Connection::Open(serving_->port());
    return seconds;
  }

  uint64_t Prepare() override {
    expected_.clear();
    for (size_t r = 0; r < queries_.size(); ++r) {
      const Model& model = models_[queries_[r].model];
      expected_.push_back(Answer(model, model.rows.Row(queries_[r].row), r));
    }
    // Row 0 of each model, in visiting order, before every round: LRU
    // eviction then leaves the same models resident whatever the last
    // round did, so rounds replay from the same starting state.
    for (const size_t m : order_) {
      const size_t id = queries_.size() + prefix_lines_.size();
      const auto q = models_[m].rows.Row(0);
      prefix_lines_.push_back(QueryLine(models_[m], q, id));
      prefix_expected_.push_back(Answer(models_[m], q, id));
    }
    return 0;
  }

  RoundResult Round(Tracer& tracer, bool traced) override {
    RoundResult result;
    result.latency_us.reserve(queries_.size());
    std::string line;
    Reply reply;
    for (size_t m = 0; m < prefix_lines_.size(); ++m) {
      if (!Call(prefix_lines_[m], &line)) Die("model-churn: transport");
      if (!ParseReply(line, &reply) ||
          !SameAnswer(reply, prefix_expected_[m])) {
        ++result.failed;
      }
    }
    const Serving::Counts before = serving_->RegistryCounts();
    uint64_t paused_ns = 0;
    const uint64_t round_start = NowNs();
    for (const Event& event : events_) {
      if (event.rewrite) {
        // Writing the file is the deployer's work, not the server's: the
        // round clock stops for it and runs again for Reload.
        const uint64_t pause = NowNs();
        const Model& model = models_[event.index];
        WriteSnapshot(model.snapshot + ".tmp", *model.engine);
        std::filesystem::rename(model.snapshot + ".tmp", model.snapshot);
        paused_ns += NowNs() - pause;
        const uint64_t start = NowNs();
        serving_->Reload();
        if (traced) tracer.Add("reload", start, NowNs());
        continue;
      }
      const size_t r = event.index;
      const uint64_t start = NowNs();
      if (!Call(lines_[r], &line)) Die("model-churn: transport");
      const uint64_t end = NowNs();
      result.latency_us.push_back(static_cast<double>(end - start) / 1e3);
      if (traced) tracer.Add("request", start, end, Tracer::kNone, r + 1);
      if (!ParseReply(line, &reply) || !SameAnswer(reply, expected_[r])) {
        ++result.failed;
      }
    }
    result.wall_s =
        static_cast<double>(NowNs() - round_start - paused_ns) / 1e9;
    result.queries = queries_.size();
    result.registry = Delta(serving_->RegistryCounts(), before);
    return result;
  }

 private:
  // Requests per visit differ so that the median request is a warm
  // `home` eKAQ. With equal shares it would fall in the gap between the
  // cheap models' latencies (~60 us) and the expensive ones' (~400 us)
  // and jump across it; among the cheap ones it would be set by thread
  // wake-ups, which drifted by 40 % between runs on a shared host.
  struct Spec {
    const char* name;
    size_t points;
    int type;
    size_t visit;
  };
  static constexpr Spec kModels[] = {{"home", 100000, 1, 40},
                                     {"miniboone", 40000, 1, 10},
                                     {"covtype-b", 20000, 3, 10},
                                     {"covtype", 12000, 2, 20}};
  static constexpr uint64_t kBudgetMiB = 48;
  static constexpr size_t kRowsPerModel = 512;
  static constexpr size_t kRewriteEvery = 5;

  // A query (index into queries_) or a snapshot rewrite (model index).
  struct Event {
    bool rewrite;
    size_t index;
  };

  bool Call(const std::string& request, std::string* response) {
    return connection_->Send(request) && connection_->Receive(response);
  }

  bool smoke_;
  uint64_t budget_bytes_ = 0;
  std::string model_dir_;
  std::vector<size_t> order_;
  std::vector<Event> events_;
  std::vector<std::string> prefix_lines_;
  std::vector<Reply> prefix_expected_;
  std::unique_ptr<Serving> serving_;
  std::unique_ptr<Connection> connection_;
};

}  // namespace

bool SameAnswer(const Reply& got, const Reply& want) {
  return got.ok && got.above == want.above &&
         (!want.above.empty() || got.value == want.value);
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "engine-kde", "model-churn"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, bool smoke,
                                       const std::string& work_dir) {
  if (name == "engine-kde") {
    return std::make_unique<EngineKde>(seed, smoke, work_dir);
  }
  if (name == "model-churn") {
    return std::make_unique<ModelChurn>(seed, smoke, work_dir);
  }
  return nullptr;
}

}  // namespace perfbench
