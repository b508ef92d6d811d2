#include "telemetry/slo.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "telemetry/context.h"
#include "telemetry/labels.h"
#include "util/json_text.h"
#include "util/log.h"

namespace karl::telemetry {

namespace {

constexpr const char* kKindNames[] = {"latency", "availability"};

// Burn rate = observed bad fraction / allowed bad fraction, capped so
// gauges and JSON stay finite. No traffic burns nothing.
double BurnRate(uint64_t bad, uint64_t total, double target) {
  if (total == 0 || bad == 0) return 0.0;
  const double frac = static_cast<double>(bad) / static_cast<double>(total);
  const double allowed = 1.0 - target;
  if (allowed <= 0.0) return SloEngine::kBurnRateCap;
  return std::min(frac / allowed, SloEngine::kBurnRateCap);
}

// Fraction of the window's error budget still unspent, in [0, 1]. An
// idle window has its whole budget.
double BudgetRemaining(uint64_t bad, uint64_t total, double target) {
  if (total == 0) return 1.0;
  const double allowed = (1.0 - target) * static_cast<double>(total);
  if (allowed <= 0.0) return bad == 0 ? 1.0 : 0.0;
  return std::clamp(1.0 - static_cast<double>(bad) / allowed, 0.0, 1.0);
}

}  // namespace

const SloObjective& SloConfig::ForModel(const std::string& model) const {
  const auto it = per_model.find(model);
  return it == per_model.end() ? default_objective : it->second;
}

SloEngine::Tracker::Tracker(const SloObjective& obj) : objective(obj) {
  // Two spare slots past the window so the slot recycled for a new epoch
  // is never one still eligible for the slow window.
  const size_t slots = objective.window_s / (kSubWindowUs / 1'000'000) + 2;
  wheel.resize(slots);
}

SloEngine::SloEngine(SloConfig config, Registry* registry,
                     util::Logger* logger)
    : config_(std::move(config)), registry_(registry), logger_(logger) {}

SloEngine::~SloEngine() = default;

SloEngine::Tracker* SloEngine::GetTracker(const std::string& model) {
  const auto it = trackers_.find(model);
  if (it != trackers_.end()) return it->second.get();
  // Past the model cap, everything lands in the shared sink tracker
  // (which always fits: the cap check admits it via this same path).
  if (trackers_.size() >= config_.max_models &&
      model != kOverflowLabelValue) {
    return GetTracker(std::string(kOverflowLabelValue));
  }
  auto tracker = std::make_unique<Tracker>(config_.ForModel(model));
  Tracker* raw = tracker.get();
  if (registry_ != nullptr) {
    for (size_t k = 0; k < kNumKinds; ++k) {
      const LabelSet base{{"model", model}, {"slo", kKindNames[k]}};
      raw->burn_fast[k] = registry_->GetGauge(
          "karl_slo_burn_rate", LabelSet(base).Set("window", "fast"));
      raw->burn_slow[k] = registry_->GetGauge(
          "karl_slo_burn_rate", LabelSet(base).Set("window", "slow"));
      raw->budget_remaining[k] =
          registry_->GetGauge("karl_slo_error_budget_remaining", base);
    }
  }
  return trackers_.emplace(model, std::move(tracker)).first->second.get();
}

SloEngine::WindowCounts SloEngine::SumWindow(const Tracker& tracker,
                                             uint64_t now_us,
                                             uint64_t span_s) const {
  const uint64_t now_epoch = now_us / kSubWindowUs;
  const uint64_t span_epochs =
      std::max<uint64_t>(1, span_s * 1'000'000 / kSubWindowUs);
  WindowCounts counts;
  for (const Slot& slot : tracker.wheel) {
    if (slot.epoch == Slot::kNeverUsed) continue;
    // In-window: the last span_epochs epochs ending at (and including
    // the partially-filled) now_epoch.
    if (slot.epoch > now_epoch) continue;
    if (slot.epoch + span_epochs <= now_epoch) continue;
    counts.total += slot.total;
    counts.bad[kLatency] += slot.latency_bad;
    counts.bad[kAvailability] += slot.errors;
  }
  return counts;
}

void SloEngine::Evaluate(const std::string& model, Tracker* tracker,
                         uint64_t now_us) {
  const SloObjective& obj = tracker->objective;
  const uint64_t fast_s = std::min<uint64_t>(kFastWindowSeconds, obj.window_s);
  const WindowCounts fast = SumWindow(*tracker, now_us, fast_s);
  const WindowCounts slow = SumWindow(*tracker, now_us, obj.window_s);
  const double targets[kNumKinds] = {obj.latency_target,
                                     obj.availability_target};
  for (size_t k = 0; k < kNumKinds; ++k) {
    const double burn_fast = BurnRate(fast.bad[k], fast.total, targets[k]);
    const double burn_slow = BurnRate(slow.bad[k], slow.total, targets[k]);
    const double budget = BudgetRemaining(slow.bad[k], slow.total, targets[k]);
    tracker->last_burn_fast[k] = burn_fast;
    tracker->last_burn_slow[k] = burn_slow;
    tracker->last_budget[k] = budget;
    if (tracker->burn_fast[k] != nullptr) {
      tracker->burn_fast[k]->Set(burn_fast);
      tracker->burn_slow[k]->Set(burn_slow);
      tracker->budget_remaining[k]->Set(budget);
    }
    const bool burning = burn_fast >= obj.fast_burn_threshold ||
                         burn_slow >= obj.slow_burn_threshold;
    if (burning == tracker->burning[k]) continue;
    tracker->burning[k] = burning;
    if (logger_ == nullptr) continue;
    logger_->Log(
        burning ? util::LogLevel::kWarn : util::LogLevel::kInfo,
        burning ? "slo.burn" : "slo.burn_clear",
        {{"model", model},
         {"slo", kKindNames[k]},
         {"burn_rate_fast", burn_fast},
         {"burn_rate_slow", burn_slow},
         {"fast_burn_threshold", obj.fast_burn_threshold},
         {"slow_burn_threshold", obj.slow_burn_threshold},
         {"budget_remaining", budget},
         {"window_total", slow.total},
         {"window_bad", slow.bad[k]}});
  }
}

void SloEngine::Observe(const std::string& model, double total_us, bool ok) {
  ObserveAt(model, total_us, ok, MonotonicMicros());
}

void SloEngine::ObserveAt(const std::string& model, double total_us, bool ok,
                          uint64_t now_us) {
  const util::MutexLock lock(&mu_);
  Tracker* tracker = GetTracker(model);
  const uint64_t epoch = now_us / kSubWindowUs;
  Slot& slot = tracker->wheel[epoch % tracker->wheel.size()];
  if (slot.epoch != epoch) slot = Slot{.epoch = epoch};
  slot.total += 1;
  if (total_us > tracker->objective.latency_threshold_us) {
    slot.latency_bad += 1;
  }
  if (!ok) slot.errors += 1;
  // Re-evaluate burn on slot rotation — once per 10s per model under
  // load, so edges fire within one sub-window of the crossing even if
  // nothing scrapes.
  if (epoch != tracker->last_epoch) {
    tracker->last_epoch = epoch;
    Evaluate(model, tracker, now_us);
  }
}

void SloEngine::RefreshGauges() { RefreshGaugesAt(MonotonicMicros()); }

void SloEngine::RefreshGaugesAt(uint64_t now_us) {
  const util::MutexLock lock(&mu_);
  for (auto& [model, tracker] : trackers_) {
    Evaluate(model, tracker.get(), now_us);
  }
}

std::string SloEngine::SlozJson() { return SlozJsonAt(MonotonicMicros()); }

std::string SloEngine::SlozJsonAt(uint64_t now_us) {
  RefreshGaugesAt(now_us);
  const util::MutexLock lock(&mu_);
  std::string out = "{\n  \"models\": {";
  bool first_model = true;
  for (const auto& [model, tracker] : trackers_) {
    out += first_model ? "\n" : ",\n";
    first_model = false;
    out += "    \"";
    util::AppendJsonEscaped(&out, model);
    out += "\": {";
    const SloObjective& obj = tracker->objective;
    const uint64_t fast_s =
        std::min<uint64_t>(kFastWindowSeconds, obj.window_s);
    const WindowCounts fast = SumWindow(*tracker, now_us, fast_s);
    const WindowCounts slow = SumWindow(*tracker, now_us, obj.window_s);
    const double targets[kNumKinds] = {obj.latency_target,
                                       obj.availability_target};
    for (size_t k = 0; k < kNumKinds; ++k) {
      out += k == 0 ? "\n" : ",\n";
      out += std::string("      \"") + kKindNames[k] + "\": {";
      char buffer[96];
      if (k == kLatency) {
        out += "\"threshold_us\": ";
        util::AppendJsonNumber(&out, obj.latency_threshold_us);
        out += ", ";
      }
      out += "\"target\": ";
      util::AppendJsonNumber(&out, targets[k]);
      std::snprintf(buffer, sizeof(buffer),
                    ", \"window_s\": %llu, \"window_total\": %llu, "
                    "\"window_bad\": %llu, \"fast_total\": %llu, "
                    "\"fast_bad\": %llu",
                    static_cast<unsigned long long>(obj.window_s),
                    static_cast<unsigned long long>(slow.total),
                    static_cast<unsigned long long>(slow.bad[k]),
                    static_cast<unsigned long long>(fast.total),
                    static_cast<unsigned long long>(fast.bad[k]));
      out += buffer;
      out += ", \"burn_rate_fast\": ";
      util::AppendJsonNumber(&out, tracker->last_burn_fast[k]);
      out += ", \"burn_rate_slow\": ";
      util::AppendJsonNumber(&out, tracker->last_burn_slow[k]);
      out += ", \"fast_burn_threshold\": ";
      util::AppendJsonNumber(&out, obj.fast_burn_threshold);
      out += ", \"slow_burn_threshold\": ";
      util::AppendJsonNumber(&out, obj.slow_burn_threshold);
      out += ", \"budget_remaining\": ";
      util::AppendJsonNumber(&out, tracker->last_budget[k]);
      out += std::string(", \"burning\": ") +
             (tracker->burning[k] ? "true" : "false") + "}";
    }
    out += "\n    }";
  }
  out += first_model ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace karl::telemetry
