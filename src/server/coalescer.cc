#include "server/coalescer.h"

#include <algorithm>
#include <span>
#include <utility>

#include "core/karl.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"

namespace karl::server {

// Batch options whose row_observer funnels back into the coalescer;
// the lambda only runs during RunGroup, when `self` is fully alive.
core::BatchOptions Coalescer::ObservedOptions(util::ThreadPool* pool,
                                              Coalescer* self) {
  core::BatchOptions options;
  options.pool = pool;
  options.row_observer = [self](size_t row, uint64_t begin_us,
                                uint64_t end_us,
                                const core::EvalStats& stats) {
    self->ObserveRow(row, begin_us, end_us, stats);
  };
  return options;
}

Coalescer::Coalescer(util::ThreadPool* pool, size_t max_pending_rows,
                     CompletionSink sink, telemetry::Registry* metrics,
                     telemetry::RequestTracer tracer)
    : pool_(pool),
      sink_(std::move(sink)),
      max_pending_rows_(max_pending_rows),
      tracer_(tracer) {
  if (metrics != nullptr) {
    metrics_ = metrics;
    groups_total_ = metrics->GetCounter("karl_server_batches_total");
    queries_total_ = metrics->GetCounter("karl_server_queries_total");
    group_rows_ = metrics->GetRollingHistogram("karl_server_coalesced_rows");
    group_usec_ = metrics->GetRollingHistogram("karl_server_batch_usec");
    pending_gauge_ = metrics->GetGauge("karl_server_pending_rows");
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

const Coalescer::ModelInstruments& Coalescer::InstrumentsForModel(
    const std::string& model) {
  const auto it = model_instruments_.find(model);
  if (it != model_instruments_.end()) return it->second;
  ModelInstruments instruments;
  if (metrics_ != nullptr && !model.empty()) {
    const telemetry::LabelSet labels{{"model", model}};
    instruments.groups =
        metrics_->GetCounter("karl_server_batches_total", labels);
    instruments.queries =
        metrics_->GetCounter("karl_server_queries_total", labels);
    instruments.rows =
        metrics_->GetRollingHistogram("karl_server_coalesced_rows", labels);
    instruments.usec =
        metrics_->GetRollingHistogram("karl_server_batch_usec", labels);
  }
  return model_instruments_.emplace(model, instruments).first->second;
}

Coalescer::~Coalescer() {
  BeginDrain();
  {
    const util::MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.SignalAll();
  dispatcher_.join();
}

bool Coalescer::Enqueue(WorkItem item) {
  const size_t rows = item.queries.rows();
  {
    const util::MutexLock lock(&mu_);
    if (draining_) return false;
    if (queued_rows_ + rows > max_pending_rows_) return false;
    queued_rows_ += rows;
    if (pending_gauge_ != nullptr) {
      pending_gauge_->Set(static_cast<double>(queued_rows_));
    }
    queue_.push_back(std::move(item));
  }
  work_cv_.Signal();
  return true;
}

void Coalescer::BeginDrain() {
  {
    const util::MutexLock lock(&mu_);
    draining_ = true;
    paused_ = false;  // A paused coalescer must still drain.
  }
  work_cv_.SignalAll();
}

bool Coalescer::Idle() const {
  const util::MutexLock lock(&mu_);
  return queue_.empty() && !in_flight_;
}

void Coalescer::Pause() {
  const util::MutexLock lock(&mu_);
  paused_ = true;
}

void Coalescer::Resume() {
  {
    const util::MutexLock lock(&mu_);
    paused_ = false;
  }
  work_cv_.SignalAll();
}

void Coalescer::DispatchLoop() {
  mu_.Lock();
  while (true) {
    while (!(stop_ || (!paused_ && !queue_.empty()))) {
      work_cv_.Wait(&mu_);
    }
    if (queue_.empty()) {
      if (stop_) break;
      continue;
    }

    // Pop the oldest item; when it is a plain single query, sweep every
    // other queued plain single with the same (engine, kind, param)
    // into the group, in arrival order. Different-parameter (or
    // different-model) items stay queued for a later group of their
    // own. The engine is compared by handle identity, not model name,
    // so items straddling a hot reload never mix generations. Explain
    // items never coalesce in either direction: the profile must
    // describe one query alone.
    std::vector<WorkItem> group;
    group.push_back(std::move(queue_.front()));
    queue_.pop_front();
    size_t rows = group.front().queries.rows();
    if (!group.front().is_batch && !group.front().explain) {
      const QueryKind kind = group.front().kind;
      const double param = group.front().param;
      const registry::LoadedModel* engine_id = group.front().handle.get();
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (!it->is_batch && !it->explain && it->kind == kind &&
            it->param == param && it->handle.get() == engine_id) {
          rows += it->queries.rows();
          group.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    queued_rows_ -= rows;
    if (pending_gauge_ != nullptr) {
      pending_gauge_->Set(static_cast<double>(queued_rows_));
    }
    in_flight_ = true;

    mu_.Unlock();
    RunGroup(std::move(group));
    mu_.Lock();

    in_flight_ = false;
  }
  mu_.Unlock();
}

void Coalescer::ObserveRow(size_t row, uint64_t begin_us, uint64_t end_us,
                           const core::EvalStats& stats) {
  row_begin_us_[row] = begin_us;
  row_end_us_[row] = end_us;
  row_stats_[row] = stats;
  if (tracer_.enabled()) {
    const uint64_t request_id = row_request_ids_[row];
    // Worker-lane slice for this row, with the flow step placed inside
    // it so the request's arrow lands on the executing thread.
    tracer_.Span("req/eval_row", begin_us, end_us,
                 {{"req", static_cast<double>(request_id)},
                  {"kernel_evals", static_cast<double>(stats.kernel_evals)},
                  {"nodes", static_cast<double>(stats.nodes_expanded)}});
    tracer_.FlowStep(request_id, begin_us + (end_us - begin_us) / 2);
  }
}

void Coalescer::RunExplain(WorkItem item) {
  item.ctx.dispatched_us = telemetry::MonotonicMicros();

  // Evaluated inline on the dispatcher — never through BatchEvaluator,
  // whose per-worker stats merging would blur the single query this
  // profile must describe. Explain is a diagnostic op; serializing it
  // on the dispatcher keeps the hot path untouched.
  core::TraversalProfile profile;
  core::EvalStats stats;
  const Engine& engine = item.handle->engine();
  const std::span<const double> q = item.queries.Row(0);
  const uint64_t eval_begin_us = telemetry::MonotonicMicros();
  bool above = false;
  double value = 0.0;
  if (item.kind == QueryKind::kTkaq) {
    above = engine.evaluator().QueryThreshold(q, item.param, &stats,
                                              nullptr, &profile);
  } else {
    value = engine.evaluator().QueryApproximate(q, item.param, &stats,
                                                nullptr, &profile);
  }
  const uint64_t eval_end_us = telemetry::MonotonicMicros();
  const auto usec = static_cast<double>(eval_end_us - eval_begin_us);

  if (groups_total_ != nullptr) {
    groups_total_->Increment();
    queries_total_->Add(1);
    group_rows_->Record(1.0);
    group_usec_->Record(usec);
    const ModelInstruments& labeled = InstrumentsForModel(item.model);
    if (labeled.groups != nullptr) {
      labeled.groups->Increment();
      labeled.queries->Add(1);
      labeled.rows->Record(1.0);
      labeled.usec->Record(usec);
    }
  }
  if (tracer_.enabled()) {
    tracer_.Span("grp/explain", eval_begin_us, eval_end_us,
                 {{"req", static_cast<double>(item.ctx.id)},
                  {"kernel_evals", static_cast<double>(stats.kernel_evals)},
                  {"nodes", static_cast<double>(stats.nodes_expanded)}});
    tracer_.FlowStep(item.ctx.id,
                     eval_begin_us + (eval_end_us - eval_begin_us) / 2);
  }

  item.ctx.eval_begin_us = eval_begin_us;
  item.ctx.eval_end_us = eval_end_us;
  item.ctx.stats.iterations = stats.iterations;
  item.ctx.stats.nodes_expanded = stats.nodes_expanded;
  item.ctx.stats.kernel_evals = stats.kernel_evals;

  Completion completion;
  completion.conn_id = item.conn_id;
  completion.explain_json = TraversalProfileJson(profile).Dump();
  completion.response =
      item.kind == QueryKind::kTkaq
          ? OkExplainBoolResponse(item.request_id, above,
                                  completion.explain_json)
          : OkExplainValueResponse(item.request_id, value,
                                   completion.explain_json);
  item.ctx.serialized_us = telemetry::MonotonicMicros();
  completion.ctx = item.ctx;
  completion.kind = item.kind;
  completion.is_batch = false;
  completion.rows = 1;
  completion.model = std::move(item.model);
  completion.request_id = std::move(item.request_id);

  std::vector<Completion> completions;
  completions.push_back(std::move(completion));
  sink_(std::move(completions));
}

void Coalescer::RunGroup(std::vector<WorkItem> group) {
  if (group.front().explain) {
    RunExplain(std::move(group.front()));
    return;
  }
  const uint64_t dispatched_us = telemetry::MonotonicMicros();
  for (WorkItem& item : group) item.ctx.dispatched_us = dispatched_us;

  const QueryKind kind = group.front().kind;
  const double param = group.front().param;

  // One matrix for the whole group; item i owns rows [offset_i,
  // offset_i + rows_i).
  size_t total_rows = 0;
  for (const WorkItem& item : group) total_rows += item.queries.rows();
  const data::Matrix* queries = &group.front().queries;
  data::Matrix merged;
  if (group.size() > 1) {
    const size_t cols = group.front().queries.cols();
    merged = data::Matrix(total_rows, cols);
    size_t row = 0;
    for (const WorkItem& item : group) {
      for (size_t r = 0; r < item.queries.rows(); ++r, ++row) {
        std::span<double> dst = merged.MutableRow(row);
        std::span<const double> src = item.queries.Row(r);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
    queries = &merged;
  }

  // Attribution slots for this group, id-mapped so ObserveRow (on
  // worker threads) can hand each row back to its request.
  row_request_ids_.assign(total_rows, 0);
  row_begin_us_.assign(total_rows, 0);
  row_end_us_.assign(total_rows, 0);
  row_stats_.assign(total_rows, core::EvalStats{});
  {
    size_t row = 0;
    for (const WorkItem& item : group) {
      for (size_t r = 0; r < item.queries.rows(); ++r, ++row) {
        row_request_ids_[row] = item.ctx.id;
      }
    }
  }

  const uint64_t eval_begin_us = telemetry::MonotonicMicros();
  if (tracer_.enabled()) {
    // Dispatcher-lane slice for the sweep+merge, with one flow step per
    // member request so every request's arrow passes through the
    // dispatcher before fanning out to workers.
    tracer_.Span("grp/dispatch", dispatched_us, eval_begin_us,
                 {{"requests", static_cast<double>(group.size())},
                  {"rows", static_cast<double>(total_rows)}});
    const uint64_t step_us =
        dispatched_us + (eval_begin_us - dispatched_us) / 2;
    for (const WorkItem& item : group) {
      tracer_.FlowStep(item.ctx.id, step_us);
    }
  }

  // Per-group evaluator over the group's pinned engine — cheap to
  // construct (it only resolves telemetry handles), and the handle
  // keeps the engine's backing memory alive for the whole call even if
  // the registry evicts or swaps the model meanwhile.
  const core::BatchEvaluator evaluator(group.front().handle->engine(),
                                       ObservedOptions(pool_, this));
  std::vector<uint8_t> bools;
  std::vector<double> values;
  switch (kind) {
    case QueryKind::kTkaq:
      bools = evaluator.Tkaq(*queries, param);
      break;
    case QueryKind::kEkaq:
      values = evaluator.Ekaq(*queries, param);
      break;
    case QueryKind::kExact:
      values = evaluator.Exact(*queries);
      break;
  }
  const uint64_t eval_end_us = telemetry::MonotonicMicros();
  const auto usec = static_cast<double>(eval_end_us - eval_begin_us);
  if (groups_total_ != nullptr) {
    groups_total_->Increment();
    queries_total_->Add(total_rows);
    group_rows_->Record(static_cast<double>(total_rows));
    group_usec_->Record(usec);
    const ModelInstruments& labeled = InstrumentsForModel(group.front().model);
    if (labeled.groups != nullptr) {
      labeled.groups->Increment();
      labeled.queries->Add(total_rows);
      labeled.rows->Record(static_cast<double>(total_rows));
      labeled.usec->Record(usec);
    }
  }
  tracer_.Span("grp/eval", eval_begin_us, eval_end_us,
               {{"requests", static_cast<double>(group.size())},
                {"rows", static_cast<double>(total_rows)}});

  // Slice results back out per item, preserving per-request identity;
  // each item's eval window and engine stats come from its own rows.
  std::vector<Completion> completions;
  completions.reserve(group.size());
  size_t offset = 0;
  for (WorkItem& item : group) {
    const size_t rows = item.queries.rows();
    uint64_t item_begin = 0;
    uint64_t item_end = 0;
    for (size_t r = offset; r < offset + rows; ++r) {
      if (row_begin_us_[r] != 0 &&
          (item_begin == 0 || row_begin_us_[r] < item_begin)) {
        item_begin = row_begin_us_[r];
      }
      if (row_end_us_[r] > item_end) item_end = row_end_us_[r];
      item.ctx.stats.iterations += row_stats_[r].iterations;
      item.ctx.stats.nodes_expanded += row_stats_[r].nodes_expanded;
      item.ctx.stats.kernel_evals += row_stats_[r].kernel_evals;
    }
    item.ctx.eval_begin_us = item_begin != 0 ? item_begin : eval_begin_us;
    item.ctx.eval_end_us = item_end != 0 ? item_end : eval_end_us;

    std::string response;
    if (item.is_batch) {
      if (kind == QueryKind::kTkaq) {
        response = OkBoolsResponse(
            item.request_id,
            std::span<const uint8_t>(bools).subspan(offset, rows));
      } else {
        response = OkValuesResponse(
            item.request_id,
            std::span<const double>(values).subspan(offset, rows));
      }
    } else {
      if (kind == QueryKind::kTkaq) {
        response = OkBoolResponse(item.request_id, bools[offset] != 0);
      } else {
        response = OkValueResponse(item.request_id, values[offset]);
      }
    }
    item.ctx.serialized_us = telemetry::MonotonicMicros();

    Completion completion;
    completion.conn_id = item.conn_id;
    completion.response = std::move(response);
    completion.ctx = item.ctx;
    completion.kind = kind;
    completion.is_batch = item.is_batch;
    completion.rows = rows;
    completion.model = item.model;
    completion.request_id = std::move(item.request_id);
    completions.push_back(std::move(completion));
    offset += rows;
  }
  const uint64_t serialized_us = telemetry::MonotonicMicros();
  tracer_.Span("grp/serialize", eval_end_us, serialized_us,
               {{"requests", static_cast<double>(group.size())}});
  sink_(std::move(completions));
}

}  // namespace karl::server
