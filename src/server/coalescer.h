// Batch coalescer: the bridge between the server's event loop and the
// evaluation threads.
//
// The event loop enqueues WorkItems (one per query/batch request) into
// a bounded queue; a dedicated dispatcher thread drains it. Each drain
// gathers every queued *single* query with the same (model, kind,
// parameter) into one core::BatchEvaluator call fanned across the
// ThreadPool — so a flood of concurrent single-query clients is served
// with batch efficiency while each response keeps its per-request
// identity (connection + echoed id). Each item carries its own pinned
// registry handle (registry/registry.h), so the engine a group
// evaluates against stays mapped even if the registry evicts or
// hot-reloads the model mid-flight; grouping compares engine identity
// (the handle), not just the name, so requests admitted across a reload
// never share a batch with a different model generation. Explicit batch
// requests dispatch as their own evaluator call. While one group runs,
// newly arriving queries accumulate and form the next group: coalescing
// emerges from backpressure rather than from a timer, adding no idle
// latency.
//
// Admission control: the queue is bounded by total queued query *rows*
// (the actual memory bound). Enqueue refuses instead of buffering
// without limit; the server turns a refusal into an explicit
// `overloaded` response. A single batch larger than the cap is always
// refused — size --max-pending to the largest batch you accept.
//
// Determinism: BatchEvaluator answers are bit-identical to the serial
// Engine loop (see core/batch.h), so coalescing is invisible to
// clients beyond latency.

#ifndef KARL_SERVER_COALESCER_H_
#define KARL_SERVER_COALESCER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/batch.h"
#include "registry/registry.h"
#include "server/protocol.h"
#include "telemetry/context.h"
#include "util/mutex.h"

namespace karl::server {

/// One admitted evaluation request.
struct WorkItem {
  /// Connection the response belongs to (server-assigned).
  uint64_t conn_id = 0;
  /// Client correlation token, echoed on the response ("" = none).
  std::string request_id;
  QueryKind kind = QueryKind::kTkaq;
  /// tau or eps; 0 for exact.
  double param = 0.0;
  /// True for an op=batch request (responds with an array; never merged
  /// with other items).
  bool is_batch = false;
  /// True for an op=explain request: evaluated alone (never coalesced —
  /// the profile must describe exactly one query's traversal) with the
  /// EXPLAIN profiler attached.
  bool explain = false;
  /// Resolved model name, read off `handle` by the router.
  std::string model;
  /// Pinned engine this item evaluates against. The handle keeps the
  /// model resident (mapping and all) until every item referencing it
  /// has completed — the router acquires it, the coalescer releases it.
  registry::ModelHandle handle;
  data::Matrix queries;
  /// Observability context; the coalescer stamps the dispatch/eval/
  /// serialize stages and attributes engine work per request.
  telemetry::RequestContext ctx;
};

/// A finished response addressed back to a connection.
struct Completion {
  uint64_t conn_id = 0;
  /// Fully formatted newline-terminated response line.
  std::string response;
  /// Context with every stage through `serialized_us` stamped; the
  /// server stamps the write stage and files the flight record.
  telemetry::RequestContext ctx;
  QueryKind kind = QueryKind::kTkaq;
  bool is_batch = false;
  uint64_t rows = 0;
  /// Resolved model name the item evaluated against — what the server's
  /// per-model stage metrics, SLO engine, access log, and flight record
  /// attribute to.
  std::string model;
  /// Client correlation token ("" = none), for access/slow-query logs.
  std::string request_id;
  /// The rendered "explain" object for op=explain completions (empty
  /// otherwise); the server files it into the /explainz ring.
  std::string explain_json;
};

/// See file comment. Construction spawns the dispatcher thread;
/// destruction drains the queue and joins. The pool (and every engine
/// still referenced by queued items' handles) must outlive the
/// coalescer; the handles themselves guarantee the latter.
class Coalescer {
 public:
  /// Called on the dispatcher thread with every completion of one
  /// dispatched group; must be thread-safe and must not block on the
  /// dispatcher (the server's sink appends to a mutex-guarded vector
  /// and signals an eventfd).
  using CompletionSink = std::function<void(std::vector<Completion>)>;

  /// `tracer` (default: disabled) emits dispatcher-side group spans,
  /// worker-side per-row spans, and per-request flow steps.
  Coalescer(util::ThreadPool* pool, size_t max_pending_rows,
            CompletionSink sink, telemetry::Registry* metrics,
            telemetry::RequestTracer tracer = {});
  ~Coalescer();

  Coalescer(const Coalescer&) = delete;
  Coalescer& operator=(const Coalescer&) = delete;

  /// Admits `item` unless the queue is full (by rows) or draining.
  /// Returns false to shed; the caller owns the refusal response.
  bool Enqueue(WorkItem item);

  /// Stops admission; already queued items still complete. Idempotent.
  void BeginDrain();

  /// True when the queue is empty and no group is being evaluated —
  /// i.e. every completion this coalescer will ever emit has been
  /// handed to the sink. The drain loop polls this.
  bool Idle() const;

  /// Freezes/unfreezes dispatch while admission keeps running — lets
  /// tests deterministically build up a coalescable backlog. BeginDrain
  /// resumes a paused coalescer.
  void Pause();
  void Resume();

 private:
  void DispatchLoop();
  // Evaluates one group of same-(kind,param) items and emits their
  // completions. Runs on the dispatcher thread.
  void RunGroup(std::vector<WorkItem> group);
  // Evaluates one op=explain item (always a group of its own) with the
  // traversal profiler attached. Runs on the dispatcher thread.
  void RunExplain(WorkItem item);
  // Builds the BatchOptions wired to ObserveRow.
  static core::BatchOptions ObservedOptions(util::ThreadPool* pool,
                                            Coalescer* self);
  // BatchOptions::row_observer target: records one row's eval window
  // and stats into the attribution slots and emits the worker-side
  // trace span + flow step. Runs on pool workers (and the dispatcher).
  void ObserveRow(size_t row, uint64_t begin_us, uint64_t end_us,
                  const core::EvalStats& stats);

  util::ThreadPool* pool_;
  CompletionSink sink_;
  const size_t max_pending_rows_;
  telemetry::RequestTracer tracer_;

  // Per-row attribution for the group currently inside RunGroup: sized
  // and id-mapped on the dispatcher before evaluation, then written
  // through ObserveRow. Rows are observed exactly once and distinct
  // rows use distinct slots, so concurrent workers never share a slot.
  // Deliberately NOT guarded by mu_: the disjoint-slot protocol (plus
  // the pool-join barrier at the end of each BatchEvaluator call) is
  // the synchronisation — a lock here would serialise the workers. The
  // TSan suite exercises this path.
  std::vector<uint64_t> row_request_ids_;
  std::vector<uint64_t> row_begin_us_;
  std::vector<uint64_t> row_end_us_;
  std::vector<core::EvalStats> row_stats_;

  mutable util::Mutex mu_;
  util::CondVar work_cv_;  // Queue/pause/stop transitions.
  std::deque<WorkItem> queue_ KARL_GUARDED_BY(mu_);
  // Sum of queue_ rows.
  size_t queued_rows_ KARL_GUARDED_BY(mu_) = 0;
  // Dispatcher inside RunGroup.
  bool in_flight_ KARL_GUARDED_BY(mu_) = false;
  bool paused_ KARL_GUARDED_BY(mu_) = false;
  bool draining_ KARL_GUARDED_BY(mu_) = false;
  bool stop_ KARL_GUARDED_BY(mu_) = false;

  // Telemetry (null when no registry): dispatched groups, coalesced
  // rows per group, evaluation latency, queue level. The histograms are
  // rolling so /metrics can report last-60s group shape next to the
  // cumulative one.
  telemetry::Registry* metrics_ = nullptr;
  telemetry::Counter* groups_total_ = nullptr;
  telemetry::Counter* queries_total_ = nullptr;
  telemetry::RollingHistogram* group_rows_ = nullptr;
  telemetry::RollingHistogram* group_usec_ = nullptr;
  telemetry::Gauge* pending_gauge_ = nullptr;

  // {model=...} twins of the group metrics. A group is single-model by
  // construction (items are grouped by engine identity), so each group
  // records into exactly one labeled set. Interned lazily; accessed only
  // on the dispatcher thread, so no lock.
  struct ModelInstruments {
    telemetry::Counter* groups = nullptr;
    telemetry::Counter* queries = nullptr;
    telemetry::RollingHistogram* rows = nullptr;
    telemetry::RollingHistogram* usec = nullptr;
  };
  const ModelInstruments& InstrumentsForModel(const std::string& model);
  std::unordered_map<std::string, ModelInstruments> model_instruments_;

  std::thread dispatcher_;
};

}  // namespace karl::server

#endif  // KARL_SERVER_COALESCER_H_
