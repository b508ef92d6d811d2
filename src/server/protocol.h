// Wire protocol of the KARL query server: newline-delimited JSON, one
// request object per line, one response object per line.
//
// Requests (all fields lowercase):
//   {"op":"query","kind":"tkaq","q":[...],"tau":T,"id":"a1"}
//   {"op":"query","kind":"ekaq","q":[...],"eps":E}
//   {"op":"query","kind":"exact","q":[...]}
//   {"op":"batch","kind":"ekaq","queries":[[...],[...]],"eps":E}
//   {"op":"explain","kind":"tkaq","q":[...],"tau":T}
//   {"op":"health"}
//   {"op":"reload"}
// Evaluation requests (query/batch/explain) accept an optional
// "model":"<name>" field naming which registry model answers; omitted,
// the server's default model serves the request. "reload" rescans the
// model directory (registry/registry.h) — the request-path twin of
// SIGHUP. Status beyond health (metrics, flight recorder, models) is
// served by the HTTP admin plane (server/http_admin.h), not in-band.
//
// Responses always carry "ok". On success:
//   tkaq:   {"ok":true,"above":true}            (batch: "above":[...])
//   ekaq /
//   exact:  {"ok":true,"value":V}               (batch: "values":[...])
//   explain:{"ok":true,"above":B,"explain":{...}} (tkaq) or
//           {"ok":true,"value":V,"explain":{...}} (ekaq) — the answer
//           plus the evaluator's traversal profile (per-level counts,
//           bound-convergence timeline; see TraversalProfileJson).
//           kind=exact is rejected: a full scan has no traversal.
//   health: {"ok":true,"status":"serving"}      (or "draining")
//   reload: {"ok":true,"status":"reloaded"}
// On failure: {"ok":false,"error":"<code>","detail":"..."} with codes
// "bad_request", "not_found" (unknown model name), "overloaded",
// "shutting_down", "internal".
// A request "id" (string) is echoed verbatim on its response, so
// clients that pipeline can match answers to questions; responses to
// coalesced queries may complete out of request order.
//
// Determinism: numbers travel as %.17g text (see server/json.h), so a
// query round-trips bit-exactly and server answers are bit-identical
// to calling the local Engine. An answer that is not finite (a
// polynomial kernel can overflow to inf on an extreme but finite query)
// has no JSON literal and travels as null: {"ok":true,"value":null}.

#ifndef KARL_SERVER_PROTOCOL_H_
#define KARL_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/traversal_profile.h"
#include "data/matrix.h"
#include "server/json.h"
#include "util/status.h"

namespace karl::server {

/// Which aggregation query a request runs (paper §II problem forms).
enum class QueryKind { kTkaq, kEkaq, kExact };

/// Wire name of a query kind ("tkaq" / "ekaq" / "exact").
std::string_view QueryKindToString(QueryKind kind);

/// One parsed request line.
struct Request {
  enum class Op { kQuery, kBatch, kExplain, kHealth, kReload };

  Op op = Op::kHealth;
  QueryKind kind = QueryKind::kTkaq;
  /// tau for TKAQ, eps for eKAQ; unused for exact.
  double param = 0.0;
  /// Query rows: exactly one for op=query, any count for op=batch.
  data::Matrix queries;
  /// Optional client-chosen correlation token, echoed on the response.
  std::string id;
  /// Registry model this request targets ("" = the default model).
  std::string model;
};

/// Parses one request line. Validates shape and values (finite query
/// coordinates, finite tau, positive finite eps, rectangular batch);
/// the caller still checks engine-dependent constraints
/// (dimensionality, weighting type).
util::Result<Request> ParseRequest(std::string_view line);

/// Response builders; each returns one newline-terminated JSON line.
/// `id` is attached when non-empty.
std::string OkBoolResponse(const std::string& id, bool above);
std::string OkValueResponse(const std::string& id, double value);
std::string OkBoolsResponse(const std::string& id,
                            const std::vector<uint8_t>& above);
std::string OkValuesResponse(const std::string& id,
                             const std::vector<double>& values);
std::string OkStatusResponse(std::string_view status);
std::string ErrorResponse(const std::string& id, std::string_view code,
                          std::string_view detail);

/// Renders a traversal profile as the "explain" JSON object shared by
/// the wire protocol, `karl query --explain`, and the /explainz admin
/// page: bound kind/family, EvalStats-reconciling totals, per-level
/// visited/expanded/pruned/exact-leaf/kernel-eval counts (pruning
/// attributed to the bound family: pruned_linear for KARL's linear
/// bounds, pruned_constant for SOTA's), and the (lb, ub) convergence
/// timeline.
Json TraversalProfileJson(const core::TraversalProfile& profile);

/// Explain responses: the plain answer plus the profile object.
std::string OkExplainBoolResponse(const std::string& id, bool above,
                                  const Json& explain);
std::string OkExplainValueResponse(const std::string& id, double value,
                                   const Json& explain);

}  // namespace karl::server

#endif  // KARL_SERVER_PROTOCOL_H_
