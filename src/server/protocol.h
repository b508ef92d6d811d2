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
// Determinism: numbers travel as %.17g text — replies print them with
// std::to_chars (general format, precision 17; util/json_text.h), the
// same bytes — so a query round-trips bit-exactly and server answers
// are bit-identical to calling the local Engine. An answer that is not
// finite (a polynomial kernel can overflow to inf on an extreme but
// finite query) has no JSON literal and travels as null:
// {"ok":true,"value":null}.

#ifndef KARL_SERVER_PROTOCOL_H_
#define KARL_SERVER_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

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

/// Parses one request line in a single pass over Json::Visit, the
/// grammar walk Json::Parse also uses: strings and rows are decoded
/// straight into the Request, with no JSON tree and no per-token
/// allocation. So it accepts exactly what Json::Parse accepts (a
/// repeated key keeps its last value) and refuses malformed JSON with
/// the same message. Validates shape and values (finite query
/// coordinates, finite tau, positive finite eps, rectangular batch);
/// the caller still checks engine-dependent constraints
/// (dimensionality, weighting type).
util::Result<Request> ParseRequest(std::string_view line);

/// Response builders; each returns one newline-terminated JSON line,
/// appended member by member into one string. `id` is attached when
/// non-empty.
std::string OkBoolResponse(std::string_view id, bool above);
std::string OkValueResponse(std::string_view id, double value);
std::string OkBoolsResponse(std::string_view id,
                            std::span<const uint8_t> above);
std::string OkValuesResponse(std::string_view id,
                             std::span<const double> values);
std::string OkStatusResponse(std::string_view status);
std::string ErrorResponse(std::string_view id, std::string_view code,
                          std::string_view detail);

/// Renders a traversal profile as the "explain" JSON object shared by
/// the wire protocol, `karl query --explain`, and the /explainz admin
/// page: bound kind/family, EvalStats-reconciling totals, per-level
/// visited/expanded/pruned/exact-leaf/kernel-eval counts (pruning
/// attributed to the bound family: pruned_linear for KARL's linear
/// bounds, pruned_constant for SOTA's), and the (lb, ub) convergence
/// timeline.
Json TraversalProfileJson(const core::TraversalProfile& profile);

/// Explain responses: the plain answer plus the profile object,
/// `explain` being TraversalProfileJson(...).Dump().
std::string OkExplainBoolResponse(std::string_view id, bool above,
                                  std::string_view explain);
std::string OkExplainValueResponse(std::string_view id, double value,
                                   std::string_view explain);

}  // namespace karl::server

#endif  // KARL_SERVER_PROTOCOL_H_
