#include "server/protocol.h"

#include <cmath>

#include "server/json.h"
#include "util/check.h"

namespace karl::server {
namespace {

util::Status BadRequest(const std::string& what) {
  return util::Status::InvalidArgument(what);
}

// Extracts a finite-number row from a JSON array.
util::Status ReadRow(const Json& array, std::vector<double>* out) {
  if (!array.is_array()) return BadRequest("query must be a number array");
  out->clear();
  out->reserve(array.items().size());
  for (const Json& v : array.items()) {
    if (!v.is_number()) return BadRequest("query must contain only numbers");
    out->push_back(v.number_value());
  }
  return util::Status::OK();
}

util::Status ReadKindAndParam(const Json& root, Request* request) {
  const Json* kind = root.Find("kind");
  if (kind == nullptr || !kind->is_string()) {
    return BadRequest("missing \"kind\" (tkaq|ekaq|exact)");
  }
  const std::string& name = kind->string_value();
  if (name == "tkaq") {
    request->kind = QueryKind::kTkaq;
    const Json* tau = root.Find("tau");
    if (tau == nullptr || !tau->is_number()) {
      return BadRequest("tkaq requires a numeric \"tau\"");
    }
    request->param = tau->number_value();
  } else if (name == "ekaq") {
    request->kind = QueryKind::kEkaq;
    const Json* eps = root.Find("eps");
    if (eps == nullptr || !eps->is_number() || eps->number_value() <= 0.0) {
      return BadRequest("ekaq requires a positive numeric \"eps\"");
    }
    request->param = eps->number_value();
  } else if (name == "exact") {
    request->kind = QueryKind::kExact;
    request->param = 0.0;
  } else {
    return BadRequest("unknown kind '" + name + "' (tkaq|ekaq|exact)");
  }
  return util::Status::OK();
}

std::string Finish(Json response, const std::string& id) {
  if (!id.empty()) response.Set("id", Json::Str(id));
  return response.Dump() + "\n";
}

}  // namespace

std::string_view QueryKindToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kTkaq:
      return "tkaq";
    case QueryKind::kEkaq:
      return "ekaq";
    case QueryKind::kExact:
      return "exact";
  }
  return "unknown";
}

util::Result<Request> ParseRequest(std::string_view line) {
  auto parsed = Json::Parse(line);
  if (!parsed.ok()) return parsed.status();
  const Json root = std::move(parsed).ValueOrDie();
  if (!root.is_object()) return BadRequest("request must be a JSON object");

  Request request;
  if (const Json* id = root.Find("id"); id != nullptr) {
    if (!id->is_string()) return BadRequest("\"id\" must be a string");
    request.id = id->string_value();
  }

  const Json* op = root.Find("op");
  if (op == nullptr || !op->is_string()) {
    return BadRequest(
        "missing \"op\" (query|batch|explain|health|reload)");
  }
  const std::string& name = op->string_value();
  if (name == "health") {
    request.op = Request::Op::kHealth;
    return request;
  }
  if (name == "reload") {
    request.op = Request::Op::kReload;
    return request;
  }
  if (const Json* model = root.Find("model"); model != nullptr) {
    if (!model->is_string()) return BadRequest("\"model\" must be a string");
    request.model = model->string_value();
  }

  std::vector<double> row;
  if (name == "query" || name == "explain") {
    request.op =
        name == "query" ? Request::Op::kQuery : Request::Op::kExplain;
    KARL_RETURN_NOT_OK(ReadKindAndParam(root, &request));
    if (request.op == Request::Op::kExplain &&
        request.kind == QueryKind::kExact) {
      return BadRequest(
          "explain requires kind tkaq or ekaq — a full scan has no "
          "traversal to profile");
    }
    const Json* q = root.Find("q");
    if (q == nullptr) return BadRequest(name + " requires \"q\"");
    KARL_RETURN_NOT_OK(ReadRow(*q, &row));
    if (row.empty()) return BadRequest("\"q\" must be non-empty");
    const size_t dims = row.size();
    request.queries = data::Matrix(1, dims, std::move(row));
    return request;
  }
  if (name == "batch") {
    request.op = Request::Op::kBatch;
    KARL_RETURN_NOT_OK(ReadKindAndParam(root, &request));
    const Json* queries = root.Find("queries");
    if (queries == nullptr || !queries->is_array()) {
      return BadRequest("batch requires a \"queries\" array of rows");
    }
    for (const Json& entry : queries->items()) {
      KARL_RETURN_NOT_OK(ReadRow(entry, &row));
      if (row.empty()) return BadRequest("batch rows must be non-empty");
      if (!request.queries.empty() &&
          row.size() != request.queries.cols()) {
        return BadRequest("batch rows must share one dimensionality");
      }
      request.queries.AppendRow(row);
    }
    return request;
  }
  return BadRequest("unknown op '" + name +
                    "' (query|batch|explain|health|reload)");
}

std::string OkBoolResponse(const std::string& id, bool above) {
  return Finish(
      Json::Object().Set("ok", Json::Bool(true)).Set("above",
                                                     Json::Bool(above)),
      id);
}

std::string OkValueResponse(const std::string& id, double value) {
  return Finish(
      Json::Object().Set("ok", Json::Bool(true)).Set("value",
                                                     Json::Number(value)),
      id);
}

std::string OkBoolsResponse(const std::string& id,
                            const std::vector<uint8_t>& above) {
  Json list = Json::Array();
  for (const uint8_t b : above) list.Append(Json::Bool(b != 0));
  return Finish(
      Json::Object().Set("ok", Json::Bool(true)).Set("above",
                                                     std::move(list)),
      id);
}

std::string OkValuesResponse(const std::string& id,
                             const std::vector<double>& values) {
  Json list = Json::Array();
  for (const double v : values) list.Append(Json::Number(v));
  return Finish(
      Json::Object().Set("ok", Json::Bool(true)).Set("values",
                                                     std::move(list)),
      id);
}

std::string OkStatusResponse(std::string_view status) {
  return Finish(Json::Object()
                    .Set("ok", Json::Bool(true))
                    .Set("status", Json::Str(std::string(status))),
                "");
}

Json TraversalProfileJson(const core::TraversalProfile& profile) {
  const bool linear_family = profile.bounds != core::BoundKind::kSota;
  Json levels = Json::Array();
  for (size_t d = 0; d < profile.levels.size(); ++d) {
    const core::TraversalProfile::Level& level = profile.levels[d];
    levels.Append(
        Json::Object()
            .Set("depth", Json::Number(static_cast<double>(d)))
            .Set("visited", Json::Number(static_cast<double>(level.visited)))
            .Set("expanded",
                 Json::Number(static_cast<double>(level.expanded)))
            .Set("pruned_linear",
                 Json::Number(static_cast<double>(
                     linear_family ? level.pruned : 0)))
            .Set("pruned_constant",
                 Json::Number(static_cast<double>(
                     linear_family ? 0 : level.pruned)))
            .Set("exact_leaves",
                 Json::Number(static_cast<double>(level.exact_leaves)))
            .Set("kernel_evals",
                 Json::Number(static_cast<double>(level.kernel_evals))));
  }
  Json timeline = Json::Array();
  for (size_t i = 0; i < profile.timeline.size(); ++i) {
    const core::TraversalProfile::Iteration& it = profile.timeline[i];
    timeline.Append(
        Json::Object()
            .Set("iteration", Json::Number(static_cast<double>(i)))
            .Set("lb", Json::Number(it.lb))
            .Set("ub", Json::Number(it.ub))
            .Set("gap", Json::Number(it.ub - it.lb))
            .Set("kernel_evals",
                 Json::Number(static_cast<double>(it.kernel_evals))));
  }
  return Json::Object()
      .Set("bounds",
           Json::Str(std::string(core::BoundKindToString(profile.bounds))))
      .Set("bound_family",
           Json::Str(core::BoundFamilyName(profile.bounds)))
      .Set("iterations",
           Json::Number(static_cast<double>(profile.iterations)))
      .Set("nodes_expanded",
           Json::Number(static_cast<double>(profile.nodes_expanded)))
      .Set("kernel_evals",
           Json::Number(static_cast<double>(profile.kernel_evals)))
      .Set("nodes_visited",
           Json::Number(static_cast<double>(profile.TotalVisited())))
      .Set("nodes_pruned",
           Json::Number(static_cast<double>(profile.TotalPruned())))
      .Set("exact_leaves",
           Json::Number(static_cast<double>(profile.TotalExactLeaves())))
      .Set("levels", std::move(levels))
      .Set("timeline", std::move(timeline))
      .Set("timeline_truncated", Json::Bool(profile.timeline_truncated));
}

std::string OkExplainBoolResponse(const std::string& id, bool above,
                                  const Json& explain) {
  return Finish(Json::Object()
                    .Set("ok", Json::Bool(true))
                    .Set("above", Json::Bool(above))
                    .Set("explain", explain),
                id);
}

std::string OkExplainValueResponse(const std::string& id, double value,
                                   const Json& explain) {
  return Finish(Json::Object()
                    .Set("ok", Json::Bool(true))
                    .Set("value", Json::Number(value))
                    .Set("explain", explain),
                id);
}

std::string ErrorResponse(const std::string& id, std::string_view code,
                          std::string_view detail) {
  Json response = Json::Object()
                      .Set("ok", Json::Bool(false))
                      .Set("error", Json::Str(std::string(code)));
  if (!detail.empty()) response.Set("detail", Json::Str(std::string(detail)));
  return Finish(std::move(response), id);
}

}  // namespace karl::server
