#include "server/protocol.h"

#include <utility>

#include "util/json_text.h"

namespace karl::server {
namespace {

util::Status BadRequest(const std::string& what) {
  return util::Status::InvalidArgument(what);
}

// Reads a request line from the events of one Json::Visit walk,
// straight into a Request: strings decoded into it, numbers as they
// come, rows into one flat buffer, no tree. A repeated key replaces the
// earlier value, as Json::Set does; values the protocol does not read
// are walked (so malformed JSON is refused anywhere in the line) and
// ignored. What a member means (its type, the op it belongs to) is
// checked by Finish once the document is known to be well-formed, in
// the order the tree-based reader checked it, so every refusal keeps
// its message.
class RequestVisitor final : public JsonVisitor {
 public:
  util::Result<Request> Finish();

  void Null() override { Other(); }
  void Bool(bool) override { Other(); }
  void Number(double value) override;
  void String(std::string_view value) override;
  void BeginArray() override;
  void EndArray() override;
  void BeginObject() override {
    if (depth_ == 0) root_is_object_ = true;
    Other();
    ++depth_;
  }
  void Key(std::string_view key) override;
  void EndObject() override { --depth_; }

 private:
  // The root members the protocol reads; kOther is any other key.
  enum Member : uint8_t {
    kId,
    kModel,
    kOp,
    kKind,
    kTau,
    kEps,
    kQ,
    kQueries,
    kOther,
    kMemberCount,
  };
  // The JSON type of a member's value; kAbsent until it is seen.
  enum class Shape : uint8_t { kAbsent, kString, kNumber, kArray, kOther };
  // The first thing wrong with the rows of "queries", in row order.
  enum class RowsError : uint8_t {
    kNone,
    kNotArray,
    kNotNumber,
    kEmpty,
    kRagged,
  };
  // What the value now starting is: the value of root member member_,
  // an item of the "q" row, a row of "queries", an item of that row, or
  // something nested the protocol ignores.
  enum class Place : uint8_t { kMember, kQItem, kRow, kRowItem, kIgnored };

  Place Here() const {
    if (depth_ == 1) return Place::kMember;
    if (depth_ == 2 && member_ == kQ && shape_[kQ] == Shape::kArray) {
      return Place::kQItem;
    }
    if (depth_ == 2 && member_ == kQueries &&
        shape_[kQueries] == Shape::kArray) {
      return Place::kRow;
    }
    if (depth_ == 3 && in_row_) return Place::kRowItem;
    return Place::kIgnored;
  }

  std::string* StringOf(Member member) {
    switch (member) {
      case kId:
        return &request_.id;
      case kModel:
        return &request_.model;
      case kOp:
        return &op_;
      case kKind:
        return &kind_;
      default:
        return nullptr;
    }
  }

  // A value other than a number or a string, or a container opening.
  void Other() {
    switch (Here()) {
      case Place::kMember:
        shape_[member_] = Shape::kOther;
        break;
      case Place::kQItem:
        q_not_number_ = true;
        break;
      case Place::kRow:
        if (rows_error_ == RowsError::kNone) {
          rows_error_ = RowsError::kNotArray;
        }
        break;
      case Place::kRowItem:
        row_not_number_ = true;
        break;
      case Place::kIgnored:
        break;
    }
  }

  util::Status ReadKindAndParam();

  int depth_ = 0;  // Containers open around the next event.
  bool root_is_object_ = false;
  Member member_ = kOther;  // The root member being read.

  // The members read so far (the last occurrence of each key wins).
  Shape shape_[kMemberCount] = {};
  Request request_;  // Its id and model are decoded into it directly.
  std::string op_;
  std::string kind_;
  double tau_ = 0.0;
  double eps_ = 0.0;
  std::vector<double> q_;
  bool q_not_number_ = false;
  std::vector<double> rows_;  // "queries", flattened.
  size_t rows_count_ = 0;
  size_t rows_width_ = 0;
  RowsError rows_error_ = RowsError::kNone;
  bool in_row_ = false;
  size_t row_begin_ = 0;  // Offset of the open row in rows_.
  bool row_not_number_ = false;
};

void RequestVisitor::Key(std::string_view key) {
  if (depth_ != 1) return;
  static constexpr std::pair<std::string_view, Member> kMembers[] = {
      {"id", kId},     {"model", kModel}, {"op", kOp},
      {"kind", kKind}, {"tau", kTau},     {"eps", kEps},
      {"q", kQ},       {"queries", kQueries},
  };
  member_ = kOther;
  for (const auto& [name, member] : kMembers) {
    if (key == name) member_ = member;
  }
}

void RequestVisitor::Number(double value) {
  switch (Here()) {
    case Place::kMember:
      shape_[member_] = Shape::kNumber;
      if (member_ == kTau) tau_ = value;
      if (member_ == kEps) eps_ = value;
      break;
    case Place::kQItem:
      q_.push_back(value);
      break;
    case Place::kRowItem:
      rows_.push_back(value);
      break;
    default:
      Other();
  }
}

void RequestVisitor::String(std::string_view value) {
  if (Here() != Place::kMember) return Other();
  shape_[member_] = Shape::kString;
  if (std::string* out = StringOf(member_); out != nullptr) {
    out->assign(value);
  }
}

void RequestVisitor::BeginArray() {
  const Place place = Here();
  if (place == Place::kMember && member_ == kQ) {
    shape_[kQ] = Shape::kArray;
    q_.clear();
    q_.reserve(64);  // Most rows then fill one allocation.
    q_not_number_ = false;
  } else if (place == Place::kMember && member_ == kQueries) {
    shape_[kQueries] = Shape::kArray;
    rows_.clear();
    rows_count_ = 0;
    rows_width_ = 0;
    rows_error_ = RowsError::kNone;
  } else if (place == Place::kRow) {
    in_row_ = true;
    row_begin_ = rows_.size();
    row_not_number_ = false;
  } else {
    Other();
  }
  ++depth_;
}

void RequestVisitor::EndArray() {
  --depth_;
  if (!(in_row_ && depth_ == 2)) return;
  // A row of "queries" closed: the first bad row decides the refusal.
  in_row_ = false;
  const size_t width = rows_.size() - row_begin_;
  if (rows_error_ != RowsError::kNone) {
    rows_.resize(row_begin_);
  } else if (row_not_number_) {
    rows_error_ = RowsError::kNotNumber;
  } else if (width == 0) {
    rows_error_ = RowsError::kEmpty;
  } else if (rows_count_ > 0 && width != rows_width_) {
    rows_error_ = RowsError::kRagged;
  } else {
    rows_width_ = width;
    ++rows_count_;
  }
}

util::Status RequestVisitor::ReadKindAndParam() {
  if (shape_[kKind] != Shape::kString) {
    return BadRequest("missing \"kind\" (tkaq|ekaq|exact)");
  }
  if (kind_ == "tkaq") {
    request_.kind = QueryKind::kTkaq;
    if (shape_[kTau] != Shape::kNumber) {
      return BadRequest("tkaq requires a numeric \"tau\"");
    }
    request_.param = tau_;
  } else if (kind_ == "ekaq") {
    request_.kind = QueryKind::kEkaq;
    if (shape_[kEps] != Shape::kNumber || eps_ <= 0.0) {
      return BadRequest("ekaq requires a positive numeric \"eps\"");
    }
    request_.param = eps_;
  } else if (kind_ == "exact") {
    request_.kind = QueryKind::kExact;
    request_.param = 0.0;
  } else {
    return BadRequest("unknown kind '" + kind_ + "' (tkaq|ekaq|exact)");
  }
  return util::Status::OK();
}

util::Result<Request> RequestVisitor::Finish() {
  if (!root_is_object_) return BadRequest("request must be a JSON object");
  if (shape_[kId] != Shape::kAbsent && shape_[kId] != Shape::kString) {
    return BadRequest("\"id\" must be a string");
  }
  if (shape_[kOp] != Shape::kString) {
    return BadRequest("missing \"op\" (query|batch|explain|health|reload)");
  }
  if (op_ == "health" || op_ == "reload") {
    Request admin;
    admin.op = op_ == "health" ? Request::Op::kHealth : Request::Op::kReload;
    admin.id = std::move(request_.id);
    return admin;
  }
  if (shape_[kModel] != Shape::kAbsent && shape_[kModel] != Shape::kString) {
    return BadRequest("\"model\" must be a string");
  }

  if (op_ == "query" || op_ == "explain") {
    request_.op = op_ == "query" ? Request::Op::kQuery : Request::Op::kExplain;
    KARL_RETURN_NOT_OK(ReadKindAndParam());
    if (request_.op == Request::Op::kExplain &&
        request_.kind == QueryKind::kExact) {
      return BadRequest(
          "explain requires kind tkaq or ekaq — a full scan has no "
          "traversal to profile");
    }
    if (shape_[kQ] == Shape::kAbsent) {
      return BadRequest(op_ + " requires \"q\"");
    }
    if (shape_[kQ] != Shape::kArray) {
      return BadRequest("query must be a number array");
    }
    if (q_not_number_) return BadRequest("query must contain only numbers");
    if (q_.empty()) return BadRequest("\"q\" must be non-empty");
    const size_t dims = q_.size();
    request_.queries = data::Matrix(1, dims, std::move(q_));
    return std::move(request_);
  }
  if (op_ == "batch") {
    request_.op = Request::Op::kBatch;
    KARL_RETURN_NOT_OK(ReadKindAndParam());
    if (shape_[kQueries] != Shape::kArray) {
      return BadRequest("batch requires a \"queries\" array of rows");
    }
    switch (rows_error_) {
      case RowsError::kNone:
        break;
      case RowsError::kNotArray:
        return BadRequest("query must be a number array");
      case RowsError::kNotNumber:
        return BadRequest("query must contain only numbers");
      case RowsError::kEmpty:
        return BadRequest("batch rows must be non-empty");
      case RowsError::kRagged:
        return BadRequest("batch rows must share one dimensionality");
    }
    if (rows_count_ > 0) {
      request_.queries =
          data::Matrix(rows_count_, rows_width_, std::move(rows_));
    }
    return std::move(request_);
  }
  return BadRequest("unknown op '" + op_ +
                    "' (query|batch|explain|health|reload)");
}

// Reply lines are built by appending into one string: `{"ok":...`, then
// ReplyEnd's optional id and the closing `}\n` — the bytes Json::Dump
// printed for the same members in the same order.
void AppendString(std::string* out, std::string_view s) {
  out->push_back('"');
  util::AppendJsonEscaped(out, s);
  out->push_back('"');
}

std::string ReplyEnd(std::string out, std::string_view id) {
  if (!id.empty()) {
    out += ",\"id\":";
    AppendString(&out, id);
  }
  out += "}\n";
  return out;
}

std::string OkReply(std::string_view key, size_t reserve) {
  std::string out;
  out.reserve(reserve);
  out += "{\"ok\":true,\"";
  out += key;
  out += "\":";
  return out;
}

// Room for a reply of `items` numbers and an id, so building it never
// reallocates.
size_t ReplySize(size_t items, std::string_view id) {
  return 48 + 25 * items + id.size();
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
  RequestVisitor visitor;
  KARL_RETURN_NOT_OK(Json::Visit(line, &visitor));
  return visitor.Finish();
}

std::string OkBoolResponse(std::string_view id, bool above) {
  std::string out = OkReply("above", ReplySize(1, id));
  out += above ? "true" : "false";
  return ReplyEnd(std::move(out), id);
}

std::string OkValueResponse(std::string_view id, double value) {
  std::string out = OkReply("value", ReplySize(1, id));
  util::AppendJsonNumber(&out, value);
  return ReplyEnd(std::move(out), id);
}

std::string OkBoolsResponse(std::string_view id,
                            std::span<const uint8_t> above) {
  std::string out = OkReply("above", ReplySize(above.size(), id));
  out.push_back('[');
  for (size_t i = 0; i < above.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += above[i] != 0 ? "true" : "false";
  }
  out.push_back(']');
  return ReplyEnd(std::move(out), id);
}

std::string OkValuesResponse(std::string_view id,
                             std::span<const double> values) {
  std::string out = OkReply("values", ReplySize(values.size(), id));
  out.push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    util::AppendJsonNumber(&out, values[i]);
  }
  out.push_back(']');
  return ReplyEnd(std::move(out), id);
}

std::string OkStatusResponse(std::string_view status) {
  std::string out = OkReply("status", ReplySize(0, status));
  AppendString(&out, status);
  return ReplyEnd(std::move(out), "");
}

std::string OkExplainBoolResponse(std::string_view id, bool above,
                                  std::string_view explain) {
  std::string out = OkReply("above", ReplySize(0, id) + explain.size());
  out += above ? "true" : "false";
  out += ",\"explain\":";
  out += explain;
  return ReplyEnd(std::move(out), id);
}

std::string OkExplainValueResponse(std::string_view id, double value,
                                   std::string_view explain) {
  std::string out = OkReply("value", ReplySize(1, id) + explain.size());
  util::AppendJsonNumber(&out, value);
  out += ",\"explain\":";
  out += explain;
  return ReplyEnd(std::move(out), id);
}

std::string ErrorResponse(std::string_view id, std::string_view code,
                          std::string_view detail) {
  std::string out;
  out.reserve(ReplySize(0, id) + code.size() + detail.size());
  out += "{\"ok\":false,\"error\":";
  AppendString(&out, code);
  if (!detail.empty()) {
    out += ",\"detail\":";
    AppendString(&out, detail);
  }
  return ReplyEnd(std::move(out), id);
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

}  // namespace karl::server
