// Differential test of the one-pass request parser (server::ParseRequest)
// against the DOM-based reader it replaced, kept below as the oracle:
// Json::Parse the line, then read the members off the tree. Every input
// of the committed seed corpus (tests/data/request_corpus.ndjson), a few
// generated ones (deep nesting, oversized rows) and seeded mutations of
// all of them must yield the same Request or the same error. Both
// readers walk the line with Json::Visit, so what this pins down is the
// parser's reading of the events: member types, repeated keys, nested
// values it skips, row checks and the order of refusals.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "server/json.h"
#include "server/protocol.h"

namespace karl::server {
namespace {

// ------------------------------------------------------------- oracle

util::Status BadRequest(const std::string& what) {
  return util::Status::InvalidArgument(what);
}

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

util::Result<Request> DomParseRequest(std::string_view line) {
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

// ------------------------------------------------------------- harness

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// Empty when both readers agree on `line`; otherwise what differs.
std::string Disagreement(std::string_view line) {
  const util::Result<Request> got = ParseRequest(line);
  const util::Result<Request> want = DomParseRequest(line);
  if (got.ok() != want.ok()) {
    return std::string("ok ") + (got.ok() ? "true" : "false") + " vs " +
           (want.ok() ? "true" : "false") + ": " +
           (got.ok() ? want.status().ToString() : got.status().ToString());
  }
  if (!got.ok()) {
    if (got.status().code() != want.status().code() ||
        got.status().message() != want.status().message()) {
      return "error '" + got.status().ToString() + "' vs '" +
             want.status().ToString() + "'";
    }
    return "";
  }
  const Request& a = got.value();
  const Request& b = want.value();
  if (a.op != b.op) return "op";
  if (a.kind != b.kind) return "kind";
  if (!SameBits(a.param, b.param)) return "param";
  if (a.id != b.id) return "id '" + a.id + "' vs '" + b.id + "'";
  if (a.model != b.model) {
    return "model '" + a.model + "' vs '" + b.model + "'";
  }
  if (a.queries.rows() != b.queries.rows() ||
      a.queries.cols() != b.queries.cols()) {
    return "queries shape " + std::to_string(a.queries.rows()) + "x" +
           std::to_string(a.queries.cols()) + " vs " +
           std::to_string(b.queries.rows()) + "x" +
           std::to_string(b.queries.cols());
  }
  for (size_t i = 0; i < a.queries.values().size(); ++i) {
    if (!SameBits(a.queries.values()[i], b.queries.values()[i])) {
      return "queries value " + std::to_string(i);
    }
  }
  return "";
}

std::vector<std::string> SeedCorpus() {
  std::ifstream in(std::string(KARL_TEST_DATA_DIR) +
                   "/request_corpus.ndjson");
  std::vector<std::string> seeds;
  for (std::string line; std::getline(in, line);) seeds.push_back(line);

  // Nesting around Json::Parse's 64-level limit.
  for (const int levels : {62, 63, 64, 65}) {
    seeds.push_back("{\"op\":\"health\",\"x\":" + std::string(levels, '[') +
                    "1" + std::string(levels, ']') + "}");
  }
  // Oversized rows: a wide query, a tall batch, a tall ragged batch.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> coord(-1e6, 1e6);
  const auto number = [&rng, &coord] {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", coord(rng));
    return std::string(buf);
  };
  std::string wide = "{\"op\":\"query\",\"kind\":\"exact\",\"q\":[";
  for (int i = 0; i < 5000; ++i) wide += (i > 0 ? "," : "") + number();
  seeds.push_back(wide + "]}");
  std::string tall = "{\"op\":\"batch\",\"kind\":\"ekaq\",\"eps\":0.1,"
                     "\"queries\":[";
  for (int r = 0; r < 2000; ++r) {
    tall += r > 0 ? ",[" : "[";
    for (int c = 0; c < 8; ++c) tall += (c > 0 ? "," : "") + number();
    tall += "]";
  }
  seeds.push_back(tall + "]}");
  seeds.push_back(tall + ",[1]]}");
  return seeds;
}

// One random edit of `s`, from operators that reach the parser's edges:
// cuts, byte flips, structural and numeric characters, duplicated spans
// (repeated keys) and spans spliced in from another seed.
std::string Mutate(std::string s, const std::vector<std::string>& seeds,
                   std::mt19937_64& rng) {
  static constexpr std::string_view kAlphabet =
      "{}[]\":,\\ \t\r-+.eE0123456789tfnulq";
  const auto below = [&rng](size_t n) {
    return n == 0 ? 0 : static_cast<size_t>(rng() % n);
  };
  const size_t at = below(s.size() + 1);
  switch (rng() % 7) {
    case 0:
      s.resize(at);
      break;
    case 1:
      if (!s.empty()) s.erase(below(s.size()), 1);
      break;
    case 2:
      s.insert(at, 1, kAlphabet[below(kAlphabet.size())]);
      break;
    case 3:
      if (!s.empty()) s[below(s.size())] = static_cast<char>(rng() & 0xFF);
      break;
    case 4:
      if (!s.empty()) {
        s[below(s.size())] = kAlphabet[below(kAlphabet.size())];
      }
      break;
    case 5: {
      const size_t begin = below(s.size());
      const size_t length = below(std::min<size_t>(s.size() - begin, 40) + 1);
      s.insert(at, s.substr(begin, length));
      break;
    }
    default: {
      const std::string& other = seeds[below(seeds.size())];
      const size_t begin = below(other.size());
      const size_t length =
          below(std::min<size_t>(other.size() - begin, 40) + 1);
      s.insert(at, other.substr(begin, length));
      break;
    }
  }
  return s;
}

TEST(ProtocolDiffTest, SeedCorpusParsesLikeTheDomReader) {
  const std::vector<std::string> seeds = SeedCorpus();
  ASSERT_GT(seeds.size(), 90u) << "seed corpus not found";
  size_t accepted = 0;
  for (const std::string& seed : seeds) {
    EXPECT_EQ(Disagreement(seed), "") << seed.substr(0, 200);
    accepted += ParseRequest(seed).ok() ? 1 : 0;
  }
  // The corpus exercises both sides of the contract.
  EXPECT_GT(accepted, 20u);
  EXPECT_LT(accepted, seeds.size() - 40);
}

TEST(ProtocolDiffTest, EveryTruncationParsesLikeTheDomReader) {
  for (const std::string& seed : SeedCorpus()) {
    const size_t step = seed.size() > 400 ? seed.size() / 97 : 1;
    for (size_t n = 0; n < seed.size(); n += step) {
      const std::string_view prefix = std::string_view(seed).substr(0, n);
      ASSERT_EQ(Disagreement(prefix), "") << prefix.substr(0, 200);
    }
  }
}

TEST(ProtocolDiffTest, SeededMutationsParseLikeTheDomReader) {
  const std::vector<std::string> seeds = SeedCorpus();
  std::mt19937_64 rng(20261019);
  size_t accepted = 0;
  size_t mutants = 0;
  for (const std::string& seed : seeds) {
    if (seed.size() > 400) continue;  // The big seeds are slow to fuzz.
    for (int i = 0; i < 1000; ++i, ++mutants) {
      std::string line = seed;
      const int edits = 1 + static_cast<int>(rng() % 3);
      for (int e = 0; e < edits; ++e) {
        line = Mutate(std::move(line), seeds, rng);
      }
      ASSERT_EQ(Disagreement(line), "") << line;
      accepted += ParseRequest(line).ok() ? 1 : 0;
    }
  }
  // Some mutants stay valid requests, most are refused.
  EXPECT_GT(accepted, mutants / 200);
  EXPECT_LT(accepted, mutants / 2);
}

}  // namespace
}  // namespace karl::server
