#include "data/libsvm_io.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "util/errno.h"

namespace karl::data {

namespace {

struct SparseRow {
  double label = 0.0;
  // (1-based index, value) pairs in file order.
  std::vector<std::pair<size_t, double>> features;
};

// Parses "<label> <i>:<v> ..." into a SparseRow. Returns false with
// `error` set on malformed input.
bool ParseLine(const std::string& line, SparseRow* row, std::string* error) {
  const char* p = line.c_str();
  char* end = nullptr;
  errno = 0;
  row->label = std::strtod(p, &end);
  if (end == p) {
    *error = "missing label";
    return false;
  }
  if (!std::isfinite(row->label)) {
    *error = "non-finite label '" +
             std::string(p, static_cast<size_t>(end - p)) + "'";
    return false;
  }
  p = end;
  row->features.clear();
  while (*p != '\0') {
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '\0' || *p == '\r' || *p == '#') break;
    errno = 0;
    const long index = std::strtol(p, &end, 10);
    if (end == p || *end != ':' || index <= 0) {
      *error = "malformed feature (expected <index>:<value>)";
      return false;
    }
    p = end + 1;  // Skip ':'.
    const double value = std::strtod(p, &end);
    if (end == p) {
      *error = "malformed feature value";
      return false;
    }
    if (!std::isfinite(value)) {
      *error = "non-finite feature value '" +
               std::string(p, static_cast<size_t>(end - p)) + "'";
      return false;
    }
    p = end;
    row->features.emplace_back(static_cast<size_t>(index), value);
  }
  return true;
}

}  // namespace

util::Result<LabeledDataset> ParseLibsvm(const std::string& text,
                                         size_t dimensions) {
  std::vector<SparseRow> rows;
  size_t max_index = 0;
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // Skip blank and comment-only lines.
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    SparseRow row;
    std::string error;
    if (!ParseLine(line, &row, &error)) {
      return util::Status::InvalidArgument("libsvm parse error at line " +
                                           std::to_string(line_number) + ": " +
                                           error);
    }
    for (const auto& [idx, _] : row.features) max_index = std::max(max_index, idx);
    rows.push_back(std::move(row));
  }

  const size_t d = dimensions > 0 ? dimensions : max_index;
  if (dimensions > 0 && max_index > dimensions) {
    return util::Status::InvalidArgument(
        "feature index " + std::to_string(max_index) +
        " exceeds requested dimensionality " + std::to_string(dimensions));
  }

  LabeledDataset out;
  out.points = Matrix(rows.size(), d);
  out.labels.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    out.labels.push_back(rows[i].label);
    auto dst = out.points.MutableRow(i);
    for (const auto& [idx, value] : rows[i].features) dst[idx - 1] = value;
  }
  return out;
}

util::Result<LabeledDataset> ReadLibsvmFile(const std::string& path,
                                            size_t dimensions) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::IOError("cannot open " + path + ": " +
                                 util::ErrnoString(errno));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseLibsvm(buf.str(), dimensions);
}

}  // namespace karl::data
