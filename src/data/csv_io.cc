#include "data/csv_io.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/errno.h"

namespace karl::data {

util::Result<Matrix> ParseCsv(const std::string& text,
                              size_t skip_header_rows) {
  Matrix out;
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  std::vector<double> row;
  while (std::getline(in, line)) {
    ++line_number;
    if (line_number <= skip_header_rows) continue;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    row.clear();
    const char* p = line.c_str();
    while (true) {
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(p, &end);
      if (end == p) {
        return util::Status::InvalidArgument(
            "csv parse error at line " + std::to_string(line_number) +
            ": expected a number near '" + std::string(p).substr(0, 16) + "'");
      }
      // nan, inf and overflow (1e999) parse; no index can hold them.
      if (!std::isfinite(v)) {
        const std::string token(p, static_cast<size_t>(end - p));
        return util::Status::InvalidArgument(
            "csv parse error at line " + std::to_string(line_number) +
            ": non-finite value '" + token + "'");
      }
      row.push_back(v);
      p = end;
      while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
      if (*p == '\0') break;
      if (*p != ',') {
        return util::Status::InvalidArgument(
            "csv parse error at line " + std::to_string(line_number) +
            ": expected ',' near '" + std::string(p).substr(0, 16) + "'");
      }
      ++p;
    }
    if (!out.empty() && row.size() != out.cols()) {
      return util::Status::InvalidArgument(
          "csv parse error at line " + std::to_string(line_number) +
          ": inconsistent field count (" + std::to_string(row.size()) +
          " vs " + std::to_string(out.cols()) + ")");
    }
    out.AppendRow(row);
  }
  return out;
}

util::Result<Matrix> ReadCsvFile(const std::string& path,
                                 size_t skip_header_rows) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::IOError("cannot open " + path + ": " +
                                 util::ErrnoString(errno));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCsv(buf.str(), skip_header_rows);
}

std::string WriteCsv(const Matrix& matrix) {
  std::ostringstream out;
  out.precision(17);
  for (size_t i = 0; i < matrix.rows(); ++i) {
    const auto row = matrix.Row(i);
    for (size_t j = 0; j < row.size(); ++j) {
      if (j > 0) out << ',';
      out << row[j];
    }
    out << '\n';
  }
  return out.str();
}

util::Status WriteCsvFile(const std::string& path, const Matrix& matrix) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return util::Status::IOError("cannot open " + path + " for writing: " +
                                 util::ErrnoString(errno));
  }
  out << WriteCsv(matrix);
  if (!out) return util::Status::IOError("write failed for " + path);
  return util::Status::OK();
}

}  // namespace karl::data
