// Dimensional metric labels: a small, ordered, cardinality-bounded set of
// key/value pairs that qualifies one metric family into per-dimension
// series ("karl_serving_eval_us{model=\"alpha\"}").
//
// Design constraints, in order:
//   1. The record path stays lock-free: a LabelSet participates only in
//      *lookup* (Registry::GetX(name, labels), mutex-guarded, construction
//      time); the returned handle is the same plain Counter/Gauge/
//      RollingHistogram as the unlabeled path. Callers intern handles per
//      label set — never render a LabelSet per request.
//   2. Cardinality is bounded twice: at most kMaxLabelsPerSet keys per
//      set (the canonical keys are `model`, `op`, `kernel`, `simd_tier`),
//      and at most Registry::kMaxSeriesPerMetric distinct label sets
//      per family — overflow collapses into a per-family sink series
//      whose values are all `__other__` (see Registry::AdmitSeries).
//   3. Exposition is exact Prometheus text format 0.0.4: label names
//      validated at Set() time ([a-zA-Z_][a-zA-Z0-9_]*), values escaped
//      (\\, \", \n), keys emitted in sorted order so equal sets render
//      identically and series names are canonical map keys.

#ifndef KARL_TELEMETRY_LABELS_H_
#define KARL_TELEMETRY_LABELS_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace karl::telemetry {

/// Hard cap on keys in one LabelSet; Set() aborts past it.
inline constexpr size_t kMaxLabelsPerSet = 4;

/// Value every key takes in a family's cardinality-overflow sink series.
inline constexpr std::string_view kOverflowLabelValue = "__other__";

/// Prometheus label-name charset: [a-zA-Z_][a-zA-Z0-9_]*.
bool IsValidLabelName(std::string_view name);

/// Escapes a label value for the text exposition: backslash, double
/// quote, and newline become \\, \", and \n.
std::string EscapeLabelValue(std::string_view value);

/// An ordered set of at most kMaxLabelsPerSet label key/value pairs.
/// Keys are kept sorted, so two sets with the same pairs render the same
/// series name regardless of insertion order. Values are stored raw and
/// escaped only at Render() time.
class LabelSet {
 public:
  LabelSet() = default;
  /// Aborts on an invalid key name, a duplicate key, or > kMaxLabelsPerSet
  /// pairs — label sets are compile-time-ish configuration, not data.
  LabelSet(std::initializer_list<
           std::pair<std::string_view, std::string_view>>
               pairs);

  /// Inserts `key`=`value`, or replaces the value if `key` is present.
  /// Returns *this so sets can be built fluently.
  LabelSet& Set(std::string_view key, std::string_view value);

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  /// `{k1="v1",k2="v2"}` with escaped values, or "" when empty. Appending
  /// this to the family name yields the canonical series name.
  std::string Render() const;

  /// Copy with every value replaced by kOverflowLabelValue — the sink
  /// series a family's excess label sets collapse into.
  LabelSet Overflow() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// A full series name split at the label block. `labels` keeps its braces
/// (`{k="v"}`) and is empty for unlabeled series, so
/// `base + labels == series` always holds.
struct SeriesNameParts {
  std::string base;
  std::string labels;
};
SeriesNameParts SplitSeriesName(const std::string& series);

/// Inserts `suffix` before the label block: ("f{m=\"a\"}", "_sum") ->
/// "f_sum{m=\"a\"}"; ("f", "_sum") -> "f_sum". Prometheus suffixes bind
/// to the metric name, never to the labels.
std::string SeriesWithSuffix(const std::string& series,
                             std::string_view suffix);

/// Appends one more label to a (possibly already labeled) series name:
/// ("f{m=\"a\"}", "quantile", "0.5") -> "f{m=\"a\",quantile=\"0.5\"}".
/// `value` is escaped here.
std::string SeriesWithLabel(const std::string& series, std::string_view key,
                            std::string_view value);

}  // namespace karl::telemetry

#endif  // KARL_TELEMETRY_LABELS_H_
