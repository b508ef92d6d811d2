// Reader for the LIBSVM sparse text format:
//
//   <label> <index>:<value> <index>:<value> ...
//
// Indices are 1-based; omitted features are zero. This is the on-disk
// format of all the paper's SVM datasets (a9a, ijcnn1, covtype, ...).

#ifndef KARL_DATA_LIBSVM_IO_H_
#define KARL_DATA_LIBSVM_IO_H_

#include <string>
#include <vector>

#include "data/matrix.h"
#include "util/status.h"

namespace karl::data {

/// A dataset with one numeric label per row (class id or regression
/// target), as stored in LIBSVM files.
struct LabeledDataset {
  Matrix points;
  std::vector<double> labels;
};

/// Parses LIBSVM-format text into a dense LabeledDataset.
///
/// `dimensions` fixes the output width; pass 0 to infer it as the maximum
/// feature index present. Malformed lines produce an InvalidArgument
/// status naming the offending line.
util::Result<LabeledDataset> ParseLibsvm(const std::string& text,
                                         size_t dimensions = 0);

/// Reads and parses a LIBSVM file from disk.
util::Result<LabeledDataset> ReadLibsvmFile(const std::string& path,
                                            size_t dimensions = 0);

}  // namespace karl::data

#endif  // KARL_DATA_LIBSVM_IO_H_
