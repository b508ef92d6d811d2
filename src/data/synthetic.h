// Synthetic dataset generation.
//
// The paper evaluates on UCI / LIBSVM datasets (mnist, miniboone, home,
// susy, nsl-kdd, kdd99, covtype, ijcnn1, a9a, covtype-b). Those files are
// not redistributable inside this repository, so `MakeUciLike` produces
// deterministic Gaussian-mixture simulacra matching each dataset's
// dimensionality and clustered structure at a cardinality scaled for a
// single-core container. See DESIGN.md §5 for the substitution rationale.

#ifndef KARL_DATA_SYNTHETIC_H_
#define KARL_DATA_SYNTHETIC_H_

#include <string>
#include <vector>

#include "data/libsvm_io.h"
#include "data/matrix.h"
#include "util/rng.h"
#include "util/status.h"

namespace karl::data {

/// Parameters of one Gaussian-mixture component.
struct MixtureComponent {
  std::vector<double> mean;    ///< Component centre (length d).
  double stddev = 1.0;         ///< Isotropic standard deviation.
  double weight = 1.0;         ///< Relative sampling weight (> 0).
  /// Optional anisotropic per-dimension standard deviations; overrides
  /// `stddev` when non-empty (length d).
  std::vector<double> stddev_per_dim;
};

/// Draws `n` points from an isotropic Gaussian mixture.
Matrix SampleGaussianMixture(const std::vector<MixtureComponent>& components,
                             size_t n, util::Rng& rng);

/// Draws `n` points uniformly from [lo, hi]^d.
Matrix SampleUniform(size_t n, size_t d, double lo, double hi,
                     util::Rng& rng);

/// Builds a random mixture of `k` clusters in [0,1]^d and samples `n`
/// points from it — the generic "clustered real data" stand-in.
Matrix SampleClustered(size_t n, size_t d, size_t k, double cluster_stddev,
                       util::Rng& rng);

/// Static description of one simulated benchmark dataset.
struct DatasetSpec {
  std::string name;       ///< Paper name, e.g. "susy".
  size_t n = 0;            ///< Scaled cardinality used in this repo.
  size_t paper_n = 0;      ///< Cardinality reported in the paper (Table VI).
  size_t d = 0;            ///< Dimensionality (matches the paper).
  size_t clusters = 0;     ///< Mixture components in the simulacrum.
  double cluster_stddev = 0.05;  ///< Within-cluster spread in [0,1]^d.
  int weighting_type = 1;  ///< Paper weighting type: 1, 2, or 3.
};

/// The dataset census mirroring the paper's Table VI (scaled sizes).
const std::vector<DatasetSpec>& BenchmarkDatasets();

/// Looks up a spec by paper name ("miniboone", "home", "susy", "mnist",
/// "nsl-kdd", "kdd99", "covtype", "ijcnn1", "a9a", "covtype-b").
util::Result<DatasetSpec> FindDataset(const std::string& name);

/// Generates the simulacrum for `spec`, normalised to [0,1]^d.
/// Deterministic: the same spec always produces the same matrix.
Matrix MakeUciLike(const DatasetSpec& spec);

/// Generates a one-class dataset: `n` inliers from a clustered mixture
/// plus `n_outliers` uniform background points labelled -1 (inliers +1).
/// Training input for the 1-class SVM substrate.
LabeledDataset MakeOneClassDataset(size_t n, size_t n_outliers, size_t d,
                                   util::Rng& rng);

}  // namespace karl::data

#endif  // KARL_DATA_SYNTHETIC_H_
