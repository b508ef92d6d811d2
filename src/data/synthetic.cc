#include "data/synthetic.h"

#include <algorithm>
#include <cmath>

#include "data/normalize.h"
#include "util/check.h"

namespace karl::data {

Matrix SampleGaussianMixture(const std::vector<MixtureComponent>& components,
                             size_t n, util::Rng& rng) {
  KARL_CHECK(!components.empty())
      << ": mixture sampling needs at least one component";
  const size_t d = components.front().mean.size();
  // Cumulative weights for component selection.
  std::vector<double> cumulative;
  cumulative.reserve(components.size());
  double total = 0.0;
  for (const auto& c : components) {
    KARL_CHECK(c.mean.size() == d)
        << ": mixture component mean has dimension " << c.mean.size()
        << ", want " << d;
    KARL_CHECK(c.weight > 0.0)
        << ": mixture component weight must be positive, got " << c.weight;
    total += c.weight;
    cumulative.push_back(total);
  }

  Matrix out(n, d);
  for (size_t i = 0; i < n; ++i) {
    const double u = rng.Uniform(0.0, total);
    const size_t ci = static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    const auto& c = components[std::min(ci, components.size() - 1)];
    auto row = out.MutableRow(i);
    for (size_t j = 0; j < d; ++j) {
      const double sd =
          c.stddev_per_dim.empty() ? c.stddev : c.stddev_per_dim[j];
      row[j] = rng.Gaussian(c.mean[j], sd);
    }
  }
  return out;
}

Matrix SampleUniform(size_t n, size_t d, double lo, double hi,
                     util::Rng& rng) {
  Matrix out(n, d);
  for (size_t i = 0; i < n; ++i) {
    auto row = out.MutableRow(i);
    for (size_t j = 0; j < d; ++j) row[j] = rng.Uniform(lo, hi);
  }
  return out;
}

Matrix SampleClustered(size_t n, size_t d, size_t k, double cluster_stddev,
                       util::Rng& rng) {
  // Real tabular data has three traits the simulacra must share, because
  // they are what make bounding-rectangle bounds pessimistic (the gap
  // KARL's moment-based linear bounds exploit):
  //  * LOW INTRINSIC DIMENSION: the points lie near a low-dimensional
  //    manifold embedded obliquely in the d ambient dimensions, so
  //    axis-aligned boxes cover mostly empty space;
  //  * anisotropic, size-skewed clusters;
  //  * a diffuse background component fattening the tails.
  // Intrinsic dimensionality grows sublinearly with the ambient one and
  // saturates: even 784-dim image data lives on a ~10–20-dim manifold.
  const size_t d_intrinsic =
      std::max<size_t>(2, std::min<size_t>(20, d / 6));

  // Clustered intrinsic coordinates in [0,1]^d_intrinsic.
  std::vector<MixtureComponent> components(k + 1);
  for (size_t ci = 0; ci < k; ++ci) {
    auto& c = components[ci];
    c.mean.resize(d_intrinsic);
    for (auto& m : c.mean) m = rng.Uniform();
    c.stddev_per_dim.resize(d_intrinsic);
    const double cluster_scale = std::exp(rng.Gaussian(0.0, 0.5));
    for (auto& sd : c.stddev_per_dim) {
      sd = cluster_stddev * cluster_scale * std::exp(rng.Gaussian(0.0, 0.7));
    }
    // Skewed cluster sizes, as in real data.
    c.weight = 0.2 + rng.Uniform();
  }
  // Background: ~12% of the mass spread widely over the domain.
  auto& bg = components[k];
  bg.mean.assign(d_intrinsic, 0.5);
  bg.stddev = 0.35;
  double cluster_weight = 0.0;
  for (size_t ci = 0; ci < k; ++ci) cluster_weight += components[ci].weight;
  bg.weight = 0.12 * cluster_weight;
  const Matrix intrinsic = SampleGaussianMixture(components, n, rng);

  if (d_intrinsic >= d) return intrinsic;

  // Random oblique embedding R^d_intrinsic -> R^d plus small ambient
  // noise (measurement jitter off the manifold).
  std::vector<double> embedding(d * d_intrinsic);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_intrinsic));
  for (auto& a : embedding) a = scale * rng.Gaussian();
  const double ambient_noise = 0.15 * cluster_stddev;

  Matrix out(n, d);
  for (size_t i = 0; i < n; ++i) {
    const auto z = intrinsic.Row(i);
    auto row = out.MutableRow(i);
    for (size_t j = 0; j < d; ++j) {
      double v = 0.0;
      const double* a_row = embedding.data() + j * d_intrinsic;
      for (size_t t = 0; t < d_intrinsic; ++t) v += a_row[t] * z[t];
      row[j] = v + rng.Gaussian(0.0, ambient_noise);
    }
  }
  return out;
}

const std::vector<DatasetSpec>& BenchmarkDatasets() {
  // Scaled-down census of the paper's Table VI. d matches the paper;
  // n is scaled so the full bench suite finishes on one core.
  static const std::vector<DatasetSpec>* kSpecs = new std::vector<DatasetSpec>{
      // Type I (kernel density estimation).
      {"mnist", 20000, 60000, 784, 10, 0.04, 1},
      {"miniboone", 40000, 119596, 50, 6, 0.05, 1},
      {"home", 100000, 918991, 10, 8, 0.04, 1},
      {"susy", 400000, 4990000, 18, 10, 0.05, 1},
      // Type II (1-class SVM); n here is the support-vector-set scale.
      {"nsl-kdd", 8000, 67343, 41, 5, 0.03, 2},
      {"kdd99", 10000, 972780, 41, 5, 0.03, 2},
      {"covtype", 12000, 581012, 54, 7, 0.03, 2},
      // Type III (2-class SVM).
      {"ijcnn1", 5000, 49990, 22, 4, 0.03, 3},
      {"a9a", 6000, 32561, 123, 4, 0.04, 3},
      {"covtype-b", 20000, 581012, 54, 7, 0.03, 3},
  };
  return *kSpecs;
}

util::Result<DatasetSpec> FindDataset(const std::string& name) {
  for (const auto& spec : BenchmarkDatasets()) {
    if (spec.name == name) return spec;
  }
  return util::Status::NotFound("no benchmark dataset named '" + name + "'");
}

Matrix MakeUciLike(const DatasetSpec& spec) {
  // Seed derived from the dataset name so every spec is reproducible and
  // distinct.
  uint64_t seed = 0xcbf29ce484222325ULL;
  for (const char ch : spec.name) {
    seed = (seed ^ static_cast<uint64_t>(ch)) * 0x100000001b3ULL;
  }
  util::Rng rng(seed);
  Matrix m = SampleClustered(spec.n, spec.d, spec.clusters,
                             spec.cluster_stddev, rng);
  // The paper normalises data to [0,1]^d; mirror that here.
  MinMaxNormalize(&m, 0.0, 1.0);
  return m;
}

LabeledDataset MakeOneClassDataset(size_t n, size_t n_outliers, size_t d,
                                   util::Rng& rng) {
  Matrix inliers = SampleClustered(n, d, 3, 0.05, rng);
  Matrix outliers = SampleUniform(n_outliers, d, -0.5, 1.5, rng);

  LabeledDataset out;
  out.points = Matrix(0, d);
  for (size_t i = 0; i < inliers.rows(); ++i) {
    out.points.AppendRow(inliers.Row(i));
    out.labels.push_back(+1.0);
  }
  for (size_t i = 0; i < outliers.rows(); ++i) {
    out.points.AppendRow(outliers.Row(i));
    out.labels.push_back(-1.0);
  }
  MinMaxNormalize(&out.points, 0.0, 1.0);
  return out;
}

}  // namespace karl::data
