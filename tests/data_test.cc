// Unit tests for the data layer: Matrix, LIBSVM/CSV I/O, synthetic
// generators, normalisation, PCA.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "data/csv_io.h"
#include "data/libsvm_io.h"
#include "data/matrix.h"
#include "data/normalize.h"
#include "data/pca.h"
#include "data/synthetic.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace karl::data {
namespace {

// -------------------------------- Matrix --------------------------------

TEST(MatrixTest, DefaultEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(MatrixTest, ZeroInitialised) {
  Matrix m(3, 4);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(m(i, j), 0.0);
  }
}

TEST(MatrixTest, ElementWriteRead) {
  Matrix m(2, 2);
  m(0, 1) = 3.5;
  m(1, 0) = -1.25;
  EXPECT_DOUBLE_EQ(m(0, 1), 3.5);
  EXPECT_DOUBLE_EQ(m(1, 0), -1.25);
}

TEST(MatrixTest, RowViewIsContiguous) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  const auto row = m.Row(1);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  EXPECT_DOUBLE_EQ(row[2], 6.0);
}

TEST(MatrixTest, AppendRowSetsColsOnFirst) {
  Matrix m;
  const std::vector<double> r{1.0, 2.0};
  m.AppendRow(r);
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 2u);
  m.AppendRow(std::vector<double>{3.0, 4.0});
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, SelectRowsPreservesOrder) {
  Matrix m(4, 1, {10, 20, 30, 40});
  const std::vector<size_t> idx{3, 0, 2};
  const Matrix s = m.SelectRows(idx);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_DOUBLE_EQ(s(0, 0), 40.0);
  EXPECT_DOUBLE_EQ(s(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(s(2, 0), 30.0);
}

TEST(MatrixTest, TruncateColumns) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix t = m.TruncateColumns(2);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(1, 1), 5.0);
}

// ------------------------------- LIBSVM IO ------------------------------

TEST(LibsvmIoTest, ParsesBasicFile) {
  const std::string text = "+1 1:0.5 3:2.0\n-1 2:1.5\n";
  auto result = ParseLibsvm(text);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& ds = result.value();
  EXPECT_EQ(ds.points.rows(), 2u);
  EXPECT_EQ(ds.points.cols(), 3u);
  EXPECT_DOUBLE_EQ(ds.labels[0], 1.0);
  EXPECT_DOUBLE_EQ(ds.labels[1], -1.0);
  EXPECT_DOUBLE_EQ(ds.points(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(ds.points(0, 1), 0.0);  // Sparse zero.
  EXPECT_DOUBLE_EQ(ds.points(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(ds.points(1, 1), 1.5);
}

TEST(LibsvmIoTest, SkipsBlankAndCommentLines) {
  const std::string text = "# header comment\n\n1 1:1\n   \n2 1:2\n";
  auto result = ParseLibsvm(text);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().points.rows(), 2u);
}

TEST(LibsvmIoTest, FixedDimensionality) {
  auto result = ParseLibsvm("1 1:1\n", 5);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().points.cols(), 5u);
}

TEST(LibsvmIoTest, RejectsIndexBeyondFixedDim) {
  auto result = ParseLibsvm("1 7:1\n", 5);
  EXPECT_FALSE(result.ok());
}

TEST(LibsvmIoTest, RejectsMalformedFeature) {
  auto result = ParseLibsvm("1 abc\n");
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 1"), std::string::npos);
}

TEST(LibsvmIoTest, RejectsMissingLabel) {
  EXPECT_FALSE(ParseLibsvm(":5 1:1\n").ok());
}

TEST(LibsvmIoTest, RejectsZeroIndex) {
  EXPECT_FALSE(ParseLibsvm("1 0:1\n").ok());
}

// A label or feature value that strtod reads as nan or ±inf (1e999
// overflows) is refused with its line; one that underflows reads as 0.
TEST(LibsvmIoTest, RejectsNonFiniteValuesNamingTheLine) {
  for (const char* text : {"1 1:0.5\n1 2:nan\n", "1 1:0.5\n-1 1:inf\n",
                           "1 1:0.5\n1 3:-1e999\n", "1 1:0.5\nnan 1:1\n",
                           "1 1:0.5\ninf 1:1\n"}) {
    auto result = ParseLibsvm(text);
    ASSERT_FALSE(result.ok()) << text;
    EXPECT_NE(result.status().message().find("line 2: non-finite"),
              std::string::npos)
        << result.status().message();
  }
  auto tiny = ParseLibsvm("1 1:1e-999\n");
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny.value().points(0, 0), 0.0);
}

// Sparse text in, dense rows out: omitted features read as zeros.
TEST(LibsvmIoTest, RoundTrip) {
  auto result = ParseLibsvm("1 1:0.5 3:2\n-1 2:1.5\n", 3);
  ASSERT_TRUE(result.ok());
  const auto& back = result.value();
  const Matrix want(2, 3, {0.5, 0.0, 2.0, 0.0, 1.5, 0.0});
  const std::vector<double> want_labels = {1.0, -1.0};
  EXPECT_EQ(back.points.rows(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(back.labels[i], want_labels[i]);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(back.points(i, j), want(i, j));
    }
  }
}

TEST(LibsvmIoTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "karl_libsvm_test.txt")
          .string();
  {
    std::ofstream out(path);
    out << "3 1:1 2:-2\n";
  }
  auto result = ReadLibsvmFile(path, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().labels[0], 3.0);
  EXPECT_DOUBLE_EQ(result.value().points(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(result.value().points(0, 1), -2.0);
  std::filesystem::remove(path);
}

TEST(LibsvmIoTest, MissingFileIsIOError) {
  auto result = ReadLibsvmFile("/nonexistent/karl/file.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kIOError);
}

// -------------------------------- CSV IO --------------------------------

TEST(CsvIoTest, ParsesNumbers) {
  auto result = ParseCsv("1.5,2.5\n-3,4e2\n");
  ASSERT_TRUE(result.ok());
  const Matrix& m = result.value();
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 1), 400.0);
}

TEST(CsvIoTest, SkipsHeader) {
  auto result = ParseCsv("a,b\n1,2\n", 1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows(), 1u);
}

TEST(CsvIoTest, RejectsInconsistentWidth) {
  EXPECT_FALSE(ParseCsv("1,2\n3\n").ok());
}

TEST(CsvIoTest, RejectsGarbage) {
  EXPECT_FALSE(ParseCsv("1,x\n").ok());
}

// nan, ±inf and an overflowing 1e999 parse under strtod; the reader
// refuses each and names its line. Underflow to 0 is still a value.
TEST(CsvIoTest, RejectsNonFiniteValuesNamingTheLine) {
  for (const char* cell : {"nan", "NAN", "inf", "-inf", "infinity", "1e999",
                           "-1e999"}) {
    const std::string text = "x,y\n1,2\n3," + std::string(cell) + "\n";
    auto result = ParseCsv(text, 1);
    ASSERT_FALSE(result.ok()) << cell;
    EXPECT_NE(result.status().message().find("line 3: non-finite value '" +
                                             std::string(cell) + "'"),
              std::string::npos)
        << result.status().message();
  }
  auto tiny = ParseCsv("1e-999,2\n");
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny.value()(0, 0), 0.0);
}

TEST(CsvIoTest, RoundTrip) {
  Matrix m(2, 2, {1.25, -2.5, 3.0, 1e-7});
  auto result = ParseCsv(WriteCsv(m));
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(result.value()(i, j), m(i, j));
    }
  }
}

// ------------------------------- Synthetic ------------------------------

TEST(SyntheticTest, GaussianMixtureShape) {
  util::Rng rng(1);
  std::vector<MixtureComponent> comps(2);
  comps[0] = {{0.0, 0.0}, 0.1, 1.0, {}};
  comps[1] = {{10.0, 10.0}, 0.1, 1.0, {}};
  const Matrix m = SampleGaussianMixture(comps, 500, rng);
  EXPECT_EQ(m.rows(), 500u);
  EXPECT_EQ(m.cols(), 2u);
  // Every point is near one of the two far-apart centres.
  for (size_t i = 0; i < m.rows(); ++i) {
    const double near0 = std::hypot(m(i, 0), m(i, 1));
    const double near1 = std::hypot(m(i, 0) - 10.0, m(i, 1) - 10.0);
    EXPECT_LT(std::min(near0, near1), 2.0);
  }
}

TEST(SyntheticTest, UniformRange) {
  util::Rng rng(2);
  const Matrix m = SampleUniform(200, 3, -1.0, 1.0, rng);
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_GE(m(i, j), -1.0);
      EXPECT_LT(m(i, j), 1.0);
    }
  }
}

TEST(SyntheticTest, RegistryHasAllPaperDatasets) {
  for (const char* name :
       {"mnist", "miniboone", "home", "susy", "nsl-kdd", "kdd99", "covtype",
        "ijcnn1", "a9a", "covtype-b"}) {
    auto spec = FindDataset(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_GT(spec.value().n, 0u);
    EXPECT_GT(spec.value().d, 0u);
  }
}

TEST(SyntheticTest, UnknownDatasetIsNotFound) {
  auto spec = FindDataset("not-a-dataset");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), util::StatusCode::kNotFound);
}

TEST(SyntheticTest, DimensionalitiesMatchPaperTable6) {
  EXPECT_EQ(FindDataset("mnist").value().d, 784u);
  EXPECT_EQ(FindDataset("miniboone").value().d, 50u);
  EXPECT_EQ(FindDataset("home").value().d, 10u);
  EXPECT_EQ(FindDataset("susy").value().d, 18u);
  EXPECT_EQ(FindDataset("nsl-kdd").value().d, 41u);
  EXPECT_EQ(FindDataset("a9a").value().d, 123u);
  EXPECT_EQ(FindDataset("covtype-b").value().d, 54u);
}

TEST(SyntheticTest, MakeUciLikeIsDeterministic) {
  auto spec = FindDataset("home").value();
  spec.n = 500;  // Shrink for test speed.
  const Matrix a = MakeUciLike(spec);
  const Matrix b = MakeUciLike(spec);
  ASSERT_EQ(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); i += 37) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_DOUBLE_EQ(a(i, j), b(i, j));
    }
  }
}

TEST(SyntheticTest, MakeUciLikeNormalisedToUnitCube) {
  auto spec = FindDataset("home").value();
  spec.n = 1000;
  const Matrix m = MakeUciLike(spec);
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      EXPECT_GE(m(i, j), 0.0);
      EXPECT_LE(m(i, j), 1.0);
    }
  }
}

TEST(SyntheticTest, OneClassDatasetHasOutliers) {
  util::Rng rng(4);
  const LabeledDataset ds = MakeOneClassDataset(100, 20, 4, rng);
  EXPECT_EQ(ds.points.rows(), 120u);
  size_t outliers = 0;
  for (const double y : ds.labels) outliers += y < 0;
  EXPECT_EQ(outliers, 20u);
}

// ------------------------------- Normalize ------------------------------

TEST(NormalizeTest, ScalesToTargetRange) {
  Matrix m(3, 2, {0.0, 10.0, 5.0, 20.0, 10.0, 30.0});
  MinMaxNormalize(&m, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 1.0);
}

TEST(NormalizeTest, SymmetricRange) {
  Matrix m(2, 1, {0.0, 4.0});
  MinMaxNormalize(&m, -1.0, 1.0);
  EXPECT_DOUBLE_EQ(m(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 1.0);
}

TEST(NormalizeTest, ConstantColumnMapsToMidpoint) {
  Matrix m(3, 1, {7.0, 7.0, 7.0});
  MinMaxNormalize(&m, 0.0, 1.0);
  for (size_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(m(i, 0), 0.5);
}

TEST(NormalizeTest, ApplyToHeldOutQueries) {
  Matrix train(2, 1, {0.0, 10.0});
  const NormalizationParams params = FitMinMax(train, 0.0, 1.0);
  Matrix queries(1, 1, {5.0});
  ApplyNormalization(params, &queries);
  EXPECT_DOUBLE_EQ(queries(0, 0), 0.5);
}

// ---------------------------------- PCA ---------------------------------

TEST(PcaTest, JacobiDiagonalisesKnownMatrix) {
  // Symmetric 2x2 with eigenvalues 3 and 1 (eigvecs at 45°).
  std::vector<double> m{2.0, 1.0, 1.0, 2.0};
  std::vector<double> eigenvalues, eigenvectors;
  JacobiEigenSymmetric(m, 2, &eigenvalues, &eigenvectors);
  std::sort(eigenvalues.begin(), eigenvalues.end());
  EXPECT_NEAR(eigenvalues[0], 1.0, 1e-10);
  EXPECT_NEAR(eigenvalues[1], 3.0, 1e-10);
}

TEST(PcaTest, JacobiEigenvectorsOrthonormal) {
  util::Rng rng(5);
  const size_t d = 6;
  // Random symmetric matrix.
  std::vector<double> m(d * d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) {
      m[i * d + j] = m[j * d + i] = rng.Uniform(-1.0, 1.0);
    }
  }
  std::vector<double> eigenvalues, v;
  JacobiEigenSymmetric(m, d, &eigenvalues, &v);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < d; ++b) {
      double dot = 0.0;
      for (size_t k = 0; k < d; ++k) dot += v[k * d + a] * v[k * d + b];
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(PcaTest, RecoversDominantDirection) {
  // Points spread along (1,1)/√2 with tiny orthogonal noise.
  util::Rng rng(6);
  Matrix m(500, 2);
  for (size_t i = 0; i < 500; ++i) {
    const double t = rng.Gaussian(0.0, 3.0);
    const double noise = rng.Gaussian(0.0, 0.05);
    m(i, 0) = t + noise;
    m(i, 1) = t - noise;
  }
  auto model = PcaModel::Fit(m);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model.value().eigenvalues()[0],
            100.0 * model.value().eigenvalues()[1]);
  // Projection onto 1 component preserves nearly all the variance.
  auto projected = model.value().Project(m, 1);
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected.value().cols(), 1u);
}

TEST(PcaTest, ProjectionDimChecks) {
  Matrix m(10, 3);
  for (size_t i = 0; i < 10; ++i) m(i, 0) = static_cast<double>(i);
  auto model = PcaModel::Fit(m);
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model.value().Project(m, 4).ok());
  Matrix wrong(2, 2);
  EXPECT_FALSE(model.value().Project(wrong, 1).ok());
}

TEST(PcaTest, EmptyMatrixFails) {
  EXPECT_FALSE(PcaModel::Fit(Matrix()).ok());
}

TEST(PcaTest, EigenvaluesSortedDescending) {
  util::Rng rng(8);
  const Matrix m = SampleUniform(300, 5, 0.0, 1.0, rng);
  auto model = PcaModel::Fit(m);
  ASSERT_TRUE(model.ok());
  const auto& ev = model.value().eigenvalues();
  for (size_t i = 1; i < ev.size(); ++i) EXPECT_GE(ev[i - 1], ev[i]);
}

TEST(PcaTest, FullProjectionPreservesDistances) {
  // Projecting onto ALL components is an isometry (rotation): pairwise
  // distances are preserved.
  util::Rng rng(9);
  const Matrix m = SampleUniform(50, 4, -2.0, 2.0, rng);
  auto model = PcaModel::Fit(m);
  ASSERT_TRUE(model.ok());
  auto proj = model.value().Project(m, 4);
  ASSERT_TRUE(proj.ok());
  const Matrix& p = proj.value();
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = i + 1; j < 10; ++j) {
      EXPECT_NEAR(util::SquaredDistance(m.Row(i), m.Row(j)),
                  util::SquaredDistance(p.Row(i), p.Row(j)), 1e-8);
    }
  }
}

}  // namespace
}  // namespace karl::data
