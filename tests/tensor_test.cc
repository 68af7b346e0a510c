#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "tensor/serialize.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace musenet::tensor {
namespace {

// --- Shape ----------------------------------------------------------------

TEST(ShapeTest, ScalarShape) {
  Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.num_elements(), 1);
  EXPECT_EQ(s.ToString(), "[]");
}

TEST(ShapeTest, DimsAndElements) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(2), 4);
  EXPECT_EQ(s.num_elements(), 24);
  EXPECT_EQ(s.ToString(), "[2, 3, 4]");
}

TEST(ShapeTest, RowMajorStrides) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.Strides(), (std::vector<int64_t>{12, 4, 1}));
}

TEST(ShapeTest, FlatAndMultiIndexRoundTrip) {
  Shape s({3, 5, 7});
  for (int64_t flat = 0; flat < s.num_elements(); ++flat) {
    const std::vector<int64_t> multi = s.MultiIndex(flat);
    EXPECT_EQ(s.FlatIndex(multi), flat);
  }
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

struct BroadcastCase {
  std::vector<int64_t> a;
  std::vector<int64_t> b;
  bool compatible;
  std::vector<int64_t> result;  // Valid when compatible.
};

// Names each case by its shapes; gtest's default byte dump of the vectors
// would put heap addresses into the test names, which change every run.
void PrintTo(const BroadcastCase& c, std::ostream* os) {
  *os << Shape(c.a).ToString() << " with " << Shape(c.b).ToString();
}

class ShapeBroadcastTest : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(ShapeBroadcastTest, CompatibilityAndResult) {
  const BroadcastCase& c = GetParam();
  const Shape a(c.a);
  const Shape b(c.b);
  EXPECT_EQ(Shape::BroadcastCompatible(a, b), c.compatible);
  EXPECT_EQ(Shape::BroadcastCompatible(b, a), c.compatible);  // Symmetric.
  if (c.compatible) {
    EXPECT_EQ(Shape::BroadcastResult(a, b), Shape(c.result));
    EXPECT_EQ(Shape::BroadcastResult(b, a), Shape(c.result));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ShapeBroadcastTest,
    ::testing::Values(
        BroadcastCase{{2, 3}, {2, 3}, true, {2, 3}},
        BroadcastCase{{2, 3}, {3}, true, {2, 3}},
        BroadcastCase{{2, 1}, {1, 3}, true, {2, 3}},
        BroadcastCase{{4, 1, 5}, {3, 1}, true, {4, 3, 5}},
        BroadcastCase{{}, {2, 2}, true, {2, 2}},
        BroadcastCase{{8}, {1}, true, {8}},
        BroadcastCase{{2, 3}, {2, 4}, false, {}},
        BroadcastCase{{2, 3}, {4}, false, {}}));

// --- Tensor ----------------------------------------------------------------

TEST(TensorTest, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.rank(), 0);
  EXPECT_EQ(t.scalar(), 0.0f);
}

TEST(TensorTest, ZerosAndFull) {
  Tensor z = Tensor::Zeros(Shape({2, 2}));
  EXPECT_EQ(z.num_elements(), 4);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(z.flat(i), 0.0f);
  Tensor f = Tensor::Full(Shape({3}), 2.5f);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(f.flat(i), 2.5f);
}

TEST(TensorTest, FromVectorAndArange) {
  Tensor v = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(v.shape(), Shape({3}));
  EXPECT_EQ(v.flat(1), 2.0f);
  Tensor a = Tensor::Arange(4);
  EXPECT_EQ(a.flat(3), 3.0f);
}

TEST(TensorTest, MultiIndexAccess) {
  Tensor t(Shape({2, 3}));
  t.at({1, 2}) = 7.0f;
  EXPECT_EQ(t.flat(5), 7.0f);
  EXPECT_EQ(t.at({1, 2}), 7.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t = Tensor::Arange(6).Reshape(Shape({2, 3}));
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  Tensor back = t.Flatten();
  EXPECT_EQ(back.shape(), Shape({6}));
  EXPECT_EQ(back.flat(3), 3.0f);
}

TEST(TensorTest, AllClose) {
  Tensor a = Tensor::FromVector({1.0f, 2.0f});
  Tensor b = Tensor::FromVector({1.0f + 1e-7f, 2.0f});
  EXPECT_TRUE(a.AllClose(b));
  Tensor c = Tensor::FromVector({1.1f, 2.0f});
  EXPECT_FALSE(a.AllClose(c));
  Tensor d = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  EXPECT_FALSE(a.AllClose(d));  // Shape mismatch.
  Tensor n = Tensor::FromVector({std::nanf(""), 2.0f});
  EXPECT_FALSE(n.AllClose(n));  // NaN never close.
}

TEST(TensorTest, RandomUniformRange) {
  Rng rng(3);
  Tensor t = Tensor::RandomUniform(Shape({1000}), rng, -1.0f, 1.0f);
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    EXPECT_GE(t.flat(i), -1.0f);
    EXPECT_LT(t.flat(i), 1.0f);
  }
}

TEST(TensorTest, RandomNormalMoments) {
  Rng rng(3);
  Tensor t = Tensor::RandomNormal(Shape({20000}), rng, 1.0f, 0.5f);
  double sum = 0.0;
  for (int64_t i = 0; i < t.num_elements(); ++i) sum += t.flat(i);
  EXPECT_NEAR(sum / t.num_elements(), 1.0, 0.02);
}

TEST(TensorTest, ToStringTruncates) {
  Tensor t = Tensor::Arange(100);
  const std::string s = t.ToString(4);
  EXPECT_NE(s.find("..."), std::string::npos);
  EXPECT_NE(s.find("Tensor[100]"), std::string::npos);
}

// --- Serialization ----------------------------------------------------------------

TEST(SerializeTest, RoundTrip) {
  std::map<std::string, Tensor> tensors;
  tensors.emplace("weights", Tensor::Arange(6).Reshape(Shape({2, 3})));
  tensors.emplace("bias", Tensor::FromVector({0.5f, -1.5f}));
  const std::string path = ::testing::TempDir() + "/tensors_test.bin";
  ASSERT_TRUE(SaveTensors(path, tensors).ok());

  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_TRUE(loaded->at("weights").AllClose(tensors.at("weights")));
  EXPECT_TRUE(loaded->at("bias").AllClose(tensors.at("bias")));
}

TEST(SerializeTest, MissingFileFails) {
  auto loaded = LoadTensors("/nonexistent_dir_zz/none.bin");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SerializeTest, CorruptMagicFails) {
  const std::string path = ::testing::TempDir() + "/corrupt_test.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTMAGIC0000";
  }
  auto loaded = LoadTensors(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(SerializeTest, EmptyMapRoundTrips) {
  const std::string path = ::testing::TempDir() + "/empty_test.bin";
  ASSERT_TRUE(SaveTensors(path, {}).ok());
  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

}  // namespace
}  // namespace musenet::tensor
