#include <gtest/gtest.h>

#include <cmath>

#include "tensor/conv2d.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace musenet::tensor {
namespace {

Tensor T1(std::vector<float> v) { return Tensor::FromVector(std::move(v)); }

// --- Elementwise binary --------------------------------------------------------

TEST(BinaryOpsTest, SameShape) {
  Tensor a = T1({1, 2, 3});
  Tensor b = T1({10, 20, 30});
  EXPECT_TRUE(Add(a, b).AllClose(T1({11, 22, 33})));
  EXPECT_TRUE(Sub(a, b).AllClose(T1({-9, -18, -27})));
  EXPECT_TRUE(Mul(a, b).AllClose(T1({10, 40, 90})));
  EXPECT_TRUE(Div(b, a).AllClose(T1({10, 10, 10})));
}

TEST(BinaryOpsTest, ScalarBroadcast) {
  Tensor a = T1({1, 2, 3});
  Tensor s = Tensor::Scalar(10.0f);
  EXPECT_TRUE(Add(a, s).AllClose(T1({11, 12, 13})));
  EXPECT_TRUE(Add(s, a).AllClose(T1({11, 12, 13})));
  EXPECT_TRUE(AddScalar(a, -1.0f).AllClose(T1({0, 1, 2})));
  EXPECT_TRUE(MulScalar(a, 2.0f).AllClose(T1({2, 4, 6})));
}

TEST(BinaryOpsTest, RowBroadcast) {
  // [2,3] + [3] broadcasts the row.
  Tensor a = Tensor::Arange(6).Reshape(Shape({2, 3}));
  Tensor row = T1({10, 20, 30});
  Tensor sum = Add(a, row);
  EXPECT_EQ(sum.shape(), Shape({2, 3}));
  EXPECT_EQ(sum.at({0, 0}), 10.0f);
  EXPECT_EQ(sum.at({1, 2}), 35.0f);
}

TEST(BinaryOpsTest, ColumnTimesRowOuterProduct) {
  Tensor col = T1({1, 2}).Reshape(Shape({2, 1}));
  Tensor row = T1({3, 4, 5}).Reshape(Shape({1, 3}));
  Tensor prod = Mul(col, row);
  EXPECT_EQ(prod.shape(), Shape({2, 3}));
  EXPECT_EQ(prod.at({1, 2}), 10.0f);
  EXPECT_EQ(prod.at({0, 1}), 4.0f);
}

TEST(BinaryOpsTest, ChannelBiasBroadcast4d) {
  // [B,C,H,W] + [1,C,1,1] — the conv-bias pattern.
  Tensor x = Tensor::Ones(Shape({2, 3, 2, 2}));
  Tensor bias(Shape({1, 3, 1, 1}));
  bias.at({0, 0, 0, 0}) = 10;
  bias.at({0, 1, 0, 0}) = 20;
  bias.at({0, 2, 0, 0}) = 30;
  Tensor y = Add(x, bias);
  EXPECT_EQ(y.at({0, 0, 1, 1}), 11.0f);
  EXPECT_EQ(y.at({1, 2, 0, 1}), 31.0f);
}

// --- Unary -------------------------------------------------------------------

TEST(UnaryOpsTest, MatchStdFunctions) {
  Tensor a = T1({-2.0f, -0.5f, 0.0f, 0.5f, 2.0f});
  Tensor exp = Exp(a);
  Tensor tanh = Tanh(a);
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(exp.flat(i), std::exp(a.flat(i)));
    EXPECT_FLOAT_EQ(tanh.flat(i), std::tanh(a.flat(i)));
  }
  EXPECT_TRUE(Neg(a).AllClose(T1({2.0f, 0.5f, 0.0f, -0.5f, -2.0f})));
  EXPECT_TRUE(LeakyRelu(a, 0.1f).AllClose(T1({-0.2f, -0.05f, 0, 0.5f, 2.0f})));
  EXPECT_TRUE(Square(a).AllClose(T1({4.0f, 0.25f, 0, 0.25f, 4.0f})));
}

TEST(UnaryOpsTest, LogAndSqrt) {
  Tensor a = T1({1.0f, 4.0f, 9.0f});
  EXPECT_TRUE(Sqrt(a).AllClose(T1({1, 2, 3})));
}

TEST(UnaryOpsTest, SigmoidStableInTails) {
  Tensor a = T1({-100.0f, 0.0f, 100.0f});
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.flat(0), 0.0f, 1e-6);
  EXPECT_FLOAT_EQ(s.flat(1), 0.5f);
  EXPECT_NEAR(s.flat(2), 1.0f, 1e-6);
}

TEST(UnaryOpsTest, Clamp) {
  Tensor a = T1({-5, -1, 0, 1, 5});
  EXPECT_TRUE(Clamp(a, -1.0f, 1.0f).AllClose(T1({-1, -1, 0, 1, 1})));
}

// --- Reductions -----------------------------------------------------------------

TEST(ReductionTest, SumAllAndMeanAll) {
  Tensor a = Tensor::Arange(5);  // 0..4
  EXPECT_FLOAT_EQ(SumAll(a).scalar(), 10.0f);
  EXPECT_FLOAT_EQ(MeanAll(a).scalar(), 2.0f);
}

TEST(ReductionTest, MinMaxValues) {
  Tensor a = T1({3, -7, 2});
  EXPECT_FLOAT_EQ(MaxValue(a), 3.0f);
  EXPECT_FLOAT_EQ(MinValue(a), -7.0f);
}

TEST(ReductionTest, SumAxisMiddle) {
  Tensor a = Tensor::Arange(24).Reshape(Shape({2, 3, 4}));
  Tensor s = Sum(a, 1);
  EXPECT_EQ(s.shape(), Shape({2, 4}));
  // Sum over axis 1 at (0, 0): 0 + 4 + 8 = 12.
  EXPECT_FLOAT_EQ(s.at({0, 0}), 12.0f);
  EXPECT_FLOAT_EQ(s.at({1, 3}), 15.0f + 19.0f + 23.0f);
}

TEST(ReductionTest, SumAxisKeepdims) {
  Tensor a = Tensor::Arange(6).Reshape(Shape({2, 3}));
  Tensor s = Sum(a, 0, /*keepdims=*/true);
  EXPECT_EQ(s.shape(), Shape({1, 3}));
  EXPECT_FLOAT_EQ(s.at({0, 1}), 1.0f + 4.0f);
}

TEST(ReductionTest, MeanAxis) {
  Tensor a = Tensor::Arange(6).Reshape(Shape({2, 3}));
  Tensor m = Mean(a, 1);
  EXPECT_EQ(m.shape(), Shape({2}));
  EXPECT_FLOAT_EQ(m.flat(0), 1.0f);
  EXPECT_FLOAT_EQ(m.flat(1), 4.0f);
}

TEST(ReductionTest, ReduceToShapeSumsBroadcastAxes) {
  Tensor big = Tensor::Ones(Shape({2, 3, 4}));
  Tensor reduced = ReduceToShape(big, Shape({3, 4}));
  EXPECT_EQ(reduced.shape(), Shape({3, 4}));
  EXPECT_FLOAT_EQ(reduced.flat(0), 2.0f);  // Summed the leading axis of 2.

  Tensor keep = ReduceToShape(big, Shape({2, 1, 4}));
  EXPECT_EQ(keep.shape(), Shape({2, 1, 4}));
  EXPECT_FLOAT_EQ(keep.flat(0), 3.0f);

  // Identity when shapes match.
  EXPECT_TRUE(ReduceToShape(big, big.shape()).AllClose(big));
}

// --- Linear algebra ----------------------------------------------------------------

TEST(MatMulTest, HandComputed2x2) {
  Tensor a(Shape({2, 2}), {1, 2, 3, 4});
  Tensor b(Shape({2, 2}), {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_TRUE(c.AllClose(Tensor(Shape({2, 2}), {19, 22, 43, 50})));
}

TEST(MatMulTest, RectangularShapes) {
  Tensor a = Tensor::Ones(Shape({3, 4}));
  Tensor b = Tensor::Ones(Shape({4, 5}));
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({3, 5}));
  EXPECT_FLOAT_EQ(c.flat(0), 4.0f);
}

TEST(MatMulTest, IdentityIsNoOp) {
  Rng rng(1);
  Tensor a = Tensor::RandomNormal(Shape({4, 4}), rng);
  Tensor eye(Shape({4, 4}));
  for (int64_t i = 0; i < 4; ++i) eye.at({i, i}) = 1.0f;
  EXPECT_TRUE(MatMul(a, eye).AllClose(a));
  EXPECT_TRUE(MatMul(eye, a).AllClose(a));
}

TEST(MatMulTest, BatchedMatchesPerBatch) {
  Rng rng(2);
  Tensor a = Tensor::RandomNormal(Shape({3, 2, 4}), rng);
  Tensor b = Tensor::RandomNormal(Shape({3, 4, 5}), rng);
  Tensor c = MatMulBatched(a, b);
  EXPECT_EQ(c.shape(), Shape({3, 2, 5}));
  for (int64_t batch = 0; batch < 3; ++batch) {
    Tensor ab = Slice(a, 0, batch, 1).Reshape(Shape({2, 4}));
    Tensor bb = Slice(b, 0, batch, 1).Reshape(Shape({4, 5}));
    Tensor cb = Slice(c, 0, batch, 1).Reshape(Shape({2, 5}));
    EXPECT_TRUE(cb.AllClose(MatMul(ab, bb)));
  }
}

TEST(TransposeTest, TransposeLast2) {
  Tensor a = Tensor::Arange(24).Reshape(Shape({2, 3, 4}));
  Tensor t = TransposeLast2(a);
  EXPECT_EQ(t.shape(), Shape({2, 4, 3}));
  EXPECT_FLOAT_EQ(t.at({1, 3, 2}), a.at({1, 2, 3}));
}

TEST(SoftmaxTest, RowsSumToOneAndOrderPreserved) {
  Tensor a(Shape({2, 3}), {1, 2, 3, -1, 0, 1});
  Tensor s = SoftmaxLastAxis(a);
  for (int64_t r = 0; r < 2; ++r) {
    float total = 0.0f;
    for (int64_t c = 0; c < 3; ++c) total += s.at({r, c});
    EXPECT_NEAR(total, 1.0f, 1e-5);
    EXPECT_LT(s.at({r, 0}), s.at({r, 1}));
    EXPECT_LT(s.at({r, 1}), s.at({r, 2}));
  }
}

TEST(SoftmaxTest, StableWithLargeLogits) {
  Tensor a(Shape({1, 2}), {1000.0f, 1001.0f});
  Tensor s = SoftmaxLastAxis(a);
  EXPECT_FALSE(std::isnan(s.flat(0)));
  EXPECT_NEAR(s.flat(0) + s.flat(1), 1.0f, 1e-5);
}

// --- Structural ----------------------------------------------------------------

TEST(ConcatTest, Axis0AndAxis1) {
  Tensor a = Tensor::Ones(Shape({1, 2}));
  Tensor b = Tensor::Full(Shape({1, 2}), 2.0f);
  Tensor c0 = Concat({a, b}, 0);
  EXPECT_EQ(c0.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(c0.at({1, 0}), 2.0f);
  Tensor c1 = Concat({a, b}, 1);
  EXPECT_EQ(c1.shape(), Shape({1, 4}));
  EXPECT_FLOAT_EQ(c1.at({0, 3}), 2.0f);
}

TEST(ConcatSliceTest, RoundTrip) {
  Rng rng(5);
  Tensor a = Tensor::RandomNormal(Shape({2, 3, 4}), rng);
  Tensor b = Tensor::RandomNormal(Shape({2, 5, 4}), rng);
  Tensor cat = Concat({a, b}, 1);
  EXPECT_TRUE(Slice(cat, 1, 0, 3).AllClose(a));
  EXPECT_TRUE(Slice(cat, 1, 3, 5).AllClose(b));
}

TEST(SliceTest, MiddleOfAxis) {
  Tensor a = Tensor::Arange(10);
  Tensor s = Slice(a, 0, 3, 4);
  EXPECT_TRUE(s.AllClose(T1({3, 4, 5, 6})));
}

TEST(BroadcastToTest, Expands) {
  Tensor a = T1({1, 2, 3}).Reshape(Shape({1, 3}));
  Tensor big = BroadcastTo(a, Shape({2, 3}));
  EXPECT_FLOAT_EQ(big.at({1, 2}), 3.0f);
}

// --- Conv2d kernels ----------------------------------------------------------------

TEST(Conv2dTest, OutputDims) {
  EXPECT_EQ(Conv2dOutputDim(5, 3, {.stride = 1, .pad = 1}), 5);  // same
  EXPECT_EQ(Conv2dOutputDim(5, 3, {.stride = 1, .pad = 0}), 3);  // valid
  EXPECT_EQ(Conv2dOutputDim(5, 3, {.stride = 2, .pad = 1}), 3);
  EXPECT_EQ(Conv2dOutputDim(4, 1, {.stride = 1, .pad = 0}), 4);
}

TEST(Conv2dTest, OneByOneKernelIsChannelMix) {
  // 1×1 conv with weight [[2]] doubles the single channel.
  Tensor input = Tensor::Arange(4).Reshape(Shape({1, 1, 2, 2}));
  Tensor weight = Tensor::Full(Shape({1, 1, 1, 1}), 2.0f);
  Tensor out = Conv2dForward(input, weight, {.stride = 1, .pad = 0});
  EXPECT_TRUE(out.AllClose(MulScalar(input, 2.0f)));
}

TEST(Conv2dTest, HandComputed3x3) {
  // 3×3 all-ones kernel on a 3×3 all-ones image, valid padding → 9.
  Tensor input = Tensor::Ones(Shape({1, 1, 3, 3}));
  Tensor weight = Tensor::Ones(Shape({1, 1, 3, 3}));
  Tensor out = Conv2dForward(input, weight, {.stride = 1, .pad = 0});
  EXPECT_EQ(out.shape(), Shape({1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out.scalar(), 9.0f);

  // Same padding: corners see only 4 ones.
  Tensor same = Conv2dForward(input, weight, {.stride = 1, .pad = 1});
  EXPECT_EQ(same.shape(), Shape({1, 1, 3, 3}));
  EXPECT_FLOAT_EQ(same.at({0, 0, 0, 0}), 4.0f);
  EXPECT_FLOAT_EQ(same.at({0, 0, 1, 1}), 9.0f);
  EXPECT_FLOAT_EQ(same.at({0, 0, 0, 1}), 6.0f);
}

TEST(Conv2dTest, MultiChannelSumsOverInputChannels) {
  Tensor input = Tensor::Ones(Shape({1, 3, 2, 2}));
  Tensor weight = Tensor::Ones(Shape({2, 3, 1, 1}));
  Tensor out = Conv2dForward(input, weight, {.stride = 1, .pad = 0});
  EXPECT_EQ(out.shape(), Shape({1, 2, 2, 2}));
  EXPECT_FLOAT_EQ(out.flat(0), 3.0f);
}

/// Naive reference convolution for property checks.
Tensor NaiveConv(const Tensor& input, const Tensor& weight,
                 const Conv2dSpec& spec) {
  const int64_t batch = input.dim(0), cin = input.dim(1);
  const int64_t h = input.dim(2), w = input.dim(3);
  const int64_t cout = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  const int64_t oh = Conv2dOutputDim(h, kh, spec);
  const int64_t ow = Conv2dOutputDim(w, kw, spec);
  Tensor out(Shape({batch, cout, oh, ow}));
  for (int64_t b = 0; b < batch; ++b)
    for (int64_t co = 0; co < cout; ++co)
      for (int64_t oy = 0; oy < oh; ++oy)
        for (int64_t ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (int64_t ci = 0; ci < cin; ++ci)
            for (int64_t ky = 0; ky < kh; ++ky)
              for (int64_t kx = 0; kx < kw; ++kx) {
                const int64_t iy = oy * spec.stride + ky - spec.pad;
                const int64_t ix = ox * spec.stride + kx - spec.pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += static_cast<double>(input.at({b, ci, iy, ix})) *
                       weight.at({co, ci, ky, kx});
              }
          out.at({b, co, oy, ox}) = static_cast<float>(acc);
        }
  return out;
}

struct ConvCase {
  int64_t kernel;
  int64_t stride;
  int64_t pad;
};

class Conv2dPropertyTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conv2dPropertyTest, MatchesNaiveReference) {
  const ConvCase& c = GetParam();
  Rng rng(31);
  Tensor input = Tensor::RandomNormal(Shape({2, 3, 6, 7}), rng);
  Tensor weight =
      Tensor::RandomNormal(Shape({4, 3, c.kernel, c.kernel}), rng);
  const Conv2dSpec spec{.stride = c.stride, .pad = c.pad};
  EXPECT_TRUE(Conv2dForward(input, weight, spec)
                  .AllClose(NaiveConv(input, weight, spec), 1e-4f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Specs, Conv2dPropertyTest,
    ::testing::Values(ConvCase{1, 1, 0}, ConvCase{3, 1, 1}, ConvCase{3, 1, 0},
                      ConvCase{3, 2, 1}, ConvCase{5, 1, 2}, ConvCase{2, 2, 0}));

TEST(Conv2dBackwardTest, InputGradMatchesFiniteDifference) {
  Rng rng(11);
  Tensor input = Tensor::RandomNormal(Shape({1, 2, 4, 4}), rng);
  Tensor weight = Tensor::RandomNormal(Shape({2, 2, 3, 3}), rng);
  const Conv2dSpec spec{.stride = 1, .pad = 1};

  // Loss = sum(conv(input, weight)); dLoss/dinput via all-ones grad_out.
  Tensor out = Conv2dForward(input, weight, spec);
  Tensor grad_out = Tensor::Ones(out.shape());
  Tensor grad_in = Conv2dBackwardInput(grad_out, weight, input.shape(), spec);

  const double eps = 1e-2;
  for (int64_t i = 0; i < input.num_elements(); i += 7) {
    const float orig = input.flat(i);
    input.flat(i) = orig + static_cast<float>(eps);
    const double up = SumAll(Conv2dForward(input, weight, spec)).scalar();
    input.flat(i) = orig - static_cast<float>(eps);
    const double down = SumAll(Conv2dForward(input, weight, spec)).scalar();
    input.flat(i) = orig;
    EXPECT_NEAR(grad_in.flat(i), (up - down) / (2 * eps), 5e-2);
  }
}

TEST(Conv2dBackwardTest, WeightGradMatchesFiniteDifference) {
  Rng rng(13);
  Tensor input = Tensor::RandomNormal(Shape({2, 2, 4, 4}), rng);
  Tensor weight = Tensor::RandomNormal(Shape({3, 2, 3, 3}), rng);
  const Conv2dSpec spec{.stride = 1, .pad = 1};

  Tensor out = Conv2dForward(input, weight, spec);
  Tensor grad_out = Tensor::Ones(out.shape());
  Tensor grad_w = Conv2dBackwardWeight(grad_out, input, weight.shape(), spec);

  const double eps = 1e-2;
  for (int64_t i = 0; i < weight.num_elements(); i += 5) {
    const float orig = weight.flat(i);
    weight.flat(i) = orig + static_cast<float>(eps);
    const double up = SumAll(Conv2dForward(input, weight, spec)).scalar();
    weight.flat(i) = orig - static_cast<float>(eps);
    const double down = SumAll(Conv2dForward(input, weight, spec)).scalar();
    weight.flat(i) = orig;
    EXPECT_NEAR(grad_w.flat(i), (up - down) / (2 * eps), 5e-2);
  }
}

}  // namespace
}  // namespace musenet::tensor
