#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "grad_check.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace musenet::autograd {
namespace {

namespace ts = musenet::tensor;

ts::Tensor RandomInput(ts::Shape shape, uint64_t seed, float lo = -1.5f,
                       float hi = 1.5f) {
  Rng rng(seed);
  return ts::Tensor::RandomUniform(std::move(shape), rng, lo, hi);
}

// --- Core mechanics ------------------------------------------------------------

TEST(VariableTest, LeafProperties) {
  Variable v(ts::Tensor::Scalar(3.0f), /*requires_grad=*/true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_FLOAT_EQ(v.value().scalar(), 3.0f);
}

TEST(VariableTest, SimpleChainRule) {
  // y = (2x)² → dy/dx = 8x = 24 at x = 3.
  Variable x(ts::Tensor::Scalar(3.0f), true);
  Variable y = Square(MulScalar(x, 2.0f));
  Backward(y);
  EXPECT_FLOAT_EQ(y.value().scalar(), 36.0f);
  EXPECT_FLOAT_EQ(x.grad().scalar(), 24.0f);
}

TEST(VariableTest, GradientAccumulatesOverFanOut) {
  // y = x + x² → dy/dx = 1 + 2x = 5 at x = 2; x feeds two consumers.
  Variable x(ts::Tensor::Scalar(2.0f), true);
  Variable y = Add(x, Square(x));
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad().scalar(), 5.0f);
}

TEST(VariableTest, DiamondGraph) {
  // a = x², b = 2x, y = a·b = 2x³ → dy/dx = 6x² = 24 at x = 2.
  Variable x(ts::Tensor::Scalar(2.0f), true);
  Variable a = Square(x);
  Variable b = MulScalar(x, 2.0f);
  Variable y = Mul(a, b);
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad().scalar(), 24.0f);
}

TEST(VariableTest, ZeroGradResets) {
  Variable x(ts::Tensor::Scalar(1.0f), true);
  Variable y = Square(x);
  Backward(y);
  EXPECT_TRUE(x.has_grad());
  x.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

TEST(VariableTest, DetachBlocksGradient) {
  Variable x(ts::Tensor::Scalar(2.0f), true);
  Variable y = Square(Detach(x));
  Backward(y);
  EXPECT_FALSE(x.has_grad());
}

TEST(VariableTest, ConstantsReceiveNoGradient) {
  Variable x(ts::Tensor::Scalar(2.0f), true);
  Variable c = Constant(ts::Tensor::Scalar(5.0f));
  Variable y = Mul(x, c);
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad().scalar(), 5.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST(VariableTest, BackwardWithSeedScalesGradient) {
  Variable x(ts::Tensor::FromVector({1.0f, 2.0f}), true);
  Variable y = Square(x);
  BackwardWithSeed(y, ts::Tensor::FromVector({10.0f, 100.0f}));
  EXPECT_FLOAT_EQ(x.grad().flat(0), 2.0f * 10.0f);
  EXPECT_FLOAT_EQ(x.grad().flat(1), 4.0f * 100.0f);
}

TEST(VariableTest, SecondBackwardAccumulates) {
  Variable x(ts::Tensor::Scalar(3.0f), true);
  Variable y1 = Square(x);
  Backward(y1);
  Variable y2 = MulScalar(x, 2.0f);
  Backward(y2);
  // 2x + 2 = 8.
  EXPECT_FLOAT_EQ(x.grad().scalar(), 8.0f);
}

// --- Parameterized gradient checks over the unary op set ------------------------

struct UnaryOpCase {
  const char* name;
  Variable (*fn)(const Variable&);
  float lo;  ///< Input sampling range keeps the op well-conditioned.
  float hi;
};

// gtest's default byte dump would put the case's pointers into the test
// name, which changes every run.
void PrintTo(const UnaryOpCase& c, std::ostream* os) { *os << c.name; }

class UnaryGradCheckTest : public ::testing::TestWithParam<UnaryOpCase> {};

TEST_P(UnaryGradCheckTest, MatchesFiniteDifference) {
  const UnaryOpCase& c = GetParam();
  auto fn = [&c](const std::vector<Variable>& inputs) {
    return SumAll(c.fn(inputs[0]));
  };
  GradCheckResult result =
      CheckGradients(fn, {RandomInput(ts::Shape({3, 4}), 17, c.lo, c.hi)});
  EXPECT_TRUE(result.passed) << c.name << ": " << result.detail;
}

Variable OpExp(const Variable& v) { return Exp(v); }
Variable OpSqrt(const Variable& v) { return Sqrt(v); }
Variable OpTanh(const Variable& v) { return Tanh(v); }
Variable OpSigmoid(const Variable& v) { return Sigmoid(v); }
Variable OpSquare(const Variable& v) { return Square(v); }
Variable OpSoftmax(const Variable& v) { return SoftmaxLastAxis(v); }
Variable OpLeaky(const Variable& v) { return LeakyRelu(v, 0.1f); }

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradCheckTest,
    ::testing::Values(UnaryOpCase{"exp", OpExp, -1.5f, 1.5f},
                      UnaryOpCase{"sqrt", OpSqrt, 0.5f, 3.0f},
                      UnaryOpCase{"tanh", OpTanh, -1.5f, 1.5f},
                      UnaryOpCase{"sigmoid", OpSigmoid, -1.5f, 1.5f},
                      UnaryOpCase{"square", OpSquare, -1.5f, 1.5f},
                      UnaryOpCase{"softmax", OpSoftmax, -1.5f, 1.5f},
                      UnaryOpCase{"leaky_relu", OpLeaky, 0.3f, 2.0f}),
    [](const ::testing::TestParamInfo<UnaryOpCase>& info) {
      return info.param.name;
    });

// --- Binary / structural gradient checks -----------------------------------------

TEST(GradCheckTest, AddSubMulDivWithBroadcast) {
  auto fn = [](const std::vector<Variable>& in) {
    // Mixed expression with a broadcast [3] operand over [2,3].
    Variable lhs = Mul(in[0], in[1]);
    Variable rhs = Div(in[0], AddScalar(Square(in[1]), 1.0f));
    return SumAll(Add(lhs, Sub(rhs, in[0])));
  };
  GradCheckResult result = CheckGradients(
      fn, {RandomInput(ts::Shape({2, 3}), 5), RandomInput(ts::Shape({3}), 6)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, MatMul) {
  auto fn = [](const std::vector<Variable>& in) {
    return SumAll(Square(MatMul(in[0], in[1])));
  };
  GradCheckResult result =
      CheckGradients(fn, {RandomInput(ts::Shape({2, 3}), 7),
                          RandomInput(ts::Shape({3, 4}), 8)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, MatMulBatched) {
  auto fn = [](const std::vector<Variable>& in) {
    return SumAll(Square(MatMulBatched(in[0], TransposeLast2(in[1]))));
  };
  GradCheckResult result =
      CheckGradients(fn, {RandomInput(ts::Shape({2, 2, 3}), 9),
                          RandomInput(ts::Shape({2, 4, 3}), 10)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, Conv2dBothInputs) {
  const ts::Conv2dSpec spec{.stride = 1, .pad = 1};
  auto fn = [spec](const std::vector<Variable>& in) {
    return SumAll(Square(Conv2d(in[0], in[1], spec)));
  };
  GradCheckResult result =
      CheckGradients(fn, {RandomInput(ts::Shape({1, 2, 3, 3}), 11),
                          RandomInput(ts::Shape({2, 2, 3, 3}), 12)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, ConcatAndSlice) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable cat = Concat({in[0], in[1]}, 1);
    return SumAll(Square(Slice(cat, 1, 1, 3)));
  };
  GradCheckResult result =
      CheckGradients(fn, {RandomInput(ts::Shape({2, 2}), 13),
                          RandomInput(ts::Shape({2, 3}), 14)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, ReshapeAndReductions) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable flat = Reshape(in[0], ts::Shape({6}));
    Variable m = Mean(Square(in[0]), 1, /*keepdims=*/true);
    return Add(SumAll(Square(flat)), MeanAll(m));
  };
  GradCheckResult result =
      CheckGradients(fn, {RandomInput(ts::Shape({2, 3}), 15)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, SumAxisKeepAndDrop) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable s0 = Sum(in[0], 0, /*keepdims=*/false);
    Variable s1 = Sum(in[0], 1, /*keepdims=*/true);
    return Add(SumAll(Square(s0)), SumAll(Square(s1)));
  };
  GradCheckResult result =
      CheckGradients(fn, {RandomInput(ts::Shape({3, 4}), 16)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, Flatten2d) {
  auto fn = [](const std::vector<Variable>& in) {
    return SumAll(Square(Flatten2d(in[0])));
  };
  GradCheckResult result =
      CheckGradients(fn, {RandomInput(ts::Shape({2, 3, 2}), 18)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, OperatorOverloads) {
  auto fn = [](const std::vector<Variable>& in) {
    Variable y = (in[0] + in[1]) * in[0] - in[1] / AddScalar(Square(in[0]), 1.0f);
    return SumAll(y);
  };
  GradCheckResult result = CheckGradients(
      fn, {RandomInput(ts::Shape({4}), 19), RandomInput(ts::Shape({4}), 20)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(GradCheckTest, LeakyReluSubgradientAwayFromKink) {
  // Keep inputs away from 0 where LeakyReLU is non-differentiable; each
  // side checks its own slope.
  auto fn = [](const std::vector<Variable>& in) {
    return SumAll(LeakyRelu(in[0], 0.1f));
  };
  GradCheckResult result =
      CheckGradients(fn, {RandomInput(ts::Shape({8}), 21, 0.5f, 2.0f)});
  EXPECT_TRUE(result.passed) << result.detail;
  GradCheckResult negative =
      CheckGradients(fn, {RandomInput(ts::Shape({8}), 22, -2.0f, -0.5f)});
  EXPECT_TRUE(negative.passed) << negative.detail;
}

TEST(GradCheckTest, ClampStraightThrough) {
  auto fn = [](const std::vector<Variable>& in) {
    return SumAll(Square(Clamp(in[0], -10.0f, 10.0f)));
  };
  // Entirely inside the clamp range → gradient is the identity chain.
  GradCheckResult result =
      CheckGradients(fn, {RandomInput(ts::Shape({6}), 23)});
  EXPECT_TRUE(result.passed) << result.detail;
}

TEST(AutogradPruningTest, ConstantBranchHasNoBackward) {
  // An op on constants produces a node without requires_grad.
  Variable c1 = Constant(ts::Tensor::Scalar(1.0f));
  Variable c2 = Constant(ts::Tensor::Scalar(2.0f));
  Variable sum = Add(c1, c2);
  EXPECT_FALSE(sum.requires_grad());
  EXPECT_EQ(sum.node()->backward, nullptr);
}

// --- Fuzz: random op-graph compositions ------------------------------------------

/// Applies a randomly chosen unary op. Only smooth ops: finite differences
/// are invalid near the kinks of relu-family ops, which deep compositions
/// hit with non-negligible probability.
Variable RandomUnary(Rng& rng, const Variable& v) {
  switch (rng.UniformInt(5)) {
    case 0:
      return Tanh(v);
    case 1:
      return Sigmoid(v);
    case 2:
      return Sqrt(AddScalar(Square(v), 1.0f));
    case 3:
      return Square(v);
    default:
      return Exp(MulScalar(v, 0.3f));  // Keep magnitudes tame.
  }
}

/// Applies a randomly chosen binary combiner.
Variable RandomBinary(Rng& rng, const Variable& a, const Variable& b) {
  switch (rng.UniformInt(3)) {
    case 0:
      return Add(a, b);
    case 1:
      return Sub(a, b);
    default:
      return Mul(a, b);
  }
}

// Every composition of verified ops must itself be correctly differentiated.
class AutogradFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AutogradFuzzTest, RandomCompositionGradientsMatchFiniteDifference) {
  const uint64_t seed = GetParam();
  auto fn = [seed](const std::vector<Variable>& inputs) {
    Rng graph_rng(seed);  // Same graph every invocation (pure function).
    std::vector<Variable> frontier = inputs;
    for (int depth = 0; depth < 6; ++depth) {
      const size_t i = graph_rng.UniformInt(frontier.size());
      const size_t j = graph_rng.UniformInt(frontier.size());
      Variable combined = RandomBinary(graph_rng, frontier[i], frontier[j]);
      frontier.push_back(RandomUnary(graph_rng, combined));
    }
    Variable total = frontier[0];
    for (size_t k = 1; k < frontier.size(); ++k) {
      total = Add(total, MeanAll(frontier[k]));
    }
    return MeanAll(total);
  };
  Rng data_rng(seed ^ 0xF00DULL);
  std::vector<ts::Tensor> inputs;
  inputs.push_back(
      ts::Tensor::RandomUniform(ts::Shape({2, 3}), data_rng, -1.0f, 1.0f));
  inputs.push_back(
      ts::Tensor::RandomUniform(ts::Shape({2, 3}), data_rng, -1.0f, 1.0f));
  GradCheckResult result = CheckGradients(fn, inputs);
  EXPECT_TRUE(result.passed) << "seed " << seed << ": " << result.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(AutogradTest, DeepChainDoesNotOverflowStack) {
  // The topological sort is iterative: a 10k-deep chain must not crash.
  Variable x(ts::Tensor::Scalar(1.0f), true);
  Variable y = x;
  for (int i = 0; i < 10000; ++i) y = AddScalar(y, 0.001f);
  Backward(y);
  EXPECT_FLOAT_EQ(x.grad().scalar(), 1.0f);
}

}  // namespace
}  // namespace musenet::autograd
