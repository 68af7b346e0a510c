#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "optim/adam.h"
#include "optim/optimizer.h"
#include "tensor/tensor_ops.h"

namespace musenet::optim {
namespace {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;

/// One gradient step of f(θ) = ‖θ − target‖² for the given optimizer.
void QuadraticStep(Optimizer& opt, ag::Variable& theta,
                   const ts::Tensor& target) {
  ag::Variable loss =
      ag::SumAll(ag::Square(ag::Sub(theta, ag::Constant(target))));
  opt.ZeroGrad();
  ag::Backward(loss);
  opt.Step();
}

TEST(AdamTest, ConvergesOnQuadratic) {
  ag::Variable theta(ts::Tensor::FromVector({5.0f, -3.0f}), true);
  ts::Tensor target = ts::Tensor::FromVector({1.0f, 2.0f});
  Adam adam({theta}, 0.1);
  for (int i = 0; i < 300; ++i) QuadraticStep(adam, theta, target);
  EXPECT_TRUE(theta.value().AllClose(target, 1e-2f, 1e-2f));
}

TEST(AdamTest, FirstStepHasLearningRateMagnitude) {
  // With bias correction the first Adam step is ≈ lr·sign(gradient).
  ag::Variable theta(ts::Tensor::FromVector({10.0f}), true);
  Adam adam({theta}, 0.5);
  QuadraticStep(adam, theta, ts::Tensor::FromVector({0.0f}));
  EXPECT_NEAR(theta.value().flat(0), 10.0f - 0.5f, 1e-3f);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  // Zero task gradient (loss ≡ 0·θ) + weight decay → θ decays toward 0.
  ag::Variable theta(ts::Tensor::FromVector({4.0f}), true);
  Adam::Options options;
  options.weight_decay = 0.1;
  Adam adam({theta}, 0.05, options);
  for (int i = 0; i < 200; ++i) {
    ag::Variable loss = ag::SumAll(ag::MulScalar(theta, 0.0f));
    adam.ZeroGrad();
    ag::Backward(loss);
    adam.Step();
  }
  EXPECT_LT(std::fabs(theta.value().flat(0)), 1.0f);
}

TEST(AdamTest, SkipsParametersWithoutGradient) {
  ag::Variable used(ts::Tensor::Scalar(1.0f), true);
  ag::Variable unused(ts::Tensor::Scalar(7.0f), true);
  Adam adam({used, unused}, 0.1);
  ag::Variable loss = ag::Square(used);
  adam.ZeroGrad();
  ag::Backward(loss);
  adam.Step();
  EXPECT_FLOAT_EQ(unused.value().scalar(), 7.0f);
  EXPECT_NE(used.value().scalar(), 1.0f);
}

TEST(AdamTest, StepCountIncrements) {
  ag::Variable theta(ts::Tensor::Scalar(1.0f), true);
  Adam adam({theta}, 0.1);
  EXPECT_EQ(adam.step_count(), 0);
  QuadraticStep(adam, theta, ts::Tensor::Scalar(0.0f));
  EXPECT_EQ(adam.step_count(), 1);
}

TEST(ClipGradNormTest, ScalesDownLargeGradients) {
  ag::Variable a(ts::Tensor::FromVector({1.0f}), true);
  ag::Variable b(ts::Tensor::FromVector({1.0f}), true);
  // Gradients: d/da (3a)² = 18a = 18, d/db (4b)² = 32b = 32; norm ≈ 36.7.
  ag::Variable loss = ag::Add(ag::Square(ag::MulScalar(a, 3.0f)),
                              ag::Square(ag::MulScalar(b, 4.0f)));
  ag::Backward(loss);
  const double norm_before = std::sqrt(18.0 * 18.0 + 32.0 * 32.0);
  const double returned = ClipGradNorm({a, b}, 1.0);
  EXPECT_NEAR(returned, norm_before, 1e-3);
  const double norm_after = std::sqrt(
      static_cast<double>(a.grad().flat(0)) * a.grad().flat(0) +
      static_cast<double>(b.grad().flat(0)) * b.grad().flat(0));
  EXPECT_NEAR(norm_after, 1.0, 1e-4);
  // Direction preserved.
  EXPECT_NEAR(a.grad().flat(0) / b.grad().flat(0), 18.0 / 32.0, 1e-4);
}

TEST(ClipGradNormTest, NoOpWhenWithinBound) {
  ag::Variable a(ts::Tensor::FromVector({0.1f}), true);
  ag::Backward(ag::Square(a));  // grad = 0.2.
  ClipGradNorm({a}, 10.0);
  EXPECT_NEAR(a.grad().flat(0), 0.2f, 1e-6f);
}

TEST(ClipGradNormTest, HandlesMissingGradients) {
  ag::Variable a(ts::Tensor::FromVector({0.1f}), true);  // Never used.
  EXPECT_EQ(ClipGradNorm({a}, 1.0), 0.0);
}

TEST(OptimizerTest, ZeroGradClears) {
  ag::Variable a(ts::Tensor::Scalar(1.0f), true);
  Adam adam({a}, 0.1);
  ag::Backward(ag::Square(a));
  EXPECT_TRUE(a.has_grad());
  adam.ZeroGrad();
  EXPECT_FALSE(a.has_grad());
}

TEST(OptimizerTest, LearningRateMutable) {
  ag::Variable a(ts::Tensor::Scalar(1.0f), true);
  Adam adam({a}, 0.1);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.1);
  adam.set_learning_rate(0.01);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.01);
}

}  // namespace
}  // namespace musenet::optim
