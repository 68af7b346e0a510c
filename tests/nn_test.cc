#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "nn/batch_norm.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/gru.h"
#include "nn/init.h"
#include "optim/adam.h"
#include "tensor/tensor_ops.h"

namespace musenet::nn {
namespace {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;

// --- Init ----------------------------------------------------------------

TEST(InitTest, GlorotBound) {
  Rng rng(1);
  ts::Tensor w = GlorotUniform(ts::Shape({100, 100}), 100, 100, rng);
  const float bound = std::sqrt(6.0f / 200.0f);
  EXPECT_LE(ts::MaxValue(w), bound);
  EXPECT_GE(ts::MinValue(w), -bound);
}

TEST(InitTest, HeNormalVariance) {
  Rng rng(2);
  ts::Tensor w = HeNormal(ts::Shape({200, 200}), 50, rng);
  double sum_sq = 0.0;
  for (int64_t i = 0; i < w.num_elements(); ++i) {
    sum_sq += static_cast<double>(w.flat(i)) * w.flat(i);
  }
  EXPECT_NEAR(sum_sq / w.num_elements(), 2.0 / 50.0, 0.005);
}

TEST(InitTest, Fans) {
  int64_t fan_in = 0, fan_out = 0;
  DenseFans(8, 16, &fan_in, &fan_out);
  EXPECT_EQ(fan_in, 8);
  EXPECT_EQ(fan_out, 16);
  ConvFans(32, 16, 3, 3, &fan_in, &fan_out);
  EXPECT_EQ(fan_in, 16 * 9);
  EXPECT_EQ(fan_out, 32 * 9);
}

// --- Module registry ----------------------------------------------------------------

class TinyNet : public Module {
 public:
  explicit TinyNet(Rng& rng) : dense_(2, 3, rng), inner_(3, 1, rng) {
    RegisterSubmodule("dense", &dense_);
    RegisterSubmodule("inner", &inner_);
  }
  Dense dense_;
  Dense inner_;
};

TEST(ModuleTest, NamedParametersRecurseWithDottedPaths) {
  Rng rng(1);
  TinyNet net(rng);
  auto named = net.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "dense.weight");
  EXPECT_EQ(named[1].first, "dense.bias");
  EXPECT_EQ(named[2].first, "inner.weight");
  EXPECT_EQ(named[3].first, "inner.bias");
}

TEST(ModuleTest, NumParameters) {
  Rng rng(1);
  TinyNet net(rng);
  EXPECT_EQ(net.NumParameters(), 2 * 3 + 3 + 3 * 1 + 1);
}

TEST(ModuleTest, StateDictRoundTrip) {
  Rng rng(1);
  TinyNet a(rng);
  Rng rng2(99);
  TinyNet b(rng2);
  auto state = a.StateDict();
  ASSERT_TRUE(b.LoadStateDict(state).ok());
  auto named_a = a.NamedParameters();
  auto named_b = b.NamedParameters();
  for (size_t i = 0; i < named_a.size(); ++i) {
    EXPECT_TRUE(named_a[i].second.value().AllClose(named_b[i].second.value()));
  }
}

TEST(ModuleTest, LoadStateDictRejectsWrongSize) {
  Rng rng(1);
  TinyNet net(rng);
  std::map<std::string, ts::Tensor> empty;
  EXPECT_FALSE(net.LoadStateDict(empty).ok());
}

TEST(ModuleTest, LoadStateDictRejectsWrongShape) {
  Rng rng(1);
  TinyNet net(rng);
  auto state = net.StateDict();
  state["dense.weight"] = ts::Tensor::Zeros(ts::Shape({5, 5}));
  EXPECT_EQ(net.LoadStateDict(state).code(), StatusCode::kInvalidArgument);
}

TEST(ModuleTest, TrainingFlagPropagates) {
  Rng rng(1);
  TinyNet net(rng);
  EXPECT_TRUE(net.training());
  net.SetTraining(false);
  EXPECT_FALSE(net.dense_.training());
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(1);
  Dense dense(2, 2, rng);
  ag::Variable x = ag::Constant(ts::Tensor::Ones(ts::Shape({1, 2})));
  ag::Backward(ag::SumAll(dense.Forward(x)));
  EXPECT_TRUE(dense.Parameters()[0].has_grad());
  dense.ZeroGrad();
  EXPECT_FALSE(dense.Parameters()[0].has_grad());
}

// --- Dense ----------------------------------------------------------------

TEST(DenseTest, OutputShapeAndBias) {
  Rng rng(4);
  Dense dense(3, 5, rng);
  ag::Variable x = ag::Constant(ts::Tensor::Zeros(ts::Shape({2, 3})));
  ag::Variable y = dense.Forward(x);
  EXPECT_EQ(y.value().shape(), ts::Shape({2, 5}));
  // Zero input → output equals (zero-initialized) bias.
  EXPECT_FLOAT_EQ(ts::MaxValue(y.value()), 0.0f);
}

TEST(DenseTest, NoBiasOption) {
  Rng rng(4);
  Dense dense(3, 5, rng, Activation::kNone, /*use_bias=*/false);
  EXPECT_EQ(dense.Parameters().size(), 1u);
}

TEST(DenseTest, LearnsLinearMap) {
  // Fit y = 2x₀ − x₁ with plain Adam; loss must fall below 1e-3.
  Rng rng(5);
  Dense dense(2, 1, rng);
  optim::Adam opt(dense.Parameters(), 0.05);
  Rng data_rng(6);
  float final_loss = 1e9f;
  for (int step = 0; step < 300; ++step) {
    ts::Tensor x = ts::Tensor::RandomUniform(ts::Shape({16, 2}), data_rng,
                                             -1.0f, 1.0f);
    ts::Tensor y(ts::Shape({16, 1}));
    for (int64_t i = 0; i < 16; ++i) {
      y.flat(i) = 2.0f * x.at({i, 0}) - x.at({i, 1});
    }
    ag::Variable pred = dense.Forward(ag::Constant(x));
    ag::Variable loss =
        ag::MeanAll(ag::Square(ag::Sub(pred, ag::Constant(y))));
    dense.ZeroGrad();
    ag::Backward(loss);
    opt.Step();
    final_loss = loss.value().scalar();
  }
  EXPECT_LT(final_loss, 1e-3f);
}

// --- Conv2d module ----------------------------------------------------------------

TEST(ConvModuleTest, SamePaddingPreservesSpatialDims) {
  Rng rng(7);
  Conv2d conv(3, 8, rng);
  ag::Variable x = ag::Constant(ts::Tensor::Ones(ts::Shape({2, 3, 5, 6})));
  ag::Variable y = conv.Forward(x);
  EXPECT_EQ(y.value().shape(), ts::Shape({2, 8, 5, 6}));
}

TEST(ConvModuleTest, StrideReducesDims) {
  Rng rng(7);
  Conv2d conv(1, 1, rng, Conv2d::Options{.kernel = 3, .stride = 2, .pad = 1});
  ag::Variable x = ag::Constant(ts::Tensor::Ones(ts::Shape({1, 1, 8, 8})));
  EXPECT_EQ(conv.Forward(x).value().shape(), ts::Shape({1, 1, 4, 4}));
}

TEST(ConvModuleTest, InitScaleShrinksWeights) {
  Rng rng_a(7);
  Conv2d normal(3, 8, rng_a);
  Rng rng_b(7);
  Conv2d scaled(3, 8, rng_b, Conv2d::Options{.init_scale = 0.1f});
  const float max_normal = ts::MaxValue(normal.Parameters()[0].value());
  const float max_scaled = ts::MaxValue(scaled.Parameters()[0].value());
  EXPECT_NEAR(max_scaled, 0.1f * max_normal, 1e-6f);
}

TEST(ConvModuleTest, GradientsReachWeights) {
  Rng rng(8);
  Conv2d conv(2, 4, rng);
  ag::Variable x =
      ag::Constant(ts::Tensor::RandomNormal(ts::Shape({1, 2, 4, 4}), rng));
  ag::Backward(ag::SumAll(ag::Square(conv.Forward(x))));
  for (auto& p : conv.Parameters()) EXPECT_TRUE(p.has_grad());
}

// --- BatchNorm ----------------------------------------------------------------

TEST(BatchNormTest, NormalizesPerChannelInTraining) {
  BatchNorm2d bn(2);
  Rng rng(9);
  // Channel 0 ~ N(5, 4), channel 1 ~ N(-3, 1).
  ts::Tensor x(ts::Shape({4, 2, 3, 3}));
  for (int64_t b = 0; b < 4; ++b) {
    for (int64_t h = 0; h < 3; ++h) {
      for (int64_t w = 0; w < 3; ++w) {
        x.at({b, 0, h, w}) = static_cast<float>(rng.Normal(5.0, 2.0));
        x.at({b, 1, h, w}) = static_cast<float>(rng.Normal(-3.0, 1.0));
      }
    }
  }
  ag::Variable y = bn.Forward(ag::Constant(x));
  // Per-channel mean ≈ 0, variance ≈ 1 after normalization (γ=1, β=0).
  for (int channel = 0; channel < 2; ++channel) {
    double sum = 0.0, sum_sq = 0.0;
    int64_t count = 0;
    for (int64_t b = 0; b < 4; ++b) {
      for (int64_t h = 0; h < 3; ++h) {
        for (int64_t w = 0; w < 3; ++w) {
          const double v = y.value().at({b, channel, h, w});
          sum += v;
          sum_sq += v * v;
          ++count;
        }
      }
    }
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sum_sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, RunningStatsConvergeAndDriveEval) {
  BatchNorm2d bn(1);
  Rng rng(10);
  for (int step = 0; step < 200; ++step) {
    ts::Tensor x = ts::Tensor::RandomNormal(ts::Shape({8, 1, 2, 2}), rng,
                                            4.0f, 1.0f);
    bn.Forward(ag::Constant(x));
  }
  EXPECT_NEAR(bn.running_mean().flat(0), 4.0f, 0.2f);
  EXPECT_NEAR(bn.running_var().flat(0), 1.0f, 0.3f);

  // Eval mode uses running stats: a batch at the running mean maps to ≈0.
  bn.SetTraining(false);
  ts::Tensor probe = ts::Tensor::Full(ts::Shape({1, 1, 2, 2}), 4.0f);
  ag::Variable y = bn.Forward(ag::Constant(probe));
  EXPECT_NEAR(y.value().flat(0), 0.0f, 0.3f);
}

TEST(BatchNormTest, BuffersInStateDict) {
  BatchNorm2d bn(3);
  auto state = bn.StateDict();
  EXPECT_EQ(state.size(), 4u);  // gamma, beta, running_mean, running_var.
  EXPECT_TRUE(state.count("running_mean"));
  EXPECT_TRUE(bn.LoadStateDict(state).ok());
}

TEST(BatchNormTest, GradientFlowsThroughNormalization) {
  BatchNorm2d bn(2);
  Rng rng(11);
  ag::Variable x(ts::Tensor::RandomNormal(ts::Shape({4, 2, 2, 2}), rng),
                 /*requires_grad=*/true);
  ag::Backward(ag::SumAll(ag::Square(bn.Forward(x))));
  EXPECT_TRUE(x.has_grad());
  for (auto& p : bn.Parameters()) EXPECT_TRUE(p.has_grad());
}

// --- GRU ----------------------------------------------------------------

TEST(GruTest, StepShapes) {
  Rng rng(13);
  GruCell cell(4, 6, rng);
  ag::Variable x = ag::Constant(ts::Tensor::Ones(ts::Shape({3, 4})));
  ag::Variable h = cell.InitialState(3);
  ag::Variable h2 = cell.Step(x, h);
  EXPECT_EQ(h2.value().shape(), ts::Shape({3, 6}));
}

TEST(GruTest, StateStaysBounded) {
  // GRU state is a convex combination of tanh outputs → |h| ≤ 1.
  Rng rng(13);
  GruCell cell(2, 4, rng);
  ag::Variable h = cell.InitialState(1);
  for (int step = 0; step < 50; ++step) {
    ts::Tensor x = ts::Tensor::RandomNormal(ts::Shape({1, 2}), rng, 0.0f, 3.0f);
    h = cell.Step(ag::Constant(x), h);
  }
  EXPECT_LE(ts::MaxValue(h.value()), 1.0f);
  EXPECT_GE(ts::MinValue(h.value()), -1.0f);
}

TEST(GruTest, GradientsFlowThroughTime) {
  Rng rng(14);
  GruCell cell(2, 3, rng);
  ag::Variable h = cell.InitialState(2);
  for (int step = 0; step < 5; ++step) {
    ts::Tensor x = ts::Tensor::RandomNormal(ts::Shape({2, 2}), rng);
    h = cell.Step(ag::Constant(x), h);
  }
  ag::Backward(ag::SumAll(ag::Square(h)));
  for (auto& p : cell.Parameters()) EXPECT_TRUE(p.has_grad());
}

TEST(GruTest, LearnsToRememberInput) {
  // Teach the GRU to output (mapped) first input after 3 steps of zeros.
  Rng rng(15);
  GruCell cell(1, 8, rng);
  Dense readout(8, 1, rng);
  std::vector<ag::Variable> params = cell.Parameters();
  for (auto& p : readout.Parameters()) params.push_back(p);
  optim::Adam opt(params, 0.02);
  Rng data_rng(16);
  float final_loss = 1e9f;
  for (int step = 0; step < 400; ++step) {
    ts::Tensor first =
        ts::Tensor::RandomUniform(ts::Shape({8, 1}), data_rng, -1.0f, 1.0f);
    ag::Variable h = cell.InitialState(8);
    h = cell.Step(ag::Constant(first), h);
    for (int pad = 0; pad < 3; ++pad) {
      h = cell.Step(ag::Constant(ts::Tensor::Zeros(ts::Shape({8, 1}))), h);
    }
    ag::Variable pred = readout.Forward(h);
    ag::Variable loss =
        ag::MeanAll(ag::Square(ag::Sub(pred, ag::Constant(first))));
    cell.ZeroGrad();
    readout.ZeroGrad();
    ag::Backward(loss);
    opt.Step();
    final_loss = loss.value().scalar();
  }
  EXPECT_LT(final_loss, 0.05f);
}

// --- Activations ----------------------------------------------------------------

TEST(ActivationTest, ApplyMatchesOps) {
  ts::Tensor x = ts::Tensor::FromVector({-1.0f, 0.5f});
  ag::Variable v = ag::Constant(x);
  EXPECT_TRUE(ApplyActivation(v, Activation::kNone).value().AllClose(x));
  EXPECT_TRUE(ApplyActivation(v, Activation::kTanh)
                  .value()
                  .AllClose(ts::Tanh(x)));
  EXPECT_TRUE(ApplyActivation(v, Activation::kLeakyRelu)
                  .value()
                  .AllClose(ts::LeakyRelu(x, 0.1f)));
}

}  // namespace
}  // namespace musenet::nn
