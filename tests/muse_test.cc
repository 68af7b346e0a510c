#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "data/dataset.h"
#include "eval/evaluate.h"
#include "muse/config.h"
#include "muse/decoders.h"
#include "muse/encoders.h"
#include "muse/gaussian.h"
#include "muse/model.h"
#include "muse/resplus.h"
#include "tensor/serialize.h"
#include "tensor/tensor_ops.h"

namespace musenet::muse {
namespace {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;

// --- Config / variants ----------------------------------------------------------------

TEST(ConfigTest, VariantSwitches) {
  MuseNetConfig base;
  EXPECT_TRUE(ApplyVariant(base, MuseVariant::kFull).use_spatial);
  EXPECT_FALSE(
      ApplyVariant(base, MuseVariant::kWithoutSpatial).use_spatial);
  EXPECT_EQ(ApplyVariant(base, MuseVariant::kWithoutMultiDisentangle)
                .interactive_mode,
            InteractiveMode::kPairwise);
  EXPECT_FALSE(
      ApplyVariant(base, MuseVariant::kWithoutSemanticPushing).use_pushing);
  EXPECT_FALSE(
      ApplyVariant(base, MuseVariant::kWithoutSemanticPulling).use_pulling);
}

TEST(ConfigTest, VariantNamesMatchTableVI) {
  EXPECT_STREQ(VariantName(MuseVariant::kFull), "MUSE-Net");
  EXPECT_STREQ(VariantName(MuseVariant::kWithoutSpatial),
               "MUSE-Net-w/o-Spatial");
  EXPECT_STREQ(VariantName(MuseVariant::kWithoutMultiDisentangle),
               "MUSE-Net-w/o-MultiDisentangle");
}

TEST(ConfigTest, DefaultsMatchPaperSectionIVE) {
  // Guard against drift: the config defaults are the paper's settings.
  MuseNetConfig config;
  EXPECT_EQ(config.periodicity.len_closeness, 3);  // (L_c,L_p,L_t)=(3,4,4).
  EXPECT_EQ(config.periodicity.len_period, 4);
  EXPECT_EQ(config.periodicity.len_trend, 4);
  EXPECT_EQ(config.repr_dim, 64);    // d = 64.
  EXPECT_EQ(config.dist_dim, 128);   // k = 128.
  EXPECT_DOUBLE_EQ(config.lambda, 1.0);  // λ = 1.
  EXPECT_TRUE(config.use_spatial);
  EXPECT_TRUE(config.use_pushing);
  EXPECT_TRUE(config.use_pulling);
  EXPECT_FALSE(config.paper_pull_sign);  // Stable direction by default.
}

TEST(ConfigTest, ExclusiveDistDimIsQuarterOfK) {
  MuseNetConfig config;
  config.dist_dim = 128;
  EXPECT_EQ(config.exclusive_dist_dim(), 32);  // k/4 (Section IV-E).
}

TEST(ConfigTest, InvalidConfigsNameTheirField) {
  EXPECT_TRUE(ValidateMuseNetConfig(MuseNetConfig{}).ok());
  const auto expect_rejected = [](const char* field, auto set) {
    MuseNetConfig config;
    set(config);
    const Status status = ValidateMuseNetConfig(config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
    // The CLI maps the leading field name to its flag (--k).
    EXPECT_EQ(status.message().rfind(field, 0), 0u) << status.ToString();
  };
  expect_rejected("grid_h", [](MuseNetConfig& c) { c.grid_h = 0; });
  expect_rejected("grid_w", [](MuseNetConfig& c) { c.grid_w = -1; });
  expect_rejected("repr_dim", [](MuseNetConfig& c) { c.repr_dim = 0; });
  // dist_dim 2 leaves the exclusive encoders k/4 = 0 dimensions.
  expect_rejected("dist_dim", [](MuseNetConfig& c) { c.dist_dim = 2; });
  MuseNetConfig smallest;
  smallest.repr_dim = 1;
  smallest.dist_dim = 4;
  EXPECT_TRUE(ValidateMuseNetConfig(smallest).ok());
}

// --- Gaussian machinery ----------------------------------------------------------------

DiagGaussian MakeGaussian(std::vector<float> mu, std::vector<float> logvar) {
  const int64_t n = static_cast<int64_t>(mu.size());
  DiagGaussian g;
  g.mu = ag::Variable(ts::Tensor(ts::Shape({1, n}), std::move(mu)), true);
  g.logvar =
      ag::Variable(ts::Tensor(ts::Shape({1, n}), std::move(logvar)), true);
  return g;
}

TEST(GaussianTest, KlToStandardClosedForm) {
  // KL(N(μ,σ²)‖N(0,1)) = ½(μ² + σ² − 1 − log σ²); dimension-normalized mean.
  DiagGaussian g = MakeGaussian({1.0f, 0.0f}, {0.0f, std::log(4.0f)});
  // Dim 0: ½(1 + 1 − 1 − 0) = 0.5. Dim 1: ½(0 + 4 − 1 − log4) = ½(3 − 1.386).
  const double expected = (0.5 + 0.5 * (3.0 - std::log(4.0))) / 2.0;
  EXPECT_NEAR(KlToStandard(g).value().scalar(), expected, 1e-5);
}

TEST(GaussianTest, KlToStandardZeroAtStandard) {
  DiagGaussian g = MakeGaussian({0.0f, 0.0f, 0.0f}, {0.0f, 0.0f, 0.0f});
  EXPECT_NEAR(KlToStandard(g).value().scalar(), 0.0, 1e-6);
}

TEST(GaussianTest, KlBetweenSelfIsZeroAndAsymmetric) {
  DiagGaussian p = MakeGaussian({0.5f}, {std::log(2.0f)});
  DiagGaussian q = MakeGaussian({-0.5f}, {std::log(0.5f)});
  EXPECT_NEAR(KlBetween(p, p).value().scalar(), 0.0, 1e-6);
  const double pq = KlBetween(p, q).value().scalar();
  const double qp = KlBetween(q, p).value().scalar();
  EXPECT_GT(pq, 0.0);
  EXPECT_GT(qp, 0.0);
  EXPECT_NE(pq, qp);
}

TEST(GaussianTest, KlBetweenClosedFormHandCase) {
  // KL(N(1,1)‖N(0,4)) = ½(log4 − 0 + (1+1)/4 − 1) = ½(log4 − 0.5).
  DiagGaussian p = MakeGaussian({1.0f}, {0.0f});
  DiagGaussian q = MakeGaussian({0.0f}, {std::log(4.0f)});
  EXPECT_NEAR(KlBetween(p, q).value().scalar(),
              0.5 * (std::log(4.0) - 0.5), 1e-5);
}

TEST(GaussianTest, KlMatchesMonteCarloEstimate) {
  // Cross-check the closed form against a Monte-Carlo estimate of
  // E_p[log p − log q].
  const double mu_p = 0.7, var_p = 1.5, mu_q = -0.3, var_q = 0.8;
  DiagGaussian p = MakeGaussian({static_cast<float>(mu_p)},
                                {static_cast<float>(std::log(var_p))});
  DiagGaussian q = MakeGaussian({static_cast<float>(mu_q)},
                                {static_cast<float>(std::log(var_q))});
  Rng rng(21);
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(mu_p, std::sqrt(var_p));
    const double log_p = -0.5 * (std::log(2 * M_PI * var_p) +
                                 (x - mu_p) * (x - mu_p) / var_p);
    const double log_q = -0.5 * (std::log(2 * M_PI * var_q) +
                                 (x - mu_q) * (x - mu_q) / var_q);
    acc += log_p - log_q;
  }
  EXPECT_NEAR(KlBetween(p, q).value().scalar(), acc / n, 0.02);
}

TEST(GaussianTest, ReparameterizeDeterministicPathReturnsMean) {
  DiagGaussian g = MakeGaussian({0.3f, -0.7f}, {0.0f, 0.0f});
  Rng rng(1);
  ag::Variable z = Reparameterize(g, rng, /*stochastic=*/false);
  EXPECT_TRUE(z.value().AllClose(g.mu.value()));
}

TEST(GaussianTest, ReparameterizeMatchesMomentsAndPropagatesGrad) {
  DiagGaussian g = MakeGaussian({2.0f}, {std::log(0.25f)});
  Rng rng(5);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double z = Reparameterize(g, rng, true).value().flat(0);
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 2.0, 0.02);
  EXPECT_NEAR(sum_sq / n - (sum / n) * (sum / n), 0.25, 0.02);

  // Gradient reaches μ and logvar through the sample.
  ag::Variable z = Reparameterize(g, rng, true);
  ag::Backward(ag::SumAll(ag::Square(z)));
  EXPECT_TRUE(g.mu.has_grad());
  EXPECT_TRUE(g.logvar.has_grad());
}

// --- Encoders / decoders shapes ----------------------------------------------------------------

TEST(EncoderTest, GaussianHeadShapesAndClamp) {
  Rng rng(3);
  GaussianHead head(10, 4, /*logvar_clamp=*/2.0f, rng);
  ag::Variable x =
      ag::Constant(ts::Tensor::RandomNormal(ts::Shape({5, 10}), rng, 0, 50));
  DiagGaussian d = head.Forward(x);
  EXPECT_EQ(d.mu.value().shape(), ts::Shape({5, 4}));
  EXPECT_EQ(d.logvar.value().shape(), ts::Shape({5, 4}));
  EXPECT_LE(ts::MaxValue(d.logvar.value()), 2.0f);
  EXPECT_GE(ts::MinValue(d.logvar.value()), -2.0f);
}

TEST(EncoderTest, ExclusiveEncoderOutputs) {
  Rng rng(4);
  ExclusiveEncoder enc(/*repr_dim=*/6, /*spatial=*/12, /*dist_dim=*/8, 6.0f,
                       rng);
  ag::Variable f =
      ag::Constant(ts::Tensor::RandomNormal(ts::Shape({2, 6, 3, 4}), rng));
  auto out = enc.Forward(f);
  EXPECT_EQ(out.representation.value().shape(), ts::Shape({2, 6, 3, 4}));
  EXPECT_EQ(out.distribution.mu.value().shape(), ts::Shape({2, 8}));
}

TEST(EncoderTest, InteractiveEncoderConsumesConcatenation) {
  Rng rng(5);
  InteractiveEncoder enc(3, 6, 12, 16, 6.0f, rng);
  ag::Variable f =
      ag::Constant(ts::Tensor::RandomNormal(ts::Shape({2, 18, 3, 4}), rng));
  auto out = enc.Forward(f);
  EXPECT_EQ(out.representation.value().shape(), ts::Shape({2, 6, 3, 4}));
  EXPECT_EQ(out.distribution.mu.value().shape(), ts::Shape({2, 16}));
}

TEST(DecoderTest, ReconstructionShape) {
  Rng rng(6);
  ReconstructionDecoder dec(/*z_excl=*/4, /*z_inter=*/16, /*channels=*/6,
                            /*h=*/3, /*w=*/4, rng);
  ag::Variable ze = ag::Constant(ts::Tensor::Zeros(ts::Shape({2, 4})));
  ag::Variable zs = ag::Constant(ts::Tensor::Zeros(ts::Shape({2, 16})));
  ag::Variable recon = dec.Forward(ze, zs);
  EXPECT_EQ(recon.value().shape(), ts::Shape({2, 6, 3, 4}));
  // tanh-bounded.
  EXPECT_LE(ts::MaxValue(recon.value()), 1.0f);
  EXPECT_GE(ts::MinValue(recon.value()), -1.0f);
}

TEST(ResPlusTest, HeadShapeAndRange) {
  Rng rng(7);
  ResPlusNet head(/*in=*/12, /*hidden=*/6, /*blocks=*/2, /*plus=*/2,
                  /*h=*/4, /*w=*/5, rng);
  ag::Variable x =
      ag::Constant(ts::Tensor::RandomNormal(ts::Shape({3, 12, 4, 5}), rng));
  ag::Variable y = head.Forward(x);
  EXPECT_EQ(y.value().shape(), ts::Shape({3, 2, 4, 5}));
  EXPECT_LE(ts::MaxValue(y.value()), 1.0f);
  EXPECT_GE(ts::MinValue(y.value()), -1.0f);
}

TEST(ResPlusTest, BlockPreservesShape) {
  Rng rng(8);
  ResPlusBlock block(6, 2, 4, 5, rng);
  ag::Variable x =
      ag::Constant(ts::Tensor::RandomNormal(ts::Shape({2, 6, 4, 5}), rng));
  EXPECT_EQ(block.Forward(x).value().shape(), x.value().shape());
}

// --- Full model ----------------------------------------------------------------

MuseNetConfig TinyConfig(InteractiveMode mode = InteractiveMode::kMultivariate) {
  MuseNetConfig config;
  config.grid_h = 3;
  config.grid_w = 4;
  config.periodicity =
      data::PeriodicitySpec{.len_closeness = 2, .len_period = 2,
                            .len_trend = 1};
  config.repr_dim = 4;
  config.dist_dim = 8;
  config.resplus_blocks = 1;
  config.interactive_mode = mode;
  return config;
}

data::Batch TinyBatch(const MuseNetConfig& config, uint64_t seed,
                      int64_t batch = 2) {
  Rng rng(seed);
  data::Batch b;
  b.closeness = ts::Tensor::RandomUniform(
      ts::Shape({batch, config.periodicity.ClosenessChannels(), config.grid_h,
                 config.grid_w}),
      rng, -1.0f, 1.0f);
  b.period = ts::Tensor::RandomUniform(
      ts::Shape({batch, config.periodicity.PeriodChannels(), config.grid_h,
                 config.grid_w}),
      rng, -1.0f, 1.0f);
  b.trend = ts::Tensor::RandomUniform(
      ts::Shape({batch, config.periodicity.TrendChannels(), config.grid_h,
                 config.grid_w}),
      rng, -1.0f, 1.0f);
  b.target = ts::Tensor::RandomUniform(
      ts::Shape({batch, 2, config.grid_h, config.grid_w}), rng, -1.0f, 1.0f);
  for (int64_t i = 0; i < batch; ++i) b.target_indices.push_back(100 + i);
  return b;
}

TEST(MuseNetTest, ForwardShapesMultivariate) {
  MuseNetConfig config = TinyConfig();
  MuseNet model(config, 1);
  data::Batch batch = TinyBatch(config, 2);
  auto result = model.Forward(batch, /*stochastic=*/true);
  EXPECT_EQ(result.prediction.value().shape(),
            ts::Shape({2, 2, 3, 4}));
  ASSERT_EQ(result.exclusive.size(), 3u);
  ASSERT_EQ(result.interactive.size(), 1u);
  ASSERT_EQ(result.simplex.size(), 3u);
  ASSERT_EQ(result.duplex.size(), 3u);
  ASSERT_EQ(result.reconstruction.size(), 3u);
  // Exclusive distributions have dim k/4 = 2; interactive has k = 8.
  EXPECT_EQ(result.exclusive[0].distribution.mu.value().dim(1), 2);
  EXPECT_EQ(result.interactive[0].distribution.mu.value().dim(1), 8);
  // Reconstructions match sub-series channel shapes.
  EXPECT_EQ(result.reconstruction[0].value().shape(),
            batch.closeness.shape());
  EXPECT_EQ(result.reconstruction[1].value().shape(), batch.period.shape());
  EXPECT_EQ(result.reconstruction[2].value().shape(), batch.trend.shape());
}

TEST(MuseNetTest, ForwardShapesPairwiseAblation) {
  MuseNetConfig config = TinyConfig(InteractiveMode::kPairwise);
  MuseNet model(config, 1);
  data::Batch batch = TinyBatch(config, 2);
  auto result = model.Forward(batch, true);
  EXPECT_EQ(result.interactive.size(), 3u);  // Z^{CP}, Z^{CT}, Z^{PT}.
  EXPECT_TRUE(result.simplex.empty());       // No multivariate pull machinery.
  EXPECT_EQ(result.prediction.value().shape(), ts::Shape({2, 2, 3, 4}));
}

TEST(MuseNetTest, LossBreakdownIsFiniteAndComposed) {
  MuseNetConfig config = TinyConfig();
  MuseNet model(config, 1);
  data::Batch batch = TinyBatch(config, 2);
  auto result = model.Forward(batch, true);
  MuseNet::LossBreakdown parts;
  ag::Variable loss = model.ComputeLoss(result, batch, &parts);
  EXPECT_TRUE(std::isfinite(parts.total));
  EXPECT_GE(parts.kl_exclusive, 0.0);
  EXPECT_GE(parts.kl_interactive, 0.0);
  EXPECT_GE(parts.reconstruction, 0.0);
  EXPECT_GE(parts.regression, 0.0);
  EXPECT_FLOAT_EQ(loss.value().scalar(), static_cast<float>(parts.total));
  // Composition: total = aux·((1+λ)(klE + rec) + klI + λ·pull) + reg.
  const double lambda = config.lambda;
  const double aux = config.aux_weight;
  const double expected =
      aux * ((1.0 + lambda) * (parts.kl_exclusive + parts.reconstruction) +
             parts.kl_interactive + lambda * parts.pull) +
      parts.regression;
  EXPECT_NEAR(parts.total, expected, 1e-4);
}

TEST(MuseNetTest, AblationLossesDropTheirTerms) {
  MuseNetConfig config = TinyConfig();
  data::Batch batch = TinyBatch(config, 3);
  {
    MuseNet no_pull(ApplyVariant(config, MuseVariant::kWithoutSemanticPulling),
                    1);
    auto result = no_pull.Forward(batch, true);
    MuseNet::LossBreakdown parts;
    no_pull.ComputeLoss(result, batch, &parts);
    EXPECT_EQ(parts.pull, 0.0);
  }
  {
    MuseNet no_push(ApplyVariant(config, MuseVariant::kWithoutSemanticPushing),
                    1);
    auto result = no_push.Forward(batch, true);
    MuseNet::LossBreakdown parts;
    ag::Variable loss = no_push.ComputeLoss(result, batch, &parts);
    // Reconstruction coefficient drops from (1+λ) to 1 — verify composition.
    const double aux = config.aux_weight;
    const double expected =
        aux * (parts.kl_exclusive + parts.reconstruction +
               parts.kl_interactive + config.lambda * parts.pull) +
        parts.regression;
    EXPECT_NEAR(loss.value().scalar(), expected, 1e-4);
  }
}

TEST(MuseNetTest, GradientsReachEveryParameter) {
  MuseNetConfig config = TinyConfig();
  MuseNet model(config, 1);
  data::Batch batch = TinyBatch(config, 2);
  auto result = model.Forward(batch, true);
  ag::Variable loss = model.ComputeLoss(result, batch, nullptr);
  model.ZeroGrad();
  ag::Backward(loss);
  for (auto& [name, param] : model.NamedParameters()) {
    EXPECT_TRUE(param.has_grad()) << "no gradient reached " << name;
  }
}

TEST(MuseNetTest, PredictIsDeterministic) {
  MuseNetConfig config = TinyConfig();
  MuseNet model(config, 1);
  model.SetTraining(false);
  data::Batch batch = TinyBatch(config, 2);
  ts::Tensor a = model.Predict(batch);
  ts::Tensor b = model.Predict(batch);
  EXPECT_TRUE(a.AllClose(b));
}

TEST(MuseNetTest, TrainingReducesLossOnSyntheticData) {
  // A tiny but real training run: indexed flows with daily structure.
  const int f = 24;
  sim::FlowSeries flows(sim::GridSpec{3, 4}, f, 0, 14 * f);
  Rng noise(9);
  for (int64_t t = 0; t < flows.num_intervals(); ++t) {
    const double base =
        5.0 + 4.0 * std::sin(2.0 * M_PI * flows.IntervalOfDay(t) / f);
    for (int flow = 0; flow < 2; ++flow) {
      for (int64_t h = 0; h < 3; ++h) {
        for (int64_t w = 0; w < 4; ++w) {
          flows.at(t, flow, h, w) =
              static_cast<float>(std::max(0.0, base + noise.Normal(0, 0.5)));
        }
      }
    }
  }
  data::DatasetOptions options;
  options.spec = data::PeriodicitySpec{.len_closeness = 2, .len_period = 2,
                                       .len_trend = 1};
  options.test_days = 3;
  data::TrafficDataset ds(std::move(flows), options);

  MuseNetConfig config = TinyConfig();
  config.periodicity = options.spec;
  MuseNet model(config, 2);

  eval::TrainConfig tc;
  tc.epochs = 0;  // Untrained baseline.
  eval::FlowMetrics before = eval::EvaluateOnTest(model, ds, 8);

  tc.epochs = 8;
  tc.learning_rate = 1e-3;
  model.Train(ds, tc);
  eval::FlowMetrics after = eval::EvaluateOnTest(model, ds, 8);
  EXPECT_LT(after.outflow.rmse, before.outflow.rmse * 0.7)
      << "training should cut test RMSE substantially";
}

TEST(MuseNetTest, StateDictRoundTripThroughFile) {
  MuseNetConfig config = TinyConfig();
  MuseNet a(config, 1);
  const std::string path = ::testing::TempDir() + "/muse_ckpt.bin";
  ASSERT_TRUE(ts::SaveTensors(path, a.StateDict()).ok());

  MuseNet b(config, 999);  // Different init.
  auto loaded = ts::LoadTensors(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(b.LoadStateDict(*loaded).ok());
  a.SetTraining(false);
  b.SetTraining(false);
  data::Batch batch = TinyBatch(config, 2);
  EXPECT_TRUE(a.Predict(batch).AllClose(b.Predict(batch)));
}

TEST(MuseNetTest, ExtractRepresentationsShapes) {
  MuseNetConfig config = TinyConfig();
  MuseNet model(config, 1);
  model.SetTraining(false);
  data::Batch batch = TinyBatch(config, /*seed=*/5, /*batch=*/5);
  auto reps = model.ExtractRepresentations(batch);
  EXPECT_EQ(reps.z_closeness.shape(), ts::Shape({5, 4}));
  EXPECT_EQ(reps.z_period.shape(), ts::Shape({5, 4}));
  EXPECT_EQ(reps.z_trend.shape(), ts::Shape({5, 4}));
  EXPECT_EQ(reps.z_interactive.shape(), ts::Shape({5, 4}));
}

TEST(MuseNetTest, VariantFactorySetsNames) {
  MuseNetConfig config = TinyConfig();
  auto model =
      MakeMuseVariant(config, MuseVariant::kWithoutSemanticPushing, 1);
  EXPECT_EQ(model->name(), "MUSE-Net-w/o-SemanticPushing");
  // w/o-Spatial builds the pointwise head.
  auto no_spatial = MakeMuseVariant(config, MuseVariant::kWithoutSpatial, 1);
  data::Batch batch = TinyBatch(config, 2);
  EXPECT_EQ(no_spatial->Predict(batch).shape(), ts::Shape({2, 2, 3, 4}));
}

TEST(MuseNetTest, PairwiseVariantHasMoreFusedChannels) {
  MuseNetConfig config = TinyConfig();
  MuseNet multivariate(config, 1);
  MuseNet pairwise(ApplyVariant(config, MuseVariant::kWithoutMultiDisentangle),
                   1);
  // Pairwise keeps 3 interactive encoders instead of 1 but drops the
  // simplex/duplex machinery; both must run end to end.
  data::Batch batch = TinyBatch(config, 2);
  EXPECT_EQ(multivariate.Predict(batch).shape(),
            pairwise.Predict(batch).shape());
}

}  // namespace
}  // namespace musenet::muse
