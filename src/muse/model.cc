#include "muse/model.h"

#include <limits>

#include "autograd/ops.h"
#include "eval/training.h"
#include "optim/adam.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/shard_context.h"

namespace musenet::muse {

namespace ag = musenet::autograd;
namespace ts = musenet::tensor;

namespace {

/// Mean squared error as a differentiable scalar.
ag::Variable MseLoss(const ag::Variable& prediction,
                     const ag::Variable& target) {
  return ag::MeanAll(ag::Square(ag::Sub(prediction, target)));
}

/// For the pairwise ablation: the pair index whose duplex-style code feeds
/// sub-series i's reconstruction decoder (a pair that contains i).
constexpr int kReconPairFor[3] = {0 /*c→(c,p)*/, 2 /*p→(p,t)*/,
                                  1 /*t→(c,t)*/};

}  // namespace

MuseNet::MuseNet(MuseNetConfig config, uint64_t seed)
    : config_(config), rng_(seed) {
  const Status valid = ValidateMuseNetConfig(config_);
  MUSE_CHECK(valid.ok()) << valid.ToString();
  // The reparameterization stream advances every stochastic forward pass;
  // registering it puts it in checkpoints, so resumed runs draw the same
  // noise.
  RegisterRng("reparam", &rng_);
  const int64_t spatial = config_.grid_h * config_.grid_w;
  const int64_t d = config_.repr_dim;
  const int64_t k = config_.dist_dim;
  const int64_t k_excl = config_.exclusive_dist_dim();
  const float clamp = config_.logvar_clamp;

  const int64_t channels[3] = {config_.periodicity.ClosenessChannels(),
                               config_.periodicity.PeriodChannels(),
                               config_.periodicity.TrendChannels()};

  Rng init = rng_.Fork(0xA11CE);
  for (int i = 0; i < 3; ++i) {
    features_.push_back(
        std::make_unique<FeatureExtractor>(channels[i], d, init));
    RegisterSubmodule(std::string("feature_") + kSubSeriesNames[i],
                      features_.back().get());
    exclusive_.push_back(std::make_unique<ExclusiveEncoder>(
        d, spatial, k_excl, clamp, init));
    RegisterSubmodule(std::string("exclusive_") + kSubSeriesNames[i],
                      exclusive_.back().get());
  }

  if (config_.interactive_mode == InteractiveMode::kMultivariate) {
    interactive_.push_back(std::make_unique<InteractiveEncoder>(
        3, d, spatial, k, clamp, init));
    RegisterSubmodule("interactive", interactive_.back().get());
  } else {
    for (int pair = 0; pair < 3; ++pair) {
      interactive_.push_back(std::make_unique<InteractiveEncoder>(
          2, d, spatial, k, clamp, init));
      RegisterSubmodule(
          std::string("interactive_pair") + std::to_string(pair),
          interactive_.back().get());
    }
  }

  for (int i = 0; i < 3; ++i) {
    decoders_.push_back(std::make_unique<ReconstructionDecoder>(
        k_excl, k, channels[i], config_.grid_h, config_.grid_w, init));
    RegisterSubmodule(std::string("decoder_") + kSubSeriesNames[i],
                      decoders_.back().get());
  }

  if (config_.interactive_mode == InteractiveMode::kMultivariate &&
      config_.use_pulling) {
    for (int i = 0; i < 3; ++i) {
      simplex_.push_back(
          std::make_unique<SimplexEncoder>(d, spatial, k, clamp, init));
      RegisterSubmodule(std::string("simplex_") + kSubSeriesNames[i],
                        simplex_.back().get());
    }
    for (int pair = 0; pair < 3; ++pair) {
      duplex_.push_back(
          std::make_unique<DuplexEncoder>(d, spatial, k, clamp, init));
      RegisterSubmodule(std::string("duplex_pair") + std::to_string(pair),
                        duplex_.back().get());
    }
  }

  const int64_t fused_channels =
      config_.interactive_mode == InteractiveMode::kMultivariate ? 4 * d
                                                                 : 6 * d;
  if (config_.use_spatial) {
    spatial_head_ = std::make_unique<ResPlusNet>(
        fused_channels, d, config_.resplus_blocks,
        std::min(config_.plus_channels, d), config_.grid_h, config_.grid_w,
        init);
    RegisterSubmodule("resplus", spatial_head_.get());
  } else {
    pointwise_head_ = std::make_unique<nn::Conv2d>(
        fused_channels, 2, init,
        nn::Conv2d::Options{.kernel = 1,
                            .activation = nn::Activation::kTanh,
                            .init_scale = 0.1f});
    RegisterSubmodule("pointwise_head", pointwise_head_.get());
  }
}

MuseNet::ForwardResult MuseNet::Forward(const data::Batch& batch,
                                        bool stochastic) {
  ForwardResult result;

  const ag::Variable inputs[3] = {ag::Constant(batch.closeness),
                                  ag::Constant(batch.period),
                                  ag::Constant(batch.trend)};
  std::vector<ag::Variable> feats;
  feats.reserve(3);
  for (int i = 0; i < 3; ++i) {
    feats.push_back(features_[static_cast<size_t>(i)]->Forward(inputs[i]));
    result.exclusive.push_back(
        exclusive_[static_cast<size_t>(i)]->Forward(feats.back()));
  }

  if (config_.interactive_mode == InteractiveMode::kMultivariate) {
    result.interactive.push_back(interactive_[0]->Forward(
        ag::Concat({feats[0], feats[1], feats[2]}, 1)));
  } else {
    for (int pair = 0; pair < 3; ++pair) {
      result.interactive.push_back(
          interactive_[static_cast<size_t>(pair)]->Forward(ag::Concat(
              {feats[static_cast<size_t>(kPairs[pair][0])],
               feats[static_cast<size_t>(kPairs[pair][1])]},
              1)));
    }
  }

  // Reparameterized samples feed the reconstruction decoders. The stream
  // resolves through ShardRng: under a data-parallel training shard it is
  // the shard's pre-forked child, everywhere else it is rng_ itself.
  Rng& reparam_rng = util::ShardRng(rng_);
  std::vector<ag::Variable> z_exclusive;
  for (int i = 0; i < 3; ++i) {
    z_exclusive.push_back(Reparameterize(
        result.exclusive[static_cast<size_t>(i)].distribution, reparam_rng,
        stochastic));
  }
  std::vector<ag::Variable> z_interactive;
  for (const auto& inter : result.interactive) {
    z_interactive.push_back(
        Reparameterize(inter.distribution, reparam_rng, stochastic));
  }

  for (int i = 0; i < 3; ++i) {
    const ag::Variable& z_s =
        config_.interactive_mode == InteractiveMode::kMultivariate
            ? z_interactive[0]
            : z_interactive[static_cast<size_t>(kReconPairFor[i])];
    result.reconstruction.push_back(
        decoders_[static_cast<size_t>(i)]->Forward(z_exclusive[static_cast<size_t>(i)], z_s));
  }

  // Simplex/duplex variational distributions (semantic-pulling machinery).
  if (!simplex_.empty()) {
    for (int i = 0; i < 3; ++i) {
      result.simplex.push_back(
          simplex_[static_cast<size_t>(i)]->Forward(feats[static_cast<size_t>(i)]));
    }
    for (int pair = 0; pair < 3; ++pair) {
      result.duplex.push_back(
          duplex_[static_cast<size_t>(pair)]->Forward(ag::Concat(
              {feats[static_cast<size_t>(kPairs[pair][0])],
               feats[static_cast<size_t>(kPairs[pair][1])]},
              1)));
    }
  }

  result.prediction = FuseAndPredict(result);
  return result;
}

ag::Variable MuseNet::FuseAndPredict(const ForwardResult& result) {
  std::vector<ag::Variable> maps;
  for (const auto& excl : result.exclusive) {
    maps.push_back(excl.representation);
  }
  for (const auto& inter : result.interactive) {
    maps.push_back(inter.representation);
  }
  ag::Variable fused = ag::Concat(maps, 1);
  if (config_.use_spatial) return spatial_head_->Forward(fused);
  return pointwise_head_->Forward(fused);
}

ag::Variable MuseNet::ComputeLoss(const ForwardResult& result,
                                  const data::Batch& batch,
                                  LossBreakdown* breakdown) {
  const double lambda = config_.lambda;
  // Dropping the semantic-pushing term (Eq. 9) removes its λ-weighted share
  // of the merged coefficients in Eqs. (27)–(28).
  const float push_coeff =
      static_cast<float>(config_.use_pushing ? 1.0 + lambda : 1.0);

  // Eq. (27): disentanglement KL terms.
  ag::Variable kl_excl = KlToStandard(result.exclusive[0].distribution);
  for (int i = 1; i < 3; ++i) {
    kl_excl = ag::Add(
        kl_excl, KlToStandard(result.exclusive[static_cast<size_t>(i)].distribution));
  }
  ag::Variable kl_inter = KlToStandard(result.interactive[0].distribution);
  for (size_t j = 1; j < result.interactive.size(); ++j) {
    kl_inter =
        ag::Add(kl_inter, KlToStandard(result.interactive[j].distribution));
  }

  // Eq. (28): reconstruction (Gaussian log-likelihood ≡ −MSE).
  const ag::Variable recon_targets[3] = {ag::Constant(batch.closeness),
                                         ag::Constant(batch.period),
                                         ag::Constant(batch.trend)};
  ag::Variable recon = MseLoss(result.reconstruction[0], recon_targets[0]);
  for (int i = 1; i < 3; ++i) {
    recon = ag::Add(recon, MseLoss(result.reconstruction[static_cast<size_t>(i)],
                                   recon_targets[i]));
  }

  // Eq. (29): semantic-pulling — Σ_{i≠j} KL[d^{ij}‖g^i] − Σ KL[r‖d^{ij}].
  ag::Variable pull;
  const bool has_pull = config_.use_pulling && !result.simplex.empty();
  if (has_pull) {
    for (int pair = 0; pair < 3; ++pair) {
      const auto& d = result.duplex[static_cast<size_t>(pair)];
      // KL[d^{ij} ‖ g^i] + KL[d^{ij} ‖ g^j].
      ag::Variable term = ag::Add(
          KlBetween(d, result.simplex[static_cast<size_t>(kPairs[pair][0])]),
          KlBetween(d, result.simplex[static_cast<size_t>(kPairs[pair][1])]));
      pull = pull.defined() ? ag::Add(pull, term) : term;
    }
    for (int i = 0; i < 3; ++i) {
      // KL[r(z^s|c,p,t) ‖ d^{j,k}] where (j,k) is i's complementary pair.
      //
      // Note on the sign: Eq. (29) as printed carries this term with a minus
      // in the minimized loss (the lower bound of +I(C;Z^S|P,T) in Eq. 23),
      // which is unbounded below under joint optimization — d^{ij} can shrink
      // its variance and r can drift to make −KL diverge (we observed exactly
      // this). The derivation follows IIAE/VIIM [50], whose implemented
      // objective *pulls* the joint interactive posterior toward the
      // variational marginals, i.e. minimizes this KL. We implement that
      // stable direction; see DESIGN.md "Substitutions".
      ag::Variable term =
          KlBetween(result.interactive[0].distribution,
                    result.duplex[static_cast<size_t>(kComplementPair[i])]);
      pull = config_.paper_pull_sign ? ag::Sub(pull, term)
                                     : ag::Add(pull, term);
    }
  }

  // Eq. (30): regression.
  ag::Variable reg = MseLoss(result.prediction, ag::Constant(batch.target));

  const float aux = static_cast<float>(config_.aux_weight);
  ag::Variable total =
      ag::Add(ag::MulScalar(ag::Add(ag::MulScalar(kl_excl, push_coeff),
                                    ag::Add(kl_inter,
                                            ag::MulScalar(recon, push_coeff))),
                            aux),
              reg);
  if (has_pull) {
    total = ag::Add(
        total, ag::MulScalar(pull, aux * static_cast<float>(lambda)));
  }

  if (breakdown != nullptr) {
    breakdown->total = total.value().scalar();
    breakdown->kl_exclusive = kl_excl.value().scalar();
    breakdown->kl_interactive = kl_inter.value().scalar();
    breakdown->reconstruction = recon.value().scalar();
    breakdown->pull = has_pull ? pull.value().scalar() : 0.0;
    breakdown->regression = reg.value().scalar();
  }
  return total;
}

Status MuseNet::TrainWithReport(const data::TrafficDataset& dataset,
                                const eval::TrainConfig& config,
                                eval::TrainReport* report) {
  eval::TrainDriver driver;
  driver.module = this;
  driver.forecaster = this;
  driver.shuffle_salt = 0x5EEDF00DULL;  // Historical shuffle stream.
  driver.batch_loss = [this](const data::Batch& batch) {
    ForwardResult forward = Forward(batch, /*stochastic=*/true);
    LossBreakdown parts;
    return ComputeLoss(forward, batch, &parts);
  };
  return eval::RunTraining(driver, dataset, config, report);
}

void MuseNet::Train(const data::TrafficDataset& dataset,
                    const eval::TrainConfig& config) {
  const Status status = TrainWithReport(dataset, config, nullptr);
  MUSE_CHECK(status.ok()) << status.ToString();
}

ts::Tensor MuseNet::Predict(const data::Batch& batch) {
  ForwardResult forward = Forward(batch, /*stochastic=*/false);
  return forward.prediction.value();
}

autograd::Variable MuseNet::PlanForward(const data::Batch& batch) {
  // The planner walks back from `prediction` only, so the reconstruction
  // decoders and regularizer heads — which the prediction does not read —
  // fall out of the plan by reachability.
  return Forward(batch, /*stochastic=*/false).prediction;
}

MuseNet::Representations MuseNet::ExtractRepresentations(
    const data::Batch& batch) {
  ForwardResult forward = Forward(batch, /*stochastic=*/false);
  auto pool = [](const ag::Variable& map) {
    // [B, d, H, W] → [B, d]: global average over space.
    ts::Tensor pooled = ts::Mean(ts::Mean(map.value(), 3), 2);
    return pooled;
  };
  Representations reps;
  reps.z_closeness = pool(forward.exclusive[kCloseness].representation);
  reps.z_period = pool(forward.exclusive[kPeriod].representation);
  reps.z_trend = pool(forward.exclusive[kTrend].representation);
  if (config_.interactive_mode == InteractiveMode::kMultivariate) {
    reps.z_interactive = pool(forward.interactive[0].representation);
  } else {
    ts::Tensor sum = pool(forward.interactive[0].representation);
    for (size_t j = 1; j < forward.interactive.size(); ++j) {
      sum = ts::Add(sum, pool(forward.interactive[j].representation));
    }
    reps.z_interactive = ts::MulScalar(
        sum, 1.0f / static_cast<float>(forward.interactive.size()));
  }
  return reps;
}

std::unique_ptr<MuseNet> MakeMuseVariant(const MuseNetConfig& base,
                                         MuseVariant variant, uint64_t seed) {
  auto model =
      std::make_unique<MuseNet>(ApplyVariant(base, variant), seed);
  model->set_name(VariantName(variant));
  return model;
}

}  // namespace musenet::muse
