#ifndef MUSENET_MUSE_MODEL_H_
#define MUSENET_MUSE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "eval/forecaster.h"
#include "eval/train_loop.h"
#include "muse/config.h"
#include "muse/decoders.h"
#include "muse/encoders.h"
#include "muse/gaussian.h"
#include "muse/resplus.h"
#include "nn/conv.h"
#include "nn/module.h"
#include "util/rng.h"

namespace musenet::muse {

/// Sub-series indices used throughout the model.
inline constexpr int kCloseness = 0;
inline constexpr int kPeriod = 1;
inline constexpr int kTrend = 2;
inline constexpr const char* kSubSeriesNames[3] = {"closeness", "period",
                                                   "trend"};

/// Unordered sub-series pairs in canonical order: (c,p), (c,t), (p,t).
inline constexpr int kPairs[3][2] = {{0, 1}, {0, 2}, {1, 2}};
/// Complementary pair of each sub-series i (the pair not containing i):
/// c → (p,t), p → (c,t), t → (c,p) — used by the + KL[r‖d^{i,j}] pull terms.
inline constexpr int kComplementPair[3] = {2, 1, 0};

/// The MUSE-Net model (paper Section IV): multivariate disentanglement of
/// closeness/period/trend into exclusive representations Z^C/Z^P/Z^T and an
/// interactive representation Z^S, regularized by semantic-pushing and
/// semantic-pulling mutual-information bounds (Eqs. 26–30), with a ResPlus
/// spatial head producing the forecast.
class MuseNet : public nn::Module, public eval::Forecaster {
 public:
  MuseNet(MuseNetConfig config, uint64_t seed);

  /// All intermediate products of one forward pass; the loss and the analysis
  /// module both consume this.
  struct ForwardResult {
    autograd::Variable prediction;  ///< [B, 2, H, W] in [-1, 1].
    std::vector<ExclusiveEncoder::Output> exclusive;  ///< c, p, t.
    /// Multivariate mode: the single interactive output. Pairwise ablation:
    /// entry 0 = Z^{CP}, 1 = Z^{CT}, 2 = Z^{PT}.
    std::vector<InteractiveEncoder::Output> interactive;
    std::vector<DiagGaussian> simplex;  ///< g^c, g^p, g^t (multivariate only).
    std::vector<DiagGaussian> duplex;   ///< d^{cp}, d^{ct}, d^{pt}.
    std::vector<autograd::Variable> reconstruction;  ///< ĉ, p̂, t̂.
  };

  /// Runs the full network. `stochastic` enables reparameterization noise
  /// (training); evaluation uses the posterior means.
  ForwardResult Forward(const data::Batch& batch, bool stochastic);

  /// Scalar loss terms of Eq. (26) in minimization form, for logging.
  struct LossBreakdown {
    double total = 0.0;
    double kl_exclusive = 0.0;     ///< Σ_i KL[r(z^i|i)‖N(0,I)].
    double kl_interactive = 0.0;   ///< KL[r(z^s|·)‖N(0,I)].
    double reconstruction = 0.0;   ///< Σ_i MSE(î, i)  (−L̂_Push).
    double pull = 0.0;             ///< −L̂_Pull.
    double regression = 0.0;       ///< ‖X_n − Y_n‖² (mean).
  };

  /// Assembles the total minimization objective from a forward result.
  autograd::Variable ComputeLoss(const ForwardResult& result,
                                 const data::Batch& batch,
                                 LossBreakdown* breakdown);

  // --- eval::Forecaster ------------------------------------------------------

  std::string name() const override { return name_; }
  void Train(const data::TrafficDataset& dataset,
             const eval::TrainConfig& config) override;
  tensor::Tensor Predict(const data::Batch& batch) override;
  autograd::Variable PlanForward(const data::Batch& batch) override;

  /// As Train, but surfaces training faults (numeric blow-ups under
  /// FailurePolicy::kAbort, exhausted rollback budgets) as a Status instead
  /// of aborting, and reports loop counters. Used by tests and tools.
  Status TrainWithReport(const data::TrafficDataset& dataset,
                         const eval::TrainConfig& config,
                         eval::TrainReport* report);

  Status TrainWithStatus(const data::TrafficDataset& dataset,
                         const eval::TrainConfig& config) override {
    return TrainWithReport(dataset, config, nullptr);
  }

  /// Overrides the display name (used for ablation variants).
  void set_name(std::string name) { name_ = std::move(name); }

  // --- Analysis hooks (RQ3–RQ5) ---------------------------------------------

  /// Spatially pooled representation vectors for a batch, without noise.
  struct Representations {
    tensor::Tensor z_closeness;   ///< [B, d] (global average over H·W).
    tensor::Tensor z_period;      ///< [B, d].
    tensor::Tensor z_trend;       ///< [B, d].
    tensor::Tensor z_interactive; ///< [B, d] (multivariate: Z^S; pairwise:
                                  ///  mean of the three pairwise maps).
  };
  Representations ExtractRepresentations(const data::Batch& batch);

  const MuseNetConfig& config() const { return config_; }

 private:
  autograd::Variable FuseAndPredict(const ForwardResult& result);

  MuseNetConfig config_;
  std::string name_ = "MUSE-Net";
  Rng rng_;  ///< Reparameterization noise (init draws fork from it).

  std::vector<std::unique_ptr<FeatureExtractor>> features_;     // c, p, t.
  std::vector<std::unique_ptr<ExclusiveEncoder>> exclusive_;    // c, p, t.
  std::vector<std::unique_ptr<InteractiveEncoder>> interactive_;  // 1 or 3.
  std::vector<std::unique_ptr<ReconstructionDecoder>> decoders_;  // c, p, t.
  std::vector<std::unique_ptr<SimplexEncoder>> simplex_;   // multivariate.
  std::vector<std::unique_ptr<DuplexEncoder>> duplex_;     // multivariate.
  std::unique_ptr<ResPlusNet> spatial_head_;               // use_spatial.
  std::unique_ptr<nn::Conv2d> pointwise_head_;             // w/o-Spatial.
};

/// Constructs a MUSE-Net ablation variant with the Table VI display name.
std::unique_ptr<MuseNet> MakeMuseVariant(const MuseNetConfig& base,
                                         MuseVariant variant, uint64_t seed);

}  // namespace musenet::muse

#endif  // MUSENET_MUSE_MODEL_H_
