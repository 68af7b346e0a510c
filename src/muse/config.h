#ifndef MUSENET_MUSE_CONFIG_H_
#define MUSENET_MUSE_CONFIG_H_

#include <cstdint>

#include "data/interception.h"
#include "util/status.h"

namespace musenet::muse {

/// Which interactive representation the model learns.
enum class InteractiveMode {
  /// One representation Z^S shared across all three sub-series — the paper's
  /// multivariate disentanglement.
  kMultivariate,
  /// Three pairwise representations Z^{CP}, Z^{CT}, Z^{PT} — the
  /// "w/o-MultiDisentangle" ablation (cross-variate disentanglement).
  kPairwise,
};

/// Hyper-parameters of MUSE-Net (paper Section IV-E defaults in comments).
struct MuseNetConfig {
  int64_t grid_h = 10;
  int64_t grid_w = 20;
  data::PeriodicitySpec periodicity;  ///< (L_c, L_p, L_t) = (3, 4, 4).

  int64_t repr_dim = 64;   ///< d: channels of Z^C/Z^P/Z^T/Z^S maps.
  int64_t dist_dim = 128;  ///< k: interactive μ/σ dimension; exclusive k/4.
  double lambda = 1.0;     ///< λ: push/pull trade-off (paper: 1).

  int64_t resplus_blocks = 2;    ///< Residual conv blocks in the spatial head.
  int64_t plus_channels = 2;     ///< Channels routed through the FC "plus" branch.

  // Ablation switches (Table VI).
  bool use_spatial = true;   ///< false = w/o-Spatial (no ResPlus network).
  bool use_pushing = true;   ///< false = w/o-SemanticPushing (drop Eq. 9).
  bool use_pulling = true;   ///< false = w/o-SemanticPulling (drop Eq. 16).
  InteractiveMode interactive_mode = InteractiveMode::kMultivariate;

  /// Range to which distribution log-variances are clamped for stability.
  float logvar_clamp = 6.0f;

  /// Weight of the disentanglement objective (KL + reconstruction + pull)
  /// relative to the regression loss. 1.0 reproduces Eq. (26) exactly; the
  /// default 0.25 is calibrated for the short single-core training budgets
  /// of this reproduction, where the full-weight auxiliary terms slow the
  /// regression path's convergence (see bench_ablation_design).
  double aux_weight = 0.25;

  /// Uses Eq. (29)'s + KL[r‖d^{ij}] term with the sign as printed in the
  /// paper (maximized ⇒ −KL in the minimized loss). That direction is
  /// unbounded below under joint optimization and diverges in practice; the
  /// default (false) uses the stable IIAE-style pulled direction. Kept as an
  /// option so bench_ablation_design can demonstrate the divergence.
  bool paper_pull_sign = false;

  int64_t exclusive_dist_dim() const { return dist_dim / 4; }
};

/// OK, or InvalidArgument naming the first out-of-range field: a grid side
/// or repr_dim below 1, or a dist_dim below 4 (which would leave the
/// exclusive encoders no dimensions). The MuseNet constructor aborts on
/// anything else.
Status ValidateMuseNetConfig(const MuseNetConfig& config);

/// The five rows of the paper's ablation Table VI.
enum class MuseVariant {
  kFull,
  kWithoutSpatial,
  kWithoutMultiDisentangle,
  kWithoutSemanticPushing,
  kWithoutSemanticPulling,
};

/// Applies a variant's switches to a base configuration.
MuseNetConfig ApplyVariant(MuseNetConfig config, MuseVariant variant);

/// Display name as in Table VI.
const char* VariantName(MuseVariant variant);

}  // namespace musenet::muse

#endif  // MUSENET_MUSE_CONFIG_H_
