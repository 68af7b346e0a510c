#include "muse/config.h"

#include <string>

#include "util/check.h"

namespace musenet::muse {

Status ValidateMuseNetConfig(const MuseNetConfig& config) {
  const struct { const char* field; int64_t value, min; } checks[] = {
      {"grid_h", config.grid_h, 1},
      {"grid_w", config.grid_w, 1},
      {"repr_dim", config.repr_dim, 1},
      {"dist_dim", config.dist_dim, 4}};
  for (const auto& [field, value, min] : checks) {
    if (value >= min) continue;
    return Status::InvalidArgument(std::string(field) + " must be >= " +
                                   std::to_string(min) + ", got " +
                                   std::to_string(value));
  }
  return Status::OK();
}

MuseNetConfig ApplyVariant(MuseNetConfig config, MuseVariant variant) {
  switch (variant) {
    case MuseVariant::kFull:
      break;
    case MuseVariant::kWithoutSpatial:
      config.use_spatial = false;
      break;
    case MuseVariant::kWithoutMultiDisentangle:
      config.interactive_mode = InteractiveMode::kPairwise;
      break;
    case MuseVariant::kWithoutSemanticPushing:
      config.use_pushing = false;
      break;
    case MuseVariant::kWithoutSemanticPulling:
      config.use_pulling = false;
      break;
  }
  return config;
}

const char* VariantName(MuseVariant variant) {
  switch (variant) {
    case MuseVariant::kFull:
      return "MUSE-Net";
    case MuseVariant::kWithoutSpatial:
      return "MUSE-Net-w/o-Spatial";
    case MuseVariant::kWithoutMultiDisentangle:
      return "MUSE-Net-w/o-MultiDisentangle";
    case MuseVariant::kWithoutSemanticPushing:
      return "MUSE-Net-w/o-SemanticPushing";
    case MuseVariant::kWithoutSemanticPulling:
      return "MUSE-Net-w/o-SemanticPulling";
  }
  MUSE_CHECK(false) << "unreachable variant";
  return "";
}

}  // namespace musenet::muse
