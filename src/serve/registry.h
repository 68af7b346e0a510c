#ifndef MUSENET_SERVE_REGISTRY_H_
#define MUSENET_SERVE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "infer/engine.h"
#include "muse/model.h"
#include "util/status.h"

namespace musenet::serve {

/// One named tenant's model source: where its MUSETNSR container lives and
/// how to instantiate/plan it. A city operator registers one spec per served
/// model (per-city, per-dataset or A/B variants).
struct ModelSpec {
  std::string name;            ///< Tenant name ("bike", "taxi-b", ...).
  std::string path;            ///< MUSETNSR container (tensor::SaveTensors).
  muse::MuseNetConfig config;  ///< Architecture; must match the container.
  infer::EngineOptions engine; ///< Plan-time specialization, delta gate.
  uint64_t seed = 7;           ///< Construction seed (weights overwritten).
};

/// An immutable, planned serving unit: the loaded model, the inference
/// engine compiled over it, and version metadata. Once published it is never
/// mutated; readers hold it through shared_ptr snapshots, so reclamation is
/// refcount-based — the plan a draining batch replays on stays alive until
/// the last in-flight reference drops, no matter how many swaps happen
/// meanwhile.
struct ServingPlan {
  int64_t version = 0;          ///< 1-based, bumped per successful swap.
  std::string source_path;      ///< Container this plan was loaded from.
  uint64_t content_hash = 0;    ///< FNV-1a of the container bytes.
  std::unique_ptr<muse::MuseNet> model;
  std::unique_ptr<infer::Engine> engine;  ///< References *model; keep after.
};

/// Shadow-validation policy applied to every candidate plan before it can
/// become active (initial Load and every Swap).
struct RegistryOptions {
  /// Held-out inputs the candidate must predict sanely on. Validation
  /// checks every output element is finite and that the candidate engine
  /// matches the candidate model's own eval forward within the tenant's
  /// EngineOptions::max_abs_delta — the same gate plan-time specialization
  /// enforces at plan build. Empty skips the probe pass (load/parse/shape
  /// errors still reject).
  std::vector<data::Batch> probes;
  /// Test hook: called synchronously at every swap-stage transition
  /// ("load", "build", "shadow", "commit", "idle") with the tenant name.
  /// Blocking inside the hook holds the swap at that stage — which is how
  /// the /statusz-during-swap test pins an in-flight swap to observe it.
  std::function<void(const std::string& tenant, const char* stage)>
      stage_hook;
};

/// Multi-tenant registry of named, versioned serving plans with atomic
/// hot-swap.
///
/// Swap protocol (see DESIGN.md "Multi-tenant serving"):
///   1. LOAD    — read the container bytes (fault-injection hooks for I/O
///                failure and bit corruption live here), parse the MUSETNSR
///                records (CRC failures reject).
///   2. BUILD   — construct the model from the tenant spec, LoadStateDict
///                (missing/extra/mismatched tensors reject), eval mode,
///                compile the inference engine and warm its plans.
///   3. SHADOW  — replay the probe set on the candidate only; non-finite
///                outputs or an engine/model delta above the gate reject.
///                The active plan serves traffic throughout.
///   4. COMMIT  — CAS the tenant's active-plan pointer to the candidate
///                (serve.swapped). A rejected candidate is discarded and the
///                old plan keeps serving (serve.shadow_rejected).
///
/// Readers call Acquire() and hold the returned snapshot for the duration of
/// one batch replay; the shared_ptr refcount is the epoch that keeps a
/// superseded plan alive until its draining replays finish. Swaps for
/// different tenants can proceed concurrently with each other and with
/// readers; swaps for one tenant serialize.
class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryOptions options = {});

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers a tenant and loads+validates its first plan (version 1).
  /// Fails without registering on a duplicate name or a rejected candidate.
  Status Load(const ModelSpec& spec);

  /// Hot-swaps `name` to the container at `path` (empty = reload the spec's
  /// current path). Runs the full swap protocol; on any rejection the active
  /// plan is untouched and keeps serving. Thread-safe against readers and
  /// other swaps.
  Status Swap(const std::string& name, const std::string& path = "");

  /// Snapshot of the tenant's active plan, or nullptr for an unknown
  /// tenant. Hold it for the duration of one replay; release promptly so
  /// superseded plans can retire.
  std::shared_ptr<const ServingPlan> Acquire(const std::string& name) const;

  /// Active version of `name` (0 when unknown).
  int64_t version(const std::string& name) const;

  /// Registered tenant names, sorted.
  std::vector<std::string> TenantNames() const;

  /// Point-in-time status of one tenant, for /statusz. Reads the active
  /// plan through one atomic Acquire, so the (version, source, hash) tuple
  /// is internally consistent — never torn across a concurrent commit;
  /// swap_state/candidate_version are racy-by-design progress indicators of
  /// an in-flight swap.
  struct TenantStatus {
    std::string name;
    int64_t version = 0;            ///< Active plan version (0 = none).
    std::string source_path;        ///< Container the active plan came from.
    uint64_t content_hash = 0;      ///< FNV-1a of the active container.
    std::string swap_state;         ///< "idle" / "load" / "build" / ...
    int64_t candidate_version = 0;  ///< In-flight swap target (0 = none).
  };

  /// Status of every tenant, sorted by name.
  std::vector<TenantStatus> TenantStatuses() const;

 private:
  struct Tenant {
    ModelSpec spec;
    std::atomic<std::shared_ptr<const ServingPlan>> active;
    std::mutex swap_mu;       ///< Serializes swaps of this tenant only.
    int64_t next_version = 1; ///< Guarded by swap_mu.
    /// In-flight swap progress, for /statusz and the flight recorder:
    /// 0 idle, 1 load, 2 build, 3 shadow, 4 commit.
    std::atomic<int> swap_stage{0};
    std::atomic<int64_t> candidate_version{0};  ///< 0 = no swap running.
  };

  /// Stages 1–3 of the swap protocol: load, build and shadow-validate a
  /// candidate at `version`. Counts serve.shadow_rejected on any failure.
  /// `on_stage` (may be empty) observes stage entry ("load", "build",
  /// "shadow").
  Result<std::shared_ptr<const ServingPlan>> BuildCandidate(
      const ModelSpec& spec, const std::string& path, int64_t version,
      const std::function<void(const char*)>& on_stage) const;

  Tenant* FindTenant(const std::string& name) const;

  RegistryOptions options_;
  mutable std::mutex mu_;  ///< Guards the tenant map's shape.
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace musenet::serve

#endif  // MUSENET_SERVE_REGISTRY_H_
