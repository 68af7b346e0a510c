#include "serve/registry.h"

#include <cmath>
#include <utility>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/serialize.h"
#include "util/fault_injector.h"
#include "util/hash.h"
#include "util/io.h"

namespace musenet::serve {

namespace ts = musenet::tensor;

namespace {

const char* StageName(int stage) {
  switch (stage) {
    case 1: return "load";
    case 2: return "build";
    case 3: return "shadow";
    case 4: return "commit";
    default: return "idle";
  }
}

int StageIndex(const char* stage) {
  if (std::string("load") == stage) return 1;
  if (std::string("build") == stage) return 2;
  if (std::string("shadow") == stage) return 3;
  if (std::string("commit") == stage) return 4;
  return 0;
}

}  // namespace

ModelRegistry::ModelRegistry(RegistryOptions options)
    : options_(std::move(options)) {}

ModelRegistry::Tenant* ModelRegistry::FindTenant(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

Result<std::shared_ptr<const ServingPlan>> ModelRegistry::BuildCandidate(
    const ModelSpec& spec, const std::string& path, int64_t version,
    const std::function<void(const char*)>& on_stage) const {
  auto& rejected = obs::GetCounter("serve.shadow_rejected");
  auto reject = [&rejected, &spec, version](Status status) -> Status {
    rejected.Add();
    obs::TraceInstant("serve.swap.rejected", "version", version);
    obs::FlightRecorder::Instance().Record("serve.swap.rejected", version, 0,
                                          spec.name.c_str());
    // A rejected candidate is exactly the 3am incident the flight recorder
    // exists for: dump the ring (when a post-mortem path is configured) so
    // the shed/stage/fault breadcrumbs around the rejection are preserved.
    if (!obs::PostmortemPath().empty()) {
      (void)obs::DumpFlightRecorder("shadow_rejection");
    }
    return status;
  };
  auto stage = [&on_stage, &spec, version](const char* name) {
    obs::FlightRecorder::Instance().Record("serve.swap.stage", version,
                                          StageIndex(name),
                                          spec.name.c_str());
    if (on_stage) on_stage(name);
  };

  // --- 1. LOAD: container bytes -> named tensors (CRC-checked) --------------
  stage("load");
  obs::ScopedSpan load_span("serve.swap.load");
  util::FaultInjector& faults = util::FaultInjector::Instance();
  if (faults.TakeLoadFailure()) {
    return reject(Status::IoError("injected load failure reading '" + path +
                                  "' for tenant '" + spec.name + "'"));
  }
  auto bytes = util::ReadFileToString(path);
  if (!bytes.ok()) return reject(bytes.status());
  if (faults.TakeSwapCorrupt() && !bytes.value().empty()) {
    // A flipped bit in the middle of the container — the CRC-checked parse
    // below must refuse it; this fault never reaches a served prediction.
    bytes.value()[bytes.value().size() / 2] ^= 0x10;
  }
  const uint64_t content_hash = util::Fnv1a64(bytes.value());
  auto tensors = ts::ParseTensors(path, bytes.value());
  if (!tensors.ok()) return reject(tensors.status());

  // --- 2. BUILD: model from spec, weights from container, engine plan -------
  stage("build");
  obs::ScopedSpan build_span("serve.swap.build");
  auto plan = std::make_shared<ServingPlan>();
  plan->version = version;
  plan->source_path = path;
  plan->content_hash = content_hash;
  plan->model = std::make_unique<muse::MuseNet>(spec.config, spec.seed);
  const Status loaded = plan->model->LoadStateDict(tensors.value());
  if (!loaded.ok()) return reject(loaded);
  plan->model->SetTraining(false);
  plan->engine = std::make_unique<infer::Engine>(*plan->model, spec.engine);

  // --- 3. SHADOW: replay held-out probes on the candidate only --------------
  stage("shadow");
  obs::ScopedSpan shadow_span("serve.swap.shadow");
  const float gate = spec.engine.max_abs_delta;
  int64_t probed = 0;
  for (const data::Batch& probe : options_.probes) {
    // Registry-level probes are shared across tenants; only those matching
    // this tenant's grid exercise its candidate (A/B tenants on different
    // cities validate against their own geometry).
    if (probe.closeness.dim(2) != spec.config.grid_h ||
        probe.closeness.dim(3) != spec.config.grid_w) {
      continue;
    }
    ++probed;
    const ts::Tensor ref = plan->model->Predict(probe);
    const ts::Tensor got = plan->engine->Predict(probe);
    for (int64_t i = 0; i < got.num_elements(); ++i) {
      const float g = got.flat(i);
      if (!std::isfinite(g)) {
        return reject(Status::Internal(
            "shadow validation: candidate '" + spec.name + "' v" +
            std::to_string(version) + " produced a non-finite prediction"));
      }
      const float delta = std::abs(g - ref.flat(i));
      if (delta > gate) {
        return reject(Status::Internal(
            "shadow validation: candidate '" + spec.name + "' v" +
            std::to_string(version) + " engine/model delta " +
            std::to_string(delta) + " exceeds gate " + std::to_string(gate)));
      }
    }
  }
  if (!options_.probes.empty() && probed == 0) {
    obs::TraceInstant("serve.swap.no_matching_probes");
  }
  return std::shared_ptr<const ServingPlan>(std::move(plan));
}

Status ModelRegistry::Load(const ModelSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("tenant name must not be empty");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenants_.count(spec.name) != 0) {
      return Status::AlreadyExists("tenant '" + spec.name +
                                   "' is already registered");
    }
  }
  auto on_stage = [this, &spec](const char* stage) {
    if (options_.stage_hook) options_.stage_hook(spec.name, stage);
  };
  auto candidate = BuildCandidate(spec, spec.path, /*version=*/1, on_stage);
  if (!candidate.ok()) return candidate.status();

  auto tenant = std::make_unique<Tenant>();
  tenant->spec = spec;
  tenant->next_version = 2;
  tenant->active.store(std::move(candidate).value(),
                       std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  if (!tenants_.emplace(spec.name, std::move(tenant)).second) {
    return Status::AlreadyExists("tenant '" + spec.name +
                                 "' is already registered");
  }
  return Status::OK();
}

Status ModelRegistry::Swap(const std::string& name, const std::string& path) {
  Tenant* tenant = FindTenant(name);
  if (tenant == nullptr) {
    return Status::NotFound("unknown tenant '" + name + "'");
  }
  // Swaps of one tenant serialize; readers and other tenants' swaps proceed.
  std::lock_guard<std::mutex> swap_lock(tenant->swap_mu);
  obs::ScopedSpan span("serve.swap", "version", tenant->next_version);
  const std::string source = path.empty() ? tenant->spec.path : path;
  tenant->candidate_version.store(tenant->next_version,
                                  std::memory_order_release);
  auto on_stage = [this, tenant, &name](const char* stage) {
    tenant->swap_stage.store(StageIndex(stage), std::memory_order_release);
    if (options_.stage_hook) options_.stage_hook(name, stage);
  };
  auto candidate =
      BuildCandidate(tenant->spec, source, tenant->next_version, on_stage);
  if (!candidate.ok()) {
    tenant->swap_stage.store(0, std::memory_order_release);
    tenant->candidate_version.store(0, std::memory_order_release);
    if (options_.stage_hook) options_.stage_hook(name, "idle");
    return candidate.status();
  }

  // --- 4. COMMIT: CAS the active-plan pointer --------------------------------
  // The CAS cannot lose (swap_mu serializes writers); the loop documents the
  // lock-free publish contract with Acquire. The superseded plan retires
  // when its last in-flight snapshot releases (shared_ptr refcount).
  on_stage("commit");
  obs::FlightRecorder::Instance().Record("serve.swap.commit",
                                        tenant->next_version, 0,
                                        name.c_str());
  std::shared_ptr<const ServingPlan> expected =
      tenant->active.load(std::memory_order_acquire);
  while (!tenant->active.compare_exchange_weak(
      expected, candidate.value(), std::memory_order_acq_rel,
      std::memory_order_acquire)) {
  }
  tenant->next_version++;
  tenant->spec.path = source;
  obs::GetCounter("serve.swapped").Add();
  tenant->swap_stage.store(0, std::memory_order_release);
  tenant->candidate_version.store(0, std::memory_order_release);
  if (options_.stage_hook) options_.stage_hook(name, "idle");
  return Status::OK();
}

std::shared_ptr<const ServingPlan> ModelRegistry::Acquire(
    const std::string& name) const {
  Tenant* tenant = FindTenant(name);
  if (tenant == nullptr) return nullptr;
  return tenant->active.load(std::memory_order_acquire);
}

int64_t ModelRegistry::version(const std::string& name) const {
  auto plan = Acquire(name);
  return plan == nullptr ? 0 : plan->version;
}

std::vector<std::string> ModelRegistry::TenantNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

std::vector<ModelRegistry::TenantStatus> ModelRegistry::TenantStatuses()
    const {
  std::vector<TenantStatus> statuses;
  std::lock_guard<std::mutex> lock(mu_);
  statuses.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    TenantStatus status;
    status.name = name;
    // One atomic plan snapshot: every active-plan field below comes from the
    // same ServingPlan, so a concurrent commit flips them together or not
    // at all (never torn).
    const std::shared_ptr<const ServingPlan> plan =
        tenant->active.load(std::memory_order_acquire);
    if (plan != nullptr) {
      status.version = plan->version;
      status.source_path = plan->source_path;
      status.content_hash = plan->content_hash;
    }
    status.swap_state =
        StageName(tenant->swap_stage.load(std::memory_order_acquire));
    status.candidate_version =
        tenant->candidate_version.load(std::memory_order_acquire);
    statuses.push_back(std::move(status));
  }
  return statuses;
}

}  // namespace musenet::serve
