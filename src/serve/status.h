#ifndef MUSENET_SERVE_STATUS_H_
#define MUSENET_SERVE_STATUS_H_

#include <string>

#include "serve/registry.h"
#include "serve/service.h"

namespace musenet::obs {
class ExpoServer;
}  // namespace musenet::obs

namespace musenet::serve {

/// JSON body of /statusz: one object per tenant (sorted by name) with the
/// active plan's identity (version, source, content hash), the
/// in-flight swap state, and — when `service` is non-null — the runtime
/// signals (queue depth, token-bucket fill, EWMA batch service time,
/// forecast-quality stats). Plan fields are read through one atomic plan
/// snapshot per tenant, so they are internally consistent even while a
/// swap commits.
std::string StatusJson(const ModelRegistry& registry,
                       const ForecastService* service);

/// Liveness + readiness: true (body "ok\n" plus one "ready <tenant> v<N>"
/// line per tenant) when every registered tenant has an active plan; false
/// with the unready tenants named otherwise. A registry with no tenants is
/// ready — the process is alive and serving nothing yet.
bool HealthCheck(const ModelRegistry& registry, std::string* body);

/// Registers the serving endpoints on an exposition server:
///   /statusz  — StatusJson; "?dump=1" also dumps the flight recorder to
///               the configured post-mortem path (503 detail on failure).
///   /healthz  — HealthCheck; 200 when ready, 503 otherwise (overrides the
///               obs-layer liveness-only default).
/// `registry` (and `service`, when non-null) must outlive the server.
void RegisterServeEndpoints(obs::ExpoServer& server,
                            const ModelRegistry& registry,
                            const ForecastService* service);

}  // namespace musenet::serve

#endif  // MUSENET_SERVE_STATUS_H_
