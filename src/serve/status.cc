#include "serve/status.h"

#include <cinttypes>
#include <cstdio>

#include "obs/expo.h"
#include "obs/flight.h"

namespace musenet::serve {

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(std::string* out, double value) {
  char buf[64];
  // Round-trip precision, same as MetricsToJson, so the dashboards scraping
  // /statusz and /metrics agree bit-for-bit on shared quantities.
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

void AppendInt(std::string* out, int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  *out += buf;
}

}  // namespace

std::string StatusJson(const ModelRegistry& registry,
                       const ForecastService* service) {
  std::string out = "{\"tenants\":[";
  bool first = true;
  for (const ModelRegistry::TenantStatus& tenant :
       registry.TenantStatuses()) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    AppendEscaped(&out, tenant.name);
    out += ",\"version\":";
    AppendInt(&out, tenant.version);
    out += ",\"source_path\":";
    AppendEscaped(&out, tenant.source_path);
    char hash[32];
    std::snprintf(hash, sizeof(hash), "\"%016" PRIx64 "\"",
                  tenant.content_hash);
    out += ",\"content_hash\":";
    out += hash;
    out += ",\"swap_state\":";
    AppendEscaped(&out, tenant.swap_state);
    out += ",\"candidate_version\":";
    AppendInt(&out, tenant.candidate_version);
    if (service != nullptr) {
      const ForecastService::TenantRuntime runtime =
          service->runtime(tenant.name);
      out += ",\"queue_depth\":";
      AppendInt(&out, runtime.queue_depth);
      out += ",\"token_fill\":";
      AppendDouble(&out, runtime.token_fill);
      out += ",\"ewma_batch_ms\":";
      AppendDouble(&out, runtime.ewma_batch_ms);
      if (runtime.quality_enabled) {
        out += ",\"quality\":{\"samples\":";
        AppendInt(&out, runtime.quality.samples);
        out += ",\"cells\":";
        AppendInt(&out, runtime.quality.cells);
        out += ",\"mae\":";
        AppendDouble(&out, runtime.quality.mae);
        out += ",\"bias\":";
        AppendDouble(&out, runtime.quality.bias);
        out += ",\"cusum_max\":";
        AppendDouble(&out, runtime.quality.cusum_max);
        out += ",\"drifted_cells\":";
        AppendInt(&out, runtime.quality.drifted_cells);
        out += "}";
      }
    }
    out += "}";
  }
  out += "],\"flight_recorded\":";
  AppendInt(&out, obs::FlightRecorder::Instance().recorded());
  out += "}";
  return out;
}

bool HealthCheck(const ModelRegistry& registry, std::string* body) {
  bool ready = true;
  std::string detail;
  for (const ModelRegistry::TenantStatus& tenant :
       registry.TenantStatuses()) {
    if (tenant.version > 0) {
      detail += "ready " + tenant.name + " v" +
                std::to_string(tenant.version) + "\n";
    } else {
      detail += "unready " + tenant.name + " (no active plan)\n";
      ready = false;
    }
  }
  *body = (ready ? "ok\n" : "unavailable\n") + detail;
  return ready;
}

void RegisterServeEndpoints(obs::ExpoServer& server,
                            const ModelRegistry& registry,
                            const ForecastService* service) {
  server.Handle("/statusz",
                [&registry, service](const std::string& query) {
                  obs::ExpoServer::Response response;
                  if (query.find("dump=1") != std::string::npos) {
                    const Status dumped =
                        obs::DumpFlightRecorder("statusz_dump");
                    if (!dumped.ok()) {
                      response.status = 503;
                      response.body = dumped.ToString() + "\n";
                      return response;
                    }
                  }
                  response.content_type = "application/json";
                  response.body = StatusJson(registry, service);
                  return response;
                });
  server.Handle("/healthz", [&registry](const std::string&) {
    obs::ExpoServer::Response response;
    if (!HealthCheck(registry, &response.body)) response.status = 503;
    return response;
  });
}

}  // namespace musenet::serve
