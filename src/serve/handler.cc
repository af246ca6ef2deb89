#include "serve/handler.h"

#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/execution.h"
#include "common/metrics.h"
#include "common/runtime.h"
#include "data/instruction_pair.h"
#include "data/pair_codec.h"
#include "json/json.h"
#include "json/jsonl.h"

namespace coachlm {
namespace serve {
namespace {

HttpResponse ErrorResponse(const Status& status) {
  HttpResponse response;
  response.status = HttpStatusFromStatus(status);
  response.body = HttpErrorBody(status);
  return response;
}

HttpResponse JsonResponse(json::Object object) {
  HttpResponse response;
  response.body = json::Value(std::move(object)).Dump();
  return response;
}

HttpResponse HandleHealth(const ServeContext& context) {
  json::Object body;
  body["model_version"] = json::Value(context.models->version());
  body["status"] = json::Value(context.draining ? "draining" : "ok");
  return JsonResponse(std::move(body));
}

HttpResponse HandleModelInfo(const ServeContext& context) {
  const std::shared_ptr<const coach::CoachLm> model =
      context.models->Snapshot();
  if (model == nullptr) {
    return ErrorResponse(Status::Unavailable("serve: no model loaded"));
  }
  json::Object body;
  body["backbone"] = json::Value(model->config().backbone.name);
  body["checkpoint"] = json::Value(context.models->checkpoint_path());
  body["rules_trained"] = json::Value(model->rules().train_pairs);
  body["seed"] = json::Value(static_cast<int64_t>(model->config().seed));
  body["version"] = json::Value(context.models->version());
  return JsonResponse(std::move(body));
}

HttpResponse HandleReload(const ServeContext& context) {
  const ModelHost::ReloadResult result = context.models->Reload();
  if (!result.status.ok()) {
    // A torn/invalid artifact is the *operator's* asset failing, not the
    // client's request: always 503 (the old model is still serving), with
    // the loader's typed code preserved in the body for the runbook.
    CountMetric("serve.reloads_rejected");
    HttpResponse response = ErrorResponse(result.status);
    response.status = 503;
    return response;
  }
  CountMetric("serve.reloads_ok");
  json::Object body;
  body["status"] = json::Value("reloaded");
  body["version"] = json::Value(result.version);
  return JsonResponse(std::move(body));
}

HttpResponse HandleRevise(const ServeContext& context, uint64_t request_id,
                          const HttpRequest& request) {
  const ServeConfig& config = *context.config;
  // The request-envelope fault site: a plan targeting serve.parse makes
  // body handling itself fail (typed 5xx/4xx), exercising the client-visible
  // degraded path deterministically.
  const FaultInjector injector(config.fault_plan);
  {
    const Status injected = injector.Inject(FaultSite::kServeParse,
                                            request_id, 1, context.clock);
    if (!injected.ok()) return ErrorResponse(injected);
  }

  Result<std::vector<json::Value>> parsed =
      json::ParseLines(request.body, config.parse_limits);
  if (!parsed.ok()) {
    // Hostile or over-budget JSONL: typed 4xx, never a crash. The limits
    // carry byte offsets in the message so the client can find the line.
    return ErrorResponse(parsed.status());
  }
  const std::vector<json::Value>& lines = parsed.ValueOrDie();
  CountMetric("serve.records_in", lines.size());

  const std::shared_ptr<const coach::CoachLm> model =
      context.models->Snapshot();
  if (model == nullptr) {
    return ErrorResponse(Status::Unavailable("serve: no model loaded"));
  }

  // Per-request budget + fault envelope: the same machinery batch stages
  // run under, scoped to this one request. Transient revise faults retry
  // under config.retry; permanent ones degrade per record (original pair
  // kept); a blown deadline fails the whole request as a typed 504.
  CancelToken cancel = CancelToken::AfterMicros(
      context.clock, config.request_deadline_ms * 1000);
  PipelineRuntime runtime(FaultInjector(config.fault_plan), config.retry,
                          context.clock);
  runtime.set_cancel_token(&cancel);

  std::string out;
  size_t quarantined = 0;
  for (const json::Value& line : lines) {
    Result<InstructionPair> pair_result = InstructionPair::FromJson(line);
    if (!pair_result.ok()) return ErrorResponse(pair_result.status());
    const InstructionPair& pair = pair_result.ValueOrDie();

    InstructionPair revised;
    const Status status = runtime.Run(FaultSite::kServeRevise, pair.id, [&] {
      // Same derivation as the batch pass (seed x pair id, position-free),
      // which is what makes a served revision byte-identical to
      // `coachlm revise` for the same record.
      Rng rng = DeriveRng(model->config().seed, pair.id);
      revised = model->Revise(pair, &rng);
      return Status::OK();
    });
    if (cancel.cancelled()) {
      // Deadline or external cancel: the whole request gets one typed
      // failure instead of a silently truncated body.
      return ErrorResponse(cancel.status());
    }
    if (!status.ok()) {
      // Permanent per-record failure: degrade exactly like the batch pass —
      // the original pair is returned and the record counts as quarantined.
      revised = pair;
      ++quarantined;
    }
    AppendPairJson(revised, &out);
    out += '\n';
  }
  CountMetric("serve.records_revised", lines.size() - quarantined);
  if (quarantined > 0) CountMetric("serve.records_quarantined", quarantined);

  HttpResponse response;
  response.content_type = "application/x-ndjson";
  response.body = std::move(out);
  return response;
}

HttpResponse MethodNotAllowed(const std::string& method,
                              const std::string& target) {
  HttpResponse response = ErrorResponse(Status::InvalidArgument(
      "serve: method " + method + " not allowed on " + target));
  response.status = 405;
  return response;
}

}  // namespace

HttpResponse HandleRequest(const ServeContext& context, uint64_t request_id,
                           const HttpRequest& request) {
  if (request.target == "/healthz") {
    if (request.method != "GET") {
      return MethodNotAllowed(request.method, request.target);
    }
    return HandleHealth(context);
  }
  if (request.target == "/v1/model") {
    if (request.method != "GET") {
      return MethodNotAllowed(request.method, request.target);
    }
    return HandleModelInfo(context);
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") {
      return MethodNotAllowed(request.method, request.target);
    }
    HttpResponse response;
    response.body = MetricsRegistry::Default().ToJson().Dump();
    return response;
  }
  if (request.target == "/admin/reload") {
    if (request.method != "POST") {
      return MethodNotAllowed(request.method, request.target);
    }
    return HandleReload(context);
  }
  if (request.target == "/v1/revise") {
    if (request.method != "POST") {
      return MethodNotAllowed(request.method, request.target);
    }
    return HandleRevise(context, request_id, request);
  }
  return ErrorResponse(
      Status::NotFound("serve: no endpoint at " + request.target));
}

void RecordRequestMetrics(const HttpResponse& response,
                          const std::string& target, int64_t latency_micros) {
  if (response.status == 429) {
    CountMetric("serve.requests_shed");
  } else if (response.status == 504 || response.status == 408) {
    CountMetric("serve.requests_deadline_exceeded");
  } else if (response.status >= 500) {
    CountMetric("serve.requests_server_error");
  } else if (response.status >= 400) {
    CountMetric("serve.requests_client_error");
  } else {
    CountMetric("serve.requests_ok");
  }
  if (target == "/v1/revise") {
    ObserveMetric("serve.latency_revise_micros", latency_micros);
  } else if (target == "/admin/reload") {
    ObserveMetric("serve.latency_admin_micros", latency_micros);
  } else {
    ObserveMetric("serve.latency_health_micros", latency_micros);
  }
}

}  // namespace serve
}  // namespace coachlm
