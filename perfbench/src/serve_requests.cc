#include "serve_requests.h"

#include "common/clock.h"
#include "common/execution.h"
#include "common/rng.h"
#include "json/parse_limits.h"
#include "serve/handler.h"
#include "serve/http.h"
#include "serve/model_host.h"
#include "serve/serve_config.h"

namespace perfbench {

using namespace coachlm;

RequestSet BuildRequests(const InstructionDataset& pool, uint64_t seed,
                         size_t count) {
  Rng rng(MixSeed(seed, 0x5e7e));
  RequestSet set;
  set.raw.reserve(count);
  set.pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int64_t k = rng.NextBool(0.5) ? 1 : rng.NextInt(2, 8);
    std::vector<uint32_t> picks;
    std::string body;
    for (int64_t j = 0; j < k; ++j) {
      const auto index = static_cast<uint32_t>(rng.NextBelow(pool.size()));
      picks.push_back(index);
      body += pool[index].ToJson().Dump();
      body += '\n';
    }
    set.raw.push_back(
        "POST /v1/revise HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/x-ndjson\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body);
    set.pairs.push_back(std::move(picks));
  }
  return set;
}

std::vector<uint64_t> ExpectedHashes(const InstructionDataset& revised_pool,
                                     const RequestSet& requests) {
  std::vector<std::string> lines;
  lines.reserve(revised_pool.size());
  for (const InstructionPair& pair : revised_pool) {
    lines.push_back(pair.ToJson().Dump() + "\n");
  }
  std::vector<uint64_t> hashes(requests.raw.size(), 0);
  for (size_t i = 0; i < requests.pairs.size(); ++i) {
    std::string body;
    for (const uint32_t index : requests.pairs[i]) body += lines[index];
    hashes[i] = Fnv1a(body);
  }
  return hashes;
}

Status ProbeServeLayers(const Options& options, const RequestSet& requests,
                        size_t first, size_t count,
                        const std::vector<uint64_t>& expected,
                        SpanRecorder* spans, int parent, Report* report) {
  auto index = [&](size_t i) { return (first + i) % requests.raw.size(); };
  std::vector<serve::HttpRequest> parsed(count);
  Probe(spans, "serve.http.parse", parent, count, [&](size_t i) {
    Result<serve::HttpRequest> request =
        serve::ParseHttpRequest(requests.raw[index(i)]);
    if (request.ok()) parsed[i] = std::move(request).ValueOrDie();
    return static_cast<int64_t>(first + i);
  });
  serve::ServeConfig config;
  config.checkpoint = options.CheckpointPath();
  config.coach = BenchCoachConfig();
  config.parse_limits = json::ParseLimits::Default();
  serve::ModelHost models(config.checkpoint, config.coach);
  {
    const ScopedSpan span(spans, "serve.model_host.load", parent);
    COACHLM_RETURN_NOT_OK(models.Load());
  }
  serve::ServeContext context;
  context.config = &config;
  context.models = &models;
  context.clock = Clock::System();
  std::vector<std::pair<int, uint64_t>> handled(count);
  Probe(spans, "serve.handler", parent, count, [&](size_t i) {
    const serve::HttpResponse response =
        serve::HandleRequest(context, first + i, parsed[i]);
    handled[i] = {response.status, Fnv1a(response.body)};
    return static_cast<int64_t>(first + i);
  });
  for (size_t i = 0; i < count; ++i) {
    report->Attempt(1);
    if (handled[i].first != 200 || handled[i].second != expected[index(i)]) {
      report->Fail(1, "in-process handler response differs for request " +
                          std::to_string(first + i));
    }
  }
  return Status::OK();
}

}  // namespace perfbench
