// Revision requests built from corpus pairs, their expected responses, and
// the transport-free probe of the serve layer (HTTP parse + handler).
#ifndef PERFBENCH_SERVE_REQUESTS_H_
#define PERFBENCH_SERVE_REQUESTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "spans.h"
#include "workload_common.h"

namespace perfbench {

/// \brief Pre-serialized POST /v1/revise requests, with the pool indices
/// of the pairs in each body.
struct RequestSet {
  std::vector<std::string> raw;
  std::vector<std::vector<uint32_t>> pairs;
};

/// \p count requests over pairs of \p pool, drawn from \p seed: half the
/// bodies hold a single pair, the rest 2-8.
RequestSet BuildRequests(const coachlm::InstructionDataset& pool,
                         uint64_t seed, size_t count);

/// Expected response body hash (Fnv1a) of every request, given the batch
/// revise of the pool (\p revised_pool[i] is the revision of pool[i]).
std::vector<uint64_t> ExpectedHashes(
    const coachlm::InstructionDataset& revised_pool,
    const RequestSet& requests);

/// Times ParseHttpRequest ("serve.http.parse") and then HandleRequest
/// ("serve.handler", in process, no socket) on requests [first, first +
/// count), with the server's configuration and the workload's checkpoint.
/// Every response must be a 200 whose body hash is expected[i]; mismatches
/// are counted into \p report.
coachlm::Status ProbeServeLayers(const Options& options,
                                 const RequestSet& requests, size_t first,
                                 size_t count,
                                 const std::vector<uint64_t>& expected,
                                 SpanRecorder* spans, int parent,
                                 Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_REQUESTS_H_
