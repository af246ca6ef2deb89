// Open-loop HTTP load generator: seeded Poisson arrivals, latency measured
// from each request's intended send time (so a stall is charged to every
// request queued behind it), generator health, and the ladder logic that
// turns one rung's outcomes into a pass or a miss.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {

/// Intended send offsets (ns from the phase start) of \p count arrivals of
/// a Poisson process at \p rate_rps, drawn from \p seed. The same seed and
/// rate always give the same schedule.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_rps,
                                     size_t count);

/// \brief What happened to one request. Times are steady-clock ns.
struct Outcome {
  int64_t intended_ns = 0;    ///< When the schedule said to send it.
  int64_t start_ns = 0;       ///< When a connection began on it.
  int64_t connected_ns = 0;   ///< TCP connect finished.
  int64_t first_byte_ns = 0;  ///< First response byte arrived.
  int64_t done_ns = 0;        ///< Whole response read.
  int status = 0;             ///< HTTP status; 0 = transport error.
  uint64_t body_hash = 0;     ///< Fnv1a of the response body.
  /// Due requests no connection had picked up yet when this one started.
  size_t backlog = 0;
  /// Generator lateness: a connection was free, but the thread woke late.
  int64_t lag_ns = 0;
  /// Time the request waited, past its due time, for a free connection.
  int64_t conn_wait_ns = 0;

  bool ok() const { return status >= 200 && status < 300; }
  /// Latency from the intended send time.
  int64_t latency_ns() const { return done_ns - intended_ns; }
};

/// \brief One HTTP/1.1 exchange per connection (the server closes after
/// each response) against 127.0.0.1:port. Requests are pre-serialized;
/// request index i sends requests[i % requests.size()].
class HttpTransport {
 public:
  HttpTransport(int port, const std::vector<std::string>* requests)
      : port_(port), requests_(requests) {}

  /// Sends request \p index and reads the whole response, filling the
  /// connected/first-byte/done times, status and body hash of \p out.
  void Exchange(size_t index, Outcome* out) const;

 private:
  int port_;
  const std::vector<std::string>* requests_;
};

/// Runs requests first_request .. first_request + schedule.size() - 1 on
/// an open-loop schedule over \p connections concurrent connections.
/// With \p spans enabled, every request gets a span (item = request index)
/// with connect / first-byte / read children under \p parent, and every
/// wait for the schedule gets a "loadgen.idle" span.
std::vector<Outcome> RunOpenLoop(const HttpTransport& transport,
                                 const std::vector<int64_t>& schedule,
                                 size_t first_request, int connections,
                                 SpanRecorder* spans, int parent);

/// Closed loop: \p count requests from \p first_request, each connection
/// sending its next request as soon as the previous one completes.
std::vector<Outcome> RunClosedLoop(const HttpTransport& transport,
                                   size_t first_request, size_t count,
                                   int connections, SpanRecorder* spans,
                                   int parent);

/// A rung passes when its p99 latency is at most this.
inline constexpr double kP99LimitMs = 20.0;
/// A rung is invalid (its numbers say more about the generator than the
/// server) when the generator's own lateness p99 exceeds this.
inline constexpr double kMaxLagP99Ms = 5.0;

/// \brief Verdict on one rung of the rate ladder.
struct RungVerdict {
  double rate_rps = 0.0;
  size_t attempted = 0;
  /// Non-2xx responses and transport errors; they miss any latency limit.
  size_t misses = 0;
  Percentile p50_ms;
  Percentile p99_ms;
  Percentile lag_p99_ms;
  Percentile conn_wait_p99_ms;
  size_t backlog_max = 0;
  bool backlog_growing = false;
  /// False when the generator ran late: the rung proves nothing.
  bool valid = true;
  bool passed = false;

  std::string ToString() const;
};

/// Latencies (ms) of \p outcomes; failed requests count as +infinity so
/// they miss every percentile limit.
std::vector<double> LatenciesMs(const std::vector<Outcome>& outcomes);

/// True when the due-but-unsent backlog grew across the phase: the
/// least-squares trend of backlog against intended time rises by more
/// than max(2 * connections, 2% of the requests) over the phase.
bool BacklogGrowing(const std::vector<Outcome>& outcomes, int connections);

RungVerdict EvaluateRung(double rate_rps, const std::vector<Outcome>& outcomes,
                         int connections);

/// Index of the highest rung passed before the first rung that did not
/// pass (the climb stops there), or -1 when the first rung failed.
int HighestPassingRung(const std::vector<RungVerdict>& rungs);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
