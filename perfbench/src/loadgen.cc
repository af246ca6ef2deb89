#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "common/rng.h"
#include "serve/http.h"

namespace perfbench {

std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate_rps,
                                     size_t count) {
  coachlm::Rng rng(seed);
  std::vector<int64_t> schedule;
  schedule.reserve(count);
  double t_s = 0.0;
  for (size_t i = 0; i < count; ++i) {
    // Exponential gap; 1 - u lies in (0, 1], so the log is finite.
    t_s += -std::log(1.0 - rng.NextDouble()) / rate_rps;
    schedule.push_back(static_cast<int64_t>(t_s * 1e9));
  }
  return schedule;
}

void HttpTransport::Exchange(size_t index, Outcome* out) const {
  const std::string& request = (*requests_)[index % requests_->size()];
  out->status = 0;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    out->connected_ns = out->first_byte_ns = out->done_ns = NowNs();
    return;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const timeval timeout = {10, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool failed =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0;
  out->connected_ns = NowNs();
  size_t sent = 0;
  while (!failed && sent < request.size()) {
    const ssize_t wrote = ::send(fd, request.data() + sent,
                                 request.size() - sent, MSG_NOSIGNAL);
    if (wrote < 0 && errno == EINTR) continue;
    if (wrote <= 0) failed = true;
    else sent += static_cast<size_t>(wrote);
  }
  std::string raw;
  char buffer[16 * 1024];
  out->first_byte_ns = 0;
  while (!failed) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) failed = true;
    if (got <= 0) break;
    if (raw.empty()) out->first_byte_ns = NowNs();
    raw.append(buffer, static_cast<size_t>(got));
  }
  out->done_ns = NowNs();
  if (out->first_byte_ns == 0) out->first_byte_ns = out->done_ns;
  // The server closes first, so the response is complete at EOF. Abort
  // with an RST instead of a FIN: no TIME_WAIT state is left behind, so a
  // long run cannot exhaust ports or the TIME_WAIT table.
  const linger abort_on_close = {1, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close,
                     sizeof(abort_on_close));
  (void)::close(fd);
  if (failed) return;
  const auto parsed = coachlm::serve::ParseHttpResponse(raw);
  if (!parsed.ok()) return;
  out->status = parsed->status;
  out->body_hash = Fnv1a(parsed->body);
}

namespace {

/// Records the request span and its wire phases.
void RecordRequestSpans(SpanRecorder* spans, int parent, size_t request,
                        const Outcome& o) {
  if (!spans->enabled()) return;
  const auto item = static_cast<int64_t>(request);
  const int span = spans->Add("serve.request", parent, o.start_ns, o.done_ns,
                              item);
  spans->Add("serve.wire.connect", span, o.start_ns, o.connected_ns, item);
  spans->Add("serve.wire.first_byte", span, o.connected_ns, o.first_byte_ns,
             item);
  spans->Add("serve.wire.read", span, o.first_byte_ns, o.done_ns, item);
}

/// Runs \p body on \p connections threads and joins them all.
template <typename Body>
void OnConnections(int connections, const Body& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) threads.emplace_back(body);
  for (std::thread& t : threads) t.join();
}

}  // namespace

std::vector<Outcome> RunOpenLoop(const HttpTransport& transport,
                                 const std::vector<int64_t>& schedule,
                                 size_t first_request, int connections,
                                 SpanRecorder* spans, int parent) {
  const size_t n = schedule.size();
  std::vector<Outcome> outcomes(n);
  // A short lead lets every connection thread park before the first
  // arrival is due.
  const int64_t t0 = NowNs() + 2'000'000;
  std::atomic<size_t> next{0};
  OnConnections(connections, [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= n) return;
      Outcome& o = outcomes[i];
      o.intended_ns = t0 + schedule[i];
      const int64_t free_at = NowNs();
      if (free_at < o.intended_ns) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(o.intended_ns)));
        o.start_ns = NowNs();
        o.lag_ns = o.start_ns - o.intended_ns;
        spans->Add("loadgen.idle", parent, free_at, o.start_ns);
      } else {
        o.start_ns = free_at;
        o.conn_wait_ns = free_at - o.intended_ns;
      }
      const auto due = static_cast<size_t>(
          std::upper_bound(schedule.begin(), schedule.end(),
                           o.start_ns - t0) -
          schedule.begin());
      const size_t taken = next.load();
      o.backlog = due > taken ? due - taken : 0;
      transport.Exchange(first_request + i, &o);
      RecordRequestSpans(spans, parent, first_request + i, o);
    }
  });
  return outcomes;
}

std::vector<Outcome> RunClosedLoop(const HttpTransport& transport,
                                   size_t first_request, size_t count,
                                   int connections, SpanRecorder* spans,
                                   int parent) {
  std::vector<Outcome> outcomes(count);
  std::atomic<size_t> next{0};
  OnConnections(connections, [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= count) return;
      Outcome& o = outcomes[i];
      o.intended_ns = o.start_ns = NowNs();
      transport.Exchange(first_request + i, &o);
      RecordRequestSpans(spans, parent, first_request + i, o);
    }
  });
  return outcomes;
}

std::vector<double> LatenciesMs(const std::vector<Outcome>& outcomes) {
  std::vector<double> latencies;
  latencies.reserve(outcomes.size());
  for (const Outcome& o : outcomes) {
    latencies.push_back(o.ok() ? static_cast<double>(o.latency_ns()) / 1e6
                               : std::numeric_limits<double>::infinity());
  }
  return latencies;
}

bool BacklogGrowing(const std::vector<Outcome>& outcomes, int connections) {
  const size_t n = outcomes.size();
  if (n < 2) return false;
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (const Outcome& o : outcomes) {
    mean_x += static_cast<double>(o.intended_ns - outcomes[0].intended_ns);
    mean_y += static_cast<double>(o.backlog);
  }
  mean_x /= static_cast<double>(n);
  mean_y /= static_cast<double>(n);
  double cov = 0.0;
  double var = 0.0;
  for (const Outcome& o : outcomes) {
    const double dx =
        static_cast<double>(o.intended_ns - outcomes[0].intended_ns) - mean_x;
    cov += dx * (static_cast<double>(o.backlog) - mean_y);
    var += dx * dx;
  }
  if (var <= 0.0) return false;
  const double span_ns = static_cast<double>(outcomes.back().intended_ns -
                                             outcomes.front().intended_ns);
  const double rise = cov / var * span_ns;
  return rise > std::max(2.0 * connections, 0.02 * static_cast<double>(n));
}

RungVerdict EvaluateRung(double rate_rps, const std::vector<Outcome>& outcomes,
                         int connections) {
  RungVerdict v;
  v.rate_rps = rate_rps;
  v.attempted = outcomes.size();
  std::vector<double> lags;
  std::vector<double> waits;
  for (const Outcome& o : outcomes) {
    if (!o.ok()) ++v.misses;
    lags.push_back(static_cast<double>(o.lag_ns) / 1e6);
    waits.push_back(static_cast<double>(o.conn_wait_ns) / 1e6);
    v.backlog_max = std::max(v.backlog_max, o.backlog);
  }
  const std::vector<double> latencies = LatenciesMs(outcomes);
  v.p50_ms = ComputePercentile(latencies, 0.50);
  v.p99_ms = ComputePercentile(latencies, 0.99);
  v.lag_p99_ms = ComputePercentile(lags, 0.99);
  v.conn_wait_p99_ms = ComputePercentile(waits, 0.99);
  v.backlog_growing = BacklogGrowing(outcomes, connections);
  v.valid = v.lag_p99_ms.value.has_value() &&
            *v.lag_p99_ms.value <= kMaxLagP99Ms;
  v.passed = v.valid && v.p99_ms.value.has_value() &&
             *v.p99_ms.value <= kP99LimitMs && !v.backlog_growing;
  return v;
}

std::string RungVerdict::ToString() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%.0f req/s: %s; %s, %s, misses %zu/%zu, backlog max %zu%s, "
                "generator lag %s%s",
                rate_rps, passed ? "pass" : "MISS",
                p50_ms.ToString("ms").c_str(), p99_ms.ToString("ms").c_str(),
                misses, attempted, backlog_max,
                backlog_growing ? " (growing)" : "",
                lag_p99_ms.ToString("ms").c_str(),
                valid ? "" : " (INVALID: generator ran late)");
  return buf;
}

int HighestPassingRung(const std::vector<RungVerdict>& rungs) {
  int best = -1;
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (!rungs[i].passed) break;
    best = static_cast<int>(i);
  }
  return best;
}

}  // namespace perfbench
