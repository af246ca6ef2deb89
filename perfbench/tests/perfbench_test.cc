// Unit tests of the benchmark's own logic: the seeded arrival schedule,
// the percentile helper, span self time, the ladder verdicts, and a
// stalled server whose stall must show in the latency of later requests.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const std::vector<int64_t> a = PoissonSchedule(7, 1000.0, 5000);
  EXPECT_EQ(a, PoissonSchedule(7, 1000.0, 5000));
  EXPECT_NE(a, PoissonSchedule(8, 1000.0, 5000));
  ASSERT_EQ(a.size(), 5000u);
  for (size_t i = 1; i < a.size(); ++i) ASSERT_GE(a[i], a[i - 1]);
  // 5000 arrivals at 1000/s span about 5 s.
  EXPECT_NEAR(static_cast<double>(a.back()) / 1e9, 5.0, 0.4);
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  const Percentile p99 = ComputePercentile(samples, 0.99);
  ASSERT_TRUE(p99.value.has_value());
  EXPECT_EQ(*p99.value, 990.0);  // Nearest rank.
  EXPECT_EQ(p99.n, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_NE(p99.ToString("ms").find("(n=1000)"), std::string::npos);

  samples.pop_back();
  const Percentile refused = ComputePercentile(samples, 0.99);
  EXPECT_FALSE(refused.value.has_value());
  EXPECT_EQ(refused.beyond, 9u);
  EXPECT_NE(refused.ToString("ms").find("refused (n=999"), std::string::npos);
  EXPECT_EQ(refused.ValueOr0(), 0.0);

  EXPECT_FALSE(ComputePercentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                                  14, 15, 16, 17, 18, 19},
                                 0.5)
                   .value.has_value());
  EXPECT_TRUE(ComputePercentile(std::vector<double>(20, 1.0), 0.5)
                  .value.has_value());
}

TEST(Percentile, FailuresSortLast) {
  std::vector<double> samples(1000, 1.0);
  for (int i = 0; i < 11; ++i) {
    samples[static_cast<size_t>(i)] = std::numeric_limits<double>::infinity();
  }
  EXPECT_TRUE(std::isinf(*ComputePercentile(samples, 0.99).value));
  EXPECT_EQ(*ComputePercentile(samples, 0.50).value, 1.0);
}

TEST(Spans, SelfTimeOfNestedSpans) {
  // root [0,100] > a [10,40] > a1 [15,20]; root > b [50,80].
  std::vector<Span> spans = {
      {"root", 0, 100, -1, -1},
      {"a", 10, 40, 0, -1},
      {"a1", 15, 20, 1, -1},
      {"b", 50, 80, 0, -1},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self, (std::vector<int64_t>{40, 25, 5, 30}));
  // Leaves a1 and b cover 35 of the root's 100.
  EXPECT_DOUBLE_EQ(LeafCoverage(spans, 0), 0.35);
  EXPECT_EQ(TotalNs(spans, "a"), 30);
}

TEST(Spans, OverlappingChildrenCountOnce) {
  // Two concurrent children [10,60] and [40,90] cover 80 of the root.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, -1},
      {"req", 10, 60, 0, 1},
      {"req", 40, 90, 0, 2},
  };
  EXPECT_EQ(SelfTimesNs(spans)[0], 20);
  EXPECT_EQ(TotalNs(spans, "req"), 100);
}

TEST(Spans, DisabledRecorderRecordsNothing) {
  SpanRecorder off(false);
  EXPECT_EQ(off.Begin("x"), -1);
  off.End(-1);
  EXPECT_TRUE(off.spans().empty());
  SpanRecorder on(true);
  {
    const ScopedSpan outer(&on, "outer");
    const ScopedSpan inner(&on, "inner", outer.index(), 42);
  }
  const std::vector<Span> spans = on.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].item, 42);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

/// \p n successful outcomes 1 ms apart, each \p latency_ns long, with a
/// backlog that only fluctuates.
std::vector<Outcome> Steady(size_t n, int64_t latency_ns = 1'000'000) {
  std::vector<Outcome> out(n);
  for (size_t i = 0; i < n; ++i) {
    Outcome& o = out[i];
    o.intended_ns = o.start_ns = static_cast<int64_t>(i) * 1'000'000;
    o.done_ns = o.intended_ns + latency_ns;
    o.status = 200;
    o.backlog = i % 3;
  }
  return out;
}

TEST(Ladder, HealthyRungPasses) {
  const RungVerdict v = EvaluateRung(1000.0, Steady(1000), 4);
  EXPECT_TRUE(v.valid);
  EXPECT_FALSE(v.backlog_growing);
  EXPECT_TRUE(v.passed);
  EXPECT_EQ(v.misses, 0u);
  EXPECT_NEAR(*v.p99_ms.value, 1.0, 1e-9);
}

TEST(Ladder, FailedAndRefusedRequestsAreMisses) {
  std::vector<Outcome> outcomes = Steady(1000);
  for (size_t i = 0; i < 6; ++i) outcomes[i].status = 429;  // Refused.
  for (size_t i = 6; i < 11; ++i) outcomes[i].status = 0;   // Transport.
  const RungVerdict v = EvaluateRung(1000.0, outcomes, 4);
  EXPECT_EQ(v.misses, 11u);
  // 11 of 1000 missed: the p99 itself is a miss, however fast the rest.
  EXPECT_TRUE(std::isinf(*v.p99_ms.value));
  EXPECT_FALSE(v.passed);
}

TEST(Ladder, SlowTailFailsTheLimit) {
  std::vector<Outcome> outcomes = Steady(1000);
  for (size_t i = 0; i < 20; ++i) outcomes[i].done_ns += 30'000'000;
  EXPECT_FALSE(EvaluateRung(1000.0, outcomes, 4).passed);
}

TEST(Ladder, GrowingBacklogIsDetected) {
  std::vector<Outcome> growing = Steady(1000);
  for (size_t i = 0; i < growing.size(); ++i) growing[i].backlog = i / 10;
  EXPECT_TRUE(BacklogGrowing(growing, 4));
  const RungVerdict v = EvaluateRung(1000.0, growing, 4);
  EXPECT_TRUE(v.backlog_growing);
  EXPECT_FALSE(v.passed);
  EXPECT_EQ(v.backlog_max, 99u);
  // A backlog that only fluctuates is not growing.
  EXPECT_FALSE(BacklogGrowing(Steady(1000), 4));
}

TEST(Ladder, LateGeneratorMakesTheRungInvalid) {
  std::vector<Outcome> outcomes = Steady(1000);
  for (Outcome& o : outcomes) o.lag_ns = 10'000'000;
  const RungVerdict v = EvaluateRung(1000.0, outcomes, 4);
  EXPECT_FALSE(v.valid);
  EXPECT_FALSE(v.passed);
  EXPECT_NE(v.ToString().find("INVALID"), std::string::npos);
}

TEST(Ladder, ClimbStopsAtTheFirstMiss) {
  std::vector<RungVerdict> rungs(4);
  rungs[0].passed = rungs[1].passed = rungs[3].passed = true;
  EXPECT_EQ(HighestPassingRung(rungs), 1);
  rungs[0].passed = false;
  EXPECT_EQ(HighestPassingRung(rungs), -1);
}

/// A one-connection-at-a-time HTTP server that answers every request at
/// once, except request \p stall_index, which it holds for \p stall_ms.
class StallingServer {
 public:
  StallingServer(size_t requests, size_t stall_index, int stall_ms) {
    listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(listener_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listener_, 128), 0);
    EXPECT_EQ(::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, requests, stall_index, stall_ms] {
      for (size_t i = 0; i < requests; ++i) {
        const int conn = ::accept(listener_, nullptr, nullptr);
        if (conn < 0) return;
        std::string head;
        char c = 0;
        while (head.find("\r\n\r\n") == std::string::npos &&
               ::recv(conn, &c, 1, 0) == 1) {
          head += c;
        }
        if (i == stall_index) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
        }
        const std::string response =
            "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close"
            "\r\n\r\nok";
        (void)::send(conn, response.data(), response.size(), MSG_NOSIGNAL);
        ::close(conn);
      }
    });
  }
  ~StallingServer() {
    thread_.join();
    ::close(listener_);
  }
  StallingServer(const StallingServer&) = delete;
  StallingServer& operator=(const StallingServer&) = delete;

  int port() const { return port_; }

 private:
  int listener_ = -1;
  int port_ = 0;
  std::thread thread_;
};

TEST(OpenLoop, StallIsChargedToLaterRequests) {
  constexpr size_t kRequests = 100;
  constexpr size_t kStalled = 20;
  constexpr int kStallMs = 200;
  const std::vector<std::string> requests = {
      "GET / HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n"};
  std::vector<Outcome> outcomes;
  {
    StallingServer server(kRequests, kStalled, kStallMs);
    const HttpTransport transport(server.port(), &requests);
    // One request due every 5 ms over one connection.
    std::vector<int64_t> schedule;
    for (size_t i = 0; i < kRequests; ++i) {
      schedule.push_back(static_cast<int64_t>(i) * 5'000'000);
    }
    SpanRecorder off(false);
    outcomes = RunOpenLoop(transport, schedule, 0, 1, &off, -1);
  }
  for (const Outcome& o : outcomes) ASSERT_TRUE(o.ok());
  // The stalled request itself took the stall.
  EXPECT_GE(outcomes[kStalled].done_ns - outcomes[kStalled].start_ns,
            150'000'000);
  // The next one was due 5 ms later: its own exchange is quick, but timed
  // from its intended send it waited out most of the stall. A closed-loop
  // timer, started at send, would have reported it as fast.
  const Outcome& next = outcomes[kStalled + 1];
  EXPECT_LT(next.done_ns - next.start_ns, 50'000'000);
  EXPECT_GE(next.latency_ns(), 150'000'000);
  EXPECT_GE(next.conn_wait_ns, 150'000'000);
  size_t delayed = 0;
  for (size_t i = kStalled + 1; i < kRequests; ++i) {
    if (outcomes[i].latency_ns() > 50'000'000) ++delayed;
  }
  EXPECT_GE(delayed, 25u);  // ~200 ms of arrivals at one per 5 ms.
  size_t backlog_max = 0;
  for (const Outcome& o : outcomes) {
    backlog_max = std::max(backlog_max, o.backlog);
  }
  EXPECT_GE(backlog_max, 20u);
}

}  // namespace
}  // namespace perfbench
