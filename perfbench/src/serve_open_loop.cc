// serve_open_loop: a `coachlm serve` child process with 4 workers, driven
// by one generator process (this one) over at most nproc connections.
//
// Untraced run (end-to-end metrics): warm-up, then closed-loop bursts give
// the saturated throughput (wall_s, pairs_per_s) and the server's peak RSS.
// Traced run (per-layer metrics): seeded Poisson arrivals at a reference
// rate well below the knee give p50/p99 latency from the intended send
// time; a fixed ladder of rates finds the highest rate whose p99 stays
// within 20 ms without a growing backlog; /metrics is scraped around the
// reference window; transport-free probes time the HTTP parser, the
// handler, and the model calls.
//
// This workload is not listed in BENCHMARK.json: on a shared 4-vCPU host
// its latency and knee move with CPU steal far beyond any usable bound
// (see README.md). Run it by hand with run.py.

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "coach/coach_lm.h"
#include "common/execution.h"
#include "data/corpus_io.h"
#include "json/json.h"
#include "lm/backbone.h"
#include "loadgen.h"
#include "serve/client.h"
#include "serve_requests.h"
#include "workload_common.h"

extern char** environ;

namespace perfbench {

using namespace coachlm;

namespace {

/// The reference rate sits well below the knee (about 40% of it on a
/// 4-core machine). Its latency is measured in several windows spread over
/// the run, and p50/p99 are the medians of the window percentiles, so a
/// stall of the host that spoils one window does not move the result.
constexpr double kReferenceRps = 1000.0;
constexpr size_t kReferenceWindows = 7;
constexpr size_t kReferenceRequests = 1200;  // per window
/// The fixed rate ladder (requests/s), climbed from the bottom in steps of
/// about 7%, so one rung is within the bound of max_rate_rps.
constexpr double kLadderRps[] = {1200, 1290, 1380, 1480, 1580,
                                 1700, 1820, 1950, 2090, 2240,
                                 2400, 2570, 2750, 2950, 3150};
constexpr size_t kNumRungs = sizeof(kLadderRps) / sizeof(kLadderRps[0]);
constexpr size_t kRungRequests = 2000;
/// A missed rung is measured once more with a fresh schedule; it counts as
/// missed only when both attempts miss, so one stray stall does not end the
/// climb.
constexpr int kRungAttempts = 2;
constexpr size_t kWarmupRequests = 1000;
/// Closed-loop bursts; wall_s and pairs_per_s are their medians.
constexpr size_t kBursts = 3;
constexpr size_t kBurstRequests = 2000;
/// Distinct request bodies; phases reuse them in turn.
constexpr size_t kDistinctRequests = 8192;
constexpr size_t kPoolPairs = 4000;
constexpr size_t kProbePairs = 2000;
constexpr size_t kLoadCheckpointCalls = 5;
constexpr int kServeWorkers = 4;
constexpr int kBoots = 3;

int Connections() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 16u));
}

Result<int> FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("perfbench: socket()");
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  (void)::close(fd);
  if (!ok) return Status::IoError("perfbench: no free port");
  return static_cast<int>(ntohs(addr.sin_port));
}

/// \brief A `coachlm serve` child process. The destructor stops it, so no
/// exit path leaves the daemon running.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Status Start(const Options& options, int port, bool metrics) {
    std::vector<std::string> args = {
        options.coachlm, "serve",
        "--port", std::to_string(port),
        "--checkpoint", options.CheckpointPath(),
        "--serve-workers", std::to_string(kServeWorkers)};
    if (metrics) {
      args.push_back("--metrics-out");
      args.push_back(options.OutPath("serve-report.json"));
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string log = options.OutPath("serve.log");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    started_ns_ = NowNs();
    const int rc = posix_spawn(&pid_, options.coachlm.c_str(), &actions,
                               nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      return Status::IoError("perfbench: cannot start " + options.coachlm);
    }
    port_ = port;
    return Status::OK();
  }

  /// Seconds from Start() until GET /healthz answers 200.
  Result<double> WaitHealthy(double timeout_s) {
    while (static_cast<double>(NowNs() - started_ns_) / 1e9 < timeout_s) {
      int wstatus = 0;
      if (::waitpid(pid_, &wstatus, WNOHANG) == pid_) {
        pid_ = -1;
        return Status::Unavailable("perfbench: coachlm serve exited at boot");
      }
      const auto health = serve::HttpFetch(port_, "GET", "/healthz", "", 1000);
      if (health.ok() && health->status == 200) {
        return static_cast<double>(NowNs() - started_ns_) / 1e9;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return Status::DeadlineExceeded("perfbench: coachlm serve never healthy");
  }

  /// SIGTERM (graceful drain), then SIGKILL after 10 s; always reaps.
  void Stop() {
    if (pid_ <= 0) return;
    (void)::kill(pid_, SIGTERM);
    const int64_t deadline = NowNs() + 10'000'000'000;
    int wstatus = 0;
    while (::waitpid(pid_, &wstatus, WNOHANG) == 0) {
      if (NowNs() > deadline) {
        (void)::kill(pid_, SIGKILL);
        (void)::waitpid(pid_, &wstatus, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

  int pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int64_t started_ns_ = 0;
};

/// \brief The parts of a /metrics snapshot the benchmark reads.
struct ServerMetrics {
  std::vector<int64_t> bounds;
  std::vector<int64_t> revise_counts;
  int64_t shed = 0;
  int64_t errors_5xx = 0;
  int64_t queue_peak = 0;
};

Result<ServerMetrics> Scrape(int port) {
  const auto response = serve::HttpFetch(port, "GET", "/metrics", "", 5000);
  if (!response.ok()) return response.status();
  Result<json::Value> parsed = json::Parse(response->body);
  if (!parsed.ok()) return parsed.status();
  ServerMetrics m;
  const json::Value& histogram =
      parsed->At("histograms").At("serve.latency_revise_micros");
  if (histogram.is_object()) {
    for (const json::Value& b : histogram.At("buckets").AsArray()) {
      m.bounds.push_back(b.AsInt());
    }
    for (const json::Value& c : histogram.At("counts").AsArray()) {
      m.revise_counts.push_back(c.AsInt());
    }
  }
  const json::Value& counters = parsed->At("counters");
  m.shed = counters.At("serve.requests_shed").AsInt();
  m.errors_5xx = counters.At("serve.requests_server_error").AsInt() +
                 counters.At("serve.requests_deadline_exceeded").AsInt();
  m.queue_peak = parsed->At("gauges").At("serve.queue_depth_peak").AsInt();
  return m;
}

/// Percentile of the revise-latency histogram between two scrapes: the
/// upper bound of the bucket holding the rank (refused like any other
/// percentile when fewer than 10 observations lie beyond it).
Percentile HistogramPercentile(const ServerMetrics& before,
                               const ServerMetrics& after, double q) {
  std::vector<double> samples;
  for (size_t i = 0; i < after.revise_counts.size(); ++i) {
    const int64_t prior =
        i < before.revise_counts.size() ? before.revise_counts[i] : 0;
    const double bound = i < after.bounds.size()
                             ? static_cast<double>(after.bounds[i])
                             : std::numeric_limits<double>::infinity();
    for (int64_t k = prior; k < after.revise_counts[i]; ++k) {
      samples.push_back(bound);
    }
  }
  return ComputePercentile(std::move(samples), q);
}

/// \brief One measured phase: outcomes of requests first .. first + n - 1.
struct Phase {
  size_t first = 0;
  std::vector<Outcome> outcomes;
};

/// Counts a phase into the report: every request is attempted, every
/// non-2xx or transport error fails, and every 200 body must match.
void CountPhase(const Phase& phase, const std::vector<uint64_t>& expected,
                const std::string& label, Report* report) {
  size_t failed = 0;
  size_t mismatched = 0;
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    if (!o.ok()) ++failed;
    else if (o.body_hash != expected[(phase.first + i) % expected.size()]) {
      ++mismatched;
    }
  }
  report->Attempt(phase.outcomes.size());
  if (failed > 0) {
    report->Fail(failed, label + ": non-2xx or transport errors");
  }
  if (mismatched > 0) {
    report->Fail(mismatched, label + ": 200 bodies differ from batch revise");
  }
}

/// 200 bodies must match even on rungs above the knee.
void CountMismatches(const Phase& phase, const std::vector<uint64_t>& expected,
                     Report* report, size_t* overload_failed) {
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    if (!o.ok()) {
      ++*overload_failed;
    } else if (o.body_hash !=
               expected[(phase.first + i) % expected.size()]) {
      report->Attempt(1);
      report->Fail(1, "overload rung: 200 body differs from batch revise");
    }
  }
}

double WallSeconds(const std::vector<Outcome>& outcomes) {
  int64_t lo = outcomes.front().start_ns;
  int64_t hi = outcomes.front().done_ns;
  for (const Outcome& o : outcomes) {
    lo = std::min(lo, o.start_ns);
    hi = std::max(hi, o.done_ns);
  }
  return static_cast<double>(hi - lo) / 1e9;
}

size_t PairsIn(const RequestSet& requests, size_t first, size_t count) {
  size_t pairs = 0;
  for (size_t i = first; i < first + count; ++i) {
    pairs += requests.pairs[i % requests.pairs.size()].size();
  }
  return pairs;
}

std::vector<double> PhaseUs(const std::vector<Outcome>& outcomes,
                            int64_t Outcome::*from, int64_t Outcome::*to) {
  std::vector<double> out;
  out.reserve(outcomes.size());
  for (const Outcome& o : outcomes) {
    out.push_back(static_cast<double>(o.*to - o.*from) / 1e3);
  }
  return out;
}

Status Run(const Options& options, Report* report) {
  const int64_t prep_start = NowNs();
  Result<InstructionDataset> corpus = LoadCorpus(options.CorpusPath());
  if (!corpus.ok()) return corpus.status();
  InstructionDataset pool;
  for (const size_t index : SampleIndices(MixSeed(options.seed, 0x9001),
                                          corpus->size(), kPoolPairs)) {
    pool.Add((*corpus)[index]);
  }
  const RequestSet requests =
      BuildRequests(pool, options.seed, kDistinctRequests);
  report->AddSetupSeconds(static_cast<double>(NowNs() - prep_start) / 1e9);
  // The checker's reference, outside set-up and the timed section: every
  // 200 body must equal batch revise of the same pairs.
  Result<coach::CoachLm> model = coach::CoachLm::LoadCheckpoint(
      options.CheckpointPath(), BenchCoachConfig());
  if (!model.ok()) return model.status();
  const InstructionDataset revised_pool = [&] {
    const ExecutionContext exec(kThreads);
    return model->ReviseDataset(pool, {}, nullptr, exec);
  }();
  const std::vector<uint64_t> expected = ExpectedHashes(revised_pool, requests);
  const int connections = Connections();

  Result<int> port = FreePort();
  if (!port.ok()) return port.status();
  // Boot the daemon several times; set-up counts the median boot. The
  // traced run enables the server's metrics registry for /metrics.
  Daemon daemon;
  std::vector<double> boots;
  for (int b = 0; b < (options.trace ? 1 : kBoots); ++b) {
    daemon.Stop();
    COACHLM_RETURN_NOT_OK(daemon.Start(options, *port, options.trace));
    Result<double> boot = daemon.WaitHealthy(60.0);
    if (!boot.ok()) return boot.status();
    boots.push_back(*boot);
  }
  report->AddSetupSeconds(Median(boots));
  const HttpTransport wire(*port, &requests.raw);
  const double cpu0 = ProcessCpuSeconds(daemon.pid());
  const int64_t load_start = NowNs();

  SpanRecorder spans(options.trace);
  const int root = spans.Begin("trace");
  size_t next = 0;
  // Every measured phase, in order; `rung_of` is the ladder rung of each
  // (-1 for the others).
  std::vector<Phase> phases;
  std::vector<int> rung_of;
  auto open_loop = [&](double rate, size_t count, uint64_t stream,
                       const std::string& name, int rung) {
    Phase phase;
    phase.first = next;
    const ScopedSpan span(&spans, name, root, static_cast<int64_t>(rate));
    phase.outcomes = RunOpenLoop(
        wire, PoissonSchedule(MixSeed(options.seed, stream), rate, count),
        next, connections, &spans, span.index());
    next += count;
    phases.push_back(std::move(phase));
    rung_of.push_back(rung);
    return EvaluateRung(rate, phases.back().outcomes, connections);
  };
  auto closed_loop = [&](SpanRecorder* recorder, const std::string& name) {
    Phase phase;
    phase.first = next;
    const ScopedSpan span(&spans, name, root);
    phase.outcomes = RunClosedLoop(wire, next, kBurstRequests, connections,
                                   recorder, span.index());
    next += kBurstRequests;
    phases.push_back(std::move(phase));
    rung_of.push_back(-1);
    return WallSeconds(phases.back().outcomes);
  };
  auto settle = [&] {
    const ScopedSpan span(&spans, "loadgen.settle", root);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  auto scrape = [&] {
    const ScopedSpan span(&spans, "serve.scrape", root);
    return options.trace ? Scrape(*port)
                         : Result<ServerMetrics>(ServerMetrics{});
  };

  // Warm-up at the reference rate: lazy set-up in the server finishes
  // before anything is timed.
  (void)open_loop(kReferenceRps, kWarmupRequests, 999, "serve.phase.warmup",
                  -1);

  // Open loop (traced run only): reference windows interleaved with the
  // rate ladder.
  std::vector<size_t> reference_phases;
  std::vector<RungVerdict> windows;
  auto reference_window = [&] {
    settle();
    windows.push_back(open_loop(kReferenceRps, kReferenceRequests,
                                1000 + windows.size(),
                                "serve.phase.reference", -1));
    reference_phases.push_back(phases.size() - 1);
    Report::Note("reference window " + windows.back().ToString());
  };
  Result<ServerMetrics> before_ref = ServerMetrics{};
  Result<ServerMetrics> after_ref = ServerMetrics{};
  std::vector<RungVerdict> verdicts;
  if (options.trace) {
    before_ref = scrape();
    reference_window();
    after_ref = scrape();
    for (size_t r = 0; r < kNumRungs; ++r) {
      RungVerdict verdict;
      for (int a = 0; a < kRungAttempts && !verdict.passed; ++a) {
        settle();
        verdict = open_loop(kLadderRps[r], kRungRequests,
                            static_cast<uint64_t>(16 * r + a),
                            "serve.phase.rung", static_cast<int>(r));
        Report::Note("rung " + verdict.ToString());
      }
      verdicts.push_back(verdict);
      if (windows.size() < kReferenceWindows) reference_window();
      if (!verdict.passed) break;
    }
    while (windows.size() < kReferenceWindows) reference_window();
  }
  const int best = HighestPassingRung(verdicts);

  // Closed-loop bursts: the saturated throughput.
  std::vector<double> burst_walls;
  std::vector<double> burst_pairs_per_s;
  for (size_t b = 0; b < kBursts; ++b) {
    settle();
    const double wall = closed_loop(&spans, "serve.phase.burst");
    burst_walls.push_back(wall);
    burst_pairs_per_s.push_back(
        static_cast<double>(
            PairsIn(requests, phases.back().first, kBurstRequests)) /
        wall);
  }
  const double load_wall = static_cast<double>(NowNs() - load_start) / 1e9;
  const double server_cpu = ProcessCpuSeconds(daemon.pid()) - cpu0;
  // The traced run times the same bursts again without spans, for the
  // tracing overhead.
  std::vector<double> plain_walls;
  for (size_t b = 0; options.trace && b < kBursts; ++b) {
    settle();
    SpanRecorder off(false);
    plain_walls.push_back(closed_loop(&off, "serve.phase.burst_untraced"));
  }
  const Result<ServerMetrics> final_metrics = scrape();
  const double server_rss = PeakRssMb(std::to_string(daemon.pid()));
  {
    const ScopedSpan span(&spans, "serve.stop", root);
    daemon.Stop();
  }

  // Rungs above the knee may refuse or fail requests by design; only their
  // 200 bodies are checked.
  size_t overload_failed = 0;
  for (size_t p = 0; p < phases.size(); ++p) {
    if (rung_of[p] > best) {
      CountMismatches(phases[p], expected, report, &overload_failed);
    } else {
      CountPhase(phases[p], expected, "phase " + std::to_string(p), report);
    }
  }
  Report::Note("median burst of " + std::to_string(kBurstRequests) +
               " requests: " + std::to_string(Median(burst_walls)) + " s");
  if (!options.trace) {
    spans.End(root);
    report->Metric("wall_s", Median(burst_walls));
    report->Metric("pairs_per_s", Median(burst_pairs_per_s));
    report->Metric("peak_rss_mb", server_rss);
    return Status::OK();
  }

  // Transport-free probes, on the first reference window's own requests
  // and on the pool's pairs.
  const Phase& reference = phases[reference_phases.front()];
  Probe(&spans, "lm.load_checkpoint", root, kLoadCheckpointCalls,
        [&](size_t i) {
          (void)coach::CoachLm::LoadCheckpoint(options.CheckpointPath(),
                                               BenchCoachConfig());
          return static_cast<int64_t>(i);
        });
  COACHLM_RETURN_NOT_OK(ProbeServeLayers(options, requests, reference.first,
                                         kReferenceRequests, expected, &spans,
                                         root, report));
  const size_t probes = std::min(kProbePairs, pool.size());
  std::vector<InstructionPair> probe_revised(probes);
  coach::RevisionPassStats stats;
  size_t hits = 0;
  const lm::BackboneModel& backbone = model->backbone();
  Probe(&spans, "coach.revise", root, probes, [&](size_t i) {
    Rng rng = DeriveRng(model->config().seed, pool[i].id);
    probe_revised[i] = model->Revise(pool[i], &rng, &stats);
    return static_cast<int64_t>(pool[i].id);
  });
  Probe(&spans, "lm.backbone.agreement", root, probes, [&](size_t i) {
    (void)backbone.TopicalAgreement(pool[i].FullInstruction(),
                                    pool[i].output);
    return static_cast<int64_t>(pool[i].id);
  });
  Probe(&spans, "lm.backbone.retrieve", root, probes, [&](size_t i) {
    if (!backbone
             .RetrieveRelevant(pool[i].FullInstruction() + "\n" +
                                   pool[i].input,
                               pool[i].output, 3)
             .empty()) {
      ++hits;
    }
    return static_cast<int64_t>(pool[i].id);
  });
  spans.End(root);
  for (size_t i = 0; i < probes; ++i) {
    report->Attempt(1);
    if (!(probe_revised[i] == revised_pool[i])) {
      report->Fail(1, "probe revise differs for pair " +
                          std::to_string(pool[i].id));
    }
  }

  const std::vector<Span> all = spans.spans();
  for (const char* name :
       {"lm.load_checkpoint", "serve.http.parse", "serve.handler",
        "coach.revise", "lm.backbone.agreement", "lm.backbone.retrieve"}) {
    report->SpanMetrics(all, name);
  }
  report->Metric("coach.revise.changed_ratio",
                 static_cast<double>(stats.changed) / probes);
  report->Metric("coach.revise.invalid_ratio",
                 static_cast<double>(stats.invalid_replaced) / probes);
  report->Metric("lm.backbone.retrieve.hit_ratio",
                 static_cast<double>(hits) / probes);

  // Open-loop latency and knee, with the generator's own health over the
  // phases they rest on.
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (const RungVerdict& w : windows) {
    p50s.push_back(w.p50_ms.ValueOr0());
    p99s.push_back(w.p99_ms.ValueOr0());
  }
  const double max_rate = best >= 0 ? kLadderRps[best] : 0.0;
  Report::Note("reference latency over " + std::to_string(windows.size()) +
               " windows of n=" + std::to_string(kReferenceRequests) +
               ": median p50 " + std::to_string(Median(p50s)) +
               " ms, median p99 " + std::to_string(Median(p99s)) +
               " ms; max_rate_rps " + std::to_string(max_rate));
  report->Metric("serve.ref_p50_ms", Median(p50s));
  report->Metric("serve.ref_p99_ms", Median(p99s));
  report->Metric("serve.max_rate_rps", max_rate);
  report->Metric("serve.ref_samples",
                 static_cast<double>(windows.size() * kReferenceRequests));
  std::vector<Outcome> healthy;
  for (size_t p = 0; p < phases.size(); ++p) {
    if (rung_of[p] > best) continue;
    healthy.insert(healthy.end(), phases[p].outcomes.begin(),
                   phases[p].outcomes.end());
  }
  size_t invalid = 0;
  for (const RungVerdict& v : verdicts) invalid += v.valid ? 0 : 1;
  for (const RungVerdict& v : windows) invalid += v.valid ? 0 : 1;
  const RungVerdict generator = EvaluateRung(0.0, healthy, connections);
  report->Metric("loadgen.lag_p99_ms", generator.lag_p99_ms.ValueOr0());
  report->Metric("loadgen.conn_wait_p99_ms",
                 generator.conn_wait_p99_ms.ValueOr0());
  report->Metric("loadgen.backlog_max",
                 static_cast<double>(generator.backlog_max));
  report->Metric("loadgen.invalid_rungs", static_cast<double>(invalid));
  report->Metric("loadgen.overload_failed",
                 static_cast<double>(overload_failed));
  const std::vector<double> connect_us =
      PhaseUs(reference.outcomes, &Outcome::start_ns, &Outcome::connected_ns);
  const std::vector<double> first_byte_us = PhaseUs(
      reference.outcomes, &Outcome::connected_ns, &Outcome::first_byte_ns);
  const Percentile connect50 = ComputePercentile(connect_us, 0.50);
  const Percentile connect99 = ComputePercentile(connect_us, 0.99);
  const Percentile first50 = ComputePercentile(first_byte_us, 0.50);
  const Percentile first99 = ComputePercentile(first_byte_us, 0.99);
  Report::Note("wire connect " + connect50.ToString("us") + ", " +
               connect99.ToString("us") + "; first byte " +
               first50.ToString("us") + ", " + first99.ToString("us"));
  report->Metric("serve.wire.connect_p50_us", connect50.ValueOr0());
  report->Metric("serve.wire.connect_p99_us", connect99.ValueOr0());
  report->Metric("serve.wire.first_byte_p50_us", first50.ValueOr0());
  report->Metric("serve.wire.first_byte_p99_us", first99.ValueOr0());
  if (!before_ref.ok() || !after_ref.ok() || !final_metrics.ok()) {
    report->Attempt(1);
    report->Fail(1, "cannot scrape /metrics");
  } else {
    const Percentile s50 = HistogramPercentile(*before_ref, *after_ref, 0.50);
    const Percentile s99 = HistogramPercentile(*before_ref, *after_ref, 0.99);
    Report::Note("server revise latency (bucket bounds) " +
                 s50.ToString("us") + ", " + s99.ToString("us"));
    report->Metric("serve.server.revise_p50_us", s50.ValueOr0());
    report->Metric("serve.server.revise_p99_us", s99.ValueOr0());
    report->Metric("serve.server.queue_depth_peak",
                   static_cast<double>(final_metrics->queue_peak));
    report->Metric("serve.server.requests_shed",
                   static_cast<double>(final_metrics->shed));
    report->Metric("serve.server.requests_5xx",
                   static_cast<double>(final_metrics->errors_5xx));
  }
  report->Metric("process.cpu_util",
                 server_cpu / (load_wall * static_cast<double>(kServeWorkers)));
  report->Metric("trace.overhead_ratio",
                 Median(burst_walls) / Median(plain_walls) - 1.0);
  report->Metric("trace.coverage_ratio", LeafCoverage(all, root));
  if (!options.trace_out.empty() && !WriteSpansJson(all, options.trace_out)) {
    return Status::IoError("perfbench: cannot write " + options.trace_out);
  }
  return Status::OK();
}

}  // namespace

Status RunServeOpenLoop(const Options& options, Report* report) {
  return Run(options, report);
}

}  // namespace perfbench
