// perfbench: runs one seeded benchmark workload against the coachlm
// libraries (and, for serve, the coachlm CLI) and prints its result as one
// JSON line. run.py builds this binary, makes the inputs with `setup`,
// runs `run`, and prints the final result.
//
//   perfbench setup --workload W --seed N --dir D
//   perfbench run   --workload W --seed N --seconds S --trace 0|1 --dir D
//                   [--coachlm PATH] [--trace-out FILE]

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common/status.h"
#include "workload_common.h"

namespace {

using perfbench::Options;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench setup|run --workload "
               "revise_batch|coach_tuning|serve_open_loop --seed N --dir D "
               "[--seconds S] [--trace 0|1] [--coachlm PATH] "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("missing command");
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage(("bad flag " + key).c_str());
    flags[key.substr(2)] = argv[i + 1];
  }
  Options options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = flags.count("seconds") ? std::atof(flags["seconds"].c_str())
                                           : 10.0;
  options.trace = flags["trace"] == "1";
  options.dir = flags["dir"];
  options.coachlm = flags["coachlm"];
  options.trace_out = flags["trace-out"];
  if (options.dir.empty()) return Usage("--dir is required");

  coachlm::Status status;
  perfbench::Report report;
  const bool batch = options.workload == "revise_batch";
  const bool tuning = options.workload == "coach_tuning";
  const bool serve = options.workload == "serve_open_loop";
  if (!batch && !tuning && !serve) return Usage("unknown workload");
  if (command == "setup") {
    status = perfbench::SetUp(options, /*with_checkpoint=*/!tuning);
  } else if (command == "run") {
    if (serve && options.coachlm.empty()) return Usage("--coachlm is required");
    status = batch    ? perfbench::RunReviseBatch(options, &report)
             : tuning ? perfbench::RunCoachTuning(options, &report)
                      : perfbench::RunServeOpenLoop(options, &report);
  } else {
    return Usage("unknown command");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  if (command == "run") {
    report.FillUnmeasured(options.trace);
    std::printf("%s\n", report.ToJson().c_str());
  }
  return 0;
}
