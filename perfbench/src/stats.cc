#include "stats.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::string Percentile::ToString(const char* unit) const {
  char buf[160];
  const int pct = static_cast<int>(std::lround(q * 100.0));
  if (value) {
    std::snprintf(buf, sizeof(buf), "p%d=%.4f %s (n=%zu)", pct, *value, unit,
                  n);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "p%d refused (n=%zu leaves %zu beyond, need %zu)", pct, n,
                  beyond, kMinSamplesBeyond);
  }
  return buf;
}

Percentile ComputePercentile(std::vector<double> samples, double q) {
  Percentile out;
  out.q = q;
  out.n = samples.size();
  if (samples.empty() || q <= 0.0 || q >= 1.0) return out;
  // Nearest rank: the smallest value with at least q*n samples at or below.
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  const size_t index = rank == 0 ? 0 : rank - 1;
  out.beyond = samples.size() - 1 - index;
  if (out.beyond < kMinSamplesBeyond) return out;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  out.value = samples[index];
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

uint64_t Fnv1a(const std::string& bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::optional<uint64_t> HashFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  uint64_t hash = 1469598103934665603ull;
  std::string chunk(1 << 16, '\0');
  while (in) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    hash = Fnv1a(chunk.substr(0, static_cast<size_t>(got)), hash);
  }
  return hash;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double ProcessCpuSeconds() {
  rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
