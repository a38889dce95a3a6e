// Host fingerprint and noise readings, so a host-slow run can be told apart
// from a regression: the reference computation and the steal share move
// with the host, never with the program.
#include <time.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

HostFingerprint host_fingerprint(const std::string& source) {
  HostFingerprint host;
  host.nproc = std::thread::hardware_concurrency();
#if defined(__clang__)
  host.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  host.compiler = "gcc " __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.source = source.empty() ? "unknown" : source;
  return host;
}

double host_ref_ms() {
  // A fixed multiply-add sweep over an L1-resident buffer: pure core speed.
  std::vector<double> buffer(2048, 1.0);
  std::vector<double> readings;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    for (int pass = 0; pass < 8000; ++pass)
      for (double& x : buffer) x = x * 0.999999 + 1e-6;
    readings.push_back(us_between(start, Clock::now()) / 1000.0);
  }
  double sum = 0.0;
  for (const double x : buffer) sum += x;
  volatile double sink = sum;  // keep every element of the sweep observable
  (void)sink;
  std::sort(readings.begin(), readings.end());
  return readings[readings.size() / 2];
}

CpuJiffies read_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string line;
  CpuJiffies j;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) return j;
  std::istringstream fields(line.substr(4));
  std::uint64_t value = 0;
  for (int i = 0; fields >> value; ++i) {
    if (i < 8) j.total += value;  // user nice system idle iowait irq softirq steal
    if (i == 7) j.steal = value;
  }
  return j;
}

double steal_share(const CpuJiffies& before, const CpuJiffies& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) / static_cast<double>(total);
}

namespace {
double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss survives execve, so it would
  // report the launching process's peak whenever that is the larger one.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
