#include "dfpbench/host_cpu.h"

#include <sched.h>

#include <chrono>
#include <cstdint>

#include "dfpbench/stats.h"
#include "src/util/str.h"

namespace dfpbench {
namespace {

// The originally allowed CPUs, read once: after the first pin the affinity mask holds one CPU.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> result;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) {
          result.push_back(cpu);
        }
      }
    }
    return result;
  }();
  return cpus;
}

bool PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

// Dependent pseudo-random reads over a 1 MiB table mixed with integer arithmetic: sensitive to
// what shares the core's pipeline and its L1/L2, like the simulator's own inner loop.
double CalibrationMs() {
  constexpr size_t kWords = (1u << 20) / sizeof(uint64_t);
  constexpr int kSteps = 2'000'000;
  static std::vector<uint64_t> table = [] {
    std::vector<uint64_t> words(kWords);
    for (size_t i = 0; i < kWords; ++i) {
      words[i] = i * 2654435761u;
    }
    return words;
  }();
  uint64_t x = 88172645463325252ull;
  size_t index = 0;
  const auto begin = std::chrono::steady_clock::now();
  for (int step = 0; step < kSteps; ++step) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    index = (x + table[index]) % kWords;
  }
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - begin)
          .count();
  table[index] ^= 1;  // Keeps the loop's result observable.
  return ms;
}

}  // namespace

int QuietestCpu(const std::map<int, std::vector<double>>& ms_by_cpu) {
  int best = -1;
  double best_ms = 0;
  for (const auto& [cpu, ms] : ms_by_cpu) {
    const double median = Median(ms);
    if (best < 0 || median < best_ms) {
      best = cpu;
      best_ms = median;
    }
  }
  return best;
}

std::string CpuChoice::Describe() const {
  if (cpu < 0) {
    return "not pinned";
  }
  std::string text = dfp::StrFormat("cpu %d (median calibration ms:", cpu);
  for (const auto& [candidate, ms] : ms_by_cpu) {
    text += dfp::StrFormat(" %d %.1f%s", candidate, Median(ms),
                           candidate == ms_by_cpu.rbegin()->first ? "" : ",");
  }
  return text + ")";
}

CpuChoice PinToQuietestCpu() {
  constexpr int kPasses = 3;
  CpuChoice choice;
  const std::vector<int>& allowed = AllowedCpus();
  if (allowed.empty()) {
    return choice;
  }
  for (int pass = 0; pass < kPasses; ++pass) {
    for (int cpu : allowed) {
      if (!PinTo({cpu})) {
        PinTo(allowed);
        return choice;
      }
      choice.ms_by_cpu[cpu].push_back(CalibrationMs());
    }
  }
  choice.cpu = QuietestCpu(choice.ms_by_cpu);
  if (!PinTo({choice.cpu})) {
    PinTo(allowed);
    choice.cpu = -1;
  }
  return choice;
}

}  // namespace dfpbench
