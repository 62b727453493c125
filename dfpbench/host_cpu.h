// Host CPU selection for the benchmark's single thread.
//
// On a shared host the logical CPUs a process may use are not equally fast: each is a
// hardware thread whose core, caches and sibling thread other tenants also load, and that
// load differs by CPU and changes by the minute. Left to the scheduler, the benchmark's one
// thread lands on whichever CPU is free, so two runs of the same code can differ by the speed
// of the CPU they got. PinToQuietestCpu times a fixed calibration kernel on every allowed CPU,
// in interleaved passes, and pins the process to the CPU whose median time is lowest.
#ifndef DFPBENCH_HOST_CPU_H_
#define DFPBENCH_HOST_CPU_H_

#include <map>
#include <string>
#include <vector>

namespace dfpbench {

// The CPU with the lowest median of its calibration times; -1 when `ms_by_cpu` is empty.
// Ties go to the lower CPU number.
int QuietestCpu(const std::map<int, std::vector<double>>& ms_by_cpu);

struct CpuChoice {
  int cpu = -1;  // -1: the affinity could not be read or set; the process is not pinned.
  std::map<int, std::vector<double>> ms_by_cpu;  // Calibration times per allowed CPU.

  // "cpu 2 (median calibration ms: 0 21.4, 1 35.0, 2 20.9, 3 22.2)" or "not pinned".
  std::string Describe() const;
};

// Times the calibration kernel three times on each CPU the process may run on and pins the
// process to the quietest. Takes about 3 * cpus * 20 ms on a quiet CPU. Measures on every
// originally allowed CPU, so it can be called again to re-select.
CpuChoice PinToQuietestCpu();

}  // namespace dfpbench

#endif  // DFPBENCH_HOST_CPU_H_
