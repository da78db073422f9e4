#include "calibrate.h"

#include <sched.h>

#include <cstdint>
#include <vector>

#include "common.h"

namespace osum::e2e {

namespace {

constexpr int kKernelSteps = 360000;

// Where the kernel leaves its result, so the compiler keeps the work.
volatile uint64_t kernel_sink = 0;

/// The reference kernel: one dependent chain of 64-bit multiply-xorshift
/// steps. It needs no memory beyond registers, so its time follows only
/// how fast the host runs this core right now: its clock, and whether the
/// host has put another tenant on the core's other hardware thread. Its
/// run-to-run times track those of the served stack's CPU per query more
/// closely than a walk over a cache-sized or memory-sized buffer does.
/// Returns its CPU milliseconds.
double KernelMs() {
  const double start = ThreadCpuSeconds();
  uint64_t hash = 1469598103934665603ull;
  for (int step = 0; step < kKernelSteps; ++step) {
    hash = (hash ^ static_cast<uint64_t>(step)) * 0x9E3779B97F4A7C15ull;
    hash ^= hash >> 29;
  }
  kernel_sink = hash;
  return 1e3 * (ThreadCpuSeconds() - start);
}

double MedianKernelMs() {
  std::vector<double> runs;
  for (size_t rep = 0; rep < kCalibrationReps; ++rep) {
    runs.push_back(KernelMs());
  }
  return Median(std::move(runs));
}

}  // namespace

double CalibrateMs() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return MedianKernelMs();
  }
  double sum = 0;
  int cpus = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    sum += MedianKernelMs();
    ++cpus;
  }
  ::sched_setaffinity(0, sizeof(allowed), &allowed);
  return cpus > 0 ? sum / cpus : MedianKernelMs();
}

}  // namespace osum::e2e
