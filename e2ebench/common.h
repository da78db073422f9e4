// Shared helpers of the end-to-end benchmark: the clock, percentiles and
// the metric record every phase reports into.
#ifndef OSUM_E2EBENCH_COMMON_H_
#define OSUM_E2EBENCH_COMMON_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace osum::e2e {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

inline double SecondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

/// CPU seconds consumed so far on `clock`: the process's or the calling
/// thread's. On a shared virtual machine the time the host takes away
/// (steal) and the time spent waiting for a wake-up do not count, so a
/// CPU-time figure moves far less than a wall-clock one when the host's
/// load swings.
inline double CpuSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("clock_gettime on a CPU clock failed");
  }
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double ProcessCpuSeconds() {
  return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
}
inline double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// Cuts `samples` (in arrival order) into consecutive windows of
/// `window` samples, takes percentile p of each and returns the median of
/// those. A disturbance confined to a few windows (a host stall, another
/// process's burst) moves those windows' values, not the reported one;
/// behaviour that recurs in most windows does move it.
inline double WindowedPercentile(const std::vector<double>& samples,
                                 size_t window, double p) {
  if (samples.size() < window) return Percentile(samples, p);
  std::vector<double> per_window;
  for (size_t begin = 0; begin + window <= samples.size(); begin += window) {
    per_window.push_back(Percentile(
        std::vector<double>(samples.begin() + begin,
                            samples.begin() + begin + window),
        p));
  }
  return Median(std::move(per_window));
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

inline double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// One named measurement, printed by name with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

}  // namespace osum::e2e

#endif  // OSUM_E2EBENCH_COMMON_H_
