// Host-speed calibration. On a shared virtual machine the same work takes
// more or less CPU time from one minute to the next: the host's other
// tenants share the physical cores, their caches and their clock. The
// benchmark times a fixed reference kernel, which calls no program code,
// while the served stack is idle, and reports its CPU times rescaled to
// the reference speed (the speed at which the kernel takes
// kReferenceKernelMs). A change to the program cannot move the kernel; a
// change in the host's speed moves both alike.
#ifndef OSUM_E2EBENCH_CALIBRATE_H_
#define OSUM_E2EBENCH_CALIBRATE_H_

#include <cstddef>

namespace osum::e2e {

/// CPU milliseconds the reference kernel takes at the reference speed.
inline constexpr double kReferenceKernelMs = 1.0;

/// Kernel runs per CPU in one calibration; their median counts.
inline constexpr size_t kCalibrationReps = 3;

/// Runs the reference kernel kCalibrationReps times on every CPU the
/// process may use (the calling thread pinned to each in turn, its
/// affinity restored after) and returns the mean over the CPUs of the
/// median run, in CPU milliseconds. The served stack's threads may run on
/// any of those CPUs, so each counts alike. About 12 ms on 4 CPUs.
double CalibrateMs();

/// The factor that rescales a CPU time measured at a calibration of
/// `calibration_ms` to the reference speed.
inline double ToReferenceSpeed(double calibration_ms) {
  return calibration_ms > 0 ? kReferenceKernelMs / calibration_ms : 1.0;
}

}  // namespace osum::e2e

#endif  // OSUM_E2EBENCH_CALIBRATE_H_
