// Load generation over loopback TCP: warm-up, a closed-loop saturation
// phase (pipelined window per connection) and an open-loop Poisson phase
// timed from each request's scheduled send time.
//
// Budget: the service has 2 workers and the server 1 event-loop thread,
// so the closed loop's generator is one thread: with it, the busy threads
// number the 4 vCPUs the benchmark is sized for, and none measures the
// scheduler.
#ifndef OSUM_E2EBENCH_LOADGEN_H_
#define OSUM_E2EBENCH_LOADGEN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "api/query.h"
#include "search/search_context.h"
#include "stack.h"
#include "workload.h"

namespace osum::e2e {

/// What the generator saw, for the ledger checks and the oracle.
struct Tally {
  uint64_t sent = 0;
  uint64_t received = 0;
  /// Responses that did not decode or carried a non-OK status.
  uint64_t not_ok = 0;
  /// Frame bytes (prefix + payload) over every received response.
  uint64_t resp_bytes = 0;
  /// Requests chosen for the correctness oracle, with what was served.
  std::vector<std::pair<api::QueryRequest, api::QueryResponse>> samples;
};

/// Every `kOracleStride`-th request of a phase is kept for the oracle, up
/// to `kOracleCap` per phase — a fixed, seed-determined sample.
inline constexpr uint64_t kOracleStride = 16;
inline constexpr size_t kOracleCap = 256;

/// Requests in the warm-up after each set-up.
inline constexpr size_t kWarmRequests = 1000;

/// Sends kWarmRequests requests of `stream` over one connection, one at a
/// time, so the reuse tiers end every warm-up in the same state.
Tally Warm(uint16_t port, RequestStream* stream);

/// The correctness oracle: re-executes each sampled request on
/// `reference` (memo off, no result cache) and counts the served answers
/// whose DeterministicResponseText differs.
size_t OracleMismatches(const search::SearchContext& reference,
                        const Tally& tally);

/// The closed loop's shape: kClosedConnections connections with
/// kClosedWindow requests outstanding on each, driven by the calling
/// thread. The open loop sends on one connection at kOpenRateQps, a light
/// load.
inline constexpr size_t kClosedConnections = 2;
inline constexpr size_t kClosedWindow = 16;
inline constexpr double kOpenRateQps = 1000;

/// The closed loop runs in rounds of kRoundS seconds. A round ends with
/// its outstanding responses drained, so between rounds the served stack
/// is idle and the host's speed is calibrated (CalibrateMs). The open loop
/// reports its latency over runs of kOpenWindow consecutive requests (the
/// fewest that give a p99 ten samples beyond it).
inline constexpr double kRoundS = 1.0;
inline constexpr size_t kOpenWindow = 1000;

struct ClosedRound {
  uint64_t completed = 0;
  double wall_s = 0;
  /// The served stack's CPU time: the process's, less the generator
  /// thread's outside its rebind calls.
  double server_cpu_s = 0;
};

struct ClosedLoopResult {
  Tally tally;
  std::vector<ClosedRound> rounds;
  /// calibration_ms[r] was taken before round r, the last one after the
  /// last round.
  std::vector<double> calibration_ms;
  std::vector<double> rebind_ms;
};

/// Runs the closed loop for `seconds` in rounds of kRoundS, calibrating
/// before the first round and after each; every rebind_every-th request
/// rebinds the service (0 = never).
ClosedLoopResult RunClosedLoop(Stack* stack, RequestStream* stream,
                               double seconds, size_t rebind_every);

struct OpenLoopResult {
  Tally tally;
  /// Per response: receive time minus scheduled send time.
  std::vector<double> latency_us;
  /// Per request: actual send time minus scheduled send time.
  std::vector<double> late_us;
  std::vector<double> rebind_ms;
  /// CPU seconds the sender and receiver spent outside rebind calls.
  double generator_cpu_s = 0;
};

/// Runs the open loop for `seconds` on one connection: a sender thread
/// follows the Poisson schedule seeded with `schedule_seed`, the calling
/// thread receives (and performs any rebinds, so a rebind's stall shows
/// in latency, not in generator lateness).
OpenLoopResult RunOpenLoop(Stack* stack, RequestStream* stream,
                           double seconds, uint64_t schedule_seed,
                           size_t rebind_every);

}  // namespace osum::e2e

#endif  // OSUM_E2EBENCH_LOADGEN_H_
