// The traced run: per-layer numbers for one workload.
//
// A prefix of the workload's seeded stream is replayed on one connection,
// one request at a time. For each request the benchmark records spans,
// all carrying the request's id, around its own calls into each layer:
//
//   net.rtt         send -> response frame received, on the served stack
//   api.decode      DecodeResponse of that frame
//   serve.execute   QueryService::Execute on an in-process twin service
//                   (same options, fed the same stream, so its cache and
//                   memo hit and miss exactly like the served stack's)
//   api.encode      EncodeResponse of the twin's response
//   and, when the twin missed its result cache (the search layer ran):
//   search.query    SearchContext::Execute on a mirror context whose memo
//                   sees the same lookups as the twin's
//   search.index    InvertedIndex::SearchQuery
//   core.gen        GeneratePrelimOs / GenerateCompleteOs, per computed hit
//   core.select     RunSizeL, per computed hit
//
// The search.index and core.* calls run on a memo-off reference context
// with its own back end, so their counters are exact per call. Self time
// per layer (summed over the replay, then shared out):
//   net    = rtt - server compute_micros - encode   (framing, loop, queue)
//   api    = encode + decode
//   serve  = serve.execute - search.query on a miss, all of it on a hit
//   core   = (gen + select) x the share of memo lookups that missed
//   search = search.query - search.index - core
// Spans stay in memory and are written as JSON lines at exit.
#ifndef OSUM_E2EBENCH_TRACED_H_
#define OSUM_E2EBENCH_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "search/search_context.h"
#include "stack.h"
#include "workload.h"

namespace osum::e2e {

struct Span {
  uint64_t request = 0;
  const char* name = "";
  const char* parent = "";  // "" for a root span
  double start_us = 0;      // since the replay began
  double dur_us = 0;
};

/// Requests in the replayed prefix of the workload's trace stream.
inline constexpr size_t kTraceRequests = 3000;

struct TracedResult {
  std::vector<Metric> metrics;
  std::vector<Span> spans;
  Tally tally;
  /// Mean round trip of the traced replay, for the overhead estimate.
  double mean_rtt_us = 0;
};

/// Replays the prefix of the trace stream seeded with `seed` on one
/// connection, untraced; returns each round trip in microseconds.
std::vector<double> ReplayUntraced(Stack* stack, const Vocabulary& vocab,
                                   Workload workload, uint64_t seed);

/// The traced replay on `stack`, whose warm-up the in-process twin is
/// brought level with first. `reference` is the memo-off context.
TracedResult RunTraced(Stack* stack, const Vocabulary& vocab,
                       Workload workload, uint64_t seed,
                       const search::SearchContext& reference);

/// Writes `spans` as one JSON object per line; false on an I/O error.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace osum::e2e

#endif  // OSUM_E2EBENCH_TRACED_H_
