// The three named workloads and their seeded request streams.
//
//   hot_zipf     single keywords, Zipf(s=1.1) over DBLP x1 surnames, title
//                terms and full author names; l=10, max_results=5. The hot
//                set fits the result cache, so most requests are hits.
//   overlap_mix  a small set of prolific authors and title phrases with l,
//                max_results and ranking varied: result-cache keys far
//                outnumber the cache, but the per-(subject, l) work repeats,
//                so misses are answered from the partials memo.
//   cold_scan    DBLP x4 full author names, drawn without repeats; l from
//                the paper's sweep 5..50; Top-Path, Bottom-Up and DP in
//                turn. Neither reuse tier helps: OS generation and size-l
//                selection dominate.
//
// A stream is a pure function of (dataset, workload, seed, phase): each
// phase of a run (warm-up, closed loop, open loop, traced replay) draws its
// own stream, so what one phase sends never depends on how many requests
// an earlier, timed phase managed to send.
#ifndef OSUM_E2EBENCH_WORKLOAD_H_
#define OSUM_E2EBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/query.h"
#include "datasets/dblp.h"
#include "util/rng.h"

namespace osum::e2e {

enum class Workload { kHotZipf, kOverlapMix, kColdScan };

std::optional<Workload> ParseWorkload(std::string_view name);

/// DBLP scale factor the workload runs on (the generator seed is fixed).
double DblpScale(Workload workload);

/// Every RebindEvery(workload)-th request of a phase rebinds the service
/// onto the other of two identical contexts (0 = never): overlap_mix
/// does, so both reuse tiers are invalidated and refilled under load.
size_t RebindEvery(Workload workload);

/// The independent streams of one run.
enum class Phase : uint64_t { kWarm = 1, kClosed = 2, kOpen = 3, kTrace = 4 };

/// Keyword material drawn from the generated dataset, once per run.
struct Vocabulary {
  /// hot_zipf: Zipf rank order (single terms first, then full names).
  std::vector<std::string> hot_ranked;
  /// overlap_mix: the small overlapping keyword set.
  std::vector<std::string> overlap_terms;
  /// cold_scan: every author's full name, by author id.
  std::vector<std::string> author_names;

  static Vocabulary Build(const datasets::Dblp& dblp, Workload workload);
};

class RequestStream {
 public:
  /// `vocab` must outlive the stream.
  RequestStream(const Vocabulary& vocab, Workload workload, uint64_t seed,
                Phase phase);

  api::QueryRequest Next();

 private:
  const Vocabulary& vocab_;
  const Workload workload_;
  util::Rng rng_;
  std::optional<util::ZipfSampler> zipf_;
  std::vector<uint32_t> order_;  // cold_scan: current pass over the authors
  size_t cursor_ = 0;
  uint64_t issued_ = 0;
};

/// FNV-1a over the encoded first `count` requests of every phase's
/// stream: equal digests mean the seed reproduced the same request
/// streams.
uint64_t StreamDigest(const Vocabulary& vocab, Workload workload,
                      uint64_t seed, size_t count);

}  // namespace osum::e2e

#endif  // OSUM_E2EBENCH_WORKLOAD_H_
