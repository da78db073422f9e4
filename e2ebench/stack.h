// The served system under test, built the way a deployment would build
// it: synthetic DBLP with its data graph, ObjectRank scores, a search
// context over the Author and Paper G_DSs (plus an identical twin that
// overlap_mix rebinds onto), a 2-worker serve::QueryService and the
// net::Server on an ephemeral loopback port.
#ifndef OSUM_E2EBENCH_STACK_H_
#define OSUM_E2EBENCH_STACK_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "core/os_backend.h"
#include "datasets/dblp.h"
#include "net/server.h"
#include "search/search_context.h"
#include "serve/query_service.h"
#include "util/mutex.h"
#include "workload.h"

namespace osum::e2e {

/// CPU time of each set-up step (every thread of the process, except the
/// warm-up's client), in seconds. CPU rather than wall time: on a shared host the wall time of
/// the same set-up swings with the host's load, while the work it does,
/// which is what a change moves into or out of set-up, does not.
struct SetupTimes {
  double dataset_s = 0;  // BuildDblp (tuples, foreign keys, data graph)
  double rank_s = 0;     // ObjectRank + importance annotation
  double context_s = 0;  // back end, G_DSs, inverted index, service
  double warm_s = 0;     // server start + serving the warm-up traffic

  double total() const { return dataset_s + rank_s + context_s + warm_s; }
};

inline constexpr size_t kServiceWorkers = 2;

/// A search context over the Author and Paper G_DSs of `dblp`.
search::SearchContext MakeContext(const datasets::Dblp& dblp,
                                  core::OsBackend* backend);

/// The correctness oracle's reference: a context with its own back end,
/// its partials memo off and no result cache in front of it.
struct Reference {
  explicit Reference(const datasets::Dblp& dblp);

  core::DataGraphBackend backend;
  search::SearchContext context;
};

class Stack {
 public:
  /// Builds everything up to and including the started server; fills
  /// dataset_s, rank_s and context_s (warm-up is the caller's).
  static std::unique_ptr<Stack> Build(Workload workload, SetupTimes* times);

  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const datasets::Dblp& dblp() const { return dblp_; }
  serve::QueryService& service() { return *service_; }
  net::Server& server() { return *server_; }
  uint16_t port() const { return server_->port(); }

  /// Memo counters summed over the primary and twin contexts (a rebind
  /// switches which one the service reports).
  core::PartialsMemoMetrics MemoTotals() const;

  /// Rebinds the service onto whichever context it is not bound to;
  /// returns how long RebindContext blocked, in milliseconds.
  double RebindToOther();

 private:
  Stack() = default;

  datasets::Dblp dblp_;
  std::unique_ptr<core::DataGraphBackend> backend_;
  std::optional<search::SearchContext> primary_;
  std::optional<search::SearchContext> twin_;
  std::unique_ptr<serve::QueryService> service_;
  util::Mutex rebind_mu_;
  bool bound_to_twin_ GUARDED_BY(rebind_mu_) = false;
  // Last: shut down (drained) before the service it serves is destroyed.
  std::unique_ptr<net::Server> server_;
};

}  // namespace osum::e2e

#endif  // OSUM_E2EBENCH_STACK_H_
