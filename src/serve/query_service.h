// The async query-serving layer: a frozen SearchContext fronted by a
// thread pool and a stampede-safe result cache.
//
// QueryService is what a production deployment would put between user
// traffic and the engine. The public contract is the api layer's
// request/response pair, through two entry points over one cache-aware
// compute path:
//   - Execute(QueryRequest) -> QueryResponse — synchronous and inline on
//     the calling thread; validation and backend failures come back as
//     typed Status codes, and response.stats reports cache hit/miss, wall
//     time and the cache epoch.
//   - Submit(request, deadline, on_done) — the async, callback-based entry
//     the TCP front end (net::Server) drives, one call per decoded frame:
//     invalid requests, expired budgets and cache hits are answered inline,
//     misses run on the service's pool, and concurrent misses for one key
//     coalesce onto one computation. A request whose deadline has passed
//     is shed (kDeadlineExceeded, no backend work) at one of two points:
//     at admission, before the cache lookup, or when its pooled miss is
//     dequeued, before compute. The service itself does not cap its pool
//     queue; the caller does (net::Server's max_inflight_requests window
//     bounds every request it has dispatched and not yet seen answered).
// Both share one ResultCache keyed by api::CanonicalQueryKey, so skewed
// workloads — the realistic shape of keyword traffic — collapse onto one
// computation per distinct (keyword set, options) pair.
//
// Lifetime and threading contract:
//   - The service *borrows* its SearchContext; the caller keeps it alive.
//     All public methods are thread-safe.
//   - A context never gains subjects after SearchContext::Build. To
//     change them, Build a fresh context and call RebindContext(new_ctx)
//     BEFORE destroying the old one: it swaps the pointer, bumps the cache
//     epoch, and blocks until every in-flight query still executing
//     against the old context has finished — once it returns, the old
//     context is unreferenced by the service and no result computed
//     against it is ever served, so the caller may destroy it. That epoch
//     bump is the cache's only invalidation: an answer is a deterministic
//     function of an immutable context, so nothing else can make it stale.
//   - Submit callbacks may run on worker threads; they must not throw
//     (util::ThreadPool contract) and must not block waiting for other
//     Submit answers (a blocked worker can deadlock a fully occupied
//     pool). Execute is safe from callbacks.
#ifndef OSUM_SERVE_QUERY_SERVICE_H_
#define OSUM_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/query.h"
#include "search/search_context.h"
#include "serve/clock.h"
#include "serve/metrics.h"
#include "serve/result_cache.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace osum::serve {

/// The per-(subject, l) partials memo under the result cache is
/// configured on each SearchContext (SearchContext::partials_memo()), not
/// here: the service flushes it on rebind but never resizes it.
struct ServiceOptions {
  /// Worker threads for Submit misses. 0 = hardware concurrency.
  size_t num_threads = 0;
  ResultCacheOptions cache;
};

class QueryService {
 public:
  /// `context` must outlive the service (or be swapped out via
  /// RebindContext before it dies).
  explicit QueryService(const search::SearchContext& context,
                        ServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Cache-aware synchronous query. Hit: the shared immutable cached
  /// result list, zero-copy. Miss: computes inline (coalescing concurrent
  /// misses for the same key), publishes, returns. Invalid requests and
  /// backend failures come back as non-OK statuses (nothing is cached for
  /// either); result bytes are identical to SearchContext::Query with the
  /// same arguments. Ignores request.deadline_micros(): the caller is
  /// already waiting.
  api::QueryResponse Execute(const api::QueryRequest& request);

  /// The async entry: the answer is delivered once, as on_done(response).
  /// Invalid requests and cache hits are answered inline on the submitting
  /// thread; a miss runs on the pool, coalesced with concurrent misses for
  /// the same key — so on_done may run on the submitting thread or on a
  /// worker; it must not throw and must not block on other Submit
  /// answers. The submitting thread never blocks on a miss.
  ///
  /// `deadline_micros` is the ABSOLUTE deadline on this service's clock()
  /// (0 = none) — the wire front end stamps `now + request.deadline_micros()`
  /// at dispatch, so time spent queued in the front end counts against the
  /// budget. An expired request is answered kDeadlineExceeded at admission
  /// without touching the cache or backend (metrics().sheds_at_admission);
  /// a miss whose deadline expires while queued behind the pool is
  /// answered the same way when dequeued, before compute
  /// (metrics().sheds_at_dequeue). Every miss is queued: the bound on how
  /// many is the caller's (see the file comment).
  ///
  /// The request is answered exactly once: if the pool has already
  /// stopped (service teardown), a miss is answered inline with kInternal
  /// rather than dropped.
  void Submit(api::QueryRequest request, uint64_t deadline_micros,
              std::function<void(api::QueryResponse)> on_done);

  /// Atomically redirects future queries to `context`, invalidates the
  /// cache, and drains: blocks until every in-flight query still executing
  /// against the previous context has finished. Once this returns, the
  /// previous context is unreferenced by the service and no cached result
  /// computed against it can be served; the caller may then destroy it.
  void RebindContext(const search::SearchContext& context);

  /// The currently bound context. The reference itself is not pinned —
  /// it stays valid only under the caller's own lifetime coordination
  /// (no concurrent RebindContext-then-destroy).
  const search::SearchContext& context() const {
    util::MutexLock lock(context_mu_);
    return *binding_->ctx;
  }

  /// The time source deadlines are measured against: options.cache.clock,
  /// or the shared SystemClock when none was injected. Front ends stamp
  /// absolute deadlines (`clock()->NowMicros() + budget`) on this clock so
  /// service-side expiry checks compare like with like.
  const std::shared_ptr<const Clock>& clock() const { return clock_; }

  /// Counters + latency reservoir snapshot (see serve/metrics.h).
  Metrics metrics() const;

 private:
  /// The bound context plus the number of queries currently executing
  /// against it (both guarded by context_mu_). Queries pin the binding
  /// for the duration of a compute; RebindContext retires a binding only
  /// after its pins drain to zero, so "the caller may destroy the old
  /// context once RebindContext returns" is safe, not just documented.
  struct Binding {
    const search::SearchContext* ctx = nullptr;
    size_t pins = 0;
  };

  /// RAII pin on the currently bound context: between construction and
  /// destruction the pinned context cannot be retired by RebindContext,
  /// so it is safe to query even while a rebind is in progress.
  class PinnedContext {
   public:
    explicit PinnedContext(QueryService* service);
    ~PinnedContext();
    PinnedContext(const PinnedContext&) = delete;
    PinnedContext& operator=(const PinnedContext&) = delete;
    const search::SearchContext* operator->() const { return binding_->ctx; }

   private:
    QueryService* const service_;
    Binding* binding_;
  };

  /// Fixed-capacity reservoir of the most recent samples (guarded by
  /// latency_mu_); keeps metrics() bounded under sustained traffic.
  struct LatencyRing {
    std::vector<double> samples;
    size_t next = 0;

    void Add(double v);
    util::Summary Snapshot() const;
  };

  /// The one cache-aware compute path both entry points ride, for a
  /// pre-validated request and its canonical key (canonicalized exactly
  /// once per query — callers thread it through): hit, coalesced wait, or
  /// inline compute under a context pin. Backend failures become
  /// kBackendError and are cached nowhere; never throws (pooled Submit
  /// misses rely on that).
  api::QueryResponse ExecuteWithKey(const api::QueryRequest& request,
                                    const std::string& key);

  /// A non-OK response stamped with the current cache epoch.
  api::QueryResponse FailureResponse(api::Status status) const;
  /// The kDeadlineExceeded response for a shed request.
  api::QueryResponse ShedResponse(const char* why) const;

  /// Counts one query that reached the cache and, when it succeeded
  /// (`result` non-null), samples its latency by outcome — negative hits
  /// attributed separately. A failed compute is counted, not sampled, so
  /// the cache ledger (hits + coalesced waits + misses == queries) holds.
  void RecordQuery(const CachedResult* result, bool hit, double micros)
      EXCLUDES(latency_mu_);

  const std::shared_ptr<const Clock> clock_;

  /// Requests answered kDeadlineExceeded, by shed point (see Submit).
  std::atomic<uint64_t> sheds_at_admission_{0};
  std::atomic<uint64_t> sheds_at_dequeue_{0};

  mutable util::Mutex context_mu_;
  mutable util::CondVar context_cv_;  // signaled when pins hit 0
  std::unique_ptr<Binding> binding_ GUARDED_BY(context_mu_)
      PT_GUARDED_BY(context_mu_);

  ResultCache cache_;

  mutable util::Mutex latency_mu_;
  uint64_t queries_ GUARDED_BY(latency_mu_) = 0;
  LatencyRing all_latency_ GUARDED_BY(latency_mu_);
  LatencyRing hit_latency_ GUARDED_BY(latency_mu_);
  LatencyRing negative_hit_latency_ GUARDED_BY(latency_mu_);
  LatencyRing miss_latency_ GUARDED_BY(latency_mu_);

  // Last member on purpose: destroyed first, so the pool drains queued
  // tasks (which touch cache_/context_/latency rings) while the rest of
  // the service is still alive.
  util::ThreadPool pool_;
};

}  // namespace osum::serve

#endif  // OSUM_SERVE_QUERY_SERVICE_H_
