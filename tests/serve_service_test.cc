// QueryService end-to-end: cached results must be byte-identical to
// uncached SearchContext::Query on both join back ends, the async path
// (Submit) must agree with the sync path (Execute) and be cache-aware,
// and rebinding a rebuilt context must invalidate — a stale context can
// never serve cached results.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_backend.h"
#include "db_fixtures.h"
#include "api/codec.h"
#include "backend_doubles.h"
#include "serve/clock.h"
#include "serve/query_service.h"

namespace osum::serve {
namespace {

using osum::api::DeterministicResultText;
using osum::testing::CountingBackend;
using osum::testing::GatedBackend;
using osum::testing::ScoredDblp;
using osum::testing::ScoredTpch;
using osum::testing::SmallDblpConfig;
using osum::testing::SmallTpchConfig;

search::SearchContext BuildDblpContext(const datasets::Dblp& d,
                                       core::OsBackend* backend) {
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
  subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  return search::SearchContext::Build(d.db, backend, std::move(subjects));
}

ServiceOptions SmallService() {
  ServiceOptions o;
  o.num_threads = 3;
  o.cache.num_shards = 2;
  return o;
}

api::QueryRequest Req(const std::string& keywords,
                      const api::QueryOptions& options = {}) {
  return api::QueryRequest(keywords).WithOptions(options);
}

/// Collects the answers to n Submit calls (request i answers through
/// Sink(i)) and blocks until all have fired.
class BatchCollector {
 public:
  explicit BatchCollector(size_t n) : answered_(n, 0), responses_(n) {}

  std::function<void(api::QueryResponse)> Sink(size_t i) {
    return [this, i](api::QueryResponse response) {
      std::lock_guard<std::mutex> lock(mu_);
      ++answered_[i];
      responses_[i] = std::move(response);
      cv_.notify_all();
    };
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    ASSERT_TRUE(cv_.wait_for(lock, std::chrono::seconds(30), [&] {
      for (int count : answered_) {
        if (count == 0) return false;
      }
      return true;
    }));
  }
  const api::QueryResponse& response(size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    return responses_[i];
  }
  int answered(size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    return answered_[i];
  }
  std::vector<api::QueryResponse> TakeResponses() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(responses_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> answered_;
  std::vector<api::QueryResponse> responses_;
};

/// One deadline-less Submit per request, in order, blocking until every
/// answer arrived; responses in input order.
std::vector<api::QueryResponse> SubmitAndWait(
    QueryService& service, const std::vector<api::QueryRequest>& requests) {
  BatchCollector collector(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    service.Submit(requests[i], 0, collector.Sink(i));
  }
  collector.Wait();
  return collector.TakeResponses();
}

/// The headline invariant on one backend: miss computes, hit returns the
/// same immutable object, both byte-identical to an uncached Query.
void ExpectHitMatchesRecompute(const search::SearchContext& ctx) {
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 10;
  options.max_results = 4;

  const std::string query = "faloutsos";
  std::string golden = DeterministicResultText(ctx.Query(query, options));

  api::QueryResponse first = service.Execute(Req(query, options));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(DeterministicResultText(first.result_list()), golden);
  EXPECT_EQ(service.metrics().cache.misses, 1u);

  api::QueryResponse second = service.Execute(Req(query, options));
  // A hit is the same immutable object, not a recompute.
  EXPECT_EQ(second.results.get(), first.results.get());
  EXPECT_EQ(DeterministicResultText(second.result_list()), golden);
  Metrics m = service.metrics();
  EXPECT_EQ(m.cache.misses, 1u);
  EXPECT_EQ(m.cache.hits, 1u);
  EXPECT_EQ(m.queries, 2u);
  EXPECT_GT(m.cache.approx_bytes, 0u);
}

TEST(QueryServiceEquivalence, HitMatchesRecomputeDataGraphBackend) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  ExpectHitMatchesRecompute(ctx);
}

TEST(QueryServiceEquivalence, HitMatchesRecomputeDatabaseBackend) {
  ScoredDblp f(SmallDblpConfig());
  core::DatabaseBackend backend(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  search::SearchContext ctx = BuildDblpContext(f.d, &backend);
  ExpectHitMatchesRecompute(ctx);
}

TEST(QueryServiceEquivalence, KeywordNormalizationSharesOneEntry) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryResponse a = service.Execute(Req("Christos  Faloutsos"));
  api::QueryResponse b = service.Execute(Req("faloutsos christos"));
  EXPECT_EQ(a.results.get(), b.results.get());
  EXPECT_EQ(service.metrics().cache.misses, 1u);
  // Different options are different entries.
  api::QueryOptions other;
  other.l = 7;
  api::QueryResponse c = service.Execute(Req("christos faloutsos", other));
  EXPECT_NE(c.results.get(), a.results.get());
  EXPECT_EQ(service.metrics().cache.misses, 2u);
}

// The async callback path, delivered through a test-side future, agrees
// with the sync path and shares its cache: one compute total.
TEST(QueryServiceAsync, FutureAndCallbackAgreeWithSync) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  std::string golden = DeterministicResultText(ctx.Query("databases", options));

  std::promise<api::QueryResponse> delivered;
  service.Submit(Req("databases", options), 0,
                 [&](api::QueryResponse response) {
                   delivered.set_value(std::move(response));
                 });
  api::QueryResponse from_callback = delivered.get_future().get();
  ASSERT_TRUE(from_callback.ok());
  EXPECT_FALSE(from_callback.stats.cache_hit);
  EXPECT_EQ(DeterministicResultText(from_callback.result_list()), golden);

  api::QueryResponse direct = service.Execute(Req("databases", options));
  EXPECT_TRUE(direct.stats.cache_hit);
  EXPECT_EQ(direct.results.get(), from_callback.results.get());
  EXPECT_EQ(service.metrics().cache.misses, 1u);
}

// Duplicates coalesce, answers arrive in input order byte-identical to
// serial execution, and a re-run is pure hits on the same immutable lists.
TEST(QueryServiceBatch, CacheAwareAndInputOrdered) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 9;
  options.max_results = 3;

  // Duplicates on purpose: they must coalesce, not recompute.
  std::vector<std::string> queries = {"faloutsos", "databases", "mining",
                                      "faloutsos", "power law",
                                      "nosuchkeywordanywhere", "databases"};
  std::vector<api::QueryRequest> requests;
  for (const std::string& q : queries) requests.push_back(Req(q, options));
  std::vector<api::QueryResponse> batch = SubmitAndWait(service, requests);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << queries[i];
    EXPECT_EQ(DeterministicResultText(batch[i].result_list()),
              DeterministicResultText(ctx.Query(queries[i], options)))
        << queries[i];
  }
  EXPECT_EQ(service.metrics().cache.misses, 5u);  // distinct queries only

  // Re-running the batch is pure hits — no new computes.
  std::vector<api::QueryResponse> again = SubmitAndWait(service, requests);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(again[i].stats.cache_hit) << queries[i];
    EXPECT_EQ(again[i].results.get(), batch[i].results.get()) << queries[i];
  }
  EXPECT_EQ(service.metrics().cache.misses, 5u);
}

TEST(QueryServiceEpoch, RebindAfterRebuildNeverServesStaleResults) {
  ScoredDblp f(SmallDblpConfig());

  // Context #1 registers only Author; it misses paper subjects.
  std::vector<search::SearchContext::Subject> authors;
  authors.push_back({f.d.author, datasets::DblpAuthorGds(f.d)});
  search::SearchContext ctx1 =
      search::SearchContext::Build(f.d.db, &f.backend, std::move(authors));

  QueryService service(ctx1, SmallService());
  api::QueryOptions options;
  options.l = 8;
  options.max_results = 6;

  std::string stale_bytes = DeterministicResultText(
      service.Execute(Req("databases", options)).result_list());

  // The context is rebuilt richer (Author + Paper) as a fresh context.
  search::SearchContext ctx2 = BuildDblpContext(f.d, &f.backend);

  service.RebindContext(ctx2);
  EXPECT_EQ(&service.context(), &ctx2);
  EXPECT_EQ(service.metrics().cache.epoch, 1u);
  EXPECT_EQ(service.metrics().cache.entries, 0u);

  std::string fresh_bytes = DeterministicResultText(
      service.Execute(Req("databases", options)).result_list());
  EXPECT_EQ(fresh_bytes,
            DeterministicResultText(ctx2.Query("databases", options)));
  // The richer context genuinely changes the answer, so serving the old
  // entry would have been observable — and did not happen.
  EXPECT_NE(fresh_bytes, stale_bytes);
  EXPECT_EQ(service.metrics().cache.misses, 2u);
}

// The partials-memo half of the rebind contract (ISSUE 10): rebinding
// flushes the memos on BOTH sides of the swap — the outgoing context (it
// may be rebound again later) and the incoming one (it may carry partials
// computed before the rebind) — and metrics() follows the bound context.
TEST(QueryServiceEpoch, RebindFlushesThePartialsMemo) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext old_ctx = BuildDblpContext(f.d, &f.backend);
  search::SearchContext new_ctx = BuildDblpContext(f.d, &f.backend);

  QueryService service(old_ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  // Warm the bound context's memo through the service.
  service.Execute(Req("databases", options));
  Metrics before = service.metrics();
  EXPECT_GT(before.partials.inserts, 0u);
  EXPECT_GT(before.partials.entries, 0u);
  EXPECT_EQ(before.partials.epoch, 0u);

  // Seed the NEW context's memo before it is bound — rebind must flush
  // this side too, not just the outgoing one.
  new_ctx.Query("databases", options);
  ASSERT_GT(new_ctx.partials_memo().metrics().entries, 0u);

  service.RebindContext(new_ctx);

  core::PartialsMemoMetrics old_memo = old_ctx.partials_memo().metrics();
  EXPECT_EQ(old_memo.entries, 0u);
  EXPECT_EQ(old_memo.epoch, 1u);
  Metrics after = service.metrics();  // now snapshots new_ctx's memo
  EXPECT_EQ(after.partials.entries, 0u);
  EXPECT_EQ(after.partials.epoch, 1u);

  // Post-rebind queries recompute from scratch with unchanged answers.
  api::QueryResponse fresh = service.Execute(Req("databases", options));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(DeterministicResultText(fresh.result_list()),
            DeterministicResultText(new_ctx.Query("databases", options)));
  EXPECT_GT(service.metrics().partials.misses, after.partials.misses);
}

// The lifetime half of the RebindContext contract: it must not return
// while a query is still executing against the old context, because the
// caller is entitled to destroy that context the moment it returns.
TEST(QueryServiceEpoch, RebindDrainsInFlightQueriesBeforeReturning) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  auto old_ctx = std::make_unique<search::SearchContext>(
      BuildDblpContext(f.d, &gated));
  search::SearchContext new_ctx = BuildDblpContext(f.d, &f.backend);

  QueryService service(*old_ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  gated.CloseGate();
  BatchCollector inflight(1);
  service.Submit(Req("databases", options), 0, inflight.Sink(0));
  gated.WaitUntilBlocked();  // the miss has pinned old_ctx and is computing

  std::atomic<bool> rebound{false};
  std::thread rebinder([&] {
    service.RebindContext(new_ctx);
    rebound.store(true);
  });
  // While the old context is pinned, RebindContext must stay blocked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(rebound.load());

  gated.OpenGate();
  rebinder.join();
  EXPECT_TRUE(rebound.load());
  // The query's compute drained before RebindContext returned, so
  // destroying the old context now is safe (the sanitizer lanes would flag
  // a use-after-free here otherwise).
  old_ctx.reset();
  inflight.Wait();
  EXPECT_TRUE(inflight.response(0).ok());

  EXPECT_EQ(&service.context(), &new_ctx);
  api::QueryResponse fresh = service.Execute(Req("databases", options));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(DeterministicResultText(fresh.result_list()),
            DeterministicResultText(new_ctx.Query("databases", options)));
}

// A failing pooled miss becomes that request's kBackendError (a pool task
// must not throw — an escaped exception would terminate the process),
// leaves its neighbours alone, caches nothing, and still counts as a query:
// the cache ledger hits + coalesced waits + misses == queries holds.
TEST(QueryServiceBatch, MissFailuresBecomePerRequestStatuses) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  // Warm one key so the failing batch mixes cache hits with bad misses.
  api::QueryResponse warm = service.Execute(Req("faloutsos", options));
  ASSERT_TRUE(warm.ok());

  gated.FailJoins(true);
  std::vector<api::QueryRequest> requests;
  for (const char* q : {"faloutsos", "databases", "mining"}) {
    requests.push_back(Req(q, options));
  }
  std::vector<api::QueryResponse> failed = SubmitAndWait(service, requests);
  EXPECT_TRUE(failed[0].stats.cache_hit);
  EXPECT_EQ(failed[0].results.get(), warm.results.get());
  for (size_t i : {1u, 2u}) {
    EXPECT_EQ(failed[i].status.code(), api::StatusCode::kBackendError) << i;
    EXPECT_TRUE(failed[i].result_list().empty()) << i;
  }
  Metrics after_failures = service.metrics();
  EXPECT_EQ(after_failures.queries, 4u);  // warm + hit + two failed misses
  EXPECT_EQ(after_failures.cache.hits + after_failures.cache.coalesced_waits +
                after_failures.cache.misses,
            after_failures.queries);
  EXPECT_EQ(after_failures.latency_us.count(), 2u);  // successes only

  // Failures cached nothing: once joins heal, the same batch succeeds and
  // still reuses the pre-failure entry.
  gated.FailJoins(false);
  std::vector<api::QueryResponse> batch = SubmitAndWait(service, requests);
  ASSERT_EQ(batch.size(), requests.size());
  EXPECT_EQ(batch[0].results.get(), warm.results.get());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << i;
    EXPECT_EQ(batch[i].stats.cache_hit, i == 0) << i;
    EXPECT_EQ(DeterministicResultText(batch[i].result_list()),
              DeterministicResultText(
                  ctx.Query(requests[i].keywords(), options)))
        << i;
  }
  Metrics healed = service.metrics();
  EXPECT_EQ(healed.cache.hits + healed.cache.coalesced_waits +
                healed.cache.misses,
            healed.queries);
}

// The request/response surface: Execute must agree byte-for-byte with the
// uncached compute primitive and report the cache outcome in stats.
TEST(QueryServiceApi, ExecuteMatchesLegacyAndReportsCacheOutcome) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryRequest request =
      api::QueryRequest("faloutsos").WithL(10).WithMaxResults(4);
  api::QueryOptions options;
  options.l = 10;
  options.max_results = 4;
  std::string golden = DeterministicResultText(ctx.Query("faloutsos", options));

  api::QueryResponse first = service.Execute(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.stats.cache_hit);
  EXPECT_GT(first.stats.compute_micros, 0.0);
  EXPECT_EQ(first.stats.epoch, 0u);
  EXPECT_EQ(DeterministicResultText(first.result_list()), golden);

  api::QueryResponse second = service.Execute(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.stats.cache_hit);
  // A hit shares the same immutable list, zero-copy.
  EXPECT_EQ(second.results.get(), first.results.get());
  EXPECT_EQ(service.metrics().cache.misses, 1u);
}

TEST(QueryServiceApi, ExecuteMatchesRecomputeOnTpchDatabaseBackend) {
  ScoredTpch f(SmallTpchConfig());
  core::DatabaseBackend backend(f.t.db, f.t.links, /*per_select_micros=*/0.0);
  std::vector<search::SearchContext::Subject> subjects;
  subjects.push_back({f.t.customer, datasets::TpchCustomerGds(f.t)});
  subjects.push_back({f.t.supplier, datasets::TpchSupplierGds(f.t)});
  search::SearchContext ctx =
      search::SearchContext::Build(f.t.db, &backend, std::move(subjects));
  QueryService service(ctx, SmallService());

  std::string keywords = f.t.db.relation(f.t.customer).StringValue(0, 0);
  api::QueryResponse response =
      service.Execute(api::QueryRequest(keywords).WithL(10));
  ASSERT_TRUE(response.ok());
  api::QueryOptions options;
  options.l = 10;
  EXPECT_EQ(DeterministicResultText(response.result_list()),
            DeterministicResultText(ctx.Query(keywords, options)));
}

TEST(QueryServiceApi, InvalidAndFailingRequestsBecomeStatuses) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  QueryService service(ctx, SmallService());

  api::QueryResponse invalid = service.Execute(api::QueryRequest(""));
  EXPECT_EQ(invalid.status.code(), api::StatusCode::kInvalidArgument);
  Metrics after_invalid = service.metrics();
  EXPECT_EQ(after_invalid.queries, 0u);  // rejected before the cache
  EXPECT_EQ(after_invalid.cache.misses, 0u);

  gated.FailJoins(true);
  api::QueryResponse failed = service.Execute(api::QueryRequest("databases"));
  EXPECT_EQ(failed.status.code(), api::StatusCode::kBackendError);
  EXPECT_TRUE(failed.result_list().empty());

  // The failure cached nothing: healing the backend recomputes...
  gated.FailJoins(false);
  api::QueryResponse healed = service.Execute(api::QueryRequest("databases"));
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed.stats.cache_hit);
  // ...and a no-hit query is an OK empty answer, no longer conflatable
  // with the kBackendError above.
  api::QueryResponse none =
      service.Execute(api::QueryRequest("nosuchkeywordanywhere"));
  EXPECT_TRUE(none.ok());
  EXPECT_TRUE(none.result_list().empty());
}

// The async acceptance contract: Submit returns while its miss is still
// computing — the submitting thread never blocks — and answers hits and
// invalid requests inline.
TEST(QueryServiceApi, SubmitBatchNeverBlocksTheSubmitter) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  // Warm one key so the batch mixes an inline hit with gated misses.
  api::QueryResponse warm = service.Execute(Req("faloutsos", options));
  ASSERT_TRUE(warm.ok());

  gated.CloseGate();
  std::vector<api::QueryRequest> requests;
  for (const char* q : {"faloutsos", "databases", "", "mining"}) {
    requests.push_back(Req(q, options));
  }
  BatchCollector collector(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    service.Submit(requests[i], 0, collector.Sink(i));
  }
  // Submission returned while every miss is parked on the closed gate.
  gated.WaitUntilBlocked();
  // The hit and the invalid request were answered at submission time; the
  // gated miss cannot have been.
  EXPECT_EQ(collector.answered(0), 1);
  EXPECT_EQ(collector.answered(2), 1);
  EXPECT_EQ(collector.answered(1), 0);

  gated.OpenGate();
  collector.Wait();
  const api::QueryResponse& hit = collector.response(0);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.stats.cache_hit);
  EXPECT_EQ(hit.results.get(), warm.results.get());  // zero-copy alias
  EXPECT_EQ(collector.response(2).status.code(),
            api::StatusCode::kInvalidArgument);
  const api::QueryResponse& miss = collector.response(1);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss.stats.cache_hit);
  EXPECT_EQ(DeterministicResultText(miss.result_list()),
            DeterministicResultText(ctx.Query("databases", options)));
  EXPECT_TRUE(collector.response(3).ok());
}

// Destruction-order regression: answers may be awaited after the
// QueryService is gone. The destructor must block until in-flight misses
// finish and deliver their callbacks (pool_ is the last member, so it
// drains while cache/context are still alive); the test-side futures fed
// by those callbacks stay valid afterwards. ASan/TSan turn any violation
// into a hard failure here.
TEST(QueryServiceApi, FuturesOutliveTheServiceWithoutUseAfterFree) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &gated);
  auto service = std::make_unique<QueryService>(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  gated.CloseGate();
  std::vector<api::QueryRequest> requests;
  for (const char* q : {"databases", "mining"}) {
    requests.push_back(Req(q, options));
  }
  std::vector<std::promise<api::QueryResponse>> promises(requests.size());
  std::vector<std::future<api::QueryResponse>> futures;
  for (auto& promise : promises) futures.push_back(promise.get_future());
  for (size_t i = 0; i < requests.size(); ++i) {
    service->Submit(requests[i], 0,
                    [&promises, i](api::QueryResponse response) {
                      promises[i].set_value(std::move(response));
                    });
  }
  gated.WaitUntilBlocked();

  // Tear the service down while both misses are parked on the gate.
  std::atomic<bool> destroyed{false};
  std::thread destroyer([&] {
    service.reset();
    destroyed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // The destructor is draining, not abandoning: it cannot finish while a
  // miss is still executing.
  EXPECT_FALSE(destroyed.load());

  gated.OpenGate();
  destroyer.join();
  EXPECT_TRUE(destroyed.load());

  // The service is gone; the futures still deliver real answers.
  for (std::future<api::QueryResponse>& future : futures) {
    api::QueryResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status.ToString();
    EXPECT_FALSE(response.result_list().empty());
  }
}

// The TCP front end's entry point: every request is answered exactly
// once, hits and invalids inline, misses on the pool, duplicates
// coalesced onto one computation.
TEST(QueryServiceApi, SubmitBatchAnswersEveryRequestExactlyOnce) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryOptions options;
  options.l = 8;

  api::QueryResponse warm = service.Execute(Req("faloutsos", options));
  ASSERT_TRUE(warm.ok());

  std::vector<api::QueryRequest> requests;
  for (const char* q : {"faloutsos", "databases", "", "databases"}) {
    requests.push_back(Req(q, options));
  }
  BatchCollector collector(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    service.Submit(requests[i], 0, collector.Sink(i));
  }
  collector.Wait();
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(collector.answered(i), 1) << i;
  std::vector<api::QueryResponse> responses = collector.TakeResponses();
  EXPECT_TRUE(responses[0].ok());
  EXPECT_TRUE(responses[0].stats.cache_hit);
  EXPECT_EQ(responses[0].results.get(), warm.results.get());
  EXPECT_TRUE(responses[1].ok());
  EXPECT_EQ(responses[2].status.code(), api::StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[3].ok());
  // The duplicate coalesced onto one computation: shared immutable list.
  EXPECT_EQ(responses[3].results.get(), responses[1].results.get());
  EXPECT_EQ(service.metrics().cache.misses, 2u);  // warm + "databases"
}

TEST(QueryServiceMetrics, LatencyReservoirsPopulate) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  for (int i = 0; i < 3; ++i) service.Execute(Req("faloutsos"));
  Metrics m = service.metrics();
  EXPECT_EQ(m.queries, 3u);
  EXPECT_EQ(m.latency_us.count(), 3u);
  EXPECT_EQ(m.miss_latency_us.count(), 1u);
  EXPECT_EQ(m.hit_latency_us.count(), 2u);
  EXPECT_GE(m.latency_us.Percentile(99.0), m.latency_us.Percentile(50.0));
  // Misses do strictly more work than hits on this dataset.
  EXPECT_GT(m.miss_latency_us.Max(), 0.0);
}

// Negative answers (OK-empty) are first-class: an OK response with no
// results on both the miss and the hit, attributed in the cache counters
// and in the dedicated negative-hit latency reservoir.
TEST(QueryServicePolicy, NegativeHitsAttributedInStatsAndMetrics) {
  ScoredDblp f(SmallDblpConfig());
  search::SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  QueryService service(ctx, SmallService());
  api::QueryRequest none = api::QueryRequest("nosuchkeywordanywhere");

  api::QueryResponse miss = service.Execute(none);
  EXPECT_TRUE(miss.ok() && miss.result_list().empty());
  EXPECT_FALSE(miss.stats.cache_hit);
  EXPECT_EQ(service.metrics().cache.negative_hits, 0u);  // a miss, not a hit

  api::QueryResponse hit = service.Execute(none);
  EXPECT_TRUE(hit.stats.cache_hit);
  EXPECT_TRUE(hit.ok() && hit.result_list().empty());

  api::QueryResponse positive = service.Execute(api::QueryRequest("faloutsos"));
  ASSERT_TRUE(positive.ok());
  EXPECT_FALSE(positive.result_list().empty());

  Metrics m = service.metrics();
  EXPECT_EQ(m.cache.negative_hits, 1u);
  EXPECT_EQ(m.negative_hit_latency_us.count(), 1u);
  EXPECT_EQ(m.hit_latency_us.count(), 1u);  // the negative hit is a hit too
  EXPECT_EQ(m.cache.hits, 1u);
}

// A request whose budget is already spent on arrival is answered
// kDeadlineExceeded before the service spends anything on it — no cache
// lookup, no backend I/O — even when a cached answer exists. ("No time is
// spent on work nobody is waiting for", not "answer if cheap".)
TEST(QueryServiceOverload, ExpiredAtAdmissionShedsWithoutBackendWork) {
  ScoredDblp f(SmallDblpConfig());
  CountingBackend counting(&f.backend);
  search::SearchContext ctx = BuildDblpContext(f.d, &counting);
  auto clock = std::make_shared<FakeClock>();
  ServiceOptions so = SmallService();
  so.cache.clock = clock;
  QueryService service(ctx, so);
  api::QueryOptions options;
  options.l = 8;

  // Warm the key so "shed beats a ready cache hit" is what gets proven.
  ASSERT_TRUE(service.Execute(Req("databases", options)).ok());
  uint64_t fetches_after_warm = counting.fetches();
  uint64_t hits_after_warm = service.metrics().cache.hits;

  BatchCollector collector(1);
  service.Submit(api::QueryRequest("databases").WithOptions(options),
                 clock->NowMicros() - 1, collector.Sink(0));
  collector.Wait();

  EXPECT_EQ(collector.response(0).status.code(),
            api::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(collector.response(0).result_list().empty());
  EXPECT_EQ(counting.fetches(), fetches_after_warm);
  Metrics m = service.metrics();
  EXPECT_EQ(m.sheds_at_admission, 1u);
  EXPECT_EQ(m.sheds_at_dequeue, 0u);
  EXPECT_EQ(m.cache.hits, hits_after_warm);  // shed before the cache
}

// A miss whose budget expires while queued behind a busy pool is answered
// kDeadlineExceeded when dequeued, before compute: zero backend I/O for
// the expired request, counted as a dequeue shed.
TEST(QueryServiceOverload, ExpiredWhileQueuedShedsAtDequeueWithoutCompute) {
  ScoredDblp f(SmallDblpConfig());
  GatedBackend gated(&f.backend);
  CountingBackend counting(&gated);
  search::SearchContext ctx = BuildDblpContext(f.d, &counting);
  auto clock = std::make_shared<FakeClock>();
  ServiceOptions so;
  so.num_threads = 1;
  so.cache.num_shards = 2;
  so.cache.clock = clock;
  QueryService service(ctx, so);
  api::QueryOptions options;
  options.l = 8;

  gated.CloseGate();
  uint64_t fetches_before = counting.fetches();
  BatchCollector blocker(1);
  service.Submit(Req("faloutsos", options), 0, blocker.Sink(0));
  gated.WaitUntilBlocked();

  // Queue a miss with a 1ms budget, then burn the budget while it waits
  // behind the parked worker.
  BatchCollector doomed(1);
  service.Submit(Req("databases", options), clock->NowMicros() + 1'000,
                 doomed.Sink(0));
  clock->AdvanceMicros(2'000);
  gated.OpenGate();
  blocker.Wait();
  doomed.Wait();

  EXPECT_TRUE(blocker.response(0).ok());
  EXPECT_EQ(doomed.response(0).status.code(),
            api::StatusCode::kDeadlineExceeded);
  // The blocker's compute is the only backend traffic after the gate
  // opened: the expired miss never touched it.
  uint64_t blocker_fetches = counting.fetches() - fetches_before;
  EXPECT_GT(blocker_fetches, 0u);
  // A twin context over its own counter establishes exactly how many
  // fetches one uncached "faloutsos" compute costs.
  CountingBackend twin_counter(&f.backend);
  search::SearchContext twin_ctx = BuildDblpContext(f.d, &twin_counter);
  uint64_t twin_before = twin_counter.fetches();
  (void)twin_ctx.Query("faloutsos", options);
  EXPECT_EQ(blocker_fetches, twin_counter.fetches() - twin_before);

  Metrics m = service.metrics();
  EXPECT_EQ(m.sheds_at_dequeue, 1u);
  EXPECT_EQ(m.sheds_at_admission, 0u);
}

// Pins the exact report the CLI's `metrics` command prints (osum_cli
// delegates to FormatMetricsReport, so this is the CLI output-shape test
// the negative-hit counters needed).
TEST(MetricsReport, ShapePinnedForTheCli) {
  Metrics m;
  m.queries = 7;
  m.cache.hits = 4;
  m.cache.negative_hits = 1;
  m.cache.misses = 3;
  m.cache.coalesced_waits = 2;
  m.cache.entries = 3;
  m.cache.approx_bytes = 4096;
  m.cache.evictions = 5;
  m.cache.epoch = 2;
  m.cache.admission_rejects = 6;
  m.cache.tracked_sightings = 2;
  m.sheds_at_admission = 3;
  m.sheds_at_dequeue = 1;
  m.partials.hits = 12;
  m.partials.misses = 9;
  m.partials.inserts = 8;
  m.partials.discarded_inserts = 1;
  m.partials.evictions = 2;
  m.partials.entries = 6;
  m.partials.approx_bytes = 2048;
  m.partials.epoch = 1;
  for (double v : {1.0, 2.0, 4.0}) m.latency_us.Add(v);
  for (double v : {1.0, 2.0}) m.hit_latency_us.Add(v);
  m.miss_latency_us.Add(4.0);

  EXPECT_EQ(FormatMetricsReport(m),
            "queries 7 | hits 4 (1 negative), misses 3, coalesced 2 | "
            "entries 3 (~4096 bytes), evictions 5, epoch 2\n"
            "policy: admission rejects 6 (2 tracked)\n"
            "overload: sheds 3 at admission + 1 at dequeue\n"
            "partials: hits 12, misses 9, inserts 8 (1 discarded), "
            "evictions 2 | entries 6 (~2048 bytes), epoch 1\n"
            "  latency      p50 2.0 us, p99 4.0 us, max 4.0 us\n"
            "    hits       p50 1.5 us, p99 2.0 us, max 2.0 us\n"
            "    neg hits   (no samples)\n"
            "    misses     p50 4.0 us, p99 4.0 us, max 4.0 us\n");
}

// TSan canary for the full serving stack: many driver threads hammer one
// service (sync Execute + async Submit, overlapping keys) while the
// pool computes misses. Verifies every answer against precomputed goldens.
TEST(ServeConcurrencyStress, MixedTrafficOneService) {
  ScoredDblp f(SmallDblpConfig());
  core::DatabaseBackend backend(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  search::SearchContext ctx = BuildDblpContext(f.d, &backend);
  ServiceOptions so;
  so.num_threads = 4;
  so.cache.num_shards = 4;
  so.cache.max_entries = 16;  // small: force concurrent eviction too
  QueryService service(ctx, so);

  api::QueryOptions options;
  options.l = 8;
  options.max_results = 3;
  std::vector<std::string> mix = {"faloutsos",  "databases", "mining",
                                  "power law",  "clustering", "graphs",
                                  "christos faloutsos", "streams"};
  std::vector<std::string> golden;
  golden.reserve(mix.size());
  for (const std::string& q : mix) {
    golden.push_back(DeterministicResultText(ctx.Query(q, options)));
  }

  std::atomic<int> mismatches{0};
  auto check = [&](size_t qi, const api::QueryResponse& r) {
    if (!r.ok() || DeterministicResultText(r.result_list()) != golden[qi]) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };

  constexpr size_t kDrivers = 4;
  constexpr int kRounds = 6;
  constexpr size_t kBatch = 3;
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (size_t w = 0; w < kDrivers; ++w) {
    drivers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        size_t qi = (round + w) % mix.size();
        // One sync Execute and three async Submits per round, on the same
        // cache and pool.
        check(qi, service.Execute(Req(mix[qi], options)));
        std::vector<api::QueryRequest> batch;
        for (size_t k = 1; k <= kBatch; ++k) {
          batch.push_back(Req(mix[(qi + k) % mix.size()], options));
        }
        std::vector<api::QueryResponse> answers =
            SubmitAndWait(service, batch);
        for (size_t k = 1; k <= kBatch; ++k) {
          check((qi + k) % mix.size(), answers[k - 1]);
        }
        // A mid-run rebind onto the same context bumps the epoch, which
        // clears the cache under live traffic; answers must not change.
        if (w == 0 && round == kRounds / 2) service.RebindContext(ctx);
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  Metrics m = service.metrics();
  EXPECT_EQ(m.queries,
            static_cast<uint64_t>(kDrivers) * kRounds * (1 + kBatch));
  EXPECT_EQ(m.cache.hits + m.cache.misses + m.cache.coalesced_waits,
            m.queries);
}

}  // namespace
}  // namespace osum::serve
