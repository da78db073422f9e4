// Concurrency guarantees of the search layer: ExecuteBatch over a shared
// immutable SearchContext must be byte-identical to serial Execute on both
// join back ends, and hammering one context from many threads must
// expose zero mutable shared state (run under TSan via
// `OSUM_SANITIZE=thread`, see scripts/ci.sh).
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/os_backend.h"
#include "db_fixtures.h"
#include "api/codec.h"
#include "search/search_context.h"
#include "util/thread_pool.h"

namespace osum::search {
namespace {

using osum::testing::ScoredDblp;
using osum::testing::ScoredTpch;
using osum::api::DeterministicResponseText;
using osum::api::DeterministicResultText;
using osum::testing::SmallDblpConfig;
using osum::testing::SmallTpchConfig;

/// A deterministic DBLP keyword mix: prolific-author surnames (big OSs,
/// multiple hits per query) + title terms + a no-hit probe.
std::vector<std::string> DblpMix(const datasets::Dblp& d) {
  std::vector<std::string> mix;
  for (rel::TupleId t = 0; t < 12; ++t) {
    std::string name = d.db.relation(d.author).StringValue(t, 0);
    mix.push_back(name.substr(name.rfind(' ') + 1));
  }
  mix.insert(mix.end(), {"faloutsos", "christos faloutsos", "databases",
                         "mining", "power law", "nosuchkeywordanywhere"});
  return mix;
}

SearchContext BuildDblpContext(const datasets::Dblp& d,
                               core::OsBackend* backend) {
  std::vector<SearchContext::Subject> subjects;
  subjects.push_back({d.author, datasets::DblpAuthorGds(d)});
  subjects.push_back({d.paper, datasets::DblpPaperGds(d)});
  return SearchContext::Build(d.db, backend, std::move(subjects));
}

std::vector<api::QueryRequest> ToRequests(const std::vector<std::string>& mix,
                                          const api::QueryOptions& options) {
  std::vector<api::QueryRequest> requests;
  requests.reserve(mix.size());
  for (const std::string& q : mix) {
    requests.push_back(api::QueryRequest(q).WithOptions(options));
  }
  return requests;
}

/// ExecuteBatch over a `threads`-worker pool.
std::vector<api::QueryResponse> Batch(const SearchContext& ctx,
                                      const std::vector<std::string>& mix,
                                      const api::QueryOptions& options,
                                      size_t threads) {
  util::ThreadPool pool(threads);
  return ctx.ExecuteBatch(ToRequests(mix, options), pool);
}

void ExpectBatchMatchesSerial(const SearchContext& ctx,
                              const std::vector<std::string>& mix,
                              const api::QueryOptions& options) {
  std::vector<std::string> serial;
  serial.reserve(mix.size());
  for (const api::QueryRequest& request : ToRequests(mix, options)) {
    serial.push_back(DeterministicResponseText(ctx.Execute(request)));
  }

  for (size_t threads : {2u, 4u, 8u}) {
    std::vector<api::QueryResponse> batch = Batch(ctx, mix, options, threads);
    ASSERT_EQ(batch.size(), mix.size()) << threads << " threads";
    for (size_t i = 0; i < mix.size(); ++i) {
      EXPECT_TRUE(batch[i].ok()) << mix[i];
      EXPECT_EQ(DeterministicResponseText(batch[i]), serial[i])
          << "query \"" << mix[i] << "\" diverged at " << threads
          << " threads";
    }
  }
}

TEST(ExecuteBatchEquivalence, DataGraphBackendDblp) {
  ScoredDblp f(SmallDblpConfig());
  SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  api::QueryOptions options;
  options.l = 12;
  options.max_results = 4;
  ExpectBatchMatchesSerial(ctx, DblpMix(f.d), options);
}

TEST(ExecuteBatchEquivalence, DatabaseBackendDblp) {
  ScoredDblp f(SmallDblpConfig());
  // Latency 0: the simulated round-trip only burns wall clock and must not
  // affect results.
  core::DatabaseBackend backend(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  SearchContext ctx = BuildDblpContext(f.d, &backend);
  api::QueryOptions options;
  options.l = 10;
  options.max_results = 3;
  options.algorithm = core::SizeLAlgorithm::kDp;
  ExpectBatchMatchesSerial(ctx, DblpMix(f.d), options);
}

TEST(ExecuteBatchEquivalence, BothBackendsAgreeOnTpch) {
  ScoredTpch f(SmallTpchConfig());
  core::DatabaseBackend sql(f.t.db, f.t.links, /*per_select_micros=*/0.0);
  std::vector<SearchContext::Subject> subjects;
  subjects.push_back({f.t.customer, datasets::TpchCustomerGds(f.t)});
  subjects.push_back({f.t.supplier, datasets::TpchSupplierGds(f.t)});
  std::vector<SearchContext::Subject> subjects2 = subjects;
  SearchContext graph_ctx =
      SearchContext::Build(f.t.db, &f.backend, std::move(subjects));
  SearchContext sql_ctx =
      SearchContext::Build(f.t.db, &sql, std::move(subjects2));

  std::vector<std::string> mix;
  for (rel::TupleId c = 0; c < 8; ++c) {
    mix.push_back(f.t.db.relation(f.t.customer).StringValue(c, 0));
  }
  mix.push_back(f.t.db.relation(f.t.supplier).StringValue(0, 0));

  api::QueryOptions options;
  options.l = 8;
  options.max_results = 2;
  ExpectBatchMatchesSerial(graph_ctx, mix, options);
  ExpectBatchMatchesSerial(sql_ctx, mix, options);
  // The back ends themselves must agree tuple-for-tuple (importance-sorted
  // access paths make OS generation backend-independent).
  std::vector<api::QueryResponse> a = Batch(graph_ctx, mix, options, 4);
  std::vector<api::QueryResponse> b = Batch(sql_ctx, mix, options, 4);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(DeterministicResponseText(a[i]), DeterministicResponseText(b[i]))
        << "query " << mix[i];
  }
}

TEST(ExecuteBatchEquivalence, DegenerateBatches) {
  ScoredDblp f(SmallDblpConfig());
  SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  EXPECT_TRUE(Batch(ctx, {}, {}, 4).empty());
  // More threads than queries clamps to the batch size.
  std::vector<api::QueryResponse> batch = Batch(ctx, {"faloutsos"}, {}, 16);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(DeterministicResultText(batch[0].result_list()),
            DeterministicResultText(ctx.Query("faloutsos")));
}

TEST(ExecuteBatchEquivalence, SummaryRankingMatchesSerial) {
  ScoredDblp f(SmallDblpConfig());
  SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  api::QueryOptions options;
  options.l = 8;
  options.max_results = 5;
  options.ranking = api::ResultRanking::kSummaryImportance;
  ExpectBatchMatchesSerial(ctx, DblpMix(f.d), options);
}

// The TSan canary: many threads hammer ONE shared context through the
// DatabaseBackend (whose access paths also bump the shared
// rel::Database::io_stats counters) while each thread re-verifies its
// results against a precomputed golden. Any non-atomic mutable state on the
// query path is a data race here; ~8 threads on the same structures give
// TSan dense interleavings. Labeled slow: runtime is ~seconds under TSan.
TEST(SearchConcurrencyStress, SharedContextSharedBackend) {
  ScoredDblp f(SmallDblpConfig());
  core::DatabaseBackend backend(f.d.db, f.d.links, /*per_select_micros=*/0.0);
  SearchContext ctx = BuildDblpContext(f.d, &backend);
  const std::vector<std::string> mix = DblpMix(f.d);
  api::QueryOptions options;
  options.l = 10;
  options.max_results = 3;

  std::vector<std::string> golden;
  golden.reserve(mix.size());
  for (const std::string& q : mix) {
    golden.push_back(DeterministicResultText(ctx.Query(q, options)));
  }

  constexpr size_t kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Stagger starting offsets so threads collide on different queries.
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < mix.size(); ++i) {
          size_t q = (i + w) % mix.size();
          if (DeterministicResultText(ctx.Query(mix[q], options)) !=
              golden[q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Accounting survived the stampede: counters aggregated every SELECT.
  EXPECT_GT(backend.stats().select_calls, 0u);
  EXPECT_GT(f.d.db.io_stats().Snapshot().select_calls, 0u);
}

// Same canary through the pool path: overlapping ExecuteBatch calls on one
// context (the pool is stressed too — many small batches churn the queue).
TEST(SearchConcurrencyStress, ConcurrentBatchesOnOneContext) {
  ScoredDblp f(SmallDblpConfig());
  SearchContext ctx = BuildDblpContext(f.d, &f.backend);
  const std::vector<std::string> mix = DblpMix(f.d);
  api::QueryOptions options;
  options.l = 8;
  options.max_results = 2;

  std::vector<std::string> golden;
  golden.reserve(mix.size());
  for (const std::string& q : mix) {
    golden.push_back(DeterministicResultText(ctx.Query(q, options)));
  }

  const std::vector<api::QueryRequest> requests = ToRequests(mix, options);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> drivers;
  for (size_t w = 0; w < 4; ++w) {
    drivers.emplace_back([&] {
      util::ThreadPool pool(3);
      for (int round = 0; round < 2; ++round) {
        std::vector<api::QueryResponse> batch =
            ctx.ExecuteBatch(requests, pool);
        for (size_t i = 0; i < mix.size(); ++i) {
          if (DeterministicResultText(batch[i].result_list()) != golden[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace osum::search
