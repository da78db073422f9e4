// The api layer's value types: Status/StatusOr semantics, the
// QueryRequest fluent builder + validation (the typed errors that replace
// the old silent failure modes), and the canonical cache key.
#include <string>

#include <gtest/gtest.h>

#include "api/query.h"
#include "api/status.h"

namespace osum::api {
namespace {

TEST(Status, DefaultIsOkAndCodesRoundTrip) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.ToString(), "ok");

  Status invalid = Status::InvalidArgument("bad l");
  EXPECT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(invalid.message(), "bad l");
  EXPECT_EQ(invalid.ToString(), "invalid_argument: bad l");

  EXPECT_EQ(Status::BackendError("x").code(), StatusCode::kBackendError);
  EXPECT_EQ(Status::CodecError("x").code(), StatusCode::kCodecError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_STREQ(StatusCodeName(StatusCode::kBackendError), "backend_error");
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Ok(), Status());
  EXPECT_EQ(Status::InvalidArgument("a"), Status::InvalidArgument("a"));
  EXPECT_FALSE(Status::InvalidArgument("a") == Status::InvalidArgument("b"));
  EXPECT_FALSE(Status::InvalidArgument("a") == Status::BackendError("a"));
}

TEST(StatusOr, CarriesValueOrError) {
  StatusOr<int> value = 42;
  ASSERT_TRUE(value.ok());
  EXPECT_TRUE(value.status().ok());
  EXPECT_EQ(*value, 42);

  StatusOr<int> error = Status::CodecError("truncated");
  ASSERT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kCodecError);
}

TEST(QueryRequest, BuilderSetsEveryKnob) {
  QueryRequest request = QueryRequest("faloutsos")
                             .WithL(7)
                             .WithMaxResults(3)
                             .WithAlgorithm(core::SizeLAlgorithm::kBottomUp)
                             .WithPrelim(false)
                             .WithRanking(ResultRanking::kSummaryImportance);
  EXPECT_EQ(request.keywords(), "faloutsos");
  EXPECT_EQ(request.options().l, 7u);
  EXPECT_EQ(request.options().max_results, 3u);
  EXPECT_EQ(request.options().algorithm, core::SizeLAlgorithm::kBottomUp);
  EXPECT_FALSE(request.options().use_prelim);
  EXPECT_EQ(request.options().ranking, ResultRanking::kSummaryImportance);
  // Defaults match the legacy QueryOptions defaults, so migrated callers
  // keep their behavior.
  QueryOptions defaults;
  EXPECT_EQ(QueryRequest("x").options().CacheKeyFragment(),
            defaults.CacheKeyFragment());
}

TEST(QueryRequest, ValidationTurnsSilentFailuresIntoTypedErrors) {
  auto code = [](const QueryRequest& r) {
    return r.ValidatedKey().status().code();
  };
  EXPECT_EQ(code(QueryRequest("faloutsos")), StatusCode::kOk);
  // l = 0 means "complete OS" and is valid.
  EXPECT_EQ(code(QueryRequest("faloutsos").WithL(0)), StatusCode::kOk);

  // The old API answered these with an empty result list, indistinguishable
  // from "no data subject matches".
  EXPECT_EQ(code(QueryRequest("")), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(QueryRequest("  --- !!")), StatusCode::kInvalidArgument);
  EXPECT_EQ(code(QueryRequest("x").WithMaxResults(0)),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(QueryRequest("x").WithL(kMaxSynopsisL + 1)),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code(QueryRequest("x").WithL(kMaxSynopsisL)), StatusCode::kOk);
}

TEST(QueryRequest, ValidatedKeyAgreesWithValidateAndCacheKey) {
  QueryRequest good = QueryRequest("Christos  Faloutsos").WithL(9);
  StatusOr<std::string> key = good.ValidatedKey();
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(*key, CanonicalQueryKey(good.keywords(), good.options()));

  StatusOr<std::string> bad = QueryRequest("??").ValidatedKey();
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(CanonicalKey, NormalizesKeywordSetAndSeparatesOptions) {
  QueryOptions options;
  EXPECT_EQ(CanonicalQueryKey("Christos  Faloutsos", options),
            CanonicalQueryKey("faloutsos christos", options));
  EXPECT_EQ(CanonicalQueryKey("a a b", options),
            CanonicalQueryKey("b a", options));
  QueryOptions other;
  other.l = 7;
  EXPECT_NE(CanonicalQueryKey("a", options), CanonicalQueryKey("a", other));
}

TEST(QueryResponse, EmptyAnswerIsDistinguishableFromFailure) {
  QueryResponse empty = QueryResponse::Success(
      std::make_shared<ResultList>(), QueryStats{});
  EXPECT_TRUE(empty.ok());
  EXPECT_TRUE(empty.result_list().empty());

  QueryResponse failed =
      QueryResponse::Failure(Status::BackendError("join failed"));
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(failed.result_list().empty());
  EXPECT_EQ(failed.status.code(), StatusCode::kBackendError);
  // result_list() tolerates the null results a Failure carries.
  EXPECT_EQ(failed.results, nullptr);
}

TEST(QueryResponse, StatsTravelWithTheResponse) {
  QueryStats stats;
  stats.cache_hit = true;
  stats.compute_micros = 12.5;
  stats.epoch = 3;
  QueryResponse r =
      QueryResponse::Success(std::make_shared<ResultList>(), stats);
  EXPECT_TRUE(r.stats.cache_hit);
  EXPECT_DOUBLE_EQ(r.stats.compute_micros, 12.5);
  EXPECT_EQ(r.stats.epoch, 3u);
}

}  // namespace
}  // namespace osum::api
