#include "search/search_context.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace osum::search {

namespace {

// The partials-memo key: exactly what determines the per-subject OS +
// selection — the subject identity, l (which also drives the generator's
// depth limit), and, when a selection actually runs (l > 0), the prelim
// mode and algorithm. Deliberately NOT api::QueryOptions::CacheKeyFragment():
// max_results and ranking rank *across* subjects and must not split the
// memo, or overlapping-keyword queries would stop sharing work.
std::string PartialsKey(const api::Hit& hit, const api::QueryOptions& options) {
  std::string key;
  key.reserve(32);
  key += 'r';
  key += std::to_string(hit.relation);
  key += 't';
  key += std::to_string(hit.tuple);
  key += 'l';
  key += std::to_string(options.l);
  if (options.l > 0) {
    key += options.use_prelim ? 'p' : 'c';
    key += 'a';
    key += std::to_string(static_cast<int>(options.algorithm));
  }
  return key;
}

}  // namespace

SearchContext SearchContext::Build(const rel::Database& db,
                                   core::OsBackend* backend,
                                   std::vector<Subject> subjects) {
  SearchContext ctx(db, backend);
  ctx.partials_memo_ = std::make_shared<core::PartialsMemo>();
  ctx.subject_order_.reserve(subjects.size());
  for (Subject& s : subjects) {
    if (s.gds.root_relation() != s.relation) {
      throw std::invalid_argument(
          "SearchContext::Build: a subject's G_DS must be rooted at its "
          "relation");
    }
    if (!ctx.subjects_.emplace(s.relation, std::move(s.gds)).second) {
      throw std::invalid_argument(
          "SearchContext::Build: each subject relation may be registered "
          "once");
    }
    ctx.subject_order_.push_back(s.relation);
  }
  ctx.index_ = InvertedIndex::Build(db, ctx.subject_order_);
  return ctx;
}

const gds::Gds& SearchContext::GdsFor(rel::RelationId relation) const {
  // at(): an unregistered relation throws std::out_of_range determin-
  // istically instead of being release-mode UB.
  return subjects_.at(relation);
}

std::vector<api::QueryResult> SearchContext::Query(
    std::string_view keywords, const api::QueryOptions& options) const {
  std::vector<api::Hit> hits = index_.SearchQuery(keywords);

  // Pre-rank data subjects by global importance. Under subject ranking the
  // list is truncated here (cheap); under summary ranking every hit's
  // size-l OS must be computed first, so truncation happens at the end.
  std::sort(hits.begin(), hits.end(),
            [this](const api::Hit& a, const api::Hit& b) {
              double ia = db_->relation(a.relation).importance(a.tuple);
              double ib = db_->relation(b.relation).importance(b.tuple);
              if (ia != ib) return ia > ib;
              if (a.relation != b.relation) return a.relation < b.relation;
              return a.tuple < b.tuple;
            });
  if (options.ranking == api::ResultRanking::kSubjectImportance &&
      hits.size() > options.max_results) {
    hits.resize(options.max_results);
  }

  std::vector<api::QueryResult> results;
  results.reserve(hits.size());
  // One scratch serves every hit of this query: after the first tree the
  // DP tables reuse the same arena blocks (see core::DpScratch).
  core::DpScratch scratch;
  core::PartialsMemo& memo = *partials_memo_;
  const bool use_memo = memo.enabled();
  for (const api::Hit& hit : hits) {
    const gds::Gds& gds = subjects_.at(hit.relation);
    api::QueryResult r;
    r.subject = hit;
    r.subject_importance = db_->relation(hit.relation).importance(hit.tuple);

    std::string memo_key;
    uint64_t memo_epoch = 0;
    if (use_memo) {
      memo_key = PartialsKey(hit, options);
      if (core::PartialPtr hit_partial = memo.Lookup(memo_key, &memo_epoch)) {
        // The memoized synopsis is exactly what the compute below would
        // produce for this (subject, options) — copying it keeps results
        // byte-identical to the memo-off path.
        r.os = hit_partial->os;
        r.selection = hit_partial->selection;
        results.push_back(std::move(r));
        continue;
      }
    }

    core::OsGenOptions gen;
    if (options.l > 0) {
      gen.max_depth = static_cast<int32_t>(options.l) - 1;  // footnote 1
    }
    if (options.l == 0) {
      r.os = core::GenerateCompleteOs(*db_, gds, backend_, hit.tuple, gen);
      r.selection.nodes.resize(r.os.size());
      for (size_t i = 0; i < r.os.size(); ++i) {
        r.selection.nodes[i] = static_cast<core::OsNodeId>(i);
      }
      r.selection.importance = r.os.TotalImportance();
    } else {
      r.os = options.use_prelim
                 ? core::GeneratePrelimOs(*db_, gds, backend_, hit.tuple,
                                          options.l, gen)
                 : core::GenerateCompleteOs(*db_, gds, backend_, hit.tuple,
                                            gen);
      r.selection = core::RunSizeL(options.algorithm, r.os, options.l,
                                   &scratch);
    }
    if (use_memo) {
      auto partial = std::make_shared<core::PartialSynopsis>();
      partial->os = r.os;
      partial->selection = r.selection;
      partial->approx_bytes = core::ApproxPartialBytes(*partial);
      memo.Insert(memo_key, std::move(partial), memo_epoch);
    }
    results.push_back(std::move(r));
  }

  if (options.ranking == api::ResultRanking::kSummaryImportance) {
    std::stable_sort(results.begin(), results.end(),
                     [](const api::QueryResult& a, const api::QueryResult& b) {
                       return a.selection.importance > b.selection.importance;
                     });
    if (results.size() > options.max_results) {
      results.resize(options.max_results);
    }
  }
  return results;
}

api::QueryResponse SearchContext::Execute(
    const api::QueryRequest& request) const {
  util::WallTimer timer;
  if (api::StatusOr<std::string> key = request.ValidatedKey(); !key.ok()) {
    return api::QueryResponse::Failure(key.status());
  }
  api::QueryStats stats;  // uncached path: cache_hit false, epoch 0
  try {
    auto results = std::make_shared<api::ResultList>(
        Query(request.keywords(), request.options()));
    stats.compute_micros = timer.ElapsedMicros();
    return api::QueryResponse::Success(std::move(results), stats);
  } catch (const std::exception& e) {
    stats.compute_micros = timer.ElapsedMicros();
    return api::QueryResponse::Failure(api::Status::BackendError(e.what()),
                                       stats);
  }
}

std::vector<api::QueryResponse> SearchContext::ExecuteBatch(
    std::span<const api::QueryRequest> requests, util::ThreadPool& pool) const {
  std::vector<api::QueryResponse> responses(requests.size());
  // Execute never throws, so the fan-out honors ParallelFor's no-throw
  // contract by construction.
  util::ParallelFor(&pool, requests.size(),
                    [&](size_t i) { responses[i] = Execute(requests[i]); });
  return responses;
}

std::string SearchContext::Render(const api::QueryResult& result) const {
  const gds::Gds& gds = subjects_.at(result.subject.relation);
  return result.os.Render(*db_, gds, &result.selection.nodes);
}

}  // namespace osum::search
