#include "search/inverted_index.h"

#include <algorithm>

#include "util/string_util.h"

namespace osum::search {

namespace {

bool HitLess(const api::Hit& a, const api::Hit& b) {
  if (a.relation != b.relation) return a.relation < b.relation;
  return a.tuple < b.tuple;
}

}  // namespace

InvertedIndex InvertedIndex::Build(
    const rel::Database& db, const std::vector<rel::RelationId>& relations) {
  InvertedIndex index;
  for (rel::RelationId r : relations) {
    const rel::Relation& relation = db.relation(r);
    const rel::Schema& schema = relation.schema();
    for (rel::TupleId t = 0; t < relation.num_tuples(); ++t) {
      for (rel::ColumnId c = 0; c < schema.num_columns(); ++c) {
        if (!schema.column(c).display ||
            schema.column(c).type != rel::ValueType::kString) {
          continue;
        }
        for (const std::string& token :
             util::TokenizeWords(relation.StringValue(t, c))) {
          index.postings_[token].push_back(api::Hit{r, t});
        }
      }
    }
  }
  for (auto& [term, hits] : index.postings_) {
    std::sort(hits.begin(), hits.end(), HitLess);
    hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  }
  return index;
}

std::vector<api::Hit> InvertedIndex::Search(
    const std::vector<std::string>& keywords) const {
  if (keywords.empty()) return {};
  std::vector<api::Hit> result;
  bool first = true;
  for (const std::string& kw : keywords) {
    auto it = postings_.find(util::ToLower(kw));
    if (it == postings_.end()) return {};
    if (first) {
      result = it->second;
      first = false;
      continue;
    }
    std::vector<api::Hit> merged;
    std::set_intersection(result.begin(), result.end(), it->second.begin(),
                          it->second.end(), std::back_inserter(merged),
                          HitLess);
    result = std::move(merged);
    if (result.empty()) break;
  }
  return result;
}

std::vector<api::Hit> InvertedIndex::SearchQuery(
    std::string_view query) const {
  return Search(util::TokenizeWords(query));
}

}  // namespace osum::search
