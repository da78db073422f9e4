// Keyword lookup: an inverted index over the text attributes of the data
// subject relations, used to locate t_DS tuples (the entry point of every
// OS keyword query).
#ifndef OSUM_SEARCH_INVERTED_INDEX_H_
#define OSUM_SEARCH_INVERTED_INDEX_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/query.h"
#include "relational/database.h"

namespace osum::search {

/// Word-level inverted index with AND query semantics: a tuple matches a
/// query iff every query keyword appears among the tokens of its display
/// string attributes ("Christos Faloutsos" matches queries "faloutsos" and
/// "christos faloutsos").
class InvertedIndex {
 public:
  /// Indexes the display string columns of `relations`.
  static InvertedIndex Build(const rel::Database& db,
                             const std::vector<rel::RelationId>& relations);

  /// AND query over tokenized keywords; hits are returned in (relation,
  /// tuple) order. An empty keyword list yields no hits.
  std::vector<api::Hit> Search(const std::vector<std::string>& keywords) const;

  /// Tokenizes `query` and delegates to Search.
  std::vector<api::Hit> SearchQuery(std::string_view query) const;

  size_t num_terms() const { return postings_.size(); }

 private:
  // Postings are sorted by (relation, tuple) and deduplicated.
  std::unordered_map<std::string, std::vector<api::Hit>> postings_;
};

}  // namespace osum::search

#endif  // OSUM_SEARCH_INVERTED_INDEX_H_
