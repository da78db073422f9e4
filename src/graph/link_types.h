// Link types: the logical relationship edges of the database schema.
//
// The paper's machinery (G_DS treealization, authority transfer graphs,
// data-graph traversal) reasons about *relationships between entity
// relations* — Paper-Author, Paper-cites-Paper — not about the physical
// junction tables that encode M:N relationships. A LinkType is that logical
// edge: either a direct foreign key between two entity relations, or an M:N
// relationship realized through a junction relation (a relation flagged
// is_junction with exactly two foreign keys). Junction tuples never appear
// as data-graph nodes or OS nodes, which matches the paper's DBLP G_DS
// where Co-Author is a direct child of Paper.
#ifndef OSUM_GRAPH_LINK_TYPES_H_
#define OSUM_GRAPH_LINK_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/database.h"

namespace osum::graph {

/// Index of a link type within a LinkSchema.
using LinkTypeId = uint32_t;

/// A logical schema edge between entity relations `a` and `b`.
///
/// Orientation convention:
///  - direct FK link: `a` is the referenced (parent / "1") side, `b` the
///    referencing (child / "M") side; traversing kForward goes a -> b
///    (fan-out), kBackward goes b -> a (at most one).
///  - junction link: `a` = parent of fk_a, `b` = parent of fk_b; kForward
///    goes a -> b through the junction, kBackward goes b -> a. For a
///    self-relationship such as Cites (a = b = Paper, fk_a = citing side,
///    fk_b = cited side) kForward is "cites" and kBackward is "cited by".
struct LinkType {
  LinkTypeId id = 0;
  std::string name;
  rel::RelationId a = 0;
  rel::RelationId b = 0;
  bool via_junction = false;
  /// Direct link: the FK (child = b references parent = a). Junction link:
  /// fk_a references `a`, fk_b references `b`; both FKs are on `junction`.
  rel::ForeignKeyId fk_a = 0;
  rel::ForeignKeyId fk_b = 0;
  rel::RelationId junction = 0;  // meaningful iff via_junction
};

/// Names one traversal role of a link ("cites" / "cited_by", "writes" /
/// "written_by"). Used to label replicated G_DS nodes.
std::string RoleName(const LinkType& lt, rel::FkDirection dir);

/// The set of logical links derived from a database's foreign keys.
class LinkSchema {
 public:
  /// Derives link types from `db`: every FK whose endpoints are both entity
  /// relations becomes a direct link; every junction relation (exactly two
  /// FKs, flagged is_junction) becomes one M:N link. FKs that merely attach
  /// a junction to its endpoints are consumed by the junction link.
  /// Junction relations with a FK count other than two are a schema error.
  static LinkSchema Build(const rel::Database& db);

  size_t num_links() const { return links_.size(); }
  const LinkType& link(LinkTypeId id) const { return links_[id]; }
  const std::vector<LinkType>& links() const { return links_; }

  /// Links incident to relation `r` (as either endpoint). A self link
  /// (a == b == r) appears once.
  const std::vector<LinkTypeId>& LinksOf(rel::RelationId r) const {
    return links_of_[r];
  }

  /// Lookup by name; aborts if absent (used when wiring G_A presets).
  LinkTypeId GetLink(const std::string& name) const;

 private:
  std::vector<LinkType> links_;
  std::vector<std::vector<LinkTypeId>> links_of_;
};

}  // namespace osum::graph

#endif  // OSUM_GRAPH_LINK_TYPES_H_
