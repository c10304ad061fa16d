#ifndef MOPE_SQL_RANGE_EXTRACT_H_
#define MOPE_SQL_RANGE_EXTRACT_H_

/// \file range_extract.h
/// Syntactic extraction of single-column range predicates from WHERE trees.
///
/// Shared by the server-side planner (to choose an index access path) and
/// the client-side encrypted SQL session (to find the predicate that must be
/// rewritten into MOPE range queries). A conjunct qualifies when it is a
/// disjunction of BETWEEN / comparison / equality conditions that all
/// constrain the same column with integer literals.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/interval.h"
#include "sql/ast.h"

namespace mope::sql {

/// An extracted predicate: the column it constrains and the key segments it
/// admits (clamped to unsigned; empty when unsatisfiable).
struct ExtractedRanges {
  std::string column;
  std::vector<Segment> segments;
};

/// Walks the AND-tree of a WHERE clause and returns the first conjunct that
/// is a range disjunction over a column accepted by `accept`; nullopt when
/// none qualifies.
std::optional<ExtractedRanges> ExtractRangesFromWhere(
    const Expr& where, const std::function<bool(const std::string&)>& accept);

}  // namespace mope::sql

#endif  // MOPE_SQL_RANGE_EXTRACT_H_
