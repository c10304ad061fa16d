#include "sql/range_extract.h"

#include <limits>
#include <utility>

namespace mope::sql {

namespace {

constexpr uint64_t kKeyMax = std::numeric_limits<uint64_t>::max();

/// Signed literal: an int literal or its negation.
std::optional<int64_t> AsIntLiteral(const Expr& e) {
  if (e.kind == ExprKind::kIntLiteral) return e.int_val;
  if (e.kind == ExprKind::kUnary && e.un_op == UnaryOp::kNeg &&
      e.children[0]->kind == ExprKind::kIntLiteral) {
    return -e.children[0]->int_val;
  }
  return std::nullopt;
}

/// Clamps a signed [lo, hi] condition to the unsigned key space.
void AppendClamped(int64_t lo, int64_t hi, std::vector<Segment>* out) {
  if (hi < 0 || hi < lo) return;  // empty
  const uint64_t ulo = lo < 0 ? 0 : static_cast<uint64_t>(lo);
  out->push_back(Segment{ulo, static_cast<uint64_t>(hi)});
}

std::optional<ExtractedRanges> TryRangeLeaf(const Expr& e) {
  if (e.kind == ExprKind::kBetween) {
    const Expr& operand = *e.children[0];
    if (operand.kind != ExprKind::kColumn) return std::nullopt;
    const auto lo = AsIntLiteral(*e.children[1]);
    const auto hi = AsIntLiteral(*e.children[2]);
    if (!lo || !hi) return std::nullopt;
    ExtractedRanges leaf{operand.column, {}};
    AppendClamped(*lo, *hi, &leaf.segments);
    return leaf;
  }
  if (e.kind != ExprKind::kBinary) return std::nullopt;

  BinaryOp op = e.bin_op;
  const Expr* col = e.children[0].get();
  const Expr* lit = e.children[1].get();
  if (col->kind != ExprKind::kColumn) {
    // Literal on the left: flip the comparison.
    std::swap(col, lit);
    switch (op) {
      case BinaryOp::kLt: op = BinaryOp::kGt; break;
      case BinaryOp::kLe: op = BinaryOp::kGe; break;
      case BinaryOp::kGt: op = BinaryOp::kLt; break;
      case BinaryOp::kGe: op = BinaryOp::kLe; break;
      default: break;
    }
  }
  if (col->kind != ExprKind::kColumn) return std::nullopt;
  const auto v = AsIntLiteral(*lit);
  if (!v) return std::nullopt;

  ExtractedRanges leaf{col->column, {}};
  switch (op) {
    case BinaryOp::kEq:
      AppendClamped(*v, *v, &leaf.segments);
      return leaf;
    case BinaryOp::kLe:
      AppendClamped(0, *v, &leaf.segments);
      return leaf;
    case BinaryOp::kLt:
      AppendClamped(0, *v - 1, &leaf.segments);
      return leaf;
    case BinaryOp::kGe:
      leaf.segments.push_back(
          Segment{*v <= 0 ? 0 : static_cast<uint64_t>(*v), kKeyMax});
      return leaf;
    case BinaryOp::kGt:
      leaf.segments.push_back(
          Segment{*v < 0 ? 0 : static_cast<uint64_t>(*v) + 1, kKeyMax});
      return leaf;
    default:
      return std::nullopt;
  }
}

/// Extracts from a single expression that must *entirely* be a range
/// disjunction over one column; nullopt otherwise.
std::optional<ExtractedRanges> TryExtractRanges(const Expr& expr) {
  if (expr.kind == ExprKind::kBinary && expr.bin_op == BinaryOp::kOr) {
    auto left = TryExtractRanges(*expr.children[0]);
    auto right = TryExtractRanges(*expr.children[1]);
    if (!left || !right || left->column != right->column) return std::nullopt;
    left->segments.insert(left->segments.end(), right->segments.begin(),
                          right->segments.end());
    return left;
  }
  return TryRangeLeaf(expr);
}

}  // namespace

std::optional<ExtractedRanges> ExtractRangesFromWhere(
    const Expr& where, const std::function<bool(const std::string&)>& accept) {
  if (where.kind == ExprKind::kBinary && where.bin_op == BinaryOp::kAnd) {
    if (auto left = ExtractRangesFromWhere(*where.children[0], accept)) {
      return left;
    }
    return ExtractRangesFromWhere(*where.children[1], accept);
  }
  auto leaf = TryExtractRanges(where);
  if (!leaf || !accept(leaf->column)) return std::nullopt;
  return leaf;
}

}  // namespace mope::sql
