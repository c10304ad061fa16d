#ifndef MOPE_SQL_PARSER_H_
#define MOPE_SQL_PARSER_H_

/// \file parser.h
/// Recursive-descent parser for the supported SELECT grammar:
///
///   stmt     := [EXPLAIN [ANALYZE]] select
///   select   := SELECT (| '*' | item (',' item)*) FROM ident
///               [JOIN ident ON col_ref '=' col_ref]
///               [WHERE expr] [GROUP BY ident]
///   item     := agg '(' expr ')' [AS ident] | agg '(' '*' ')' | expr [AS ident]
///   expr     := or_expr
///   or_expr  := and_expr (OR and_expr)*
///   and_expr := not_expr (AND not_expr)*
///   not_expr := NOT not_expr | cmp_expr
///   cmp_expr := add_expr [(=|<>|<|<=|>|>=) add_expr | BETWEEN add AND add]
///   add_expr := mul_expr (('+'|'-') mul_expr)*
///   mul_expr := unary (('*'|'/') unary)*
///   unary    := '-' unary | primary
///   primary  := literal | col_ref | '(' expr ')'
///   col_ref  := ident ['.' ident]

#include <string>

#include "common/status.h"
#include "sql/ast.h"

namespace mope::sql {

/// Parses one SELECT statement; ParseError with offset context on failure.
Result<SelectStmt> Parse(const std::string& sql);

/// Parses a full statement, honouring an EXPLAIN [ANALYZE] prefix.
Result<Statement> ParseStatement(const std::string& sql);

/// Cheap prefix peek: true iff the text lexes and starts with
/// EXPLAIN ANALYZE. Lets a caller arm trace capture *before* the
/// (traced, span-emitting) full parse runs; malformed input returns false
/// and is diagnosed by the real parse.
bool IsExplainAnalyze(const std::string& sql);

}  // namespace mope::sql

#endif  // MOPE_SQL_PARSER_H_
