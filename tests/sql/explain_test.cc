/// EXPLAIN / EXPLAIN ANALYZE surface: the statement grammar, the cheap
/// prefix peek the session uses to arm tracing before parsing, and the
/// plan renderer's line format (indentation, estimates, actuals).

#include "sql/explain.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/table.h"
#include "obs/clock.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace mope::sql {
namespace {

using engine::Catalog;
using engine::Column;
using engine::Row;
using engine::Schema;
using engine::ValueType;

TEST(ExplainParseTest, ExplainPrefixSetsFlag) {
  auto stmt = ParseStatement("EXPLAIN SELECT a FROM t WHERE a > 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->explain);
  EXPECT_FALSE(stmt->analyze);
  EXPECT_EQ(stmt->select.from_table, "t");
}

TEST(ExplainParseTest, ExplainAnalyzeSetsBothFlags) {
  auto stmt = ParseStatement("explain analyze SELECT a FROM t WHERE a > 3");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->explain);
  EXPECT_TRUE(stmt->analyze);
}

TEST(ExplainParseTest, PlainSelectHasNeitherFlag) {
  auto stmt = ParseStatement("SELECT a FROM t WHERE a > 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(stmt->explain);
  EXPECT_FALSE(stmt->analyze);
}

TEST(ExplainParseTest, ExplainNeedsASelect) {
  EXPECT_FALSE(ParseStatement("EXPLAIN").ok());
  EXPECT_FALSE(ParseStatement("EXPLAIN ANALYZE").ok());
}

TEST(ExplainParseTest, IsExplainAnalyzePeek) {
  EXPECT_TRUE(IsExplainAnalyze("EXPLAIN ANALYZE SELECT 1 FROM t"));
  EXPECT_TRUE(IsExplainAnalyze("  explain  Analyze SELECT 1 FROM t"));
  EXPECT_FALSE(IsExplainAnalyze("EXPLAIN SELECT 1 FROM t"));
  EXPECT_FALSE(IsExplainAnalyze("SELECT 1 FROM t"));
  // The peek never throws on junk; it just answers "no".
  EXPECT_FALSE(IsExplainAnalyze(""));
  EXPECT_FALSE(IsExplainAnalyze("@@@"));
}

class ExplainRenderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = catalog_.CreateTable(
        "t", Schema({Column{"a", ValueType::kInt},
                     Column{"b", ValueType::kDouble}}));
    ASSERT_TRUE(t.ok());
    for (int64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE((*t)->Insert({i, i * 0.5}).ok());
    }
  }

  PlannedQuery PlanOf(const std::string& sql) {
    auto stmt = ParseStatement(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    Planner planner(&catalog_);
    auto plan = planner.Plan(std::move(stmt->select));
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }

  Catalog catalog_;
};

TEST_F(ExplainRenderTest, PlainExplainShowsTreeWithEstimates) {
  PlannedQuery plan =
      PlanOf("SELECT COUNT(*) FROM t WHERE a BETWEEN 10 AND 19");
  ExplainOptions options;
  auto lines = RenderPlanLines(plan.root.get(), options);
  ASSERT_GE(lines.size(), 3u);
  // Root renders unprefixed; each level below gets "-> " two spaces deeper.
  EXPECT_EQ(lines[0].rfind("Aggregate", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("-> Filter", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("  -> SeqScan", 0), 0u) << lines[2];
  // Every node carries the planner's cardinality estimate...
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("(rows="), std::string::npos) << line;
    // ...and no actuals, because nothing executed.
    EXPECT_EQ(line.find("actual"), std::string::npos) << line;
  }
}

TEST_F(ExplainRenderTest, AnalyzeAppendsActuals) {
  PlannedQuery plan =
      PlanOf("SELECT COUNT(*) FROM t WHERE a BETWEEN 10 AND 19");
  obs::ManualClock clock(0, 3);
  plan.root->EnableProfiling(&clock);
  ASSERT_TRUE(engine::Collect(plan.root.get()).ok());

  ExplainOptions options;
  options.analyze = true;
  auto lines = RenderPlanLines(plan.root.get(), options);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_NE(lines[0].find("(actual rows=1 "), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("(actual rows=10 "), std::string::npos) << lines[1];
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("next_calls="), std::string::npos) << line;
    EXPECT_NE(line.find("ns="), std::string::npos) << line;
  }
}

TEST_F(ExplainRenderTest, PlanLinesToResultIsOneColumn) {
  SqlResult result = PlanLinesToResult({"alpha", "beta"});
  ASSERT_EQ(result.columns.size(), 1u);
  EXPECT_EQ(result.columns[0], "QUERY PLAN");
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(std::get<std::string>(result.rows[0][0]), "alpha");
  EXPECT_EQ(std::get<std::string>(result.rows[1][0]), "beta");
}

}  // namespace
}  // namespace mope::sql
