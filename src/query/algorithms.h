#ifndef MOPE_QUERY_ALGORITHMS_H_
#define MOPE_QUERY_ALGORITHMS_H_

/// \file algorithms.h
/// The paper's query-execution algorithms.
///
/// A QueryAlgorithm turns each user range query into a *batch* of
/// fixed-length-k queries: the τk decomposition of the real query plus fake
/// queries sampled from a completion distribution, randomly permuted. The
/// number of fakes per real query is drawn directly from the geometric
/// distribution Geom(α) — the Section 5 optimization that collapses the
/// repeated Bernoulli trials of the in-paper pseudocode into one draw with
/// the identical distribution.
///
///  * PeriodicQueryAlgorithm — QueryP[ρ] (Section 3.2), perceived dist P_ρ.
///    QueryU (Section 3.1) is QueryP[1]: one congruence class, so the
///    perceived distribution is uniform.
///  * AdaptiveQueryAlgorithm — AdaptiveQueryU / AdaptiveQueryP (Section 4):
///    the distribution is learned online from a histogram of past query
///    starts; one query is issued per step, and a "real" execution is
///    distributed as a draw from the current estimate of Q. ρ = 1 is
///    AdaptiveQueryU.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "dist/completion.h"
#include "dist/query_buffer.h"
#include "query/query_types.h"

namespace mope::query {

/// Common configuration for all algorithms.
struct QueryConfig {
  uint64_t domain = 0;  ///< M.
  uint64_t k = 1;       ///< Fixed query length (1 <= k <= M).
};

/// Abstract interface: one user query in, one permuted batch out.
class QueryAlgorithm {
 public:
  virtual ~QueryAlgorithm() = default;

  /// Processes a user query: returns the decomposed real queries and the
  /// fake queries, permuted. `rng` drives the coin flips, fake sampling and
  /// the permutation.
  virtual Result<std::vector<FixedQuery>> Process(const RangeQuery& q,
                                                  mope::BitSource* rng) = 0;

  /// The static mixing plan driving this algorithm, when one exists: the
  /// non-adaptive algorithms always carry one; the adaptive algorithm only
  /// once its cross-over policy froze the estimate. Null otherwise. The
  /// proxy's mix-health gauges compare the realized fake rate and sampled
  /// start distribution against this plan's alpha and perceived target.
  virtual const dist::MixPlan* mix_plan() const { return nullptr; }

  const QueryConfig& config() const { return config_; }

 protected:
  explicit QueryAlgorithm(const QueryConfig& config) : config_(config) {}

  QueryConfig config_;
};

/// QueryP[ρ]: perceived query distribution ρ-periodic. Expected fakes per
/// transformed real query: η_Q·M - 1 <= M/ρ - 1. Leaks the log ρ
/// least-significant bits of the offset; ρ tunes security vs. efficiency.
/// ρ = 1 is QueryU: uniform perceived distribution, µ_Q·M - 1 expected
/// fakes, nothing of the offset leaked.
class PeriodicQueryAlgorithm final : public QueryAlgorithm {
 public:
  /// `q_starts` is the known distribution of transformed-query start points;
  /// `period` must be in [1, M] and divide M.
  static Result<std::unique_ptr<PeriodicQueryAlgorithm>> Create(
      const QueryConfig& config, const dist::Distribution& q_starts,
      uint64_t period);

  Result<std::vector<FixedQuery>> Process(const RangeQuery& q,
                                          mope::BitSource* rng) override;

  uint64_t period() const { return period_; }
  const dist::MixPlan& plan() const { return plan_; }
  const dist::MixPlan* mix_plan() const override { return &plan_; }

 private:
  PeriodicQueryAlgorithm(const QueryConfig& config, uint64_t period,
                         dist::MixPlan plan)
      : QueryAlgorithm(config), period_(period), plan_(std::move(plan)) {}

  uint64_t period_;
  dist::MixPlan plan_;
};

/// Cross-over policy: when to declare the distribution "learned" and switch
/// to the static algorithm (the open question at the end of Section 4).
/// The estimate is snapshotted every `check_interval` observed pieces; when
/// the total-variation distance between consecutive snapshots drops below
/// `tv_threshold` (and at least `min_observations` pieces were seen), the
/// current mixing plan is frozen and buffer maintenance stops.
struct CrossOverPolicy {
  double tv_threshold = 0.0;  ///< 0 disables freezing (pure Section 4 mode).
  uint64_t min_observations = 256;
  uint64_t check_interval = 128;

  bool enabled() const { return tv_threshold > 0.0; }
};

/// AdaptiveQueryU / AdaptiveQueryP (Section 4). `period` is ρ in [1, M],
/// dividing M, as for QueryP[ρ]; ρ = 1 is the uniform target (AdaptiveQueryU).
///
/// For each transformed piece of an incoming query, the algorithm adds the
/// piece to the buffer, then repeatedly recomputes (η, Q̄ρ) — (µ, Q̄) at
/// ρ = 1 — from the buffer and flips the α-coin: tails executes a
/// completion-sampled fake; heads executes the real piece and moves on.
/// Because the piece was itself drawn from the user's distribution and the
/// buffer's histogram *is* the current estimate of that distribution,
/// executing the piece on heads is distributed identically to executing a
/// draw from that estimate — the property the Section 7 security argument
/// needs — while converging to the non-adaptive algorithm's
/// E[fakes] = η_Q·M - 1 per piece (µ_Q·M - 1 at ρ = 1; Figure 16).
class AdaptiveQueryAlgorithm final : public QueryAlgorithm {
 public:
  static Result<std::unique_ptr<AdaptiveQueryAlgorithm>> Create(
      const QueryConfig& config, uint64_t period,
      const CrossOverPolicy& policy = CrossOverPolicy{});

  /// Feeds the query's pieces into the buffer and executes each of them
  /// (plus its preceding fakes); returns all issued queries in order.
  Result<std::vector<FixedQuery>> Process(const RangeQuery& q,
                                          mope::BitSource* rng) override;

  /// The learned query-start histogram (the current estimate of Q).
  const dist::QueryBuffer& buffer() const { return buffer_; }

  /// True once the cross-over policy froze the plan.
  bool frozen() const { return frozen_plan_.has_value(); }

  /// Before the freeze the plan is still being learned per piece, so there
  /// is no static expectation to audit against.
  const dist::MixPlan* mix_plan() const override {
    return frozen_plan_ ? &*frozen_plan_ : nullptr;
  }

 private:
  AdaptiveQueryAlgorithm(const QueryConfig& config, uint64_t period,
                         const CrossOverPolicy& policy)
      : QueryAlgorithm(config), period_(period), policy_(policy),
        buffer_(config.domain) {}

  /// Evaluates the cross-over policy after a new observation.
  Status MaybeFreeze();

  uint64_t period_;
  CrossOverPolicy policy_;
  dist::QueryBuffer buffer_;
  std::optional<dist::Distribution> snapshot_;
  std::optional<dist::MixPlan> frozen_plan_;
};

}  // namespace mope::query

#endif  // MOPE_QUERY_ALGORITHMS_H_
