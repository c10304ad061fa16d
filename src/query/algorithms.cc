#include "query/algorithms.h"

#include <algorithm>

namespace mope::query {

namespace {

Status ValidateConfig(const QueryConfig& config) {
  if (config.domain == 0) {
    return Status::InvalidArgument("query domain must be positive");
  }
  if (config.k == 0 || config.k > config.domain) {
    return Status::InvalidArgument("fixed length k must be in [1, domain]");
  }
  return Status::OK();
}

Status ValidateQuery(const RangeQuery& q, const QueryConfig& config) {
  if (q.first > q.last || q.last >= config.domain) {
    return Status::InvalidArgument("range query endpoints invalid");
  }
  return Status::OK();
}

void ShuffleBatch(std::vector<FixedQuery>* batch, mope::BitSource* rng) {
  for (size_t i = batch->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng->UniformUint64(i));
    std::swap((*batch)[i - 1], (*batch)[j]);
  }
}

/// Appends the Geom(α) completion-sampled fakes that go with one real piece:
/// one draw with the distribution of the paper's per-trial α-coin loop.
void AppendFakes(const dist::MixPlan& plan, mope::BitSource* rng,
                 std::vector<FixedQuery>* out) {
  const uint64_t fakes = (plan.alpha >= 1.0) ? 0 : rng->Geometric(plan.alpha);
  for (uint64_t f = 0; f < fakes; ++f) {
    out->push_back(FixedQuery{plan.completion.Sample(rng), QueryKind::kFake});
  }
}

}  // namespace

Result<std::unique_ptr<PeriodicQueryAlgorithm>> PeriodicQueryAlgorithm::Create(
    const QueryConfig& config, const dist::Distribution& q_starts,
    uint64_t period) {
  MOPE_RETURN_NOT_OK(ValidateConfig(config));
  if (q_starts.size() != config.domain) {
    return Status::InvalidArgument(
        "query-start distribution size must equal the domain");
  }
  MOPE_ASSIGN_OR_RETURN(dist::MixPlan plan,
                        dist::MakePeriodicPlan(q_starts, period));
  return std::unique_ptr<PeriodicQueryAlgorithm>(
      new PeriodicQueryAlgorithm(config, period, std::move(plan)));
}

Result<std::vector<FixedQuery>> PeriodicQueryAlgorithm::Process(
    const RangeQuery& q, mope::BitSource* rng) {
  MOPE_RETURN_NOT_OK(ValidateQuery(q, config_));
  // The τk pieces of q plus their fakes, permuted.
  std::vector<FixedQuery> batch = Decompose(q, config_.k, config_.domain);
  const size_t reals = batch.size();
  for (size_t i = 0; i < reals; ++i) AppendFakes(plan_, rng, &batch);
  ShuffleBatch(&batch, rng);
  return batch;
}

Result<std::unique_ptr<AdaptiveQueryAlgorithm>> AdaptiveQueryAlgorithm::Create(
    const QueryConfig& config, uint64_t period, const CrossOverPolicy& policy) {
  MOPE_RETURN_NOT_OK(ValidateConfig(config));
  // ρ in [1, M] dividing M (a ρ above M leaves a remainder).
  if (period < 1 || config.domain % period != 0) {
    return Status::InvalidArgument(
        "period must be in [1, domain] and divide the domain");
  }
  if (policy.enabled() && policy.check_interval == 0) {
    return Status::InvalidArgument("cross-over check interval must be > 0");
  }
  return std::unique_ptr<AdaptiveQueryAlgorithm>(
      new AdaptiveQueryAlgorithm(config, period, policy));
}

Status AdaptiveQueryAlgorithm::MaybeFreeze() {
  if (!policy_.enabled() || frozen_plan_.has_value()) return Status::OK();
  if (buffer_.size() < policy_.min_observations) return Status::OK();
  if (buffer_.size() % policy_.check_interval != 0) return Status::OK();

  MOPE_ASSIGN_OR_RETURN(dist::Distribution estimate, buffer_.Estimate());
  if (snapshot_.has_value() &&
      estimate.TotalVariationDistance(*snapshot_) < policy_.tv_threshold) {
    // Learned: freeze the plan; from now on this behaves like the static
    // QueryP[ρ] initialized with the learned distribution.
    MOPE_ASSIGN_OR_RETURN(frozen_plan_,
                          dist::MakePeriodicPlan(estimate, period_));
  }
  snapshot_ = std::move(estimate);
  return Status::OK();
}

Result<std::vector<FixedQuery>> AdaptiveQueryAlgorithm::Process(
    const RangeQuery& q, mope::BitSource* rng) {
  MOPE_RETURN_NOT_OK(ValidateQuery(q, config_));
  std::vector<FixedQuery> issued;
  for (const FixedQuery& piece : Decompose(q, config_.k, config_.domain)) {
    const dist::MixPlan* plan = nullptr;
    dist::MixPlan fresh;
    if (frozen_plan_.has_value()) {
      plan = &*frozen_plan_;
    } else {
      buffer_.Add(piece.start);
      MOPE_RETURN_NOT_OK(MaybeFreeze());
      if (frozen_plan_.has_value()) {
        plan = &*frozen_plan_;
      } else {
        // The buffer only changes when a new piece arrives, so the plan is
        // constant across this piece's coin flips — compute it once and
        // draw the fake count from Geom(α) (Section 5 optimization).
        MOPE_ASSIGN_OR_RETURN(fresh, buffer_.PeriodicPlan(period_));
        plan = &fresh;
      }
    }
    AppendFakes(*plan, rng, &issued);
    issued.push_back(piece);
  }
  return issued;
}

}  // namespace mope::query
