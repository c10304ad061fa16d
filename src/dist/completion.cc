#include "dist/completion.h"

#include <algorithm>
#include <string>
#include <vector>

namespace mope::dist {

namespace {

/// Treats mixing weights that are almost-one as exactly one: when the user's
/// distribution already equals the target, ηM - 1 == 0 and the completion is
/// undefined (and unneeded).
constexpr double kAlphaOneEps = 1e-12;

/// The class maxima η_j = max over i ≡ j (mod period) of Q(i), in one pass
/// with a running class index. Fails unless period is in [1, M] and divides M.
Result<std::vector<double>> ClassMaxima(const Distribution& q,
                                        uint64_t period) {
  const uint64_t m = q.size();
  if (period == 0 || period > m) {
    return Status::InvalidArgument("period must be in [1, M]");
  }
  if (m % period != 0) {
    return Status::InvalidArgument("period " + std::to_string(period) +
                                   " must divide the domain size " +
                                   std::to_string(m));
  }
  std::vector<double> class_max(period, 0.0);
  uint64_t j = 0;
  for (uint64_t i = 0; i < m; ++i) {
    class_max[j] = std::max(class_max[j], q.prob(i));
    if (++j == period) j = 0;
  }
  return class_max;
}

/// η_Q: the mean of the class maxima.
double Mean(const std::vector<double>& class_max) {
  double eta = 0.0;
  for (double v : class_max) eta += v;
  return eta / static_cast<double>(class_max.size());
}

}  // namespace

Result<double> AverageClassMaximum(const Distribution& q, uint64_t period) {
  MOPE_ASSIGN_OR_RETURN(const std::vector<double> class_max,
                        ClassMaxima(q, period));
  return Mean(class_max);
}

Result<MixPlan> MakePeriodicPlan(const Distribution& q, uint64_t period) {
  const uint64_t m = q.size();
  MOPE_ASSIGN_OR_RETURN(const std::vector<double> class_max,
                        ClassMaxima(q, period));
  const double eta = Mean(class_max);

  // Target P_ρ(i) = η_{i mod ρ} / (η·M): periodic, sums to 1. With one class
  // it is U, built directly so QueryU's perceived distribution keeps the
  // exact bits of Distribution::Uniform rather than those of normalizing M
  // copies of µ_Q.
  MixPlan plan;
  if (period == 1) {
    plan.perceived = Distribution::Uniform(m);
  } else {
    std::vector<double> target(m);
    for (uint64_t i = 0, j = 0; i < m; ++i) {
      target[i] = class_max[j];
      if (++j == period) j = 0;
    }
    MOPE_ASSIGN_OR_RETURN(plan.perceived,
                          Distribution::FromWeights(std::move(target)));
  }

  const double denom = eta * static_cast<double>(m) - 1.0;
  if (denom <= kAlphaOneEps) {
    // Q is already ρ-periodic (e.g. period == M): forward everything.
    plan.alpha = 1.0;
    plan.completion = plan.perceived;
    return plan;
  }
  plan.alpha = 1.0 / (eta * static_cast<double>(m));

  std::vector<double> weights(m);
  for (uint64_t i = 0, j = 0; i < m; ++i) {
    weights[i] = class_max[j] - q.prob(i);
    if (++j == period) j = 0;
  }
  MOPE_ASSIGN_OR_RETURN(plan.completion,
                        Distribution::FromWeights(std::move(weights)));
  return plan;
}

}  // namespace mope::dist
