#ifndef MOPE_DIST_COMPLETION_H_
#define MOPE_DIST_COMPLETION_H_

/// \file completion.h
/// The completion distributions at the heart of the paper's query algorithms.
///
/// Given the user's query-start distribution Q on [M], the proxy mixes real
/// queries (with probability α per trial) and fake queries drawn from a
/// completion distribution Q̄ so that the *perceived* distribution
/// α·Q + (1-α)·Q̄ equals a target that is independent of the secret offset.
///
/// ρ-periodic completion (Section 3.2): target P_ρ with period ρ | M,
/// α = 1/(η_Q·M) where η_Q is the average over congruence classes mod ρ of
/// the class-maximum probability, and
/// Q̄_ρ(i) = (η_{j(i)} - Q(i)) / (η_Q·M - 1). Expected fakes per real query
/// is η_Q·M - 1 <= M/ρ - 1.
///
/// Uniform completion (Section 3.1) is the case ρ = 1: one congruence class,
/// so η_Q = µ_Q, α = 1/(µ_Q·M), Q̄(i) = (µ_Q - Q(i)) / (µ_Q·M - 1) and the
/// target is U. QueryU is built as QueryP[1]; there is no separate plan.
///
/// α is chosen maximal, minimizing the expected number of fake queries
/// subject to the perceived-distribution constraint.

#include <cstdint>

#include "dist/distribution.h"

namespace mope::dist {

/// A mixing plan: the coin bias and the fake-query distribution.
struct MixPlan {
  /// Per-trial probability of executing the real query ("coin = 1").
  double alpha = 1.0;

  /// The completion distribution fakes are drawn from. When alpha == 1 the
  /// target already equals Q and this is never sampled (kept valid anyway).
  Distribution completion = Distribution::Uniform(1);

  /// The perceived distribution the mix realizes (P_ρ; U when ρ = 1) —
  /// exposed so tests and security experiments can verify the mixing
  /// identity.
  Distribution perceived = Distribution::Uniform(1);

  /// E[# fake queries per real query] = 1/alpha - 1 (geometric).
  double expected_fakes_per_real() const { return 1.0 / alpha - 1.0; }
};

/// Builds the Section 3.2 plan with the given period. Fails unless
/// 1 <= period <= M and period divides M. period == 1 is the Section 3.1
/// (uniform) plan; period == M forwards every query unmodified (alpha == 1).
Result<MixPlan> MakePeriodicPlan(const Distribution& q, uint64_t period);

/// η_Q for the given distribution and period: the average over congruence
/// classes modulo `period` of the class-maximum probability (Section 3.2).
Result<double> AverageClassMaximum(const Distribution& q, uint64_t period);

}  // namespace mope::dist

#endif  // MOPE_DIST_COMPLETION_H_
