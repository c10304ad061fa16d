#ifndef MOPE_DIST_QUERY_BUFFER_H_
#define MOPE_DIST_QUERY_BUFFER_H_

/// \file query_buffer.h
/// The online query-distribution estimator of Section 4.
///
/// The adaptive algorithms do not assume the user's query distribution is
/// known a priori; instead the proxy keeps a buffer of the query starts seen
/// so far. The buffer is just its histogram: a uniform draw from the buffer
/// (with replacement) is a draw from the normalized histogram, so the
/// histogram is the current estimate of Q and nothing else is stored. Plans
/// come from the one Section 3.2 builder; ρ = 1 is AdaptiveQueryU's uniform
/// target.

#include <cstdint>

#include "common/histogram.h"
#include "common/status.h"
#include "dist/completion.h"

namespace mope::dist {

class QueryBuffer {
 public:
  /// Buffer over query-start domain {0, ..., domain-1}.
  explicit QueryBuffer(uint64_t domain);

  uint64_t domain() const { return histogram_.size(); }
  uint64_t size() const { return histogram_.total(); }
  bool empty() const { return histogram_.total() == 0; }

  /// Records one observed real-query start point.
  void Add(uint64_t start);

  /// The buffer as a histogram over the domain.
  const Histogram& histogram() const { return histogram_; }

  /// Current estimate of Q. Fails when the buffer is empty.
  Result<Distribution> Estimate() const;

  /// Mixing plan against the ρ-periodic target (uniform when ρ = 1), from
  /// the current estimate.
  Result<MixPlan> PeriodicPlan(uint64_t period) const;

 private:
  Histogram histogram_;
};

}  // namespace mope::dist

#endif  // MOPE_DIST_QUERY_BUFFER_H_
