#include "dist/query_buffer.h"

namespace mope::dist {

QueryBuffer::QueryBuffer(uint64_t domain) : histogram_(domain) {
  MOPE_CHECK(domain > 0, "query buffer domain must be positive");
}

void QueryBuffer::Add(uint64_t start) {
  MOPE_CHECK(start < domain(), "query start outside the domain");
  histogram_.Add(start);
}

Result<Distribution> QueryBuffer::Estimate() const {
  if (empty()) {
    return Status::InvalidArgument("query buffer is empty");
  }
  return Distribution::FromHistogram(histogram_);
}

Result<MixPlan> QueryBuffer::PeriodicPlan(uint64_t period) const {
  MOPE_ASSIGN_OR_RETURN(Distribution q, Estimate());
  return MakePeriodicPlan(q, period);
}

}  // namespace mope::dist
