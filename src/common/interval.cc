#include "common/interval.h"

#include "common/status.h"

namespace mope {

ModularInterval::ModularInterval(uint64_t start, uint64_t length, uint64_t domain)
    : start_(start), length_(length), domain_(domain) {
  MOPE_CHECK(domain > 0, "interval domain must be positive");
  MOPE_CHECK(start < domain, "interval start must lie inside the domain");
  MOPE_CHECK(length >= 1 && length <= domain, "interval length in [1, domain]");
}

ModularInterval ModularInterval::FromEndpoints(uint64_t first, uint64_t last,
                                               uint64_t domain) {
  MOPE_CHECK(first < domain && last < domain, "endpoints inside the domain");
  uint64_t length = (last >= first) ? (last - first + 1)
                                    : (domain - first + last + 1);
  return ModularInterval(first, length, domain);
}

int ModularInterval::ToSegments(std::array<Segment, 2>* out) const {
  if (!wraps()) {
    (*out)[0] = Segment{start_, start_ + length_ - 1};
    return 1;
  }
  // Wrapped: [0, last] and [start, domain-1], ascending by lo.
  (*out)[0] = Segment{0, last()};
  (*out)[1] = Segment{start_, domain_ - 1};
  return 2;
}

std::optional<uint64_t> ModularInterval::OffsetOf(uint64_t x) const {
  if (x >= domain_) return std::nullopt;
  uint64_t offset = (x >= start_) ? (x - start_) : (domain_ - start_ + x);
  if (offset >= length_) return std::nullopt;
  return offset;
}

std::string ModularInterval::ToString() const {
  return "[" + std::to_string(start_) + ", " + std::to_string(last()) +
         "] mod " + std::to_string(domain_);
}

}  // namespace mope
