#ifndef MOPE_COMMON_INTERVAL_H_
#define MOPE_COMMON_INTERVAL_H_

/// \file interval.h
/// Modular (wrap-around) intervals over a finite domain {0, ..., domain-1}.
///
/// The paper works over the 1-based message space [M]; this library uses the
/// equivalent 0-based space {0, ..., M-1} throughout. A modular interval of
/// length L starting at s covers {s, s+1 mod M, ..., s+L-1 mod M} and may
/// wrap around the end of the domain — MOPE range queries are exactly such
/// intervals on the ciphertext space.

#include <array>
#include <cstdint>
#include <optional>
#include <string>

namespace mope {

/// A contiguous, non-modular [lo, hi] segment (inclusive ends).
struct Segment {
  uint64_t lo = 0;
  uint64_t hi = 0;

  uint64_t length() const { return hi - lo + 1; }
  bool operator==(const Segment&) const = default;
};

/// A possibly-wrapping interval on {0, ..., domain-1}.
class ModularInterval {
 public:
  /// Interval of `length` elements starting at `start` (mod domain).
  /// Preconditions: domain > 0, start < domain, 1 <= length <= domain.
  ModularInterval(uint64_t start, uint64_t length, uint64_t domain);

  /// Builds the interval covering first..last inclusive (wrapping when
  /// last < first), matching the paper's [mL, mR] / [cL, cR] notation.
  static ModularInterval FromEndpoints(uint64_t first, uint64_t last,
                                       uint64_t domain);

  uint64_t start() const { return start_; }
  uint64_t length() const { return length_; }
  uint64_t domain() const { return domain_; }

  /// Last element of the interval (inclusive), possibly < start() when wrapped.
  uint64_t last() const { return (start_ + length_ - 1) % domain_; }

  /// True when the interval wraps past domain-1 back to 0.
  bool wraps() const { return start_ + length_ > domain_; }

  /// True when x is covered by the interval.
  bool Contains(uint64_t x) const {
    if (x >= domain_) return false;
    const uint64_t offset =
        (x >= start_) ? (x - start_) : (domain_ - start_ + x);
    return offset < length_;
  }

  /// Decomposes into 1 (non-wrapping) or 2 (wrapping) linear segments, in
  /// ascending order of `lo`. Returns the number of segments written.
  int ToSegments(std::array<Segment, 2>* out) const;

  /// Offset of x from start along the interval direction, if contained.
  std::optional<uint64_t> OffsetOf(uint64_t x) const;

  /// The interval shifted by +delta (mod domain), same length.
  ModularInterval Shifted(uint64_t delta) const {
    return ModularInterval((start_ + delta) % domain_, length_, domain_);
  }

  /// "[s, e] mod M" rendering for logs and error messages.
  std::string ToString() const;

  bool operator==(const ModularInterval&) const = default;

 private:
  uint64_t start_;
  uint64_t length_;
  uint64_t domain_;
};

}  // namespace mope

#endif  // MOPE_COMMON_INTERVAL_H_
