#ifndef MOPE_TESTS_TESTING_BYTE_SWEEP_H_
#define MOPE_TESTS_TESTING_BYTE_SWEEP_H_

/// \file byte_sweep.h
/// Deterministic byte-mutation sweeps for decoders of untrusted bytes: flip
/// every byte, cut at every length, and hand each mutant to a check.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace mope::sweep {

/// Calls `check(mutated, what)` for `bytes` with each byte in turn XOR-ed
/// with 0x01 and with 0xFF.
inline void ForEachFlip(
    const std::string& bytes,
    const std::function<void(const std::string&, const std::string&)>& check) {
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (const char mask : {'\x01', '\xFF'}) {
      std::string mutated = bytes;
      mutated[i] ^= mask;
      check(mutated, "byte " + std::to_string(i) + " ^ " +
                         std::to_string(static_cast<uint8_t>(mask)));
    }
  }
}

/// Calls `check(prefix, what)` for every proper prefix of `bytes`, the empty
/// one included.
inline void ForEachCut(
    const std::string& bytes,
    const std::function<void(const std::string&, const std::string&)>& check) {
  for (size_t len = 0; len < bytes.size(); ++len) {
    check(bytes.substr(0, len), "cut at " + std::to_string(len));
  }
}

}  // namespace mope::sweep

#endif  // MOPE_TESTS_TESTING_BYTE_SWEEP_H_
