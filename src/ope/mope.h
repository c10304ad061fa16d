#ifndef MOPE_OPE_MOPE_H_
#define MOPE_OPE_MOPE_H_

/// \file mope.h
/// Modular order-preserving encryption (Section 2.2 of the paper).
///
/// MOPE[OPE] adds a secret uniformly-random modular offset j to the key:
///   Enc((K, j), m) = OPE.Enc(K, (m + j) mod M)
///   Dec((K, j), c) = (OPE.Dec(K, c) - j) mod M.
/// The encrypted database alone then reveals nothing about plaintext
/// *locations* (every rotation of the plaintext multiset is equally likely),
/// while comparisons — and hence range queries with wrap-around — still work.
///
/// Range queries: the encryption of a plaintext interval [mL, mR] is the
/// ciphertext interval [Enc(mL), Enc(mR)], which wraps around the ciphertext
/// space exactly when the shifted plaintext interval wraps around the domain.

#include <cstdint>
#include <string>

#include "common/interval.h"
#include "common/status.h"
#include "ope/ope.h"

namespace mope::ope {

/// MOPE secret key: the underlying OPE key plus the secret offset.
struct MopeKey {
  OpeKey ope_key;
  uint64_t offset = 0;  ///< j, uniform in {0, ..., M-1}.

  /// Draws a fresh key (OPE key + uniform offset) for domain size M.
  static MopeKey Generate(uint64_t domain, mope::BitSource* entropy);

  /// Hex serialization "<32 hex chars>:<offset>" for key storage at the
  /// trusted proxy. Round-trips through Deserialize.
  std::string Serialize() const;
  static Result<MopeKey> Deserialize(const std::string& text);
};

/// An encrypted range query: ciphertext-space endpoints, inclusive. The
/// interval wraps around the ciphertext space when last < first.
struct CipherRange {
  uint64_t first = 0;
  uint64_t last = 0;

  bool wraps() const { return last < first; }
  bool operator==(const CipherRange&) const = default;
};

/// The MOPE scheme: deterministic, immutable after Create and so shareable
/// across threads without a lock. Move-only, as the underlying OPE scheme
/// owns its ciphertext table.
class MopeScheme {
 public:
  /// Validates parameters and builds the scheme, which samples the whole
  /// OPE table for domains up to OpeScheme::kMaxTableDomain. Requires
  /// offset < domain. `registry` receives the underlying OPE's ope.*
  /// counters; null selects the process-global obs::Registry().
  static Result<MopeScheme> Create(const OpeParams& params, const MopeKey& key,
                                   obs::MetricsRegistry* registry = nullptr);

  const OpeParams& params() const { return ope_.params(); }
  uint64_t domain() const { return ope_.params().domain; }
  uint64_t range() const { return ope_.params().range; }

  /// Encrypts plaintext m in {0, ..., M-1}.
  Result<uint64_t> Encrypt(uint64_t m) const;

  /// Decrypts ciphertext c; Corruption if c is not a valid encryption.
  Result<uint64_t> Decrypt(uint64_t c) const;

  /// Encrypts the (possibly wrap-around) plaintext interval into a
  /// ciphertext range [Enc(first), Enc(last)].
  Result<CipherRange> EncryptRange(const ModularInterval& plain) const;

 private:
  MopeScheme(OpeScheme ope, uint64_t offset)
      : ope_(std::move(ope)), offset_(offset) {}

  OpeScheme ope_;
  uint64_t offset_;
};

}  // namespace mope::ope

#endif  // MOPE_OPE_MOPE_H_
