#ifndef MOPE_OPE_OPE_H_
#define MOPE_OPE_OPE_H_

/// \file ope.h
/// Order-preserving symmetric encryption (Boldyreva-Chenette-Lee-O'Neill,
/// EUROCRYPT 2009): the POPF-secure OPE scheme the paper builds MOPE on.
///
/// Plaintext space is {0, ..., M-1}, ciphertext space {0, ..., N-1} with
/// N >= M (the paper's theorems assume N >= 8M; `SuggestRange` returns such
/// an N). Encryption "lazily samples" a uniformly random order-preserving
/// function: the ciphertext space is split at its midpoint, the number of
/// plaintexts falling left of the split is drawn from the exact
/// hypergeometric distribution using PRF-derived coins (so every encryption
/// call reconstructs the same function), and the recursion descends into the
/// half containing the target plaintext.
///
/// Deterministic and key-only: no interaction, and the key alone fixes the
/// function. For domains up to kMaxTableDomain (2^16) Create samples the
/// whole split tree once, in one descent, into a sorted table of the M
/// ciphertexts: Encrypt is a table read, Decrypt and DecryptFloorCeil one
/// binary search, and none of them draws. Larger domains keep no table and
/// walk the tree on every call, at O(log N) PRF calls and HGD draws each.

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "crypto/aes.h"
#include "crypto/prf.h"
#include "obs/registry.h"

namespace mope::ope {

/// Domain/range sizes of an OPE instance.
struct OpeParams {
  uint64_t domain = 0;  ///< M: plaintexts are {0, ..., M-1}.
  uint64_t range = 0;   ///< N: ciphertexts are {0, ..., N-1}; N >= M.
};

/// Returns a ciphertext-space size satisfying the N >= 8M requirement of the
/// paper's security theorems (rounded up to the next power of two).
uint64_t SuggestRange(uint64_t domain);

/// Secret key: one AES-128 key for the coin PRF.
struct OpeKey {
  crypto::Key128 prf_key{};

  /// Draws a fresh key from the given entropy source.
  static OpeKey Generate(mope::BitSource* entropy);
};

/// The OPE scheme. The sampled function is fixed by the key, and the scheme
/// is immutable after Create, so one scheme may be shared across threads for
/// concurrent Encrypt, Decrypt and DecryptFloorCeil without a lock.
/// Move-only: a copy would duplicate the table.
class OpeScheme {
 public:
  /// Largest domain whose ciphertexts Create samples into a table (8 bytes a
  /// plaintext, so at most 512 KiB). Larger domains walk the tree per call.
  static constexpr uint64_t kMaxTableDomain = uint64_t{1} << 16;

  /// Validates parameters (0 < M <= N) and builds the scheme, sampling the
  /// whole tree when M <= kMaxTableDomain. `registry` receives the ope.*
  /// counter family (encrypt/decrypt calls, HGD draws); null selects the
  /// process-global obs::Registry().
  static Result<OpeScheme> Create(const OpeParams& params, const OpeKey& key,
                                  obs::MetricsRegistry* registry = nullptr);

  OpeScheme(OpeScheme&&) noexcept = default;
  OpeScheme& operator=(OpeScheme&&) noexcept = default;

  const OpeParams& params() const { return params_; }

  /// Encrypts plaintext m in {0, ..., M-1}.
  Result<uint64_t> Encrypt(uint64_t m) const;

  /// Decrypts ciphertext c in {0, ..., N-1}. Returns Corruption if c is not
  /// the encryption of any plaintext under this key.
  Result<uint64_t> Decrypt(uint64_t c) const;

  /// Decrypts a ciphertext that may not be a valid encryption, rounding to
  /// the *smallest plaintext m with Encrypt(m) >= c*; returns M when no such
  /// plaintext exists. This is what a client needs to translate an arbitrary
  /// ciphertext-space boundary back into plaintext space.
  Result<uint64_t> DecryptFloorCeil(uint64_t c) const;

 private:
  /// Which target a walk descends towards.
  enum class Descend { kByPlaintext, kByCiphertext };

  /// Where a walk stopped: a leaf (m_count == 1), or an empty branch
  /// (m_count == 0) that a ciphertext outside the image fell into.
  struct WalkEnd {
    uint64_t dlo;      ///< First plaintext of the node.
    uint64_t m_count;  ///< Plaintexts in the node: 1 or 0.
    uint64_t cipher;   ///< The leaf's ciphertext; 0 for an empty branch.
  };

  /// Where a ciphertext c falls among the image.
  struct Position {
    uint64_t ceil;  ///< Smallest plaintext encrypting to c or above; M if none.
    bool hit;       ///< Whether that plaintext encrypts to c itself.
  };

  OpeScheme(const OpeParams& params, const OpeKey& key,
            obs::MetricsRegistry* registry);

  /// Samples the subtree of node (dlo, m_count, rlo, n_count) into table_.
  Status FillTable(uint64_t dlo, uint64_t m_count, uint64_t rlo,
                   uint64_t n_count);

  /// Descends from the root towards plaintext or ciphertext `target`,
  /// sampling every node on the way (domains without a table).
  Result<WalkEnd> Walk(uint64_t target, Descend by) const;

  /// Locates ciphertext c in {0, ..., N-1}: one binary search in the table,
  /// or a walk.
  Result<Position> Locate(uint64_t c) const;

  /// Number of plaintexts (out of `m_count` in this node) that the sampled
  /// OPF maps into the left `draws` ciphertext slots of this node. Errors
  /// (parameter violation, coin-budget exhaustion) propagate to the caller.
  Result<uint64_t> SampleSplit(uint64_t dlo, uint64_t m_count, uint64_t rlo,
                               uint64_t n_count, uint64_t draws) const;

  /// The ciphertext of the single plaintext in a leaf node (m_count == 1).
  Result<uint64_t> LeafCiphertext(uint64_t dlo, uint64_t rlo,
                                  uint64_t n_count) const;

  OpeParams params_;
  crypto::Prf prf_;
  /// The ciphertext of every plaintext, strictly increasing because the
  /// function preserves order; empty when M > kMaxTableDomain.
  std::vector<uint64_t> table_;

  // ope.* metric handles (the registry owns the metrics; incrementing an
  // atomic counter through a const method keeps Encrypt/Decrypt shareable
  // across threads).
  obs::Counter* encrypt_calls_;
  obs::Counter* decrypt_calls_;
  obs::Counter* hgd_draws_;
};

}  // namespace mope::ope

#endif  // MOPE_OPE_OPE_H_
