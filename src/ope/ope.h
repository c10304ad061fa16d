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
/// function. A scheme instance memoizes the split nodes its walks have
/// sampled (at most 2^16 of them), so once a key's tree is cached
/// Encrypt and Decrypt walk memory instead of paying a PRF call, a coin
/// stream and an HGD draw per level. Past the cap, walks continue uncached
/// at O(log N) HGD draws per operation, so large domains still work.

#include <cstdint>
#include <memory>

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

/// The OPE scheme. The sampled function is fixed by the key; the only
/// mutable state is the split-tree memo, which locks itself, so one scheme
/// may be shared across threads for concurrent Encrypt, Decrypt and
/// DecryptFloorCeil. Move-only: it owns its memo.
class OpeScheme {
 public:
  /// Validates parameters (0 < M <= N) and builds the scheme. `registry`
  /// receives the ope.* counter family (encrypt/decrypt calls, HGD draws
  /// on memo misses, recursion depth); null selects the process-global
  /// obs::Registry().
  static Result<OpeScheme> Create(const OpeParams& params, const OpeKey& key,
                                  obs::MetricsRegistry* registry = nullptr);

  OpeScheme(OpeScheme&&) noexcept;
  OpeScheme& operator=(OpeScheme&&) noexcept;
  ~OpeScheme();

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
  /// The sampled split tree, as far as walks have visited it (ope.cc).
  struct Memo;

  /// Which target a walk descends towards.
  enum class Descend { kByPlaintext, kByCiphertext };

  /// Where a walk stopped: a leaf (m_count == 1), or an empty branch
  /// (m_count == 0) that a ciphertext outside the image fell into.
  struct WalkEnd {
    uint64_t dlo;      ///< First plaintext of the node.
    uint64_t m_count;  ///< Plaintexts in the node: 1 or 0.
    uint64_t cipher;   ///< The leaf's ciphertext; 0 for an empty branch.
    uint64_t depth;    ///< Splits passed on the way down.
  };

  OpeScheme(const OpeParams& params, const OpeKey& key,
            obs::MetricsRegistry* registry);

  /// Descends from the root towards plaintext or ciphertext `target`. Nodes
  /// come from the memo; a miss samples the node and memoizes it while the
  /// memo is under its cap and holds the node's parent.
  Result<WalkEnd> Walk(uint64_t target, Descend by) const;

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
  /// Owned by pointer so the scheme stays movable; a new scheme (including
  /// the one RotateKey builds) starts with an empty memo.
  std::unique_ptr<Memo> memo_;

  // ope.* metric handles (the registry owns the metrics; incrementing an
  // atomic counter through a const method keeps Encrypt/Decrypt shareable
  // across threads).
  obs::Counter* encrypt_calls_;
  obs::Counter* decrypt_calls_;
  obs::Counter* hgd_draws_;
  obs::ExpHistogram* recursion_depth_;
};

}  // namespace mope::ope

#endif  // MOPE_OPE_OPE_H_
