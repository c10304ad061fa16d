#include "ope/ope.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "crypto/drbg.h"
#include "crypto/hgd.h"

namespace mope::ope {

namespace {

// Domain-separation labels for PRF tags.
constexpr uint8_t kLeafLabel = 0x4C;   // 'L'
constexpr uint8_t kSplitLabel = 0x53;  // 'S'

// Per-node coin budget. A hypergeometric draw consumes exactly one 64-bit
// word and leaf placement uses rejection sampling with expected < 2 words,
// so 64 words is unreachable by correct code; hitting it means a logic bug,
// which must surface as a Status instead of a ciphertext derived from a
// dead stream.
constexpr uint64_t kCoinBudget = 64;

}  // namespace

uint64_t SuggestRange(uint64_t domain) {
  MOPE_CHECK(domain > 0, "domain must be positive");
  uint64_t n = 1;
  while (n < 8 * domain) n <<= 1;
  return n;
}

OpeKey OpeKey::Generate(mope::BitSource* entropy) {
  OpeKey key;
  for (int i = 0; i < 2; ++i) {
    const uint64_t w = entropy->NextWord();
    for (int b = 0; b < 8; ++b) {
      key.prf_key[8 * i + b] = static_cast<uint8_t>(w >> (8 * b));
    }
  }
  return key;
}

OpeScheme::OpeScheme(const OpeParams& params, const OpeKey& key,
                     obs::MetricsRegistry* registry)
    : params_(params), prf_(key.prf_key) {
  if (registry == nullptr) registry = obs::Registry();
  encrypt_calls_ = registry->GetCounter("ope.encrypt_calls");
  decrypt_calls_ = registry->GetCounter("ope.decrypt_calls");
  hgd_draws_ = registry->GetCounter("ope.hgd_draws");
}

Result<OpeScheme> OpeScheme::Create(const OpeParams& params, const OpeKey& key,
                                    obs::MetricsRegistry* registry) {
  if (params.domain == 0) {
    return Status::InvalidArgument("OPE domain must be positive");
  }
  if (params.range < params.domain) {
    return Status::InvalidArgument(
        "OPE range (" + std::to_string(params.range) +
        ") must be at least the domain (" + std::to_string(params.domain) + ")");
  }
  OpeScheme scheme(params, key, registry);
  if (params.domain <= kMaxTableDomain) {
    scheme.table_.resize(params.domain);
    MOPE_RETURN_NOT_OK(scheme.FillTable(0, params.domain, 0, params.range));
  }
  return scheme;
}

Status OpeScheme::FillTable(uint64_t dlo, uint64_t m_count, uint64_t rlo,
                            uint64_t n_count) {
  if (m_count == 0) return Status::OK();
  if (m_count == 1) {
    MOPE_ASSIGN_OR_RETURN(table_[dlo], LeafCiphertext(dlo, rlo, n_count));
    return Status::OK();
  }
  const uint64_t draws = n_count / 2;
  MOPE_ASSIGN_OR_RETURN(const uint64_t x,
                        SampleSplit(dlo, m_count, rlo, n_count, draws));
  MOPE_RETURN_NOT_OK(FillTable(dlo, x, rlo, draws));
  return FillTable(dlo + x, m_count - x, rlo + draws, n_count - draws);
}

Result<uint64_t> OpeScheme::SampleSplit(uint64_t dlo, uint64_t m_count,
                                        uint64_t rlo, uint64_t n_count,
                                        uint64_t draws) const {
  hgd_draws_->Increment();
  crypto::TagBuilder tag(kSplitLabel);
  tag.AppendU64(dlo).AppendU64(m_count).AppendU64(rlo).AppendU64(n_count);
  const crypto::Block seed = prf_.Eval(tag.bytes());
  crypto::CtrDrbg coins(seed);
  mope::BoundedBitSource bounded(&coins, kCoinBudget);
  return crypto::HgdSample(n_count, m_count, draws, &bounded);
}

Result<uint64_t> OpeScheme::LeafCiphertext(uint64_t dlo, uint64_t rlo,
                                           uint64_t n_count) const {
  crypto::TagBuilder tag(kLeafLabel);
  tag.AppendU64(dlo).AppendU64(rlo).AppendU64(n_count);
  const crypto::Block seed = prf_.Eval(tag.bytes());
  crypto::CtrDrbg coins(seed);
  mope::BoundedBitSource bounded(&coins, kCoinBudget);
  const uint64_t offset = bounded.UniformUint64(n_count);
  if (bounded.exhausted()) {
    return Status::Internal("leaf coin stream exhausted");
  }
  return rlo + offset;
}

Result<OpeScheme::WalkEnd> OpeScheme::Walk(uint64_t target,
                                           Descend by) const {
  uint64_t dlo = 0, m_count = params_.domain;
  uint64_t rlo = 0, n_count = params_.range;
  while (m_count > 1) {
    const uint64_t draws = n_count / 2;
    MOPE_ASSIGN_OR_RETURN(const uint64_t x,
                          SampleSplit(dlo, m_count, rlo, n_count, draws));
    const bool left = by == Descend::kByPlaintext ? target < dlo + x
                                                  : target < rlo + draws;
    if (left) {
      m_count = x;
      n_count = draws;
    } else {
      dlo += x;
      m_count -= x;
      rlo += draws;
      n_count -= draws;
    }
    if (m_count == 0) return WalkEnd{dlo, 0, 0};
  }
  MOPE_ASSIGN_OR_RETURN(const uint64_t cipher,
                        LeafCiphertext(dlo, rlo, n_count));
  return WalkEnd{dlo, 1, cipher};
}

Result<OpeScheme::Position> OpeScheme::Locate(uint64_t c) const {
  if (!table_.empty()) {
    const auto it = std::lower_bound(table_.begin(), table_.end(), c);
    return Position{static_cast<uint64_t>(it - table_.begin()),
                    it != table_.end() && *it == c};
  }
  MOPE_ASSIGN_OR_RETURN(const WalkEnd end, Walk(c, Descend::kByCiphertext));
  // An empty branch: every plaintext before it encrypts below c and every
  // one from it on above, so the answer is its dlo (== domain: none).
  if (end.m_count == 0) return Position{end.dlo, false};
  return Position{end.cipher >= c ? end.dlo : end.dlo + 1, end.cipher == c};
}

Result<uint64_t> OpeScheme::Encrypt(uint64_t m) const {
  if (m >= params_.domain) {
    return Status::OutOfRange("plaintext " + std::to_string(m) +
                              " outside domain of size " +
                              std::to_string(params_.domain));
  }
  encrypt_calls_->Increment();
  if (!table_.empty()) return table_[m];
  MOPE_ASSIGN_OR_RETURN(const WalkEnd end, Walk(m, Descend::kByPlaintext));
  return end.cipher;
}

Result<uint64_t> OpeScheme::Decrypt(uint64_t c) const {
  if (c >= params_.range) {
    return Status::OutOfRange("ciphertext " + std::to_string(c) +
                              " outside range of size " +
                              std::to_string(params_.range));
  }
  decrypt_calls_->Increment();
  MOPE_ASSIGN_OR_RETURN(const Position at, Locate(c));
  if (!at.hit) {
    return Status::Corruption("ciphertext is not in the image of the OPF");
  }
  return at.ceil;
}

Result<uint64_t> OpeScheme::DecryptFloorCeil(uint64_t c) const {
  if (c >= params_.range) {
    return Status::OutOfRange("ciphertext " + std::to_string(c) +
                              " outside range of size " +
                              std::to_string(params_.range));
  }
  decrypt_calls_->Increment();
  MOPE_ASSIGN_OR_RETURN(const Position at, Locate(c));
  return at.ceil;
}

}  // namespace mope::ope
