#include "ope/ope.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
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

// Most split-tree nodes one scheme memoizes (16 bytes each). Past it, walks
// continue uncached.
constexpr size_t kMemoNodeCap = size_t{1} << 16;

// A walk's memo index for a node the memo does not hold.
constexpr size_t kNoNode = SIZE_MAX;

}  // namespace

// Nodes are appended first come, first served until kMemoNodeCap (1 MiB;
// the 2,880-day TPC-H date tree has about 6.7k) and never evicted: every
// walk starts at the root, so the first nodes in are the upper levels that
// all walks share.
struct OpeScheme::Memo {
  struct Node {
    uint64_t value;  // Split count x (inner node) or ciphertext (leaf).
    // Indices of the left and right child; 0 = not memoized (index 0 is the
    // root, which is no node's child).
    uint32_t child[2];
  };
  // Taken for a whole walk; a miss under it takes only the trace and
  // registry locks.
  Mutex mutex{lock_rank::kOpeMemo};
  std::vector<Node> nodes MOPE_GUARDED_BY(mutex);
};

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
    : params_(params), prf_(key.prf_key), memo_(std::make_unique<Memo>()) {
  if (registry == nullptr) registry = obs::Registry();
  encrypt_calls_ = registry->GetCounter("ope.encrypt_calls");
  decrypt_calls_ = registry->GetCounter("ope.decrypt_calls");
  hgd_draws_ = registry->GetCounter("ope.hgd_draws");
  recursion_depth_ = registry->GetHistogram("ope.recursion_depth");
}

OpeScheme::OpeScheme(OpeScheme&&) noexcept = default;
OpeScheme& OpeScheme::operator=(OpeScheme&&) noexcept = default;
OpeScheme::~OpeScheme() = default;

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
  return OpeScheme(params, key, registry);
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
  Memo& memo = *memo_;
  const MutexLock lock(&memo.mutex);
  std::vector<Memo::Node>& nodes = memo.nodes;
  uint64_t dlo = 0, m_count = params_.domain;
  uint64_t rlo = 0, n_count = params_.range;
  uint64_t depth = 0;
  // Memo indices of the current node and its parent; kNoNode once the walk
  // has passed a node the cap kept out.
  size_t at = nodes.empty() ? kNoNode : 0;
  size_t parent = kNoNode;
  int side = 0;  // 0: the current node is its parent's left child.
  while (true) {
    const uint64_t draws = n_count / 2;
    uint64_t value = 0;  // Split count (inner node) or ciphertext (leaf).
    if (at != kNoNode) {
      value = nodes[at].value;
    } else {
      MOPE_ASSIGN_OR_RETURN(value,
                            m_count > 1
                                ? SampleSplit(dlo, m_count, rlo, n_count, draws)
                                : LeafCiphertext(dlo, rlo, n_count));
      if ((parent != kNoNode || nodes.empty()) &&
          nodes.size() < kMemoNodeCap) {
        at = nodes.size();
        nodes.push_back({value, {0, 0}});
        if (parent != kNoNode) {
          nodes[parent].child[side] = static_cast<uint32_t>(at);
        }
      }
    }
    if (m_count == 1) return WalkEnd{dlo, 1, value, depth};
    ++depth;
    const uint64_t x = value;
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
    if (m_count == 0) return WalkEnd{dlo, 0, 0, depth};
    parent = at;
    side = left ? 0 : 1;
    at = (parent != kNoNode && nodes[parent].child[side] != 0)
             ? nodes[parent].child[side]
             : kNoNode;
  }
}

Result<uint64_t> OpeScheme::Encrypt(uint64_t m) const {
  if (m >= params_.domain) {
    return Status::OutOfRange("plaintext " + std::to_string(m) +
                              " outside domain of size " +
                              std::to_string(params_.domain));
  }
  encrypt_calls_->Increment();
  MOPE_ASSIGN_OR_RETURN(const WalkEnd end, Walk(m, Descend::kByPlaintext));
  recursion_depth_->Observe(end.depth);
  return end.cipher;
}

Result<uint64_t> OpeScheme::Decrypt(uint64_t c) const {
  if (c >= params_.range) {
    return Status::OutOfRange("ciphertext " + std::to_string(c) +
                              " outside range of size " +
                              std::to_string(params_.range));
  }
  decrypt_calls_->Increment();
  MOPE_ASSIGN_OR_RETURN(const WalkEnd end, Walk(c, Descend::kByCiphertext));
  if (end.m_count == 0) {
    return Status::Corruption("ciphertext maps to an empty OPF branch");
  }
  if (end.cipher != c) {
    return Status::Corruption("ciphertext is not in the image of the OPF");
  }
  return end.dlo;
}

Result<uint64_t> OpeScheme::DecryptFloorCeil(uint64_t c) const {
  if (c >= params_.range) {
    return Status::OutOfRange("ciphertext " + std::to_string(c) +
                              " outside range of size " +
                              std::to_string(params_.range));
  }
  decrypt_calls_->Increment();
  MOPE_ASSIGN_OR_RETURN(const WalkEnd end, Walk(c, Descend::kByCiphertext));
  // An empty branch: every plaintext before it encrypts below c and every
  // one from it on above, so the answer is its dlo (== domain: none).
  if (end.m_count == 0) return end.dlo;
  return (end.cipher >= c) ? end.dlo : end.dlo + 1;
}

}  // namespace mope::ope
