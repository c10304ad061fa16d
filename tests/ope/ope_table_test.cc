/// The ciphertext table inside OpeScheme: Create samples the whole split
/// tree of a domain up to 2^16 once, with the coins and answers of the walk
/// it replaced, and no call after it draws; larger domains keep no table and
/// walk per call; and one shared scheme answers concurrent callers exactly
/// as a single-threaded one does.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/registry.h"
#include "ope/ope.h"

namespace mope::ope {
namespace {

OpeScheme MakeScheme(const OpeParams& params, obs::MetricsRegistry* registry,
                     uint64_t seed = 11) {
  Rng rng(seed);
  auto scheme = OpeScheme::Create(params, OpeKey::Generate(&rng), registry);
  EXPECT_TRUE(scheme.ok()) << scheme.status();
  return std::move(scheme).value();
}

/// Folds a word into a running digest (the splitmix64 finalizer, a
/// bijection, so a change to any one word changes the digest).
uint64_t Fold(uint64_t digest, uint64_t word) {
  uint64_t z = digest ^ word;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// An answer, or its failure code with the top bit set, as one word.
uint64_t Verdict(const Result<uint64_t>& answer) {
  return answer.ok() ? answer.value()
                     : (uint64_t{1} << 63) |
                           static_cast<uint64_t>(answer.status().code());
}

/// Digest of Encrypt over every plaintext.
uint64_t EncryptDigest(const OpeScheme& s) {
  uint64_t digest = 0;
  for (uint64_t m = 0; m < s.params().domain; ++m) {
    digest = Fold(digest, Verdict(s.Encrypt(m)));
  }
  return digest;
}

/// Digest of Decrypt and DecryptFloorCeil over every ciphertext.
uint64_t DecryptDigest(const OpeScheme& s) {
  uint64_t digest = 0;
  for (uint64_t c = 0; c < s.params().range; ++c) {
    digest = Fold(digest, Verdict(s.Decrypt(c)));
    digest = Fold(digest, Verdict(s.DecryptFloorCeil(c)));
  }
  return digest;
}

/// MakeScheme's key on {2557, 32768}. The tree draws are what the split-tree
/// memo this table replaced drew after walking every plaintext once; the
/// digests are what its walks answered.
constexpr OpeParams kPinned{2557, 32768};
constexpr uint64_t kPinnedTreeDraws = 3341;

TEST(OpeTableTest, CreateDrawsTheWholeTreeAndLookupsDrawNothing) {
  obs::MetricsRegistry registry;
  const OpeScheme s = MakeScheme(kPinned, &registry);
  const obs::Counter* draws = registry.GetCounter("ope.hgd_draws");
  EXPECT_EQ(draws->Value(), kPinnedTreeDraws);

  for (uint64_t m = 0; m < kPinned.domain; ++m) ASSERT_TRUE(s.Encrypt(m).ok());
  for (uint64_t c = 0; c < kPinned.range; ++c) {
    const auto plain = s.Decrypt(c);
    ASSERT_TRUE(plain.ok() || plain.status().IsCorruption()) << plain.status();
    ASSERT_TRUE(s.DecryptFloorCeil(c).ok());
  }
  EXPECT_EQ(draws->Value(), kPinnedTreeDraws);
  // The call counters still count every call.
  EXPECT_EQ(registry.GetCounter("ope.encrypt_calls")->Value(), kPinned.domain);
  EXPECT_EQ(registry.GetCounter("ope.decrypt_calls")->Value(),
            2 * kPinned.range);
}

TEST(OpeTableTest, AnswersMatchTheWalksDigest) {
  struct Pinned {
    OpeParams params;
    uint64_t encrypt_digest;
    uint64_t decrypt_digest;
  };
  // Captured from the walks under MakeScheme's key, every plaintext and
  // every ciphertext of each domain; 2^16 is the largest table.
  const Pinned pinned[] = {
      {kPinned, 0xa35dd62e67288be5ULL, 0x49cfdd3515771d86ULL},
      {{uint64_t{1} << 16, uint64_t{1} << 19},
       0x7cbda4e210ae63acULL,
       0xae5903fe9937f487ULL},
  };
  for (const Pinned& p : pinned) {
    obs::MetricsRegistry registry;
    const OpeScheme s = MakeScheme(p.params, &registry);
    EXPECT_EQ(EncryptDigest(s), p.encrypt_digest) << "M=" << p.params.domain;
    EXPECT_EQ(DecryptDigest(s), p.decrypt_digest) << "M=" << p.params.domain;
  }
}

TEST(OpeTableTest, TableUpToTwoToTheSixteenWalkAboveIt) {
  constexpr uint64_t kMax = OpeScheme::kMaxTableDomain;
  ASSERT_EQ(kMax, uint64_t{1} << 16);
  {
    obs::MetricsRegistry registry;
    const OpeScheme s = MakeScheme({kMax, SuggestRange(kMax)}, &registry);
    const obs::Counter* draws = registry.GetCounter("ope.hgd_draws");
    const uint64_t built = draws->Value();
    EXPECT_GT(built, 0u);
    const uint64_t c = s.Encrypt(kMax - 1).value();
    EXPECT_EQ(s.Decrypt(c).value(), kMax - 1);
    EXPECT_EQ(s.DecryptFloorCeil(c).value(), kMax - 1);
    EXPECT_EQ(draws->Value(), built);
  }
  {
    obs::MetricsRegistry registry;
    const OpeScheme s =
        MakeScheme({kMax + 1, SuggestRange(kMax + 1)}, &registry);
    const obs::Counter* draws = registry.GetCounter("ope.hgd_draws");
    EXPECT_EQ(draws->Value(), 0u);
    const uint64_t c = s.Encrypt(kMax).value();
    const uint64_t walked = draws->Value();
    EXPECT_GT(walked, 0u);
    EXPECT_EQ(s.Decrypt(c).value(), kMax);
    EXPECT_EQ(s.DecryptFloorCeil(c).value(), kMax);
    // No cache: walking the same value again draws again.
    EXPECT_EQ(s.Encrypt(kMax).value(), c);
    EXPECT_GT(draws->Value() - walked, 0u);
  }
}

/// Runs Encrypt, Decrypt and DecryptFloorCeil on `probes` values from
/// kThreads threads over one shared scheme, each thread in its own order,
/// and checks every answer against a single-threaded scheme of its own
/// under the same key. Returns the HGD draws the threads made.
uint64_t ExpectConcurrentCallsMatchReference(const OpeParams& params,
                                             uint64_t probes) {
  constexpr int kThreads = 8;
  obs::MetricsRegistry reference_registry;
  const OpeScheme reference = MakeScheme(params, &reference_registry);
  std::vector<uint64_t> plain(probes);
  std::vector<uint64_t> image(probes);
  std::vector<uint64_t> probe(probes);  // A ciphertext to decrypt.
  std::vector<std::string> decrypted(probes);
  std::vector<uint64_t> ceil(probes);
  Rng rng(17);
  for (uint64_t i = 0; i < probes; ++i) {
    plain[i] = rng.UniformUint64(params.domain);
    image[i] = reference.Encrypt(plain[i]).value();
    // Half image points, half arbitrary (mostly non-image) ciphertexts.
    probe[i] = (i % 2 == 0) ? image[i] : rng.UniformUint64(params.range);
    const auto answer = reference.Decrypt(probe[i]);
    decrypted[i] = answer.ok() ? std::to_string(answer.value())
                               : answer.status().ToString();
    ceil[i] = reference.DecryptFloorCeil(probe[i]).value();
  }

  obs::MetricsRegistry shared_registry;
  const OpeScheme shared = MakeScheme(params, &shared_registry);
  const obs::Counter* draws = shared_registry.GetCounter("ope.hgd_draws");
  const uint64_t built = draws->Value();
  std::vector<std::vector<std::string>> mismatches(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread visits the probes in its own order and rotates through
      // the three operations, so every operation races every other.
      const uint64_t stride = 2 * static_cast<uint64_t>(t) + 1;
      for (uint64_t n = 0; n < probes; ++n) {
        const uint64_t i =
            (n * stride + static_cast<uint64_t>(t) * 97) % probes;
        switch ((n + static_cast<uint64_t>(t)) % 3) {
          case 0:
            if (shared.Encrypt(plain[i]).value() != image[i]) {
              mismatches[t].push_back("Encrypt " + std::to_string(plain[i]));
            }
            break;
          case 1: {
            const auto answer = shared.Decrypt(probe[i]);
            const std::string got = answer.ok()
                                        ? std::to_string(answer.value())
                                        : answer.status().ToString();
            if (got != decrypted[i]) {
              mismatches[t].push_back("Decrypt " + std::to_string(probe[i]));
            }
            break;
          }
          default:
            if (shared.DecryptFloorCeil(probe[i]).value() != ceil[i]) {
              mismatches[t].push_back("DecryptFloorCeil " +
                                      std::to_string(probe[i]));
            }
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(mismatches[t].empty())
        << "M=" << params.domain << " thread " << t << ": "
        << mismatches[t].size() << " mismatches, first "
        << mismatches[t].front();
  }
  return draws->Value() - built;
}

TEST(OpeTableTest, ConcurrentCallsMatchSingleThreadedReference) {
  // A table domain: the threads only read the table, so they draw nothing.
  EXPECT_EQ(ExpectConcurrentCallsMatchReference(kPinned, kPinned.domain), 0u);
  // A walk domain: every call samples its own path.
  const uint64_t walk_domain = 2 * OpeScheme::kMaxTableDomain;
  EXPECT_GT(ExpectConcurrentCallsMatchReference(
                {walk_domain, SuggestRange(walk_domain)}, 512),
            0u);
}

}  // namespace
}  // namespace mope::ope
