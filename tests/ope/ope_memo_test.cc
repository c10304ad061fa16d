/// The split-tree memo inside OpeScheme: re-walks draw no HGD samples, the
/// cap bounds the memo without changing any answer, and concurrent walks
/// over one shared scheme agree with a single-threaded reference.

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

TEST(OpeMemoTest, RewalkingAWalkedValueDrawsNothing) {
  obs::MetricsRegistry registry;
  const OpeScheme s = MakeScheme({2557, 32768}, &registry);
  const obs::Counter* draws = registry.GetCounter("ope.hgd_draws");

  const uint64_t c = s.Encrypt(1000).value();
  const uint64_t first_walk = draws->Value();
  EXPECT_GT(first_walk, 0u);
  EXPECT_EQ(s.Encrypt(1000).value(), c);
  EXPECT_EQ(s.Decrypt(c).value(), 1000u);
  EXPECT_EQ(s.DecryptFloorCeil(c).value(), 1000u);
  EXPECT_EQ(draws->Value(), first_walk);
}

TEST(OpeMemoTest, WholeDomainWalkedOnceCachesTheWholeTree) {
  constexpr uint64_t kDomain = 2557;
  constexpr uint64_t kRange = 32768;
  obs::MetricsRegistry registry;
  const OpeScheme s = MakeScheme({kDomain, kRange}, &registry);
  const obs::Counter* draws = registry.GetCounter("ope.hgd_draws");
  std::vector<uint64_t> image(kDomain);
  for (uint64_t m = 0; m < kDomain; ++m) image[m] = s.Encrypt(m).value();
  // Every nonempty node lies on some plaintext's path, so the memo now
  // holds the whole tree, and no walk of any operation needs a node
  // outside it.
  const uint64_t tree_draws = draws->Value();
  for (uint64_t c = 0; c < kRange; ++c) {
    ASSERT_TRUE(s.DecryptFloorCeil(c).ok());
    const auto plain = s.Decrypt(c);
    ASSERT_TRUE(plain.ok() || plain.status().IsCorruption()) << plain.status();
  }
  for (uint64_t m = 0; m < kDomain; ++m) {
    EXPECT_EQ(s.Encrypt(m).value(), image[m]);
    EXPECT_EQ(s.Decrypt(image[m]).value(), m);
  }
  EXPECT_EQ(draws->Value(), tree_draws);
}

TEST(OpeMemoTest, PastTheCapWalksContinueUncachedAndAgree) {
  const OpeParams params{uint64_t{1} << 20, uint64_t{1} << 24};
  obs::MetricsRegistry registry;
  const OpeScheme s = MakeScheme(params, &registry);
  const obs::Counter* draws = registry.GetCounter("ope.hgd_draws");

  // Spread plaintexts: past the shared upper levels every walk adds about
  // ten new nodes, so 8000 walks overrun the memo's 65,536-node cap.
  Rng rng(5);
  std::vector<uint64_t> plains(8000);
  std::vector<uint64_t> ciphers(plains.size());
  for (size_t i = 0; i < plains.size(); ++i) {
    plains[i] = rng.UniformUint64(params.domain);
    const auto c = s.Encrypt(plains[i]);
    ASSERT_TRUE(c.ok()) << c.status();
    ciphers[i] = c.value();
  }
  // The first walk went in before the cap: walking it again draws nothing.
  // The last one ran past the cap, so its lower levels were never kept and
  // walking it again samples them again.
  const uint64_t before_first = draws->Value();
  EXPECT_EQ(s.Encrypt(plains.front()).value(), ciphers.front());
  EXPECT_EQ(draws->Value(), before_first);
  EXPECT_EQ(s.Encrypt(plains.back()).value(), ciphers.back());
  EXPECT_GT(draws->Value(), before_first);

  // Answers past the cap still round-trip and match a scheme whose memo
  // never filled.
  obs::MetricsRegistry fresh_registry;
  const OpeScheme fresh = MakeScheme(params, &fresh_registry);
  for (size_t i = 0; i < plains.size(); ++i) {
    ASSERT_EQ(s.Decrypt(ciphers[i]).value(), plains[i]) << "i=" << i;
    ASSERT_EQ(s.DecryptFloorCeil(ciphers[i]).value(), plains[i]);
    if (i % 8 == 0) {
      ASSERT_EQ(fresh.Encrypt(plains[i]).value(), ciphers[i]) << "i=" << i;
    }
  }
}

TEST(OpeMemoTest, ConcurrentWalksMatchSingleThreadedReference) {
  constexpr uint64_t kDomain = 2557;
  constexpr uint64_t kRange = 32768;
  constexpr int kThreads = 8;

  // The reference answers, single threaded, from a scheme of its own.
  obs::MetricsRegistry reference_registry;
  const OpeScheme reference = MakeScheme({kDomain, kRange}, &reference_registry);
  std::vector<uint64_t> image(kDomain);
  std::vector<uint64_t> probe(kDomain);  // A ciphertext to decrypt per m.
  std::vector<std::string> decrypted(kDomain);
  std::vector<uint64_t> ceil(kDomain);
  Rng rng(17);
  for (uint64_t m = 0; m < kDomain; ++m) {
    image[m] = reference.Encrypt(m).value();
    // Half image points, half arbitrary (mostly non-image) ciphertexts.
    probe[m] = (m % 2 == 0) ? image[m] : rng.UniformUint64(kRange);
    const auto plain = reference.Decrypt(probe[m]);
    decrypted[m] = plain.ok() ? std::to_string(plain.value())
                              : plain.status().ToString();
    ceil[m] = reference.DecryptFloorCeil(probe[m]).value();
  }

  obs::MetricsRegistry shared_registry;
  const OpeScheme shared = MakeScheme({kDomain, kRange}, &shared_registry);
  std::vector<std::vector<std::string>> mismatches(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread visits the domain in its own order and rotates through
      // the three operations, so every operation races every other.
      const uint64_t stride = 2 * static_cast<uint64_t>(t) + 1;
      for (uint64_t i = 0; i < kDomain; ++i) {
        const uint64_t m = (i * stride + static_cast<uint64_t>(t) * 97) % kDomain;
        switch ((i + static_cast<uint64_t>(t)) % 3) {
          case 0:
            if (shared.Encrypt(m).value() != image[m]) {
              mismatches[t].push_back("Encrypt " + std::to_string(m));
            }
            break;
          case 1: {
            const auto plain = shared.Decrypt(probe[m]);
            const std::string got = plain.ok() ? std::to_string(plain.value())
                                               : plain.status().ToString();
            if (got != decrypted[m]) {
              mismatches[t].push_back("Decrypt " + std::to_string(probe[m]));
            }
            break;
          }
          default:
            if (shared.DecryptFloorCeil(probe[m]).value() != ceil[m]) {
              mismatches[t].push_back("DecryptFloorCeil " +
                                      std::to_string(probe[m]));
            }
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(mismatches[t].empty())
        << "thread " << t << ": " << mismatches[t].size()
        << " mismatches, first " << mismatches[t].front();
  }
  // Racing walks never sampled a node twice: with the rest of the tree
  // filled in, the shared scheme drew exactly what the single-threaded
  // reference drew for the whole tree.
  for (uint64_t m = 0; m < kDomain; ++m) {
    ASSERT_EQ(shared.Encrypt(m).value(), image[m]);
  }
  EXPECT_EQ(shared_registry.GetCounter("ope.hgd_draws")->Value(),
            reference_registry.GetCounter("ope.hgd_draws")->Value());
}

}  // namespace
}  // namespace mope::ope
