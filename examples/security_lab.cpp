/// Security lab: watch the attacks succeed and fail.
///
/// Plays the adversary against four configurations of the same encrypted
/// column — plain OPE, naive MOPE (no fakes), MOPE+QueryU and MOPE+QueryP —
/// and reports what each leaks: the gap attack's offset recovery, the phase
/// attack's low-bits recovery, and the window one-wayness games of
/// Section 7. A compact, runnable version of the paper's security story.

#include <cstdio>

#include "attack/gap_attack.h"
#include "attack/wow.h"
#include "common/math_util.h"
#include "common/random.h"
#include "dist/completion.h"
#include "ope/mope.h"

using namespace mope;  // NOLINT

namespace {

void GapAttackDemo() {
  std::printf("--- 1. The gap attack (why naive MOPE fails) ---\n");
  constexpr uint64_t kDomain = 365;  // a year of dates
  constexpr uint64_t kK = 7;         // week-long queries
  Rng rng(0x5EC);

  // The secret: an actual MOPE scheme over the date domain.
  const auto key = ope::MopeKey::Generate(kDomain, &rng);
  auto scheme = ope::MopeScheme::Create(
      {kDomain, ope::SuggestRange(kDomain)}, key);
  std::printf("secret offset j = %llu (the server must not learn this)\n",
              static_cast<unsigned long long>(key.offset));

  // The server observes each encrypted query's start rank. Simulate by
  // ranking ciphertext starts: Enc is monotone on shifted values, so the
  // rank of Enc(start) among all ciphertexts equals the shifted start.
  attack::GapAttack attack(kDomain);
  std::vector<double> w(kDomain, 0.0);
  for (uint64_t s = 0; s + kK <= kDomain; ++s) w[s] = 1.0 + (s % 30);
  auto q = std::move(dist::Distribution::FromWeights(std::move(w))).value();
  for (int i = 0; i < 50000; ++i) {
    attack.ObserveStart((q.Sample(&rng) + key.offset) % kDomain);
  }
  auto est = attack.EstimateOffset();
  std::printf("gap attack against naive queries: recovered j = %s\n\n",
              est.ok() ? std::to_string(est.value()).c_str() : "(nothing)");
}

void WowDemo() {
  std::printf("--- 2. Window one-wayness games (Section 7) ---\n");
  attack::WowConfig config;
  config.domain = 1024;
  config.range = 8192;
  config.db_size = 24;
  config.window = 48;
  config.num_queries = 40000;
  config.k = 8;
  config.period = 32;
  config.trials = 80;

  std::vector<double> w(config.domain);
  for (uint64_t i = 0; i < config.domain; ++i) w[i] = (i % 32 < 8) ? 1.0 : 0.05;
  auto q = std::move(dist::Distribution::FromWeights(std::move(w))).value();

  struct RowSpec {
    const char* name;
    attack::WowScheme scheme;
    const char* verdict;
  };
  const RowSpec rows[] = {
      {"plain OPE", attack::WowScheme::kOpe,
       "location leaks: scaling adversary wins"},
      {"MOPE, naive queries", attack::WowScheme::kMopeNaive,
       "gap attack reorients the space"},
      {"MOPE + QueryU", attack::WowScheme::kMopeQueryU,
       "location advantage pinned to ~w/M"},
      {"MOPE + QueryP[32]", attack::WowScheme::kMopeQueryP,
       "leaks only the low bits of j"},
  };
  Rng rng(0x5EC2);
  std::printf("%-22s %9s %9s %11s  %s\n", "scheme", "loc adv", "dist adv",
              "offset rec", "reading");
  for (const RowSpec& row : rows) {
    auto result = attack::RunWowExperiment(config, row.scheme, &q, &rng);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      continue;
    }
    std::printf("%-22s %9.3f %9.3f %11.3f  %s\n", row.name,
                result->location_advantage, result->distance_advantage,
                result->offset_recovery_rate, row.verdict);
  }
  std::printf("random-guess location baseline: w/M = %.3f\n\n",
              static_cast<double>(config.window + 1) /
                  static_cast<double>(config.domain));
}

void TradeoffDemo() {
  std::printf("--- 3. The rho dial: security vs efficiency (Sec. 3.2) ---\n");
  // A spiky query distribution on a 1024 domain.
  constexpr uint64_t kDomain = 1024;
  std::vector<double> w(kDomain, 0.01);
  for (uint64_t i = 0; i < kDomain; i += 128) w[i] = 1.0;
  auto q = std::move(dist::Distribution::FromWeights(std::move(w))).value();

  std::printf("%10s %22s %24s\n", "period", "E[fakes per query]",
              "offset bits leaked");
  auto uniform = dist::MakePeriodicPlan(q, 1);  // QueryU is QueryP[1]
  std::printf("%10s %22.1f %24s\n", "n/a (U)",
              uniform->expected_fakes_per_real(), "0 of 10");
  for (uint64_t period : {2ULL, 8ULL, 32ULL, 128ULL, 512ULL, 1024ULL}) {
    auto plan = dist::MakePeriodicPlan(q, period);
    std::printf("%10llu %22.1f %21d of 10\n",
                static_cast<unsigned long long>(period),
                plan->expected_fakes_per_real(), FloorLog2(period));
  }
  std::printf(
      "(rho = 1 is QueryU; rho = M forwards everything and exposes Q.)\n");
}

}  // namespace

int main() {
  GapAttackDemo();
  WowDemo();
  TradeoffDemo();
  return 0;
}
