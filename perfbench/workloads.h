#ifndef MOPE_PERFBENCH_WORKLOADS_H_
#define MOPE_PERFBENCH_WORKLOADS_H_

/// \file workloads.h
/// The benchmark's three workloads. Each is a seeded closed loop with a
/// fixed op count, so byte and count metrics repeat exactly for a seed.
/// With tracing off a workload reports the end-to-end metrics; with tracing
/// on it runs the same op sequence twice, once plain and once through the
/// timing seams, and reports the per-layer metrics.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dist/distribution.h"
#include "harness.h"
#include "proxy/system.h"
#include "query/query_types.h"
#include "workload/tpch.h"

namespace mope::perfbench {

struct RunOptions {
  uint64_t seed = 1;
  int seconds = 30;
  bool trace = false;
  /// Directory durable_load creates, fills and removes on every round.
  std::string data_dir;
};

/// Per-layer values by metric name; names a workload leaves out are
/// reported as 0 (that workload does not touch the layer).
using Layers = std::map<std::string, double>;

void RunAnalystQ6(const RunOptions& options, Report* report, Layers* layers);
void RunServerReplay(const RunOptions& options, Report* report,
                     Layers* layers);
void RunDurableLoad(const RunOptions& options, Report* report,
                    Layers* layers);

// --- Shared set-up --------------------------------------------------------

/// Independent seed for one purpose (query sequence, keys, row order).
uint64_t SubSeed(uint64_t seed, uint64_t purpose);

/// A run sets up kEpochs times and runs one epoch of timed ops after each
/// set-up; it reports the median set-up time and pools the epochs' ops. One
/// slow start-up, or one unlucky placement of threads and memory, then does
/// not decide the run's numbers. Set-up is mostly single-threaded OPE
/// encryption, whose speed on a shared virtual machine moves by ±10% from
/// one set-up to the next; the median of five holds steadier. A traced run
/// has one plain and one traced epoch.
inline constexpr int kEpochs = 5;

/// Ops per epoch for a run of `seconds` at a nominal rate: a count fixed by
/// the arguments alone, never by a timer, and at least `min_ops`.
uint64_t EpochOps(int seconds, double nominal_ops_per_s, uint64_t min_ops);

/// The exact start distribution of a range template's τk pieces when each
/// of `ranges` is equally likely (what the proxy's QueryU is given).
dist::Distribution TemplateStarts(const std::vector<query::RangeQuery>& ranges,
                                  uint64_t k);

/// Every range SampleQ6 / SampleQ14 can draw.
std::vector<query::RangeQuery> AllQ6Ranges();
std::vector<query::RangeQuery> AllQ14Ranges();

/// TPC-H lineitem, generated and loaded into a MopeSystem with l_shipdate
/// encrypted. `before_load` runs on the fresh system (to install a
/// connection factory) before the encrypted load.
struct EncryptedLineitem {
  workload::TpchData data;
  std::unique_ptr<proxy::MopeSystem> system;
  double generate_s = 0;       ///< GenerateTpch.
  double load_encrypt_s = 0;   ///< MopeSystem::LoadTable.
};
EncryptedLineitem LoadEncryptedLineitem(
    double scale_factor, uint64_t system_seed,
    const proxy::EncryptedColumnSpec& spec, const dist::Distribution& starts,
    const std::function<void(proxy::MopeSystem*)>& before_load);

/// The ciphertexts of `column` in `table` of `server`, sorted, with a
/// prefix digest of their row ids: the expected row-id set of any range
/// batch in O(log n) per range.
class CipherIndex {
 public:
  CipherIndex(const engine::DbServer& server, const std::string& table,
              const std::string& column);

  /// Digest of the distinct row ids whose ciphertext lies in any of
  /// `ranges`, assuming the ranges do not overlap one another.
  Digest Expected(const std::vector<ModularInterval>& ranges) const;

 private:
  std::vector<uint64_t> ciphers_;
  std::vector<uint64_t> prefix_;  ///< prefix_[i] = sum of Mix64(id) below i.
};

}  // namespace mope::perfbench

#endif  // MOPE_PERFBENCH_WORKLOADS_H_
