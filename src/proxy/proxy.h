#ifndef MOPE_PROXY_PROXY_H_
#define MOPE_PROXY_PROXY_H_

/// \file proxy.h
/// The trusted proxy of the paper's architecture (Figure 4).
///
/// One Proxy instance manages one MOPE-encrypted column. It holds the secret
/// key and the completion distributions, and for every client range query:
///   1. decomposes the query into fixed-length-k pieces (τk),
///   2. draws the number of fake queries per piece from Geom(α) and samples
///      their start points from the completion distribution,
///   3. permutes real and fake queries and encrypts each into a
///      (possibly wrap-around) ciphertext range,
///   4. ships them to the server in fixed-size disjunctive batches (the
///      Section 5.1 multiple-range optimization; batch size 1 = one request
///      per query), at a fixed pacing of one batch per clock tick,
///   5. filters the returned ciphertext rows, keeping exactly those whose
///      decrypted key falls in the client's original range.
///
/// The server only ever observes encrypted ranges whose start points follow
/// the uniform (QueryU) or ρ-periodic (QueryP) perceived distribution.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "dist/distribution.h"
#include "engine/server.h"
#include "obs/registry.h"
#include "ope/mope.h"
#include "proxy/connection.h"
#include "query/algorithms.h"

namespace mope::proxy {

/// Which query algorithm the proxy runs.
enum class QueryMode : uint8_t {
  kPassthrough,       ///< No fakes (insecure baseline: the gap attack works).
  kUniform,           ///< QueryU with a known query distribution.
  kPeriodic,          ///< QueryP[ρ] with a known query distribution.
  kAdaptiveUniform,   ///< AdaptiveQueryU (distribution learned online).
  kAdaptivePeriodic,  ///< AdaptiveQueryP (distribution learned online).
};

struct ProxyConfig {
  std::string table;        ///< Server table holding the ciphertext column.
  std::string column;       ///< Name of the MOPE-encrypted key column.
  uint64_t domain = 0;      ///< M: plaintext domain of the column.
  uint64_t k = 1;           ///< Fixed query length.
  QueryMode mode = QueryMode::kUniform;
  uint64_t period = 0;      ///< ρ for the periodic modes (divides domain).
  size_t batch_size = 1;    ///< Ranges OR-ed per server request (Fig. 15).
  uint64_t rng_seed = 42;   ///< Seed for coins/fakes/permutation.
  uint32_t max_retries = 0; ///< Per-request retries on transient server errors.

  /// Metrics sink for the proxy.* counter family. Null means the process
  /// global obs::Registry(). MopeSystem passes its own registry so the
  /// client-side counters never mix with the (embedded) server's registry —
  /// that separation is what lets a single test process assert that an
  /// embedded run and a remote run produce byte-identical proxy.* counters.
  obs::MetricsRegistry* registry = nullptr;
};

/// The proxy serves the paper's *set of clients* (Figure 4): ExecuteRange
/// and RotateKey are serialized internally, so any number of client threads
/// may share one Proxy. (Serialization is also semantically necessary — the
/// query-mixing state and the perceived-distribution guarantee are per
/// proxy, not per client.)
///
/// What the client gets back, plus accounting for the benches.
struct QueryResponse {
  std::vector<engine::Row> rows;  ///< Rows matching the original query.

  uint64_t real_queries_sent = 0;  ///< |τk(q)| pieces executed.
  uint64_t fake_queries_sent = 0;  ///< Fake/duplicate queries executed.
  uint64_t server_requests = 0;    ///< Batched round trips to the server.
  uint64_t rows_received = 0;      ///< Ciphertext rows shipped back.
  uint64_t clock_ticks = 0;        ///< Fixed-interval slots consumed.
};

class Proxy {
 public:
  /// Builds a proxy over an embedded server's table. For the non-adaptive
  /// modes `known_q` must provide the query-start distribution; adaptive
  /// modes ignore it and learn from the stream.
  static Result<std::unique_ptr<Proxy>> Create(
      const ProxyConfig& config, const ope::MopeKey& key,
      const ope::OpeParams& params, engine::DbServer* server,
      const dist::Distribution* known_q = nullptr);

  /// Builds a proxy over an arbitrary server connection (e.g. a failure-
  /// injecting test double, or a remote transport). Key rotation is not
  /// available through this form — it needs maintenance access to the
  /// embedded server.
  static Result<std::unique_ptr<Proxy>> Create(
      const ProxyConfig& config, const ope::MopeKey& key,
      const ope::OpeParams& params,
      std::unique_ptr<ServerConnection> connection,
      const dist::Distribution* known_q = nullptr);

  /// Executes a client range query end to end.
  Result<QueryResponse> ExecuteRange(const query::RangeQuery& q)
      MOPE_EXCLUDES(mutex_);

  /// Schema of the server-side table this proxy fronts, fetched through the
  /// connection — works identically for embedded and remote servers.
  Result<engine::Schema> GetServerSchema() const {
    return connection_->GetSchema(config_.table);
  }

  /// Encrypts a single plaintext value (used when loading data through the
  /// proxy, so the server never sees plaintexts). Takes the proxy lock: the
  /// scheme is replaced wholesale by RotateKey, so an unlocked read could
  /// encrypt under a torn half-rotated key.
  Result<uint64_t> EncryptValue(uint64_t m) const MOPE_EXCLUDES(mutex_) {
    const MutexLock lock(&mutex_);
    return mope_.Encrypt(m);
  }

  /// Decrypts a ciphertext (client-side use only). Locked, as EncryptValue.
  Result<uint64_t> DecryptValue(uint64_t c) const MOPE_EXCLUDES(mutex_) {
    const MutexLock lock(&mutex_);
    return mope_.Decrypt(c);
  }

  /// Re-encrypts the whole column under a fresh MOPE key — new OPE key and
  /// new secret offset — rewriting every server-side ciphertext (the index
  /// follows) and switching the proxy to the new key. This implements the
  /// mitigation the paper sketches in Section 9: rotating the encryption at
  /// intervals bounds what a plaintext-ciphertext pair exposure reveals.
  /// Returns the number of rows re-encrypted.
  Result<uint64_t> RotateKey(mope::BitSource* entropy) MOPE_EXCLUDES(mutex_);

  const ProxyConfig& config() const { return config_; }

  /// Cumulative accounting across all queries. Returned by value under the
  /// proxy lock: a reference into guarded state would let callers observe
  /// counters mid-update while another client's query executes.
  QueryResponse totals() const MOPE_EXCLUDES(mutex_) {
    const MutexLock lock(&mutex_);
    return totals_;
  }

  /// Transient-failure retries performed so far.
  uint64_t retries_performed() const MOPE_EXCLUDES(mutex_) {
    const MutexLock lock(&mutex_);
    return retries_performed_;
  }

  /// Metrics snapshot of the server this proxy fronts, fetched through the
  /// connection (a wire round trip for remote servers, a direct registry
  /// read for embedded ones). NotSupported for connections without a stats
  /// endpoint.
  Result<std::vector<std::pair<std::string, uint64_t>>> FetchServerStats()
      const {
    return connection_->FetchServerStats();
  }

 private:
  Proxy(const ProxyConfig& config, ope::MopeScheme mope,
        std::unique_ptr<ServerConnection> connection,
        engine::DbServer* server);

  /// Instantiates the configured query algorithm. Create-time only, before
  /// the proxy is visible to any other thread.
  Status SetupAlgorithm(const dist::Distribution* known_q);

  /// Sends one batch, retrying up to config_.max_retries times; `*kept`
  /// gets the shipped rows whose key ciphertext lies in `keep`. Returns the
  /// number of rows shipped.
  Result<uint64_t> SendBatch(
      const std::vector<ModularInterval>& cipher_ranges,
      const ModularInterval& keep,
      std::vector<std::pair<engine::RowId, engine::Row>>* kept)
      MOPE_REQUIRES(mutex_);

  ProxyConfig config_;
  /// Serializes client requests (Fig. 4: many clients). Lowest rank in the
  /// tree — the outermost lock of the whole query path.
  mutable Mutex mutex_{lock_rank::kProxy};
  ope::MopeScheme mope_ MOPE_GUARDED_BY(mutex_);
  /// Const after Create; the pointee serializes itself (RemoteConnection's
  /// own lock), which is what lets FetchServerStats bypass the proxy lock.
  std::unique_ptr<ServerConnection> connection_;
  /// Maintenance access; null for custom connections. Pointer const after
  /// construction; the engine underneath is only touched under the proxy
  /// lock (RotateKey's column rewrite).
  engine::DbServer* server_ MOPE_PT_GUARDED_BY(mutex_);
  Rng rng_ MOPE_GUARDED_BY(mutex_);
  /// Null for passthrough. Pointer set once at Create; the algorithm's
  /// mutable sampling state is only exercised under the proxy lock.
  std::unique_ptr<query::QueryAlgorithm> algorithm_ MOPE_PT_GUARDED_BY(mutex_);
  size_t key_column_index_ = 0;  ///< Const after Create.
  QueryResponse totals_ MOPE_GUARDED_BY(mutex_);
  uint64_t retries_performed_ MOPE_GUARDED_BY(mutex_) = 0;

  /// Refreshes the proxy.mix.* health gauges after a batch.
  void UpdateMixHealthLocked() MOPE_REQUIRES(mutex_);

  // proxy.* counter family (cached handles; the registry owns the metrics).
  // The same names are emitted whether the connection is embedded or remote,
  // so the two deployments report byte-identical counter sets.
  obs::Counter* real_queries_ = nullptr;
  obs::Counter* fake_queries_ = nullptr;
  obs::Counter* server_requests_ = nullptr;
  obs::Counter* rows_received_ = nullptr;
  obs::Counter* rows_returned_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::ExpHistogram* batch_queries_hist_ = nullptr;

  // proxy.mix.* — client-side mix health (obs/leakage.h's counterpart on the
  // trusted side): the realized fake rate and issued-start distribution
  // against the algorithm's mixing plan, so a broken fake sampler is visible
  // at the proxy *before* the server-side leakage statistic degrades.
  // Fixed-point milli-units, same convention as the leakage.* gauges.
  obs::Gauge* mix_fakes_per_real_ = nullptr;      ///< Realized (cumulative).
  obs::Gauge* mix_expected_fakes_ = nullptr;      ///< Plan: 1/alpha - 1.
  obs::Gauge* mix_sampler_tv_ = nullptr;  ///< TV(issued starts, perceived).
  /// Empirical start distribution over everything issued (real + fake).
  /// O(domain) bins, so allocated lazily on the first query that has a
  /// mixing plan to audit against — passthrough and pre-freeze adaptive
  /// proxies (no plan, TV gauge undefined) never pay for it.
  Histogram issued_starts_ MOPE_GUARDED_BY(mutex_);
};

}  // namespace mope::proxy

#endif  // MOPE_PROXY_PROXY_H_
