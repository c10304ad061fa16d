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
///      decrypted key falls in the client's original range, each once
///      (overlapping requests return a row more than once; RowIdSet).
///
/// The server only ever observes encrypted ranges whose start points follow
/// the uniform (QueryU) or ρ-periodic (QueryP) perceived distribution.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
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
  /// ρ for the periodic modes: in [1, domain], dividing domain. The uniform
  /// modes ignore it and run at ρ = 1 (QueryU is QueryP[1]).
  uint64_t period = 0;
  size_t batch_size = 1;    ///< Ranges OR-ed per server request (Fig. 15).
  uint64_t rng_seed = 42;   ///< Seed for coins/fakes/permutation.

  /// Metrics sink for the proxy.* counter family. Null means the process
  /// global obs::Registry(). MopeSystem passes its own registry so the
  /// client-side counters never mix with the (embedded) server's registry —
  /// that separation is what lets a single test process assert that an
  /// embedded run and a remote run produce byte-identical proxy.* counters.
  obs::MetricsRegistry* registry = nullptr;
};

/// Step 5's dedup: an exact set of row ids by open addressing (linear
/// probing over a power-of-two table of ids, at most half full). Every
/// 64-bit id is a member like any other: the id that marks a free slot,
/// 2^64-1, is tracked by a flag of its own. The table is sized from the
/// number of ids it must hold, never from their values, and its storage
/// is kept from one query to the next.
class RowIdSet {
 public:
  /// Empties the set, keeping its storage.
  void Clear();
  /// Makes room for `more` further ids: no insert grows the table until
  /// they are in.
  void Reserve(size_t more);
  /// Adds `id`; false when it was already a member. Precondition: room was
  /// reserved for it.
  bool Insert(uint64_t id);

 private:
  static constexpr uint64_t kFree = ~uint64_t{0};

  /// The slot where `id` is, or the free one where it would go.
  size_t Find(uint64_t id) const;

  std::vector<uint64_t> slots_;  ///< Power-of-two many; kFree marks a free one.
  size_t size_ = 0;              ///< Members in slots_.
  int shift_ = 64;               ///< 64 - log2(slots_.size()).
  bool has_free_id_ = false;     ///< Whether kFree itself is a member.
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
};

class Proxy {
 public:
  /// Builds a proxy that encrypts under `scheme` (built once per key, so
  /// the data owner's loading scheme becomes the proxy's and its table is
  /// not sampled twice) and queries the server through `connection` (a
  /// DirectConnection to an embedded engine, a RemoteConnection, or a test
  /// double). For the non-adaptive modes `known_q` must provide the
  /// query-start distribution; adaptive modes ignore it and learn from the
  /// stream. `maintenance` is the embedded server that holds the table, or
  /// null; without it RotateKey is NotSupported.
  static Result<std::unique_ptr<Proxy>> Create(
      const ProxyConfig& config, ope::MopeScheme scheme,
      std::unique_ptr<ServerConnection> connection,
      const dist::Distribution* known_q = nullptr,
      engine::DbServer* maintenance = nullptr);

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
  /// Returns the number of rows re-encrypted. All or nothing: the proxy
  /// switches keys only after the last row is rewritten, and a failure
  /// part-way (a row update the durability hook refuses, say) rewrites the
  /// rows already rotated back to their old ciphertexts, then returns that
  /// failure, so every row still decrypts under the key the proxy keeps. A
  /// row the rollback cannot restore is an Internal error that says how
  /// many rows are left under the discarded key.
  Result<uint64_t> RotateKey(mope::BitSource* entropy) MOPE_EXCLUDES(mutex_);

  const ProxyConfig& config() const { return config_; }

  /// Cumulative accounting across all queries. Returned by value under the
  /// proxy lock: a reference into guarded state would let callers observe
  /// counters mid-update while another client's query executes.
  QueryResponse totals() const MOPE_EXCLUDES(mutex_) {
    const MutexLock lock(&mutex_);
    return totals_;
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

  ProxyConfig config_;
  /// Serializes client requests (Fig. 4: many clients). Lowest rank in the
  /// tree — the outermost lock of the whole query path.
  mutable Mutex mutex_{lock_rank::kProxy};
  ope::MopeScheme mope_ MOPE_GUARDED_BY(mutex_);
  /// Const after Create; the pointee serializes itself (RemoteConnection's
  /// own lock), which is what lets FetchServerStats bypass the proxy lock.
  std::unique_ptr<ServerConnection> connection_;
  /// Maintenance access; null unless Create got one. Pointer const after
  /// construction; the engine underneath is only touched under the proxy
  /// lock (RotateKey's column rewrite).
  engine::DbServer* server_ MOPE_PT_GUARDED_BY(mutex_);
  Rng rng_ MOPE_GUARDED_BY(mutex_);
  /// Null for passthrough. Pointer set once at Create; the algorithm's
  /// mutable sampling state is only exercised under the proxy lock.
  std::unique_ptr<query::QueryAlgorithm> algorithm_ MOPE_PT_GUARDED_BY(mutex_);
  size_t key_column_index_ = 0;  ///< Const after Create.
  QueryResponse totals_ MOPE_GUARDED_BY(mutex_);
  /// ExecuteRange's scratch, whose storage is kept from one query to the
  /// next so a query allocates none of it once the proxy has served a
  /// larger one: each batch's kept rows as the connection hands them over
  /// (emptied when the query ends), and the ids already returned (step 5's
  /// dedup).
  std::vector<std::pair<engine::RowId, engine::Row>> batch_rows_
      MOPE_GUARDED_BY(mutex_);
  RowIdSet returned_ids_ MOPE_GUARDED_BY(mutex_);

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
