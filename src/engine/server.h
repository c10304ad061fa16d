#ifndef MOPE_ENGINE_SERVER_H_
#define MOPE_ENGINE_SERVER_H_

/// \file server.h
/// The untrusted database server of the paper's architecture (Figure 4).
///
/// The server is an *unmodified* DBMS: it holds tables whose range-queryable
/// columns contain MOPE ciphertexts (plain integers from its point of view),
/// maintains ordinary B+-tree indexes over them, and answers batches of
/// (possibly wrap-around) range queries — including many ranges OR-ed into a
/// single request, which it answers with one shared coalesced index sweep
/// (the Section 5.1 multiple-query optimization). It never sees a key, a
/// plaintext, or which queries are real.
///
/// Accounting lives in a per-server obs::MetricsRegistry (the one the wire
/// protocol's stats endpoint serves). Every counter is atomic, so the stats
/// can be read — and wire bytes credited — from any thread without a lock;
/// the engine's *data* operations still require external serialization
/// (net::WireDispatcher provides it for the daemon).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "common/status.h"
#include "engine/durability.h"
#include "engine/executor.h"
#include "engine/table.h"
#include "obs/leakage.h"
#include "obs/registry.h"

namespace mope::engine {

/// Snapshot of the cumulative server-side counters (what a cloud provider
/// would bill). Plain values: read once, carry around freely. The live,
/// race-free storage is the server's metrics registry.
struct ServerStats {
  uint64_t batches_received = 0;  ///< Requests (one per server round trip).
  uint64_t ranges_received = 0;   ///< Individual range predicates seen.
  uint64_t segments_scanned = 0;  ///< Coalesced index sweeps performed.
  uint64_t entries_visited = 0;   ///< Index entries touched.
  uint64_t index_nodes_visited = 0;  ///< B+-tree leaf nodes touched.
  uint64_t rows_returned = 0;     ///< Result rows shipped back (bandwidth).
  uint64_t bytes_received = 0;    ///< Wire bytes in (0 for direct calls).
  uint64_t bytes_sent = 0;        ///< Wire bytes out (0 for direct calls).
};

class DbServer {
 public:
  DbServer();

  Catalog* catalog() { return catalog_.get(); }
  const Catalog& catalog() const { return *catalog_; }

  /// Attaches a disk-backed storage engine rooted at `data_dir`. On an
  /// existing directory this loads the last checkpoint image and replays
  /// the WAL on top, repopulating this server's (must-be-empty) catalog; on
  /// a fresh one it just creates the files. Afterwards every catalog
  /// mutation is WAL-logged before it lands in memory; the log and the
  /// image hold the same MOPE ciphertexts the in-memory tables do, so the
  /// disk is inside the same trust boundary as the server's RAM. The
  /// storage `storage.*`
  /// counters land in this server's metrics registry (unless the options
  /// name another one). Call before serving starts; not thread-safe against
  /// concurrent queries.
  Status OpenStorage(const std::string& data_dir,
                     const DurableCatalog::Options& options = {});

  /// True after OpenStorage succeeded.
  bool has_storage() const { return durable_ != nullptr; }

  /// The durable catalog, or nullptr when OpenStorage was never called.
  DurableCatalog* durable_catalog() { return durable_.get(); }

  /// Writes the catalog image and truncates the WAL. Requires
  /// writer quiescence (the daemon's dispatcher serializes writes).
  /// InvalidArgument when storage is not attached.
  Status CheckpointStorage();

  /// Group-commit barrier: all logged mutations become durable.
  /// InvalidArgument when storage is not attached.
  Status SyncStorage();

  /// Executes one batch of ciphertext range predicates (each an interval on
  /// the ciphertext space, wrapping allowed) against the index on `column`
  /// of `table`. All ranges in the batch share a single coalesced sweep,
  /// which hands each qualifying row to `visit` exactly once, in place, with
  /// its stable row id (DBMSes expose this as ctid/rowid). The row reference
  /// is valid only during the call. This is the one sweep behind every
  /// batch entry point below and behind the wire dispatcher, which encodes
  /// each visited row straight into its reply.
  Status VisitRangeBatch(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges,
      const std::function<void(RowId, const Row&)>& visit);

  /// VisitRangeBatch, copying each row out with its id; the proxy uses the
  /// ids to deduplicate rows that multiple overlapping requests returned.
  Result<std::vector<std::pair<RowId, Row>>> ExecuteRangeBatchWithIds(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges);

  /// VisitRangeBatch that only counts the qualifying rows (still updates
  /// the counters; used by benches that do not need rows).
  Result<uint64_t> CountRangeBatch(const std::string& table,
                                   const std::string& column,
                                   const std::vector<ModularInterval>& ranges);

  /// Runs an arbitrary operator tree (the SQL path uses this).
  Result<std::vector<Row>> ExecutePlan(Operator* plan);

  /// This server's metrics registry: the `engine.*` counters backing
  /// stats(), plus whatever the network layer (`net.server.*`) contributes.
  /// A live daemon serves exactly this over the wire (kStatsRequest).
  obs::MetricsRegistry* metrics() { return metrics_.get(); }
  const obs::MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Consistent-enough snapshot of the engine counters (each counter is
  /// individually atomic; the set is not read under one lock).
  ServerStats stats() const;
  void ResetStats() { metrics_->ResetAll(); }

  /// Credits wire traffic against this server. Thread-safe (atomic
  /// counters); only the network layer calls it — a DirectConnection moves
  /// no bytes.
  void AddTransferBytes(uint64_t received, uint64_t sent) {
    bytes_received_->Increment(received);
    bytes_sent_->Increment(sent);
  }

  /// Turns on the live leakage auditor: from now on every range start this
  /// server observes (direct calls and the wire path both funnel through the
  /// same batch entry points) feeds the auditor, and its leakage.* gauges
  /// appear in metrics() — hence in the stats endpoint. Ciphertext-only by
  /// construction: the auditor gets the config's public parameters and the
  /// ciphertext stream, nothing else. Idempotent per server (second call
  /// replaces the auditor and its statistics).
  Status EnableLeakageAudit(const obs::LeakageAuditConfig& config);

  /// The auditor, or nullptr when auditing is off. The pointer is stable
  /// until the next EnableLeakageAudit call.
  obs::LeakageAuditor* leakage_auditor() { return leakage_auditor_.get(); }

 private:
  Result<std::vector<Segment>> PrepareSegments(
      const std::string& table, const std::string& column,
      const std::vector<ModularInterval>& ranges, const Table** table_out,
      const BPlusTree** index_out);

  // Heap-held so DbServer stays movable (tests build servers in value-
  // returning factories) and so DurableCatalog's Catalog* plus the cached
  // handles below survive the move.
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  // Hot-path handles into *metrics_ (stable for the registry's lifetime).
  obs::Counter* batches_received_;
  obs::Counter* ranges_received_;
  obs::Counter* segments_scanned_;
  obs::Counter* entries_visited_;
  obs::Counter* index_nodes_visited_;
  obs::Counter* rows_returned_;
  obs::Counter* bytes_received_;
  obs::Counter* bytes_sent_;
  obs::ExpHistogram* batch_ranges_hist_;  ///< Ranges per received batch.
  // The live leakage auditor (see obs/leakage.h); null until enabled. Its
  // thread-safety contract is in its annotations (ObserveStart excludes the
  // auditor's own lock); the one thing the types can't say is that this
  // *pointer* is only written by EnableLeakageAudit before serving starts.
  std::unique_ptr<obs::LeakageAuditor> leakage_auditor_;
  // Declared after catalog_: the DurableCatalog destructor uninstalls its
  // hooks from the catalog's tables, so it must be destroyed first.
  std::unique_ptr<DurableCatalog> durable_;
};

}  // namespace mope::engine

#endif  // MOPE_ENGINE_SERVER_H_
