#ifndef MOPE_ENGINE_DURABILITY_H_
#define MOPE_ENGINE_DURABILITY_H_

/// \file durability.h
/// DurableCatalog: makes the in-memory Catalog/Table engine durable on the
/// storage subsystem (src/storage/) without changing any caller.
///
/// Architecture — one representation, a logical WAL and snapshot
/// checkpoints:
///
///   - The in-memory Catalog is the only copy of the data: every query
///     reads the same Table rows and BPlusTree indexes it always did.
///   - Durability rides the hook interfaces (TableDurabilityHooks /
///     CatalogDurabilityHooks): each mutation is appended to the WAL as one
///     logical record *before* the in-memory apply — create table, drop
///     table, create index, insert row, update value — with values in the
///     engine/codec.h encoding. Nothing else is written until the next
///     checkpoint.
///   - A checkpoint hands the engine/snapshot.h image of the whole catalog
///     to storage::StorageEngine::Checkpoint, which writes it atomically
///     and truncates the WAL. Its cost is O(rows).
///   - Recovery inverts the flow: DeserializeCatalog the image (rows
///     first, then each index built once), then replay the WAL tail through
///     the public Catalog/Table API before the hooks are installed, so
///     Table's own validation checks every record. A record that fails is
///     Corruption naming its LSN. Whenever the log held anything past the
///     checkpoint, recovery ends with a checkpoint. A crash costs one
///     replay and one index build, never a re-encryption: everything on
///     disk is MOPE ciphertext, so the proxy and its keys are not involved.
///
/// This file is the only code that knows what a WAL record means; storage
/// moves records and the image as opaque bytes.
///
/// Trust boundary: this file lives in src/engine/ — server side. It moves
/// Values that are already ciphertext (or non-sensitive plaintext columns)
/// between memory and the log. Linter rule R8 keeps key material out of
/// here, and R10 keeps all file I/O below the storage::Env seam.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "engine/table.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "storage/storage_engine.h"

namespace mope::engine {

class DurableCatalog : public CatalogDurabilityHooks {
 public:
  struct Options {
    /// Accepted and ignored: there is no buffer pool any more. It stays
    /// only because perfbench/durable_load.cc sets it; drop it at the next
    /// change to perfbench/ (ROADMAP, benchmark debt).
    size_t pool_frames = 256;
    uint64_t wal_sync_every = 32;
    storage::Env* env = nullptr;            // default: Env::Posix()
    obs::MetricsRegistry* metrics = nullptr;  // default: global registry
    obs::Clock* clock = nullptr;              // default: SystemClock()
  };

  /// Opens `dir` (running recovery), rebuilds `*catalog` from the durable
  /// state and installs the hooks. `catalog` must be empty and must outlive
  /// the returned object; from here on every mutation through it is
  /// persisted.
  static Result<std::unique_ptr<DurableCatalog>> Open(const std::string& dir,
                                                      Catalog* catalog,
                                                      const Options& options);

  ~DurableCatalog() override;

  /// Checkpoints: writes the snapshot image of the whole catalog and
  /// truncates the WAL. Call from the thread that owns writes (the protocol
  /// needs quiescence, which the engine's existing write serialization
  /// provides).
  Status Checkpoint();

  /// Group-commit barrier: everything logged so far becomes durable.
  Status Sync();

  storage::StorageEngine* storage() { return engine_.get(); }

  /// True when the last Open found anything in the WAL past the last
  /// checkpoint (crash recovery).
  bool recovered_from_crash() const { return engine_->crash_recovered(); }

  // CatalogDurabilityHooks:
  Result<TableDurabilityHooks*> OnCreateTable(const std::string& name,
                                              const Schema& schema) override;
  Status OnDropTable(const std::string& name) override;

 private:
  class TableLog;

  DurableCatalog(Catalog* catalog, std::unique_ptr<storage::StorageEngine> e);

  Status Recover();
  Status Log(const std::string& record);

  Catalog* const catalog_;
  std::unique_ptr<storage::StorageEngine> engine_;
  /// Per-table hooks, keyed by table name.
  std::map<std::string, std::unique_ptr<TableLog>> tables_;
};

}  // namespace mope::engine

#endif  // MOPE_ENGINE_DURABILITY_H_
