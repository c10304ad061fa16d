#ifndef MOPE_ENGINE_SNAPSHOT_H_
#define MOPE_ENGINE_SNAPSHOT_H_

/// \file snapshot.h
/// Binary persistence for the server catalog.
///
/// The encrypted database is exactly as safe on disk as it is in memory —
/// every range-queryable column is MOPE ciphertext — so the server can
/// snapshot its catalog (schemas, rows, which columns are indexed) and
/// restore it on restart without involving the proxy or any keys.
///
/// Format (little-endian): magic "MOPESNP1", table count, then per table:
/// name, schema, indexed-column list, row count, and the rows' PutValue
/// encodings: the table's arena, copied as it is. Loading checks each row
/// (CheckRow, then its types against the schema) and appends its bytes
/// without building it. Indexes are rebuilt on load (cheaper than
/// serializing tree pages, and validates the data on the way in).

#include <string>

#include "common/status.h"
#include "engine/table.h"
#include "storage/env.h"

namespace mope::engine {

/// Serializes the whole catalog.
Result<std::string> SerializeCatalog(const Catalog& catalog);

/// Restores a catalog serialized by SerializeCatalog. Fails with Corruption
/// on magic/bounds/type violations (truncated or tampered snapshots).
Result<Catalog> DeserializeCatalog(const std::string& bytes);

/// File convenience wrappers. SaveCatalog is durable and atomic: the bytes
/// go to a temp file which is fsync'd and renamed over `path` (see
/// storage::Env::WriteFileAtomic), so a crash mid-save leaves the previous
/// snapshot intact — never a truncated one. The Env overloads exist for
/// fault-injection tests; the two-argument forms use the real file system.
Status SaveCatalog(const Catalog& catalog, const std::string& path);
Status SaveCatalog(const Catalog& catalog, const std::string& path,
                   storage::Env* env);
Result<Catalog> LoadCatalog(const std::string& path);
Result<Catalog> LoadCatalog(const std::string& path, storage::Env* env);

/// Replays every table of `src` into `dst` through the public mutation API
/// (CreateTable / InsertChecked / CreateIndex), so durability hooks
/// installed on `dst` observe each row — this is how a snapshot is imported
/// into a storage-backed server. Fails if `dst` already has a clashing
/// table name.
Status ImportCatalog(const Catalog& src, Catalog* dst);

}  // namespace mope::engine

#endif  // MOPE_ENGINE_SNAPSHOT_H_
