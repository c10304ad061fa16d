#include "engine/snapshot.h"

#include <cstring>

#include "engine/codec.h"

namespace mope::engine {

namespace {

constexpr char kMagic[8] = {'M', 'O', 'P', 'E', 'S', 'N', 'P', '1'};

}  // namespace

Result<std::string> SerializeCatalog(const Catalog& catalog) {
  std::string out(kMagic, sizeof(kMagic));
  const auto names = catalog.TableNames();
  PutU64(&out, names.size());
  for (const std::string& name : names) {
    MOPE_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(name));
    PutString(&out, name);

    const Schema& schema = table->schema();
    PutSchema(&out, schema);

    std::string indexed;
    uint64_t index_count = 0;
    for (const Column& col : schema.columns()) {
      if (table->HasIndex(col.name)) {
        PutString(&indexed, col.name);
        ++index_count;
      }
    }
    PutU64(&out, index_count);
    out.append(indexed);

    PutU64(&out, table->row_count());
    for (RowId r = 0; r < table->row_count(); ++r) {
      for (const Value& v : table->row(r)) PutValue(&out, v);
    }
  }
  return out;
}

Result<Catalog> DeserializeCatalog(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a MOPE snapshot");
  }
  ByteReader reader(std::string_view(bytes).substr(sizeof(kMagic)),
                    "snapshot");

  Catalog catalog;
  MOPE_ASSIGN_OR_RETURN(uint64_t num_tables, reader.U64());
  for (uint64_t t = 0; t < num_tables; ++t) {
    MOPE_ASSIGN_OR_RETURN(std::string name, reader.String());

    MOPE_ASSIGN_OR_RETURN(Schema schema, reader.ReadSchema());
    const size_t num_columns = schema.num_columns();

    MOPE_ASSIGN_OR_RETURN(uint64_t index_count, reader.U64());
    std::vector<std::string> indexed;
    for (uint64_t i = 0; i < index_count; ++i) {
      MOPE_ASSIGN_OR_RETURN(std::string col, reader.String());
      indexed.push_back(std::move(col));
    }

    MOPE_ASSIGN_OR_RETURN(Table * table,
                          catalog.CreateTable(name, std::move(schema)));
    MOPE_ASSIGN_OR_RETURN(uint64_t num_rows, reader.U64());
    for (uint64_t r = 0; r < num_rows; ++r) {
      Row row;
      row.reserve(num_columns);
      for (size_t c = 0; c < num_columns; ++c) {
        MOPE_ASSIGN_OR_RETURN(Value v, reader.ReadValue());
        row.push_back(std::move(v));
      }
      MOPE_RETURN_NOT_OK(table->Insert(std::move(row)).status());
    }
    // Indexes are rebuilt from the restored rows.
    for (const std::string& col : indexed) {
      MOPE_RETURN_NOT_OK(table->CreateIndex(col));
    }
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after snapshot");
  }
  return catalog;
}

Status ImportCatalog(const Catalog& src, Catalog* dst) {
  for (const std::string& name : src.TableNames()) {
    MOPE_ASSIGN_OR_RETURN(const Table* table, src.GetTable(name));
    MOPE_ASSIGN_OR_RETURN(Table * copy,
                          dst->CreateTable(name, table->schema()));
    for (RowId r = 0; r < table->row_count(); ++r) {
      MOPE_RETURN_NOT_OK(copy->Insert(table->row(r)).status());
    }
    for (const Column& col : table->schema().columns()) {
      if (table->HasIndex(col.name)) {
        MOPE_RETURN_NOT_OK(copy->CreateIndex(col.name));
      }
    }
  }
  return Status::OK();
}

Status SaveCatalog(const Catalog& catalog, const std::string& path) {
  return SaveCatalog(catalog, path, storage::Env::Posix());
}

Status SaveCatalog(const Catalog& catalog, const std::string& path,
                   storage::Env* env) {
  MOPE_ASSIGN_OR_RETURN(std::string bytes, SerializeCatalog(catalog));
  // Atomic replace: a crash leaves the previous snapshot, never a prefix.
  return env->WriteFileAtomic(path, bytes);
}

Result<Catalog> LoadCatalog(const std::string& path) {
  return LoadCatalog(path, storage::Env::Posix());
}

Result<Catalog> LoadCatalog(const std::string& path, storage::Env* env) {
  MOPE_ASSIGN_OR_RETURN(std::string bytes, env->ReadFile(path));
  return DeserializeCatalog(bytes);
}

}  // namespace mope::engine
