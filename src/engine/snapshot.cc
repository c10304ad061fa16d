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

    // The row section is the table's arena: every row's stored bytes.
    PutU64(&out, table->row_count());
    out.append(table->arena());
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

  // SerializeCatalog writes tables in name order and each table's indexes
  // in column order; anything else is not an image it wrote, so every image
  // this accepts re-serializes to exactly its bytes.
  Catalog catalog;
  std::string previous_name;
  MOPE_ASSIGN_OR_RETURN(uint64_t num_tables, reader.U64());
  for (uint64_t t = 0; t < num_tables; ++t) {
    MOPE_ASSIGN_OR_RETURN(std::string name, reader.String());
    if (t > 0 && name <= previous_name) {
      return Status::Corruption("snapshot tables out of order");
    }
    previous_name = name;

    MOPE_ASSIGN_OR_RETURN(Schema schema, reader.ReadSchema());
    const size_t num_columns = schema.num_columns();

    MOPE_ASSIGN_OR_RETURN(uint64_t index_count, reader.U64());
    std::vector<std::string> indexed;
    size_t next_column = 0;  // indexes come in column order, no repeats
    for (uint64_t i = 0; i < index_count; ++i) {
      MOPE_ASSIGN_OR_RETURN(std::string col, reader.String());
      const Result<size_t> c = schema.IndexOf(col);
      if (!c.ok() || *c < next_column ||
          schema.column(*c).type != ValueType::kInt) {
        return Status::Corruption("snapshot index list is not the int "
                                  "columns of its table, in order");
      }
      next_column = *c + 1;
      indexed.push_back(std::move(col));
    }

    MOPE_ASSIGN_OR_RETURN(Table * table,
                          catalog.CreateTable(name, std::move(schema)));
    MOPE_ASSIGN_OR_RETURN(uint64_t num_rows, reader.U64());
    for (uint64_t r = 0; r < num_rows; ++r) {
      // Checked bytes are appended as they are; no row is built.
      MOPE_ASSIGN_OR_RETURN(const CheckedRow row,
                            reader.CheckRow(num_columns));
      MOPE_RETURN_NOT_OK(table->InsertChecked(row).status());
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
    const size_t num_columns = table->schema().num_columns();
    for (RowId r = 0; r < table->row_count(); ++r) {
      ByteReader reader(table->row_bytes(r), "table row");
      MOPE_ASSIGN_OR_RETURN(const CheckedRow row,
                            reader.CheckRow(num_columns));
      MOPE_RETURN_NOT_OK(copy->InsertChecked(row).status());
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
