#include "engine/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

namespace mope::engine {
namespace {

TEST(CodecTest, U32RoundTrip) {
  std::string buf;
  PutU32(&buf, 0);
  PutU32(&buf, 1);
  PutU32(&buf, 0xDEADBEEF);
  PutU32(&buf, std::numeric_limits<uint32_t>::max());
  ASSERT_EQ(buf.size(), 16u);
  ByteReader reader(buf);
  EXPECT_EQ(reader.U32().value(), 0u);
  EXPECT_EQ(reader.U32().value(), 1u);
  EXPECT_EQ(reader.U32().value(), 0xDEADBEEFu);
  EXPECT_EQ(reader.U32().value(), std::numeric_limits<uint32_t>::max());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CodecTest, U64RoundTrip) {
  std::string buf;
  PutU64(&buf, 0);
  PutU64(&buf, 0x0123456789ABCDEFull);
  PutU64(&buf, std::numeric_limits<uint64_t>::max());
  ByteReader reader(buf);
  EXPECT_EQ(reader.U64().value(), 0u);
  EXPECT_EQ(reader.U64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.U64().value(), std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CodecTest, EncodingIsLittleEndian) {
  std::string buf;
  PutU32(&buf, 0x04030201);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(buf[0]), 0x01);
  EXPECT_EQ(static_cast<uint8_t>(buf[3]), 0x04);
}

TEST(CodecTest, StringRoundTripIncludingNulBytes) {
  const std::string tricky("with\0nul\xFFtail", 13);
  std::string buf;
  PutString(&buf, "");
  PutString(&buf, "plain");
  PutString(&buf, tricky);
  ByteReader reader(buf);
  EXPECT_EQ(reader.String().value(), "");
  EXPECT_EQ(reader.String().value(), "plain");
  EXPECT_EQ(reader.String().value(), tricky);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CodecTest, ValueRoundTripAllTypes) {
  std::string buf;
  PutValue(&buf, Value{int64_t{-42}});
  PutValue(&buf, Value{int64_t{std::numeric_limits<int64_t>::min()}});
  PutValue(&buf, Value{3.14159});
  PutValue(&buf, Value{-0.0});
  PutValue(&buf, Value{std::string("ciphertext")});
  ByteReader reader(buf);
  EXPECT_EQ(std::get<int64_t>(reader.ReadValue().value()), -42);
  EXPECT_EQ(std::get<int64_t>(reader.ReadValue().value()),
            std::numeric_limits<int64_t>::min());
  EXPECT_DOUBLE_EQ(std::get<double>(reader.ReadValue().value()), 3.14159);
  const double neg_zero = std::get<double>(reader.ReadValue().value());
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(std::get<std::string>(reader.ReadValue().value()), "ciphertext");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CodecTest, TruncatedReadsAreCorruptionNotAborts) {
  std::string buf;
  PutU64(&buf, 77);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader reader(std::string_view(buf).substr(0, cut));
    EXPECT_TRUE(reader.U64().status().IsCorruption()) << "cut=" << cut;
  }
}

TEST(CodecTest, StringLengthBeyondBufferIsCorruption) {
  std::string buf;
  PutU64(&buf, 1000);  // claims 1000 bytes follow
  buf += "short";
  ByteReader reader(buf);
  EXPECT_TRUE(reader.String().status().IsCorruption());
}

TEST(CodecTest, BadValueTagIsCorruption) {
  std::string buf;
  buf.push_back(static_cast<char>(0x7F));  // no such ValueType
  ByteReader reader(buf);
  EXPECT_TRUE(reader.ReadValue().status().IsCorruption());
}

TEST(CodecTest, TruncatedValuePayloadIsCorruption) {
  std::string full;
  PutValue(&full, Value{int64_t{123456789}});
  ByteReader reader(std::string_view(full).substr(0, full.size() - 1));
  EXPECT_TRUE(reader.ReadValue().status().IsCorruption());
}

TEST(CodecTest, ContextNamesTheMedium) {
  ByteReader reader(std::string_view(), "wire frame");
  const Status status = reader.U32().status();
  ASSERT_TRUE(status.IsCorruption());
  EXPECT_NE(status.ToString().find("wire frame"), std::string::npos);
}

TEST(CodecTest, RemainingTracksConsumption) {
  std::string buf;
  PutU32(&buf, 5);
  PutU32(&buf, 6);
  ByteReader reader(buf);
  EXPECT_EQ(reader.remaining(), 8u);
  EXPECT_TRUE(reader.U32().ok());
  EXPECT_EQ(reader.remaining(), 4u);
  EXPECT_FALSE(reader.AtEnd());
  EXPECT_TRUE(reader.U32().ok());
  EXPECT_TRUE(reader.AtEnd());
}

// --- The row reader --------------------------------------------------------

/// The reference: one ReadValue per value, `rows` rows of `width` values.
Result<std::vector<Row>> ReadValueLoop(std::string_view bytes, size_t rows,
                                       size_t width) {
  ByteReader reader(bytes);
  std::vector<Row> out;
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    for (size_t c = 0; c < width; ++c) {
      MOPE_ASSIGN_OR_RETURN(Value v, reader.ReadValue());
      row.push_back(std::move(v));
    }
    out.push_back(std::move(row));
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes");
  return out;
}

/// The same rows through the row reader, locating column `locate` in each
/// row and checking that LocatedInt agrees with the built row.
Result<std::vector<Row>> RowReaderLoop(std::string_view bytes, size_t rows,
                                       size_t width, size_t locate) {
  ByteReader reader(bytes);
  std::vector<Row> out;
  for (size_t r = 0; r < rows; ++r) {
    MOPE_ASSIGN_OR_RETURN(const CheckedRow checked,
                          reader.CheckRow(width, locate));
    Row row = checked.Build();
    const std::optional<int64_t> located = checked.LocatedInt();
    const bool is_int =
        locate < width && std::holds_alternative<int64_t>(row[locate]);
    EXPECT_EQ(located.has_value(), is_int) << "row " << r;
    if (is_int && located.has_value()) {
      EXPECT_EQ(*located, std::get<int64_t>(row[locate])) << "row " << r;
    }
    out.push_back(std::move(row));
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes");
  return out;
}

Value RandomValue(Rng* rng, ValueType type) {
  switch (type) {
    case ValueType::kInt:
      return static_cast<int64_t>(rng->NextWord());
    case ValueType::kDouble:
      return rng->UniformDouble() * 2e9 - 1e9;
    case ValueType::kString: {
      // Empty, short and 1 KiB strings, with every byte value.
      static constexpr size_t kLengths[] = {0, 1, 7, 8, 9, 33, 1024};
      std::string s(kLengths[rng->UniformUint64(7)], '\0');
      for (char& c : s) c = static_cast<char>(rng->UniformUint64(256));
      return s;
    }
  }
  return Value{};
}

TEST(RowReaderTest, EqualsAReadValueLoopOnRandomRows) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const size_t width = 1 + rng.UniformUint64(12);
    std::vector<ValueType> types;
    for (size_t c = 0; c < width; ++c) {
      types.push_back(static_cast<ValueType>(rng.UniformUint64(3)));
    }
    std::vector<Row> rows(1 + rng.UniformUint64(20));
    std::string bytes;
    for (Row& row : rows) {
      for (const ValueType type : types) {
        row.push_back(RandomValue(&rng, type));
        PutValue(&bytes, row.back());
      }
    }
    auto reference = ReadValueLoop(bytes, rows.size(), width);
    ASSERT_TRUE(reference.ok()) << reference.status();
    ASSERT_EQ(*reference, rows) << "seed " << seed;

    ByteReader reader(bytes);
    for (size_t r = 0; r < rows.size(); ++r) {
      auto row = reader.ReadRow(width);
      ASSERT_TRUE(row.ok()) << row.status();
      EXPECT_EQ(*row, rows[r]) << "seed " << seed << " row " << r;
    }
    EXPECT_TRUE(reader.AtEnd());
    auto located =
        RowReaderLoop(bytes, rows.size(), width, rng.UniformUint64(width));
    ASSERT_TRUE(located.ok()) << located.status();
    EXPECT_EQ(*located, rows) << "seed " << seed;
  }
}

/// Ten rows of a double, an int and a string.
std::vector<Row> ReferenceRows() {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 10; ++i) {
    rows.push_back(Row{Value{0.25 * static_cast<double>(i)},
                       Value{int64_t{50} * i},
                       Value{std::string(static_cast<size_t>(i % 4), 'a')}});
  }
  return rows;
}

/// Both readers on one mutant: both Corruption, or the same rows.
void ExpectReadersAgree(std::string_view bytes, const std::string& what) {
  auto reference = ReadValueLoop(bytes, 10, 3);
  auto rows = RowReaderLoop(bytes, 10, 3, 1);
  if (!reference.ok()) {
    EXPECT_TRUE(reference.status().IsCorruption()) << what;
    EXPECT_TRUE(rows.status().IsCorruption()) << what << ": " << rows.status();
    return;
  }
  ASSERT_TRUE(rows.ok()) << what << ": " << rows.status();
  EXPECT_EQ(*rows, *reference) << what;
}

TEST(RowReaderTest, EveryFlippedOrCutByteIsCorruptionOrWhatReadValueReads) {
  std::string bytes;
  for (const Row& row : ReferenceRows()) {
    for (const Value& v : row) PutValue(&bytes, v);
  }
  auto intact = RowReaderLoop(bytes, 10, 3, 1);
  ASSERT_TRUE(intact.ok()) << intact.status();
  ASSERT_EQ(*intact, ReferenceRows());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (const char mask : {'\x01', '\xFF'}) {
      std::string mutated = bytes;
      mutated[i] ^= mask;
      ExpectReadersAgree(mutated,
                         "byte " + std::to_string(i) + " ^ " +
                             std::to_string(static_cast<uint8_t>(mask)));
    }
  }
  // A cut leaves the last row short: Corruption, whatever the length.
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto rows = RowReaderLoop(std::string_view(bytes).substr(0, len), 10, 3, 1);
    EXPECT_TRUE(rows.status().IsCorruption()) << "cut at " << len;
  }
}

TEST(RowReaderTest, ClaimedCountBeyondTheBytesIsCorruption) {
  std::string bytes;
  PutValue(&bytes, Value{int64_t{1}});
  PutValue(&bytes, Value{std::string("two")});
  for (const uint64_t count : {uint64_t{3}, uint64_t{1} << 32,
                               uint64_t{1} << 63, ~uint64_t{0}}) {
    ByteReader reader(bytes);
    EXPECT_TRUE(reader.ReadRow(count).status().IsCorruption()) << count;
    // A failed walk consumes nothing.
    EXPECT_EQ(reader.remaining(), bytes.size()) << count;
  }
  ByteReader reader(bytes);
  auto row = reader.ReadRow(2);
  ASSERT_TRUE(row.ok()) << row.status();
  EXPECT_EQ(*row, (Row{int64_t{1}, std::string("two")}));
  EXPECT_EQ(row->capacity(), 2u);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(RowReaderTest, LocatedIntIsEmptyForOtherTypesAndWhenNotAsked) {
  std::string bytes;
  PutValue(&bytes, Value{std::string("s")});
  PutValue(&bytes, Value{2.5});
  PutValue(&bytes, Value{int64_t{-9}});
  for (size_t locate = 0; locate < 4; ++locate) {
    ByteReader reader(bytes);
    auto row = reader.CheckRow(3, locate);
    ASSERT_TRUE(row.ok()) << row.status();
    EXPECT_EQ(row->LocatedInt(),
              locate == 2 ? std::optional<int64_t>(-9) : std::nullopt)
        << locate;
  }
  ByteReader reader(bytes);
  auto row = reader.CheckRow(3);
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE(row->LocatedInt().has_value());
}

}  // namespace
}  // namespace mope::engine
