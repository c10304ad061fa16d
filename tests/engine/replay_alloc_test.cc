/// A count read from untrusted bytes must never size an allocation.
///
/// A WAL insert record carries its own u64 value count. These tests log
/// records whose count is far beyond what their bytes hold and check that
/// reading one is Corruption with no allocation larger than the record, and
/// that replaying one is Corruption with no allocation larger than
/// replaying the same record with an honest count makes. This binary
/// replaces the global operator new to record the largest single request;
/// it is separate from mope_tests so that the replacement does not hide
/// new/delete mismatches from the sanitizers across the whole suite.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "engine/codec.h"
#include "engine/durability.h"
#include "obs/registry.h"
#include "storage/env.h"

namespace {

std::atomic<size_t> g_largest{0};

/// The largest single allocation since the last call.
size_t TakeLargestAllocation() { return g_largest.exchange(0); }

}  // namespace

// Out of line: inlined into a new-expression in this file, a malloc/free
// pair trips GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen && !g_largest.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mope::engine {
namespace {

/// An insert record for table "items" claiming `count` values, followed by
/// one int value.
std::string HostileInsert(uint64_t count) {
  std::string record;
  record.push_back(4);  // insert
  PutString(&record, "items");
  PutU64(&record, count);
  PutValue(&record, Value(int64_t{1}));
  return record;
}

TEST(ReplayAllocTest, RowReaderAllocatesNothingForAClaimedCount) {
  for (const uint64_t count : {uint64_t{1} << 20, uint64_t{1} << 40,
                               uint64_t{1} << 63}) {
    const std::string record = HostileInsert(count);
    ByteReader reader(record, "WAL record");
    ASSERT_TRUE(reader.Byte().ok());
    ASSERT_TRUE(reader.String().ok());
    ASSERT_TRUE(reader.U64().ok());
    TakeLargestAllocation();
    const Status status = reader.ReadRow(count).status();
    const size_t largest = TakeLargestAllocation();
    EXPECT_TRUE(status.IsCorruption()) << count << ": " << status;
    // The error message is the only allocation.
    EXPECT_LE(largest, record.size()) << count;
  }
}

/// Logs a create-table record for "items"(c int) and `record`, crashes,
/// then recovers: returns recovery's status and its largest allocation.
std::pair<Status, size_t> RecoverAfterLogging(const std::string& record) {
  storage::InMemEnv env;
  obs::MetricsRegistry metrics;
  DurableCatalog::Options options;
  options.env = &env;
  options.metrics = &metrics;
  options.wal_sync_every = 1;
  {
    Catalog catalog;
    auto durable = DurableCatalog::Open("/db", &catalog, options);
    EXPECT_TRUE(durable.ok()) << durable.status();
    EXPECT_TRUE(
        catalog.CreateTable("items", Schema({Column{"c", ValueType::kInt}}))
            .ok());
    EXPECT_TRUE((*durable)->storage()->Log(record).ok());
  }
  env.SimulateCrash();
  Catalog recovered;
  TakeLargestAllocation();
  const Status status =
      DurableCatalog::Open("/db", &recovered, options).status();
  return {status, TakeLargestAllocation()};
}

TEST(ReplayAllocTest, HostileInsertCountReplaysAsCorruption) {
  // The same record with an honest count recovers; its largest allocation
  // is recovery's own, whatever the record says.
  const auto [honest, honest_largest] = RecoverAfterLogging(HostileInsert(1));
  ASSERT_TRUE(honest.ok()) << honest;
  for (const uint64_t count : {uint64_t{1} << 20, uint64_t{1} << 40,
                               uint64_t{1} << 63}) {
    const auto [status, largest] = RecoverAfterLogging(HostileInsert(count));
    EXPECT_TRUE(status.IsCorruption()) << count << ": " << status;
    EXPECT_NE(status.message().find("LSN 2"), std::string::npos) << status;
    EXPECT_LE(largest, honest_largest) << count;
  }
}

}  // namespace
}  // namespace mope::engine
