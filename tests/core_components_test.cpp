#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/alloc_table.h"
#include "core/deposit.h"
#include "core/params.h"
#include "core/pending_list.h"
#include "core/sector.h"

#include "stats_support.h"

namespace fi::core {
namespace {

Params small_params() {
  Params p;
  p.min_capacity = 1024;
  p.min_value = 10;
  p.k = 3;
  p.cap_para = 10.0;
  p.gamma_deposit = 0.05;
  return p;
}

// ---------------------------------------------------------------------------
// Params
// ---------------------------------------------------------------------------

TEST(ParamsTest, ReplicaCountFollowsValue) {
  const Params p = small_params();
  EXPECT_EQ(p.replica_count(10), 3u);   // k * 1
  EXPECT_EQ(p.replica_count(50), 15u);  // k * 5
  EXPECT_THROW((void)p.replica_count(15), util::InvariantViolation);
  EXPECT_THROW((void)p.replica_count(0), util::InvariantViolation);
}

TEST(ParamsTest, ReplicaCountAboveU32Throws) {
  Params p = small_params();
  p.k = 4;
  // cp = 4 × 1,073,741,823 fits in u32; one more minValue does not, and
  // 4 × 2^30 = 2^32 must not wrap to cp = 0.
  EXPECT_EQ(p.replica_count(10'737'418'230), 4'294'967'292u);
  EXPECT_THROW((void)p.replica_count(10'737'418'240), std::overflow_error);
  EXPECT_THROW((void)p.replica_count(10'737'418'250), std::overflow_error);
}

TEST(ParamsTest, RentAndTrafficFeeOverflowThrowsInsteadOfWrapping) {
  Params p = small_params();
  p.unit_rent = TokenAmount{1} << 62;
  EXPECT_EQ(p.rent_per_cycle(1024, 3), TokenAmount{3} << 62);
  EXPECT_THROW((void)p.rent_per_cycle(1024, 4), std::overflow_error);
  EXPECT_THROW((void)p.rent_per_cycle(4 * 1024, 1), std::overflow_error);
  p.traffic_fee_per_kib = TokenAmount{1} << 63;
  EXPECT_EQ(p.traffic_fee(1024), TokenAmount{1} << 63);
  EXPECT_THROW((void)p.traffic_fee(2 * 1024), std::overflow_error);
}

TEST(ParamsTest, DepositProportionalToCapacity) {
  const Params p = small_params();
  // deposit = units * gamma * capPara * minValue = units * 0.05*10*10 = 5/unit
  EXPECT_EQ(p.sector_deposit(1024), 5u);
  EXPECT_EQ(p.sector_deposit(4 * 1024), 20u);
}

TEST(ParamsTest, DepositRoundsUp) {
  Params p = small_params();
  p.gamma_deposit = 0.033;  // 3.3 per unit -> 4
  EXPECT_EQ(p.sector_deposit(1024), 4u);
}

TEST(ParamsTest, DepositOverflowThrowsInsteadOfWrapping) {
  Params p = small_params();
  p.gamma_deposit = 1e17;  // 1e19 tokens per unit: fits u64 once, not twice
  EXPECT_EQ(p.sector_deposit(1024), 10'000'000'000'000'000'000u);
  EXPECT_THROW((void)p.sector_deposit(2 * 1024), std::overflow_error);
  p.gamma_deposit = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)p.sector_deposit(1024), std::overflow_error);
}

TEST(ParamsTest, ValidateRejectsBadConfig) {
  Params p = small_params();
  p.proof_deadline = p.proof_due;  // must be strictly greater
  EXPECT_THROW(p.validate(), util::InvariantViolation);
  // Zero would hang the rent clock or fail every File_Add.
  p = small_params();
  p.rent_period_cycles = 0;
  EXPECT_THROW(p.validate(), util::InvariantViolation);
  p = small_params();
  p.max_alloc_resample = 0;
  EXPECT_THROW(p.validate(), util::InvariantViolation);
  // A rent period of 2^31 × 2^33 = 2^64 ticks would wrap to zero and
  // reschedule the rent task at `now` forever; one cycle fewer fits.
  p = small_params();
  p.proof_cycle = Time{1} << 33;
  p.proof_due = p.proof_cycle;
  p.proof_deadline = p.proof_cycle + 1;
  p.rent_period_cycles = std::uint32_t{1} << 31;
  EXPECT_THROW(p.validate(), util::InvariantViolation);
  p.rent_period_cycles -= 1;
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.rent_period(), (Time{1} << 33) * ((Time{1} << 31) - 1));
}

TEST(ParamsTest, TransferWindowScalesWithSize) {
  const Params p = small_params();
  EXPECT_EQ(p.transfer_window(1), p.min_transfer_window);
  EXPECT_EQ(p.transfer_window(10 * 1024), 10u * p.delay_per_kib);
}

TEST(ParamsTest, TransferWindowOverflowThrowsInsteadOfWrapping) {
  Params p = small_params();
  p.delay_per_kib = Time{1} << 62;
  EXPECT_EQ(p.transfer_window(3 * 1024), Time{3} << 62);
  EXPECT_THROW((void)p.transfer_window(4 * 1024), std::overflow_error);
}

// ---------------------------------------------------------------------------
// SectorTable
// ---------------------------------------------------------------------------

TEST(SectorTableTest, RegisterValidatesCapacity) {
  const Params p = small_params();
  SectorTable table(p);
  EXPECT_FALSE(table.register_sector(1, 0, 0).is_ok());
  EXPECT_FALSE(table.register_sector(1, 1000, 0).is_ok());  // not a multiple
  const auto id = table.register_sector(1, 2048, 5);
  ASSERT_TRUE(id.is_ok());
  const Sector& s = table.at(id.value());
  EXPECT_EQ(s.capacity, 2048u);
  EXPECT_EQ(s.free_cap, 2048u);
  EXPECT_EQ(s.registered_at, 5u);
  EXPECT_EQ(s.state, SectorState::normal);
}

TEST(SectorTableTest, RandomSectorWeightedByCapacity) {
  const Params p = small_params();
  SectorTable table(p);
  ASSERT_TRUE(table.register_sector(1, 1024, 0).is_ok());       // weight 1
  ASSERT_TRUE(table.register_sector(2, 3 * 1024, 0).is_ok());   // weight 3
  util::Xoshiro256 rng(1);
  std::vector<std::uint64_t> counts(2, 0);
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[table.random_sector(rng).value()];
  }
  const std::vector<double> expected{kSamples * 0.25, kSamples * 0.75};
  EXPECT_LT(util::chi_squared_statistic(counts, expected), 15.1);  // 1 dof
}

TEST(SectorTableTest, DisabledAndCorruptedNeverSampled) {
  const Params p = small_params();
  SectorTable table(p);
  const SectorId a = table.register_sector(1, 1024, 0).value();
  const SectorId b = table.register_sector(2, 1024, 0).value();
  const SectorId c = table.register_sector(3, 1024, 0).value();
  ASSERT_TRUE(table.disable(a).is_ok());
  ASSERT_TRUE(table.mark_corrupted(b));
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(table.random_sector(rng).value(), c);
  }
}

TEST(SectorTableTest, NoNormalSectorsFailsSampling) {
  const Params p = small_params();
  SectorTable table(p);
  util::Xoshiro256 rng(3);
  EXPECT_FALSE(table.random_sector(rng).is_ok());
  const SectorId a = table.register_sector(1, 1024, 0).value();
  ASSERT_TRUE(table.mark_corrupted(a));
  EXPECT_FALSE(table.random_sector(rng).is_ok());
}

TEST(SectorTableTest, ReserveReleaseAccounting) {
  const Params p = small_params();
  SectorTable table(p);
  const SectorId s = table.register_sector(1, 2048, 0).value();
  ASSERT_TRUE(table.reserve(s, 1500).is_ok());
  EXPECT_EQ(table.at(s).free_cap, 548u);
  EXPECT_EQ(table.reserve(s, 600).code(),
            util::ErrorCode::insufficient_space);
  table.release(s, 1500);
  EXPECT_EQ(table.at(s).free_cap, 2048u);
}

TEST(SectorTableTest, ReleaseOnCorruptedIsNoOp) {
  const Params p = small_params();
  SectorTable table(p);
  const SectorId s = table.register_sector(1, 2048, 0).value();
  ASSERT_TRUE(table.reserve(s, 1000).is_ok());
  table.mark_corrupted(s);
  table.release(s, 1000);  // dead space is not reusable
  EXPECT_EQ(table.at(s).free_cap, 1048u);
}

TEST(SectorTableTest, DisableLifecycle) {
  const Params p = small_params();
  SectorTable table(p);
  const SectorId s = table.register_sector(1, 1024, 0).value();
  EXPECT_THROW(table.mark_removed(s), util::InvariantViolation);
  ASSERT_TRUE(table.disable(s).is_ok());
  EXPECT_EQ(table.at(s).state, SectorState::disabled);
  EXPECT_FALSE(table.disable(s).is_ok());  // idempotence rejected
  EXPECT_FALSE(table.reserve(s, 10).is_ok());  // no new data
  table.mark_removed(s);
  EXPECT_EQ(table.at(s).state, SectorState::removed);
}

TEST(SectorTableTest, CapacityTotals) {
  const Params p = small_params();
  SectorTable table(p);
  ASSERT_TRUE(table.register_sector(1, 1024, 0).is_ok());
  const SectorId b = table.register_sector(2, 2048, 0).value();
  ASSERT_TRUE(table.register_sector(3, 4096, 0).is_ok());
  table.mark_corrupted(b);
  EXPECT_EQ(table.total_capacity(SectorState::normal), 5120u);
  EXPECT_EQ(table.total_capacity(SectorState::corrupted), 2048u);
  EXPECT_EQ(table.live_capacity(), 5120u);
}

TEST(SectorTableTest, RentableUnitsTrackLifecycle) {
  const Params p = small_params();  // min_capacity = 1024
  SectorTable table(p);
  EXPECT_EQ(table.rentable_units(), 0u);
  const SectorId a = table.register_sector(1, 1024, 0).value();
  const SectorId b = table.register_sector(2, 3072, 0).value();
  EXPECT_EQ(table.rentable_units(), 4u);
  // Disabled sectors still hold data and still earn rent.
  ASSERT_TRUE(table.disable(a).is_ok());
  EXPECT_EQ(table.rentable_units(), 4u);
  EXPECT_EQ(table.total_capacity(SectorState::disabled), 1024u);
  // Corrupted and removed sectors stop earning.
  table.mark_corrupted(b);
  EXPECT_EQ(table.rentable_units(), 1u);
  table.mark_removed(a);
  EXPECT_EQ(table.rentable_units(), 0u);
  EXPECT_EQ(table.total_capacity(SectorState::removed), 1024u);
  EXPECT_EQ(table.total_capacity(SectorState::corrupted), 3072u);
  EXPECT_EQ(table.live_capacity(), 0u);
}

struct SectorRow {
  ByteCount capacity = 0;
  ByteCount free_cap = 0;
  SectorState state = SectorState::normal;
};

/// A SectorTable body in save()'s wire order, ids dense from 0.
std::vector<std::uint8_t> sector_body(std::initializer_list<SectorRow> rows) {
  util::BinaryWriter writer;
  writer.u64(rows.size());
  SectorId id = 0;
  for (const SectorRow& row : rows) {
    writer.u64(id++);
    writer.u64(/*owner=*/1);
    writer.u64(row.capacity);
    writer.u64(row.free_cap);
    writer.u8(static_cast<std::uint8_t>(row.state));
    writer.u64(/*registered_at=*/0);
    writer.u32(/*references=*/0);
    writer.u128(/*rent_acc_snapshot=*/0);
  }
  return writer.data();
}

/// Reference counts for `SectorTable::save`: the table holds none, so the
/// tests make one up that differs per sector.
std::uint32_t made_up_references(SectorId id) {
  return static_cast<std::uint32_t>(3 * id + 1);
}

TEST(SectorTableTest, LoadRejectsNonCanonicalBodies) {
  const Params p = small_params();  // min_capacity = 1024
  {
    SectorTable table(p);
    const SectorId a = table.register_sector(1, 2048, 3).value();
    ASSERT_TRUE(table.register_sector(2, 1024, 4).is_ok());
    ASSERT_TRUE(table.reserve(a, 1500).is_ok());
    ASSERT_TRUE(table.disable(a).is_ok());
    util::BinaryWriter saved;
    table.save(saved, made_up_references);
    SectorTable restored(p);
    util::BinaryReader reader(saved.data());
    std::vector<std::uint32_t> references;
    restored.load(reader, references);
    ASSERT_TRUE(reader.ok()) << "the canonical body must load";
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(references, (std::vector<std::uint32_t>{1, 4}));
    EXPECT_EQ(restored.rentable_units(), 3u);
    EXPECT_EQ(restored.total_capacity(SectorState::disabled), 2048u);
    util::BinaryWriter again;
    restored.save(again, made_up_references);
    EXPECT_EQ(again.data(), saved.data());
  }
  constexpr ByteCount kMax = std::numeric_limits<ByteCount>::max();
  // The largest capacity register_sector admits; two of them overflow the
  // per-state total.
  const ByteCount top = kMax - kMax % p.min_capacity;
  const struct {
    const char* what;
    std::vector<std::uint8_t> body;
  } cases[] = {
      {"zero capacity", sector_body({{0, 0}})},
      {"capacity not a multiple of min_capacity", sector_body({{1000, 1000}})},
      {"free space above capacity", sector_body({{1024, 2048}})},
      {"capacity total wraps", sector_body({{top, top}, {top, top}})},
  };
  for (const auto& c : cases) {
    SectorTable table(p);
    util::BinaryReader reader(c.body);
    std::vector<std::uint32_t> references;
    EXPECT_NO_THROW(table.load(reader, references)) << c.what;
    EXPECT_FALSE(reader.ok()) << c.what;
  }
  // With min_capacity 1, a normal and a disabled sector each fit their
  // state's total, but their rentable units wrap.
  Params unit = p;
  unit.min_capacity = 1;
  const auto body =
      sector_body({{kMax, kMax}, {kMax, kMax, SectorState::disabled}});
  SectorTable table(unit);
  util::BinaryReader reader(body);
  std::vector<std::uint32_t> references;
  EXPECT_NO_THROW(table.load(reader, references));
  EXPECT_FALSE(reader.ok());
}

// ---------------------------------------------------------------------------
// AllocTable
// ---------------------------------------------------------------------------

TEST(AllocTableTest, CreateAndQueryEntries) {
  AllocTable table;
  table.create_file(1, 3);
  EXPECT_TRUE(table.has_file(1));
  EXPECT_EQ(table.replica_count(1), 3u);
  const AllocEntry& e = table.entry(1, 0);
  EXPECT_EQ(e.prev, kNoSector);
  EXPECT_EQ(e.next, kNoSector);
  EXPECT_EQ(e.state, AllocState::alloc);
  EXPECT_EQ(e.last, kNoTime);
}

TEST(AllocTableTest, ReverseIndexesTrackLinks) {
  AllocTable table;
  table.create_file(1, 2);
  table.create_file(2, 1);
  const AllocTable::FileView one = table.find(1);
  one.set_next(0, 7);
  one.set_next(1, 7);
  table.find(2).set_next(0, 7);
  EXPECT_EQ(table.entries_with_next(7).size(), 3u);
  one.set_prev(0, 7);
  one.set_next(0, kNoSector);
  EXPECT_EQ(table.entries_with_next(7).size(), 2u);
  EXPECT_EQ(table.entries_with_prev(7).size(), 1u);
  table.remove_file(1);
  EXPECT_EQ(table.entries_with_next(7).size(), 1u);
  EXPECT_TRUE(table.entries_with_prev(7).empty());
}

TEST(AllocTableTest, NormalSamplerTracksStateTransitions) {
  AllocTable table;
  util::Xoshiro256 rng(4);
  table.create_file(1, 2);
  EXPECT_EQ(table.normal_entry_count(), 0u);
  EXPECT_FALSE(table.random_normal_entry(rng).has_value());
  const AllocTable::FileView file = table.find(1);
  file.set_state(0, AllocState::normal);
  file.set_state(1, AllocState::normal);
  EXPECT_EQ(table.normal_entry_count(), 2u);
  file.set_state(0, AllocState::alloc);
  EXPECT_EQ(table.normal_entry_count(), 1u);
  const auto key = table.random_normal_entry(rng);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, (EntryKey{1, 1}));
  table.remove_file(1);
  EXPECT_EQ(table.normal_entry_count(), 0u);
}

TEST(AllocTableTest, SamplerUniformOverNormalEntries) {
  AllocTable table;
  const AllocTable::FileView file = table.create_file(1, 4);
  for (ReplicaIndex i = 0; i < 4; ++i) file.set_state(i, AllocState::normal);
  util::Xoshiro256 rng(5);
  std::vector<std::uint64_t> counts(4, 0);
  constexpr int kSamples = 40'000;
  for (int i = 0; i < kSamples; ++i) {
    ++counts[table.random_normal_entry(rng)->second];
  }
  const std::vector<double> expected(4, kSamples / 4.0);
  EXPECT_LT(util::chi_squared_statistic(counts, expected), 21.1);
}

TEST(AllocTableTest, DuplicateCreateRejected) {
  AllocTable table;
  table.create_file(1, 1);
  EXPECT_THROW(table.create_file(1, 1), util::InvariantViolation);
}

TEST(AllocTableTest, IndexViewsMatchCopiesWithoutAllocation) {
  AllocTable table;
  const AllocTable::FileView file = table.create_file(1, 3);
  file.set_next(0, 5);
  file.set_next(1, 5);
  file.set_prev(2, 5);
  EXPECT_EQ(table.count_with_next(5), 2u);
  EXPECT_EQ(table.count_with_prev(5), 1u);
  EXPECT_EQ(table.count_with_prev(6), 0u);
  EXPECT_TRUE(table.entries_with_prev(6).empty());
  EXPECT_EQ(table.entries_with_next(5),
            (std::vector<EntryKey>{{1, 0}, {1, 1}}));
}

TEST(AllocTableTest, SwapEraseIndexSurvivesInterleavedRelinks) {
  AllocTable table;
  table.create_file(1, 4);
  table.create_file(2, 2);
  const AllocTable::FileView one = table.find(1);
  for (ReplicaIndex i = 0; i < 4; ++i) one.set_prev(i, 9);
  table.find(2).set_prev(0, 9);
  // Remove from the middle (swap-erase moves the tail key) and relink.
  one.set_prev(1, 3);
  one.set_prev(2, kNoSector);
  EXPECT_EQ(table.count_with_prev(9), 3u);
  EXPECT_EQ(table.count_with_prev(3), 1u);
  one.set_prev(1, 9);  // back again
  EXPECT_EQ(table.count_with_prev(9), 4u);
  EXPECT_EQ(table.count_with_prev(3), 0u);
  table.remove_file(1);
  EXPECT_EQ(table.count_with_prev(9), 1u);
  EXPECT_EQ(table.entries_with_prev(9), (std::vector<EntryKey>{{2, 0}}));
}

struct AllocRow {
  SectorId prev = kNoSector;
  SectorId next = kNoSector;
  AllocState state = AllocState::alloc;
};
using AllocBucket = std::pair<SectorId, std::vector<ReplicaIndex>>;

/// `AllocTable::save`'s layout for one file (id 1) with the given replica
/// rows; the by-prev, by-next and sampler sections list replica indexes of
/// that file. Each row's 32 reserved bytes (the former CommR) are zero
/// except the last, which is `reserved_last`.
std::vector<std::uint8_t> alloc_body(const std::vector<AllocRow>& rows,
                                     const std::vector<AllocBucket>& by_prev,
                                     const std::vector<AllocBucket>& by_next,
                                     const std::vector<ReplicaIndex>& normals,
                                     std::uint8_t reserved_last = 0) {
  constexpr FileId kFile = 1;
  std::array<std::uint8_t, 32> reserved{};
  reserved.back() = reserved_last;
  util::BinaryWriter writer;
  writer.u64(/*files=*/1);
  writer.u64(kFile);
  writer.u32(static_cast<std::uint32_t>(rows.size()));
  for (const AllocRow& row : rows) {
    writer.u64(row.prev);
    writer.u64(row.next);
    writer.u64(/*last=*/kNoTime);
    writer.u8(static_cast<std::uint8_t>(row.state));
    writer.raw(reserved);
  }
  for (const auto* index : {&by_prev, &by_next}) {
    writer.u64(index->size());
    for (const auto& [sector, replicas] : *index) {
      writer.u64(sector);
      writer.u64(replicas.size());
      for (const ReplicaIndex idx : replicas) {
        writer.u64(kFile);
        writer.u32(idx);
      }
    }
  }
  writer.u64(normals.size());
  for (const ReplicaIndex idx : normals) {
    writer.u64(kFile);
    writer.u32(idx);
  }
  return writer.data();
}

TEST(AllocTableTest, LoadRejectsNonCanonicalBodies) {
  constexpr std::uint64_t kSectors = 4;
  constexpr FileId kNextFileId = 2;  // the body's one file has id 1
  // Replica 0 stored on sector 1 and normal; replica 1 moving to sector 2.
  const std::vector<AllocRow> rows = {{1, kNoSector, AllocState::normal},
                                      {kNoSector, 2, AllocState::alloc}};
  {
    AllocTable table;
    const AllocTable::FileView file = table.create_file(1, 2);
    file.set_prev(0, 1);
    file.set_state(0, AllocState::normal);
    file.set_next(1, 2);
    util::BinaryWriter saved;
    table.save(saved);
    // The cases below differ from this canonical body only where they say.
    ASSERT_EQ(alloc_body(rows, {{1, {0}}}, {{2, {1}}}, {0}), saved.data());
    AllocTable restored;
    util::BinaryReader reader(saved.data());
    restored.load(reader, kSectors, kNextFileId, saved.data().size());
    ASSERT_TRUE(reader.ok()) << "the canonical body must load";
    EXPECT_TRUE(reader.exhausted());
    EXPECT_EQ(restored.entries_with_prev(1), (std::vector<EntryKey>{{1, 0}}));
    EXPECT_EQ(restored.entries_with_next(2), (std::vector<EntryKey>{{1, 1}}));
    EXPECT_EQ(restored.normal_entry_count(), 1u);
    util::BinaryWriter again;
    restored.save(again);
    EXPECT_EQ(again.data(), saved.data());
  }
  std::vector<AllocRow> moved = rows;
  moved[0].prev = 2;
  const struct {
    const char* what;
    std::vector<std::uint8_t> body;
    FileId next_file_id = kNextFileId;
  } cases[] = {
      {"file id at the next id File_Add would issue",
       alloc_body(rows, {{1, {0}}}, {{2, {1}}}, {0}), /*next_file_id=*/1},
      {"file of zero replicas", alloc_body({}, {}, {}, {})},
      {"prev moved off its bucket's sector",
       alloc_body(moved, {{1, {0}}}, {{2, {1}}}, {0})},
      {"prev missing from the by-prev index",
       alloc_body(rows, {}, {{2, {1}}}, {0})},
      {"normal entry missing from the sampler",
       alloc_body(rows, {{1, {0}}}, {{2, {1}}}, {})},
      {"sampler lists the non-normal entry instead",
       alloc_body(rows, {{1, {0}}}, {{2, {1}}}, {1})},
      {"non-zero byte in the reserved former CommR field",
       alloc_body(rows, {{1, {0}}}, {{2, {1}}}, {0}, /*reserved_last=*/1)},
  };
  for (const auto& c : cases) {
    AllocTable table;
    util::BinaryReader reader(c.body);
    EXPECT_NO_THROW(
        table.load(reader, kSectors, c.next_file_id, c.body.size()))
        << c.what;
    EXPECT_FALSE(reader.ok()) << c.what;
  }
}

// ---------------------------------------------------------------------------
// PendingList
// ---------------------------------------------------------------------------

TEST(PendingListTest, PopsDueInOrder) {
  PendingList list;
  list.schedule(30, {TaskKind::check_proof, 3, 0});
  list.schedule(10, {TaskKind::check_alloc, 1, 0});
  list.schedule(20, {TaskKind::check_refresh, 2, 1});
  EXPECT_EQ(list.next_time(), 10u);
  const auto due = list.pop_due(20);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].second.file, 1u);
  EXPECT_EQ(due[1].second.file, 2u);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.next_time(), 30u);
}

TEST(PendingListTest, InsertionOrderPreservedWithinTimestamp) {
  PendingList list;
  for (FileId f = 0; f < 10; ++f) list.schedule(5, {TaskKind::check_proof, f, 0});
  const auto due = list.pop_due(5);
  for (FileId f = 0; f < 10; ++f) EXPECT_EQ(due[f].second.file, f);
}

TEST(PendingListTest, EmptyListReportsNoTime) {
  PendingList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.next_time(), kNoTime);
  EXPECT_TRUE(list.pop_due(100).empty());
}

/// A pending-list body with one Auto_CheckProof task per entry of `times`,
/// in that wire order.
std::vector<std::uint8_t> pending_body(const std::vector<Time>& times) {
  util::BinaryWriter writer;
  writer.u64(times.size());
  FileId file = 0;
  for (const Time at : times) {
    writer.u64(at);
    writer.u8(static_cast<std::uint8_t>(TaskKind::check_proof));
    writer.u64(file++);
    writer.u32(0);
  }
  return writer.data();
}

TEST(PendingListTest, LoadRejectsTimesThatDecrease) {
  const std::vector<std::uint8_t> canonical = pending_body({3, 3, 5});
  {
    PendingList list;
    util::BinaryReader reader(canonical);
    list.load(reader);
    ASSERT_TRUE(reader.ok()) << "the canonical body must load";
    EXPECT_TRUE(reader.exhausted());
    util::BinaryWriter again;
    list.save(again);
    EXPECT_EQ(again.data(), canonical);
  }
  const std::vector<std::uint8_t> decreasing = pending_body({3, 5, 4});
  PendingList list;
  util::BinaryReader reader(decreasing);
  EXPECT_NO_THROW(list.load(reader));
  EXPECT_FALSE(reader.ok());
}

// ---------------------------------------------------------------------------
// DepositBook
// ---------------------------------------------------------------------------

struct DepositFixture : ::testing::Test {
  DepositFixture() {
    // Sectors 0-2, all owned by `owner`: a deposit's owner is its sector's.
    for (int s = 0; s < 3; ++s) {
      EXPECT_TRUE(sectors.register_sector(owner, 1024, 0).is_ok());
    }
  }

  ledger::Ledger ledger;
  AccountId escrow = ledger.create_account();
  AccountId pool = ledger.create_account();
  AccountId owner = ledger.create_account(1000);
  AccountId client = ledger.create_account(0);
  Params params = small_params();
  SectorTable sectors{params};
  DepositBook book{ledger, escrow, pool, sectors};
};

TEST_F(DepositFixture, PledgeLocksDeposit) {
  ASSERT_TRUE(book.pledge(1, 400).is_ok());
  EXPECT_EQ(ledger.balance(owner), 600u);
  EXPECT_EQ(book.escrow_balance(), 400u);
  EXPECT_EQ(book.remaining(1), 400u);
}

TEST_F(DepositFixture, PledgeFailsOnInsufficientFunds) {
  EXPECT_FALSE(book.pledge(1, 2000).is_ok());
  EXPECT_EQ(ledger.balance(owner), 1000u);
}

TEST_F(DepositFixture, PunishMovesBasisPoints) {
  ASSERT_TRUE(book.pledge(1, 1000).is_ok());
  EXPECT_EQ(book.punish(1, 100), 10u);  // 1%
  EXPECT_EQ(book.remaining(1), 990u);
  EXPECT_EQ(book.pool_balance(), 10u);
  // Punishing again slashes 1% of the *remaining* deposit.
  EXPECT_EQ(book.punish(1, 1000), 99u);
  EXPECT_EQ(book.remaining(1), 891u);
}

TEST_F(DepositFixture, ConfiscateTakesEverything) {
  ASSERT_TRUE(book.pledge(1, 700).is_ok());
  EXPECT_EQ(book.confiscate(1), 700u);
  EXPECT_EQ(book.remaining(1), 0u);
  EXPECT_EQ(book.pool_balance(), 700u);
  EXPECT_EQ(book.total_confiscated(), 700u);
  EXPECT_EQ(book.confiscate(1), 0u);  // idempotent
}

TEST_F(DepositFixture, RefundReturnsRemainder) {
  ASSERT_TRUE(book.pledge(1, 500).is_ok());
  book.punish(1, 1000);  // 10% -> 50 slashed
  EXPECT_EQ(book.refund(1), 450u);
  EXPECT_EQ(ledger.balance(owner), 950u);
  EXPECT_EQ(book.escrow_balance(), 0u);
}

TEST_F(DepositFixture, CompensationPaysFromPool) {
  ASSERT_TRUE(book.pledge(1, 500).is_ok());
  book.confiscate(1);
  EXPECT_EQ(book.compensate(client, 300), 300u);
  EXPECT_EQ(ledger.balance(client), 300u);
  EXPECT_EQ(book.pool_balance(), 200u);
  EXPECT_EQ(book.outstanding_liabilities(), 0u);
}

TEST_F(DepositFixture, ShortfallBecomesLiabilitySettledLater) {
  ASSERT_TRUE(book.pledge(1, 100).is_ok());
  ASSERT_TRUE(book.pledge(2, 400).is_ok());
  book.confiscate(1);  // pool = 100
  EXPECT_EQ(book.compensate(client, 250), 100u);
  EXPECT_EQ(book.outstanding_liabilities(), 150u);
  // The next confiscation settles the debt FIFO.
  book.confiscate(2);  // pool receives 400, pays 150 immediately
  EXPECT_EQ(book.outstanding_liabilities(), 0u);
  EXPECT_EQ(ledger.balance(client), 250u);
  EXPECT_EQ(book.pool_balance(), 250u);
  EXPECT_EQ(book.total_compensated(), 250u);
}

}  // namespace
}  // namespace fi::core
