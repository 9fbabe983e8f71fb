// Layout-equivalence property tests for the SoA/arena hot-state tables
// and the two time-ordered queues.
//
// Node-based containers gave way to contiguous layouts: struct-of-arrays
// storage, swap-erase reverse indexes and time-bucketed queues:
//
//   * core::PendingList:  ordered multimap       -> util::TimeQueue buckets
//   * sim::NetModel:      (deliver_at, seq) map  -> util::TimeQueue buckets
//   * core::SectorTable:  record vector          -> per-field SoA + Fenwick
//   * core::AllocTable:   nested hash maps       -> slab + dense bucket vectors
//
// Everything observable about the old containers must survive: query
// results, iteration order (bucket order IS serialized), sampler draws,
// and the canonical save encoding. Each suite below drives the production
// table and an in-test reference oracle — written in the old container
// idiom — through the same randomized op sequence (3 seeds x 10^4 ops)
// and requires them to agree after every step, including across a
// save -> load -> save round trip.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/alloc_table.h"
#include "core/network.h"
#include "core/pending_list.h"
#include "core/sector.h"
#include "ledger/account.h"
#include "sim/net_model.h"
#include "util/binary_io.h"
#include "util/check.h"
#include "util/prng.h"

namespace fi {
namespace {

using core::AllocState;
using core::AllocTable;
using core::EntryKey;
using core::FileId;
using core::PendingList;
using core::ReplicaIndex;
using core::SectorId;
using core::SectorState;
using core::SectorTable;
using core::Task;
using core::TaskKind;
using util::Xoshiro256;

constexpr std::uint64_t kSeeds[] = {0xA11CE, 0xB0B, 0xC4A05};
constexpr std::size_t kOpsPerSeed = 10'000;

template <typename T>
std::vector<std::uint8_t> save_bytes(const T& table) {
  util::BinaryWriter writer;
  table.save(writer);
  return writer.data();
}

// ---------------------------------------------------------------------------
// PendingList vs the historical insertion-ordered multimap
// ---------------------------------------------------------------------------

/// Reference oracle in the old idiom: a multimap keyed by time. Equal keys
/// keep insertion order (guaranteed since C++11), which is exactly the
/// (time, insertion) order the queue must reproduce.
struct PendingOracle {
  std::multimap<Time, Task> items;

  void schedule(Time at, Task task) { items.emplace(at, task); }

  std::vector<std::pair<Time, Task>> pop_due(Time t) {
    std::vector<std::pair<Time, Task>> due;
    while (!items.empty() && items.begin()->first <= t) {
      due.emplace_back(items.begin()->first, items.begin()->second);
      items.erase(items.begin());
    }
    return due;
  }

  [[nodiscard]] Time next_time() const {
    return items.empty() ? kNoTime : items.begin()->first;
  }

  [[nodiscard]] std::vector<std::uint8_t> save_encoding() const {
    util::BinaryWriter writer;
    writer.u64(items.size());
    for (const auto& [at, task] : items) {
      writer.u64(at);
      writer.u8(static_cast<std::uint8_t>(task.kind));
      writer.u64(task.file);
      writer.u32(task.index);
    }
    return writer.data();
  }
};

void expect_task_eq(const Task& a, const Task& b, std::size_t step) {
  EXPECT_EQ(a.kind, b.kind) << "step " << step;
  EXPECT_EQ(a.file, b.file) << "step " << step;
  EXPECT_EQ(a.index, b.index) << "step " << step;
}

TEST(LayoutEquivalence, PendingListMatchesMultimapOracle) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Xoshiro256 rng(seed);
    PendingList pending;
    PendingOracle oracle;
    Time now = 0;

    for (std::size_t step = 0; step < kOpsPerSeed; ++step) {
      const std::uint64_t op = rng.uniform_below(10);
      if (op < 7) {
        Task task;
        task.kind = static_cast<TaskKind>(rng.uniform_below(4));
        task.file =
            rng.uniform_below(5) == 0 ? core::kNoFile : rng.uniform_below(100);
        task.index = static_cast<ReplicaIndex>(rng.uniform_below(8));
        // Equal timestamps are common on purpose: the tie-break order is
        // the property under test.
        const Time at = now + rng.uniform_below(64);
        pending.schedule(at, task);
        oracle.schedule(at, task);
      } else {
        now += rng.uniform_below(48);
        const auto got = pending.pop_due(now);
        const auto want = oracle.pop_due(now);
        ASSERT_EQ(got.size(), want.size()) << "step " << step;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].first, want[i].first) << "step " << step;
          expect_task_eq(got[i].second, want[i].second, step);
        }
      }
      ASSERT_EQ(pending.size(), oracle.items.size()) << "step " << step;
      ASSERT_EQ(pending.empty(), oracle.items.empty()) << "step " << step;
      ASSERT_EQ(pending.next_time(), oracle.next_time()) << "step " << step;

      if (step % 512 == 511) {
        // The canonical encoding is the multimap's iteration order.
        const auto encoded = save_bytes(pending);
        ASSERT_EQ(encoded, oracle.save_encoding()) << "step " << step;

        // Round trip, then CONTINUE on the loaded instance: load schedules
        // in wire order, and the rest of the op sequence proves that the
        // rebuilt buckets pop exactly as the originals would.
        PendingList loaded;
        util::BinaryReader reader(encoded);
        loaded.load(reader);
        ASSERT_TRUE(reader.ok() && reader.exhausted()) << "step " << step;
        ASSERT_EQ(save_bytes(loaded), encoded) << "step " << step;
        pending = std::move(loaded);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NetModel vs a (deliver_at, seq) map
// ---------------------------------------------------------------------------

/// Reference oracle in the old idiom: the in-flight set as a map keyed by
/// (deliver_at, seq), beside a copy of the model's send-time draws (same
/// seed, same draw order), region flags and counters. The map's iteration
/// order is the delivery order the model must reproduce, and its encoding.
struct NetOracle {
  struct Sent {
    Time sent_at = 0;
    sim::TransferMessage msg;
  };

  NetOracle(const sim::NetConfig& c, std::uint64_t seed)
      : config(c),
        rng(seed),
        partitioned(c.regions, 0),
        down(c.regions, 0),
        region_delivered(c.regions, 0),
        region_latency_sum(c.regions, 0),
        region_latency_max(c.regions, 0) {}

  sim::NetConfig config;
  Xoshiro256 rng;
  std::vector<std::uint8_t> partitioned;
  std::vector<std::uint8_t> down;
  std::map<std::pair<Time, std::uint64_t>, Sent> in_flight;
  std::uint64_t next_seq = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_late = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_down = 0;
  std::vector<std::uint64_t> region_delivered;
  std::vector<std::uint64_t> region_latency_sum;
  std::vector<std::uint64_t> region_latency_max;

  [[nodiscard]] std::uint64_t region_of(std::uint64_t sector) const {
    return sector == ~std::uint64_t{0} ? sim::kBackboneRegion
                                       : sector % config.regions;
  }

  /// The counter a message between `src` and `dst` is dropped into now, or
  /// null when the path is open.
  std::uint64_t* blocked(std::uint64_t src, std::uint64_t dst) {
    const auto flagged = [](const std::vector<std::uint8_t>& flags,
                            std::uint64_t region) {
      return region != sim::kBackboneRegion && flags[region] != 0;
    };
    if (flagged(down, src) || flagged(down, dst)) return &dropped_down;
    if (src != dst && (flagged(partitioned, src) || flagged(partitioned, dst))) {
      return &dropped_partition;
    }
    return nullptr;
  }

  void send(Time now, ByteCount bytes, const sim::TransferMessage& msg) {
    ++sent;
    const std::uint64_t src = region_of(msg.from_sector);
    const std::uint64_t dst = region_of(msg.to_sector);
    if (std::uint64_t* counter = blocked(src, dst)) {
      ++*counter;
      return;
    }
    if (config.drop_probability > 0.0 &&
        rng.uniform_double() < config.drop_probability) {
      ++dropped_loss;
      return;
    }
    Time latency = config.base_latency;
    if (src != dst) latency += config.region_latency;
    latency += config.ticks_per_kib * ((bytes + 1023) / 1024);
    if (config.jitter > 0) latency += rng.uniform_below(config.jitter + 1);
    in_flight.emplace(std::make_pair(now + latency, next_seq++),
                      Sent{now, msg});
  }

  bool pop_due(Time now, sim::TransferMessage& out) {
    while (!in_flight.empty() && in_flight.begin()->first.first <= now) {
      const Time at = in_flight.begin()->first.first;
      const Sent entry = in_flight.begin()->second;
      in_flight.erase(in_flight.begin());
      const std::uint64_t dst = region_of(entry.msg.to_sector);
      if (std::uint64_t* counter =
              blocked(region_of(entry.msg.from_sector), dst)) {
        ++*counter;
        continue;
      }
      ++delivered;
      if (at >= entry.msg.deadline) ++delivered_late;
      ++region_delivered[dst];
      region_latency_sum[dst] += at - entry.sent_at;
      region_latency_max[dst] =
          std::max(region_latency_max[dst], at - entry.sent_at);
      out = entry.msg;
      return true;
    }
    return false;
  }

  [[nodiscard]] Time next_delivery_time() const {
    return in_flight.empty() ? kNoTime : in_flight.begin()->first.first;
  }

  [[nodiscard]] std::vector<std::uint8_t> save_encoding() const {
    util::BinaryWriter writer;
    for (const std::uint64_t word : rng.state()) writer.u64(word);
    for (const std::uint8_t flag : partitioned) writer.u8(flag);
    for (const std::uint8_t flag : down) writer.u8(flag);
    writer.u64(in_flight.size());
    for (const auto& [key, entry] : in_flight) {
      writer.u64(key.first);
      writer.u64(key.second);
      writer.u64(entry.sent_at);
      writer.u64(entry.msg.file);
      writer.u32(entry.msg.index);
      writer.u64(entry.msg.from_sector);
      writer.u64(entry.msg.to_sector);
      writer.u64(entry.msg.client);
      writer.u64(entry.msg.deadline);
    }
    writer.u64(next_seq);
    for (const std::uint64_t v : {sent, delivered, delivered_late, dropped_loss,
                                  dropped_partition, dropped_down}) {
      writer.u64(v);
    }
    for (const std::uint64_t v : region_delivered) writer.u64(v);
    for (const std::uint64_t v : region_latency_sum) writer.u64(v);
    for (const std::uint64_t v : region_latency_max) writer.u64(v);
    return writer.data();
  }
};

void expect_message_eq(const sim::TransferMessage& a,
                       const sim::TransferMessage& b, std::size_t step) {
  EXPECT_EQ(a.file, b.file) << "step " << step;
  EXPECT_EQ(a.index, b.index) << "step " << step;
  EXPECT_EQ(a.from_sector, b.from_sector) << "step " << step;
  EXPECT_EQ(a.to_sector, b.to_sector) << "step " << step;
  EXPECT_EQ(a.client, b.client) << "step " << step;
  EXPECT_EQ(a.deadline, b.deadline) << "step " << step;
}

TEST(LayoutEquivalence, NetModelMatchesMultimapOracle) {
  // regional_latency's profile, and one with no base latency, where sends
  // land on the tick that is draining.
  const sim::NetConfig configs[] = {
      {.regions = 4,
       .base_latency = 2,
       .region_latency = 6,
       .ticks_per_kib = 1,
       .jitter = 4,
       .drop_probability = 0.02},
      {.regions = 3, .region_latency = 1, .jitter = 3},
  };
  for (const sim::NetConfig& config : configs) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " base latency "
                                      << config.base_latency);
      Xoshiro256 rng(seed);
      sim::NetModel model(config, seed + 1);
      NetOracle oracle(config, seed + 1);
      Time now = 0;
      std::uint64_t file = 0;

      for (std::size_t step = 0; step < kOpsPerSeed; ++step) {
        const std::uint64_t op = rng.uniform_below(16);
        if (op < 9) {
          sim::TransferMessage msg;
          msg.file = file++;
          msg.index = static_cast<std::uint32_t>(rng.uniform_below(8));
          msg.from_sector = rng.uniform_below(4) == 0 ? ~std::uint64_t{0}
                                                      : rng.uniform_below(32);
          msg.to_sector = rng.uniform_below(32);
          msg.client = rng.uniform_below(4);
          msg.deadline = now + rng.uniform_below(24);
          const ByteCount bytes = rng.uniform_below(4096);
          model.send(now, bytes, msg);
          oracle.send(now, bytes, msg);
        } else if (op < 15) {
          // Pop a few, not always all, so later sends meet a part-drained
          // tick.
          now += rng.uniform_below(4);
          const std::uint64_t pops = 1 + rng.uniform_below(8);
          for (std::uint64_t i = 0; i < pops; ++i) {
            sim::TransferMessage got;
            sim::TransferMessage want;
            const bool popped = model.pop_due(now, got);
            ASSERT_EQ(popped, oracle.pop_due(now, want)) << "step " << step;
            if (!popped) break;
            expect_message_eq(got, want, step);
          }
        } else {
          const std::uint64_t region = rng.uniform_below(config.regions);
          const bool on = rng.uniform_below(4) == 0;
          if (rng.uniform_below(2) == 0) {
            model.set_region_partitioned(region, on);
            oracle.partitioned[region] = on ? 1 : 0;
          } else {
            model.set_region_down(region, on);
            oracle.down[region] = on ? 1 : 0;
          }
        }
        ASSERT_EQ(model.in_flight(), oracle.in_flight.size()) << "step " << step;
        ASSERT_EQ(model.next_delivery_time(), oracle.next_delivery_time())
            << "step " << step;

        if (step % 512 == 511) {
          util::BinaryWriter writer;
          model.save_state(writer);
          const std::vector<std::uint8_t> encoded = writer.data();
          ASSERT_EQ(encoded, oracle.save_encoding()) << "step " << step;

          // Round trip, then continue on the loaded instance: it pushed the
          // in-flight set in wire order.
          sim::NetModel loaded(config, 0);
          util::BinaryReader reader(encoded);
          loaded.load_state(reader);
          ASSERT_TRUE(reader.ok() && reader.exhausted()) << "step " << step;
          util::BinaryWriter again;
          loaded.save_state(again);
          ASSERT_EQ(again.data(), encoded) << "step " << step;
          model = std::move(loaded);
        }
      }
      EXPECT_GT(oracle.delivered, kOpsPerSeed / 8);
      EXPECT_GT(oracle.dropped_partition + oracle.dropped_down, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// SectorTable vs a record-vector oracle with linear-scan sampling
// ---------------------------------------------------------------------------

/// SectorTable holds no reference counts (the allocation entries that name
/// a sector are its references), but each encoded row carries the count
/// its caller supplies. A made-up count per sector pins where it goes.
std::uint32_t made_up_references(SectorId id) {
  return static_cast<std::uint32_t>(7 * id + 3);
}

std::vector<std::uint8_t> sector_bytes(const SectorTable& table) {
  util::BinaryWriter writer;
  table.save(writer, made_up_references);
  return writer.data();
}

/// Reference oracle in the old idiom: one vector of full Sector records,
/// totals recomputed by scanning, and capacity-weighted sampling done by a
/// linear cumulative-weight walk. The Fenwick `find_by_prefix` returns the
/// smallest index whose cumulative weight exceeds the target, so both
/// sides consume one `uniform_below(total)` draw and must pick the same
/// sector.
struct SectorOracle {
  explicit SectorOracle(const core::Params& p) : params(p) {}

  const core::Params& params;
  std::vector<core::Sector> recs;

  [[nodiscard]] std::uint64_t weight(std::size_t i) const {
    return recs[i].state == SectorState::normal
               ? recs[i].capacity / params.min_capacity
               : 0;
  }
  [[nodiscard]] std::uint64_t total_weight() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < recs.size(); ++i) total += weight(i);
    return total;
  }
  [[nodiscard]] SectorId sample(Xoshiro256& rng) const {
    std::uint64_t target = rng.uniform_below(total_weight());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const std::uint64_t w = weight(i);
      if (target < w) return i;
      target -= w;
    }
    FI_CHECK_MSG(false, "sample walked past total weight");
    return core::kNoSector;
  }

  [[nodiscard]] ByteCount total_capacity(SectorState state) const {
    ByteCount total = 0;
    for (const core::Sector& s : recs) {
      if (s.state == state) total += s.capacity;
    }
    return total;
  }
  [[nodiscard]] std::uint64_t rentable_units() const {
    std::uint64_t units = 0;
    for (const core::Sector& s : recs) {
      if (s.state == SectorState::normal || s.state == SectorState::disabled) {
        units += s.capacity / params.min_capacity;
      }
    }
    return units;
  }

  [[nodiscard]] std::vector<std::uint8_t> save_encoding() const {
    util::BinaryWriter writer;
    writer.u64(recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const core::Sector& s = recs[i];
      writer.u64(i);
      writer.u64(s.owner);
      writer.u64(s.capacity);
      writer.u64(s.free_cap);
      writer.u8(static_cast<std::uint8_t>(s.state));
      writer.u64(s.registered_at);
      writer.u32(made_up_references(i));
      writer.u128(s.rent_acc_snapshot);
    }
    return writer.data();
  }
};

void expect_sector_eq(const core::Sector& got, const core::Sector& want,
                      std::size_t step) {
  EXPECT_EQ(got.id, want.id) << "step " << step;
  EXPECT_EQ(got.owner, want.owner) << "step " << step;
  EXPECT_EQ(got.capacity, want.capacity) << "step " << step;
  EXPECT_EQ(got.free_cap, want.free_cap) << "step " << step;
  EXPECT_EQ(got.state, want.state) << "step " << step;
  EXPECT_EQ(got.registered_at, want.registered_at) << "step " << step;
  EXPECT_EQ(static_cast<std::uint64_t>(got.rent_acc_snapshot),
            static_cast<std::uint64_t>(want.rent_acc_snapshot))
      << "step " << step;
}

TEST(LayoutEquivalence, SectorTableMatchesRecordVectorOracle) {
  core::Params params;
  params.min_capacity = 1024;

  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Xoshiro256 rng(seed);
    // Twin draw streams: the production Fenwick sampler and the oracle's
    // linear walk each consume exactly one uniform_below per draw, so
    // identically seeded generators must stay in lockstep.
    Xoshiro256 draw_a(seed ^ 0x5EC7), draw_b(seed ^ 0x5EC7);

    SectorTable table(params);
    SectorOracle oracle(params);
    Time now = 0;

    for (std::size_t step = 0; step < kOpsPerSeed; ++step) {
      const std::uint64_t op = rng.uniform_below(10);
      const std::size_t count = oracle.recs.size();
      const SectorId id = count == 0 ? 0 : rng.uniform_below(count);
      switch (op) {
        case 0:
        case 1: {
          const core::ProviderId owner = rng.uniform_below(16);
          // Occasionally invalid (not a min_capacity multiple) to pin the
          // rejection path too.
          const ByteCount capacity =
              rng.uniform_below(10) == 0
                  ? params.min_capacity + 1
                  : (1 + rng.uniform_below(8)) * params.min_capacity;
          const auto got = table.register_sector(owner, capacity, now);
          if (capacity % params.min_capacity == 0) {
            ASSERT_TRUE(got.is_ok()) << "step " << step;
            ASSERT_EQ(got.value(), oracle.recs.size()) << "step " << step;
            core::Sector s;
            s.id = got.value();
            s.owner = owner;
            s.capacity = capacity;
            s.free_cap = capacity;
            s.state = SectorState::normal;
            s.registered_at = now;
            oracle.recs.push_back(s);
          } else {
            ASSERT_FALSE(got.is_ok()) << "step " << step;
          }
          break;
        }
        case 2:
        case 3: {
          if (count == 0) break;
          core::Sector& rec = oracle.recs[id];
          const ByteCount size =
              rng.uniform_below(rec.capacity + params.min_capacity);
          const bool want_ok =
              rec.state == SectorState::normal && rec.free_cap >= size;
          ASSERT_EQ(table.reserve(id, size).is_ok(), want_ok)
              << "step " << step;
          if (want_ok) rec.free_cap -= size;
          break;
        }
        case 4: {
          if (count == 0) break;
          core::Sector& rec = oracle.recs[id];
          // Dead sectors ignore releases; live ones must never exceed
          // capacity, so the oracle bounds the size like real callers do.
          const ByteCount reserved = rec.capacity - rec.free_cap;
          const ByteCount size =
              reserved == 0 ? 0 : rng.uniform_below(reserved + 1);
          table.release(id, size);
          if (rec.state != SectorState::corrupted &&
              rec.state != SectorState::removed) {
            rec.free_cap += size;
          }
          break;
        }
        case 5: {
          if (count == 0) break;
          core::Sector& rec = oracle.recs[id];
          const bool want_ok = rec.state == SectorState::normal;
          ASSERT_EQ(table.disable(id).is_ok(), want_ok) << "step " << step;
          if (want_ok) rec.state = SectorState::disabled;
          break;
        }
        case 6: {
          if (count == 0) break;
          core::Sector& rec = oracle.recs[id];
          const bool want = rec.state != SectorState::corrupted &&
                            rec.state != SectorState::removed;
          ASSERT_EQ(table.mark_corrupted(id), want) << "step " << step;
          if (want) rec.state = SectorState::corrupted;
          break;
        }
        case 7: {
          if (count == 0) break;
          core::Sector& rec = oracle.recs[id];
          if (rec.state != SectorState::disabled) break;
          table.mark_removed(id);
          rec.state = SectorState::removed;
          break;
        }
        case 8: {
          if (count == 0) break;
          const core::RentAcc value =
              (static_cast<core::RentAcc>(rng()) << 64) | rng();
          table.set_rent_acc_snapshot(id, value);
          oracle.recs[id].rent_acc_snapshot = value;
          break;
        }
        default:
          now += rng.uniform_below(32);
          break;
      }

      // Per-step light checks: totals, the touched record, and one
      // capacity-weighted draw through each sampler.
      ASSERT_EQ(table.count(), oracle.recs.size()) << "step " << step;
      for (const SectorState state :
           {SectorState::normal, SectorState::disabled, SectorState::corrupted,
            SectorState::removed}) {
        ASSERT_EQ(table.total_capacity(state), oracle.total_capacity(state))
            << "step " << step;
      }
      ASSERT_EQ(table.rentable_units(), oracle.rentable_units())
          << "step " << step;
      if (!oracle.recs.empty()) {
        expect_sector_eq(table.at(id), oracle.recs[id], step);
      }
      if (oracle.total_weight() > 0) {
        const auto got = table.random_sector(draw_a);
        ASSERT_TRUE(got.is_ok()) << "step " << step;
        ASSERT_EQ(got.value(), oracle.sample(draw_b)) << "step " << step;
      } else {
        // No draw is consumed on failure, so the twin streams stay aligned.
        ASSERT_FALSE(table.random_sector(draw_a).is_ok()) << "step " << step;
      }

      if (step % 1024 == 1023) {
        for (std::size_t i = 0; i < oracle.recs.size(); ++i) {
          expect_sector_eq(table.at(i), oracle.recs[i], step);
        }
        const auto encoded = sector_bytes(table);
        ASSERT_EQ(encoded, oracle.save_encoding()) << "step " << step;

        // load() rebuilds the Fenwick weights and totals from the records
        // and hands back each row's reference count; the clone must
        // re-encode identically and sample identically.
        SectorTable loaded(params);
        util::BinaryReader reader(encoded);
        std::vector<std::uint32_t> references;
        loaded.load(reader, references);
        ASSERT_TRUE(reader.ok() && reader.exhausted()) << "step " << step;
        ASSERT_EQ(references.size(), oracle.recs.size()) << "step " << step;
        for (SectorId i = 0; i < references.size(); ++i) {
          ASSERT_EQ(references[i], made_up_references(i)) << "step " << step;
        }
        ASSERT_EQ(sector_bytes(loaded), encoded) << "step " << step;
        if (oracle.total_weight() > 0) {
          Xoshiro256 clone_a(seed + step), clone_b(seed + step);
          for (int d = 0; d < 8; ++d) {
            ASSERT_EQ(table.random_sector(clone_a).value(),
                      loaded.random_sector(clone_b).value())
                << "step " << step;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AllocTable vs a map-of-vectors oracle with linear-search swap-erase
// ---------------------------------------------------------------------------

/// Width of the band the oracle draws file ids from; the band's first id
/// moves up by one every `kIdDrift` steps.
constexpr FileId kFileUniverse = 48;
constexpr std::size_t kIdDrift = 8;
constexpr SectorId kSectorUniverse = 32;

/// Reference oracle in the old idiom: ordered maps of per-file rows and
/// entry vectors plus explicit reverse-index buckets and a normal-entry
/// sampler array. Bucket and sampler order are OBSERVABLE (both are
/// serialized, and the sampler indexes draws by position), so the oracle
/// reproduces the production discipline — append on add, swap-erase on
/// remove — with the position found by linear search, which is unique per
/// bucket.
struct AllocOracle {
  struct Entry {
    SectorId prev = core::kNoSector;
    SectorId next = core::kNoSector;
    Time last = kNoTime;
    AllocState state = AllocState::alloc;
    /// The upload fee is escrowed until the upload is confirmed or fails.
    [[nodiscard]] bool escrowed() const {
      return prev == core::kNoSector && state == AllocState::alloc;
    }
  };

  std::map<FileId, core::FileRow> rows;
  std::map<FileId, std::vector<Entry>> files;
  std::vector<std::vector<EntryKey>> by_prev;
  std::vector<std::vector<EntryKey>> by_next;
  std::vector<EntryKey> normal_entries;

  static void bucket_add(std::vector<std::vector<EntryKey>>& buckets,
                         SectorId sector, EntryKey key) {
    if (sector >= buckets.size()) buckets.resize(sector + 1);
    buckets[sector].push_back(key);
  }
  static void swap_erase(std::vector<EntryKey>& items, EntryKey key) {
    const auto it = std::find(items.begin(), items.end(), key);
    FI_CHECK_MSG(it != items.end(), "oracle bucket missing entry");
    *it = items.back();
    items.pop_back();
  }

  void create_file(FileId file, const core::FileRow& row) {
    rows.emplace(file, row);
    files.emplace(file, std::vector<Entry>(row.desc.cp));
  }
  void remove_file(FileId file) {
    const std::vector<Entry>& entries = files.at(file);
    for (std::size_t idx = 0; idx < entries.size(); ++idx) {
      const EntryKey key{file, static_cast<ReplicaIndex>(idx)};
      if (entries[idx].prev != core::kNoSector) {
        swap_erase(by_prev[entries[idx].prev], key);
      }
      if (entries[idx].next != core::kNoSector) {
        swap_erase(by_next[entries[idx].next], key);
      }
      if (entries[idx].state == AllocState::normal) {
        swap_erase(normal_entries, key);
      }
    }
    files.erase(file);
    rows.erase(file);
  }
  void set_link(FileId file, ReplicaIndex idx, SectorId sector, bool is_prev) {
    Entry& e = files.at(file)[idx];
    SectorId& link = is_prev ? e.prev : e.next;
    auto& buckets = is_prev ? by_prev : by_next;
    const EntryKey key{file, idx};
    if (link != core::kNoSector) swap_erase(buckets[link], key);
    link = sector;
    if (sector != core::kNoSector) bucket_add(buckets, sector, key);
  }
  void set_state(FileId file, ReplicaIndex idx, AllocState state) {
    Entry& e = files.at(file)[idx];
    const EntryKey key{file, idx};
    if (e.state == AllocState::normal && state != AllocState::normal) {
      swap_erase(normal_entries, key);
    } else if (e.state != AllocState::normal && state == AllocState::normal) {
      normal_entries.push_back(key);
    }
    e.state = state;
  }

  [[nodiscard]] std::vector<EntryKey> with(
      const std::vector<std::vector<EntryKey>>& buckets,
      SectorId sector) const {
    if (sector >= buckets.size()) return {};
    return buckets[sector];
  }

  [[nodiscard]] std::vector<std::uint8_t> save_encoding() const {
    util::BinaryWriter writer;
    writer.u64(files.size());
    for (const auto& [file, entries] : files) {
      writer.u64(file);
      writer.u32(static_cast<std::uint32_t>(entries.size()));
      for (const Entry& e : entries) {
        writer.u64(e.prev);
        writer.u64(e.next);
        writer.u64(e.last);
        writer.u8(static_cast<std::uint8_t>(e.state));
        writer.raw(std::array<std::uint8_t, 32>{});  // reserved, always zero
      }
    }
    const auto save_index =
        [&writer](const std::vector<std::vector<EntryKey>>& buckets) {
          std::uint64_t non_empty = 0;
          for (const auto& items : buckets) {
            if (!items.empty()) ++non_empty;
          }
          writer.u64(non_empty);
          for (SectorId sector = 0; sector < buckets.size(); ++sector) {
            if (buckets[sector].empty()) continue;
            writer.u64(sector);
            writer.u64(buckets[sector].size());
            for (const EntryKey& key : buckets[sector]) {
              writer.u64(key.first);
              writer.u32(key.second);
            }
          }
        };
    save_index(by_prev);
    save_index(by_next);
    writer.u64(normal_entries.size());
    for (const EntryKey& key : normal_entries) {
      writer.u64(key.first);
      writer.u32(key.second);
    }
    return writer.data();
  }

  /// The files component: each row, then one escrow flag per replica, as
  /// the entry implies it.
  [[nodiscard]] std::vector<std::uint8_t> save_files_encoding() const {
    util::BinaryWriter writer;
    writer.u64(rows.size());
    for (const auto& [file, row] : rows) {
      writer.u64(file);
      writer.u64(row.desc.size);
      writer.u64(row.desc.value);
      writer.raw(row.desc.merkle_root.bytes);
      writer.u32(row.desc.cp);
      writer.i64(row.desc.cntdown);
      writer.u8(static_cast<std::uint8_t>(row.desc.state));
      writer.u64(row.owner);
      writer.u64(row.added_at);
      const std::vector<Entry>& entries = files.at(file);
      writer.u64(entries.size());
      for (const Entry& e : entries) writer.boolean(e.escrowed());
    }
    return writer.data();
  }
};

/// A row with every field drawn from `rng` (size positive, as File_Add
/// requires) and `cp` replicas.
core::FileRow random_row(Xoshiro256& rng, std::uint32_t cp) {
  core::FileRow row;
  row.desc.size = 1 + rng.uniform_below(1 << 20);
  row.desc.value = rng.uniform_below(1 << 16);
  for (std::uint8_t& byte : row.desc.merkle_root.bytes) {
    byte = static_cast<std::uint8_t>(rng.uniform_below(256));
  }
  row.desc.cp = cp;
  row.desc.cntdown = static_cast<std::int64_t>(rng.uniform_below(64)) - 1;
  row.desc.state = static_cast<core::FileState>(rng.uniform_below(2));
  row.owner = rng.uniform_below(16);
  row.added_at = rng.uniform_below(1 << 20);
  return row;
}

void expect_row_eq(const core::FileRow& got, const core::FileRow& want,
                   std::size_t step) {
  ASSERT_EQ(got.desc.size, want.desc.size) << "step " << step;
  ASSERT_EQ(got.desc.value, want.desc.value) << "step " << step;
  ASSERT_EQ(got.desc.merkle_root, want.desc.merkle_root) << "step " << step;
  ASSERT_EQ(got.desc.cp, want.desc.cp) << "step " << step;
  ASSERT_EQ(got.desc.cntdown, want.desc.cntdown) << "step " << step;
  ASSERT_EQ(got.desc.state, want.desc.state) << "step " << step;
  ASSERT_EQ(got.owner, want.owner) << "step " << step;
  ASSERT_EQ(got.added_at, want.added_at) << "step " << step;
}

std::vector<std::uint8_t> files_bytes(const AllocTable& table) {
  util::BinaryWriter writer;
  table.save_files(writer);
  return writer.data();
}

TEST(LayoutEquivalence, AllocTableMatchesMapOracle) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Xoshiro256 rng(seed);
    Xoshiro256 draw_a(seed ^ 0xA110C), draw_b(seed ^ 0xA110C);

    AllocTable table;
    AllocOracle oracle;

    // Picks an existing file; map iteration order is deterministic, so
    // both sides see the same choice.
    const auto pick_file = [&oracle](Xoshiro256& r) {
      auto it = oracle.files.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           r.uniform_below(oracle.files.size())));
      return it->first;
    };
    const auto pick_replica = [&oracle](FileId file, Xoshiro256& r) {
      return static_cast<ReplicaIndex>(
          r.uniform_below(oracle.files.at(file).size()));
    };

    // The id window grows at the front when an id below it arrives, and
    // drops its dead prefix once that is half its length. `observe` counts
    // both after each create or remove; a window that starts on an empty
    // table or empties is neither.
    std::size_t front_extensions = 0;
    std::size_t trims = 0;
    FileId window_first = 0;
    bool was_empty = true;
    const auto observe = [&] {
      const bool empty = table.window_size() == 0;
      if (!was_empty && !empty) {
        if (table.window_first() < window_first) ++front_extensions;
        if (table.window_first() > window_first) ++trims;
      }
      window_first = table.window_first();
      was_empty = empty;
    };

    for (std::size_t step = 0; step < kOpsPerSeed; ++step) {
      // The band drifts up as File_Add's ids do, and a file that falls
      // below it leaves, so the window's front empties behind it.
      const FileId band = 1 + step / kIdDrift;
      while (!oracle.files.empty() && oracle.files.begin()->first < band) {
        const FileId old = oracle.files.begin()->first;
        table.remove_file(old);
        oracle.remove_file(old);
        observe();
      }
      const std::uint64_t op = rng.uniform_below(16);
      if (op < 3) {
        // Create/remove churn through a small id band hands free rows and
        // their slot runs to later files of the same count, under the same
        // observable order. Ids start at 1, as File_Add's do, and land
        // anywhere in the band, so some fall below the window.
        const FileId file = band + rng.uniform_below(kFileUniverse - 1);
        if (!oracle.files.contains(file)) {
          const auto cp = static_cast<std::uint32_t>(1 + rng.uniform_below(4));
          const core::FileRow row = random_row(rng, cp);
          const AllocTable::FileView created = table.create_file(file, cp);
          ASSERT_EQ(created.id(), file) << "step " << step;
          ASSERT_EQ(created.size(), cp) << "step " << step;
          created.row() = row;
          oracle.create_file(file, row);
        } else {
          table.remove_file(file);
          oracle.remove_file(file);
        }
        observe();
      } else if (!oracle.files.empty()) {
        const FileId file = pick_file(rng);
        const ReplicaIndex idx = pick_replica(file, rng);
        // Every write goes through the one-lookup view, the table's only
        // write path.
        const AllocTable::FileView view = table.find(file);
        ASSERT_TRUE(view) << "step " << step;
        ASSERT_EQ(view.id(), file) << "step " << step;
        switch (op % 4) {
          case 0:
          case 1: {
            const bool is_prev = op % 2 == 0;
            const SectorId sector = rng.uniform_below(4) == 0
                                        ? core::kNoSector
                                        : rng.uniform_below(kSectorUniverse);
            if (is_prev) {
              view.set_prev(idx, sector);
            } else {
              view.set_next(idx, sector);
            }
            oracle.set_link(file, idx, sector, is_prev);
            break;
          }
          case 2: {
            const auto state = static_cast<AllocState>(rng.uniform_below(4));
            view.set_state(idx, state);
            oracle.set_state(file, idx, state);
            break;
          }
          default: {
            // The row's mutable fields and `last`.
            if (rng.uniform_below(2) == 0) {
              core::FileRow& want = oracle.rows.at(file);
              want.desc.cntdown =
                  static_cast<std::int64_t>(rng.uniform_below(64)) - 1;
              view.row().desc.cntdown = want.desc.cntdown;
            } else {
              const Time last = rng.uniform_below(1 << 20);
              view.set_last(idx, last);
              oracle.files.at(file)[idx].last = last;
            }
            break;
          }
        }
        // Light check: the touched file's row and entries, field for
        // field, through both the per-entry accessors and the view.
        const auto& entries = oracle.files.at(file);
        ASSERT_EQ(table.replica_count(file), entries.size())
            << "step " << step;
        expect_row_eq(table.row(file), oracle.rows.at(file), step);
        ASSERT_EQ(view.size(), entries.size()) << "step " << step;
        for (ReplicaIndex i = 0; i < entries.size(); ++i) {
          const core::AllocEntry got = table.entry(file, i);
          ASSERT_EQ(got.prev, entries[i].prev) << "step " << step;
          ASSERT_EQ(got.next, entries[i].next) << "step " << step;
          ASSERT_EQ(got.last, entries[i].last) << "step " << step;
          ASSERT_EQ(got.state, entries[i].state) << "step " << step;
          const core::AllocEntry seen = view.entry(i);
          ASSERT_EQ(seen.prev, got.prev) << "step " << step;
          ASSERT_EQ(seen.next, got.next) << "step " << step;
          ASSERT_EQ(seen.last, got.last) << "step " << step;
          ASSERT_EQ(seen.state, got.state) << "step " << step;
          ASSERT_EQ(view.escrowed(i), entries[i].escrowed())
              << "step " << step;
        }
      }

      ASSERT_EQ(table.file_count(), oracle.files.size()) << "step " << step;
      ASSERT_EQ(table.normal_entry_count(), oracle.normal_entries.size())
          << "step " << step;
      if (oracle.files.empty()) {
        ASSERT_EQ(table.window_size(), 0u) << "step " << step;
      } else {
        // The window holds every live id, and less than half of it is the
        // dead prefix before the oldest.
        const FileId first = table.window_first();
        const FileId oldest = oracle.files.begin()->first;
        ASSERT_LE(first, oldest) << "step " << step;
        ASSERT_LT(oracle.files.rbegin()->first - first, table.window_size())
            << "step " << step;
        ASSERT_LT(2 * (oldest - first), table.window_size())
            << "step " << step;
      }

      // Sampler draw: `uniform_below(size)` indexes the dense array, so
      // the draw pins the sampler's exact element order, not just its
      // membership.
      if (!oracle.normal_entries.empty()) {
        const auto got = table.random_normal_entry(draw_a);
        ASSERT_TRUE(got.has_value()) << "step " << step;
        ASSERT_EQ(*got,
                  oracle.normal_entries[draw_b.uniform_below(
                      oracle.normal_entries.size())])
            << "step " << step;
      } else {
        ASSERT_FALSE(table.random_normal_entry(draw_a).has_value())
            << "step " << step;
      }

      if (step % 512 == 511) {
        for (FileId file = band > kFileUniverse ? band - kFileUniverse : 0;
             file < band + kFileUniverse; ++file) {
          ASSERT_EQ(table.has_file(file), oracle.files.contains(file))
              << "step " << step;
          ASSERT_EQ(static_cast<bool>(table.find(file)),
                    oracle.files.contains(file))
              << "step " << step;
        }
        // Reverse-index iteration order, bucket by bucket.
        for (SectorId sector = 0; sector < kSectorUniverse; ++sector) {
          ASSERT_EQ(table.entries_with_prev(sector),
                    oracle.with(oracle.by_prev, sector))
              << "step " << step << " sector " << sector;
          ASSERT_EQ(table.entries_with_next(sector),
                    oracle.with(oracle.by_next, sector))
              << "step " << step << " sector " << sector;
          ASSERT_EQ(table.count_with_prev(sector),
                    oracle.with(oracle.by_prev, sector).size())
              << "step " << step;
          ASSERT_EQ(table.count_with_next(sector),
                    oracle.with(oracle.by_next, sector).size())
              << "step " << step;
        }

        const auto encoded = save_bytes(table);
        ASSERT_EQ(encoded, oracle.save_encoding()) << "step " << step;
        const auto encoded_files = files_bytes(table);
        ASSERT_EQ(encoded_files, oracle.save_files_encoding())
            << "step " << step;

        // The loaded clone repacks the slab dense in file-id order — a
        // different physical layout that must re-encode and sample
        // identically, and that the later ops then run on, so a slot that
        // load failed to refill in an index item breaks a swap-erase.
        AllocTable loaded;
        util::BinaryReader reader(encoded);
        loaded.load(reader, kSectorUniverse,
                    /*next_file_id=*/band + kFileUniverse,
                    /*body_bytes=*/encoded.size());
        ASSERT_TRUE(reader.ok() && reader.exhausted()) << "step " << step;
        util::BinaryReader files_reader(encoded_files);
        loaded.load_files(files_reader);
        ASSERT_TRUE(files_reader.ok() && files_reader.exhausted())
            << "step " << step;
        ASSERT_EQ(save_bytes(loaded), encoded) << "step " << step;
        ASSERT_EQ(files_bytes(loaded), encoded_files) << "step " << step;
        if (!oracle.normal_entries.empty()) {
          Xoshiro256 clone_a(seed + step), clone_b(seed + step);
          for (int d = 0; d < 8; ++d) {
            ASSERT_EQ(table.random_normal_entry(clone_a),
                      loaded.random_normal_entry(clone_b))
                << "step " << step;
          }
        }
        table = std::move(loaded);
        window_first = table.window_first();  // load starts at the oldest
      }
    }
    EXPECT_GT(front_extensions, 0u);
    EXPECT_GT(trims, 0u);
  }
}

// ---------------------------------------------------------------------------
// Network level: the composed tables under real protocol traffic
// ---------------------------------------------------------------------------

/// Randomized protocol ops on a live engine, then the end-to-end layout
/// property: the canonical encoding round-trips byte-identically and the
/// restored engine's samplers draw in lockstep with the original — the
/// table-level guarantees composed through Network's own call sites.
TEST(NetworkLayoutEquivalence, RandomizedOpsRoundTripByteIdentical) {
  core::Params params;
  params.min_capacity = 1024;
  params.min_value = 10;
  params.k = 2;
  params.cap_para = 10.0;
  params.gamma_deposit = 0.5;
  params.proof_cycle = 100;
  params.proof_due = 150;
  params.proof_deadline = 300;
  params.avg_refresh = 1000.0;

  ledger::Ledger ledger;
  constexpr std::uint64_t kEngineSeed = 11;
  core::Network net(params, ledger, kEngineSeed);
  const core::ClientId client = ledger.create_account(10'000'000);
  std::vector<core::ProviderId> providers;
  for (int i = 0; i < 4; ++i) providers.push_back(ledger.create_account(1'000'000));

  const auto confirm_all = [&net](FileId file) {
    for (ReplicaIndex i = 0; i < net.allocations().replica_count(file); ++i) {
      const core::AllocEntry e = net.allocations().entry(file, i);
      if (e.state != AllocState::alloc || e.next == core::kNoSector) continue;
      const core::ProviderId owner = net.sectors().at(e.next).owner;
      ASSERT_TRUE(net.file_confirm(owner, file, i, e.next).is_ok());
    }
  };

  Xoshiro256 rng(0xFEED);
  std::vector<FileId> known_files;
  std::optional<SectorId> phys_corrupted;
  for (int step = 0; step < 400; ++step) {
    const std::size_t sectors = net.sectors().count();
    switch (rng.uniform_below(10)) {
      case 0:
      case 1:
        (void)net.sector_register(
            providers[rng.uniform_below(providers.size())],
            (4 + rng.uniform_below(4)) * params.min_capacity);
        break;
      case 2:
      case 3: {
        const auto file = net.file_add(client, {1000, 20, {}});
        if (file.is_ok()) known_files.push_back(file.value());
        break;
      }
      case 4:
        if (!known_files.empty()) {
          const FileId file =
              known_files[rng.uniform_below(known_files.size())];
          if (net.file_exists(file)) confirm_all(file);
        }
        break;
      case 5:
        net.advance(1 + rng.uniform_below(2 * params.proof_cycle));
        break;
      case 6:
        if (sectors > 0 && !phys_corrupted) {
          const SectorId id = rng.uniform_below(sectors);
          net.corrupt_sector_physical(id);
          phys_corrupted = id;
        }
        break;
      case 7:
        if (phys_corrupted) {
          net.restore_sector_physical(*phys_corrupted);
          phys_corrupted.reset();
        }
        break;
      case 8:
        net.settle_all_rent();
        break;
      default:
        if (!known_files.empty()) {
          const FileId file =
              known_files[rng.uniform_below(known_files.size())];
          if (net.file_exists(file)) {
            std::vector<SectorId> holders;
            ASSERT_TRUE(net.file_get(client, file, holders).is_ok());
          }
        }
        break;
    }
  }

  // Deterministic tail: the random mix may have corrupted or discarded its
  // way to an empty sampler, so pin live normal replicas at save time.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        net.sector_register(providers[0], 8 * params.min_capacity).is_ok());
  }
  const auto tail_file = net.file_add(client, {1000, 20, {}});
  ASSERT_TRUE(tail_file.is_ok());
  confirm_all(tail_file.value());
  net.advance(params.transfer_window(1000));
  ASSERT_TRUE(net.file_exists(tail_file.value()));

  // Non-vacuity: the op mix above must leave real state behind, or the
  // round-trip and twin-draw checks below check nothing.
  ASSERT_GT(net.sectors().count(), 0u);
  ASSERT_GT(net.allocations().file_count(), 0u);
  ASSERT_GT(net.allocations().normal_entry_count(), 0u);

  // Canonical encoding of engine + ledger.
  util::BinaryWriter net_writer, ledger_writer;
  net.save(net_writer);
  ledger.save(ledger_writer);

  // Restore into a twin and require byte-identical re-encodings. The twin
  // engine is constructed first (so its system accounts claim the same
  // ledger ids as the original's construction did), then the ledger load
  // replaces every balance, then the engine load restores the state.
  ledger::Ledger ledger2;
  core::Network net2(params, ledger2, kEngineSeed);
  util::BinaryReader ledger_reader(ledger_writer.data());
  ledger2.load(ledger_reader);
  ASSERT_TRUE(ledger_reader.ok());
  util::BinaryReader net_reader(net_writer.data());
  const util::Status loaded = net2.load(net_reader);
  ASSERT_TRUE(loaded.is_ok()) << loaded.to_string();

  util::BinaryWriter net_writer2, ledger_writer2;
  net2.save(net_writer2);
  ledger2.save(ledger_writer2);
  EXPECT_EQ(net_writer.data(), net_writer2.data());
  EXPECT_EQ(ledger_writer.data(), ledger_writer2.data());

  // Twin sampler draws: load rebuilt the Fenwick weights and repacked the
  // allocation slab, but the observable draw sequences must be unchanged.
  Xoshiro256 alloc_a(21), alloc_b(21), sector_a(22), sector_b(22);
  for (int d = 0; d < 16; ++d) {
    EXPECT_EQ(net.allocations().random_normal_entry(alloc_a),
              net2.allocations().random_normal_entry(alloc_b));
    const auto got_a = net.sectors().random_sector(sector_a);
    const auto got_b = net2.sectors().random_sector(sector_b);
    ASSERT_EQ(got_a.is_ok(), got_b.is_ok());
    if (got_a.is_ok()) {
      EXPECT_EQ(got_a.value(), got_b.value());
    }
  }
}

}  // namespace
}  // namespace fi
