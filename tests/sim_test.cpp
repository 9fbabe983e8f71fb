#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/net_model.h"
#include "util/binary_io.h"

namespace fi::sim {
namespace {

// ---------------------------------------------------------------------------
// NetModel — the serializable scenario-grade delivery substrate
// ---------------------------------------------------------------------------

/// Drains every message due at or before `now` in pop order.
std::vector<TransferMessage> drain_due(NetModel& model, Time now) {
  std::vector<TransferMessage> out;
  TransferMessage msg;
  while (model.pop_due(now, msg)) out.push_back(msg);
  return out;
}

TEST(NetModel, SameTimestampPopsInSendOrder) {
  // The (deliver_at, seq) tie-break: messages due at the same tick pop in
  // FIFO send order, exactly like the protocol pending list — delivery
  // order is state, so it must be canonical.
  NetConfig config;  // all-zero: every message due at its send time
  NetModel model(config, 7);
  for (std::uint64_t i = 0; i < 10; ++i) {
    model.send(5, 0, {.file = i, .to_sector = 0, .deadline = 100});
  }
  const auto delivered = drain_due(model, 5);
  ASSERT_EQ(delivered.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(delivered[i].file, i);
}

TEST(NetModel, ZeroConfigConsumesNoRandomness) {
  // The zero-latency special case must not touch the RNG: the loss draw
  // only happens when drop_probability > 0 and the jitter draw only when
  // jitter > 0. Two models — one never sending, one sending heavily —
  // must keep byte-identical serialized RNG state.
  NetConfig config;
  NetModel busy(config, 99);
  NetModel idle(config, 99);
  for (std::uint64_t i = 0; i < 100; ++i) {
    busy.send(i, 4096, {.file = i, .to_sector = i, .deadline = i + 10});
  }
  (void)drain_due(busy, 200);
  util::BinaryWriter busy_bytes;
  util::BinaryWriter idle_bytes;
  busy.save_state(busy_bytes);
  idle.save_state(idle_bytes);
  // Same RNG words at the head of both encodings.
  ASSERT_GE(busy_bytes.data().size(), 32u);
  EXPECT_TRUE(std::equal(busy_bytes.data().begin(),
                         busy_bytes.data().begin() + 32,
                         idle_bytes.data().begin()));
}

TEST(NetModel, SameSeedReproducesDeliverySequence) {
  const NetConfig config{.regions = 4,
                         .base_latency = 3,
                         .region_latency = 5,
                         .ticks_per_kib = 1,
                         .jitter = 6,
                         .drop_probability = 0.2};
  NetModel a(config, 1234);
  NetModel b(config, 1234);
  NetModel c(config, 4321);
  for (NetModel* m : {&a, &b, &c}) {
    for (std::uint64_t i = 0; i < 500; ++i) {
      m->send(i / 4, 1024 + 512 * (i % 3),
              {.file = i, .from_sector = i % 7, .to_sector = i % 11,
               .deadline = i / 4 + 30});
    }
  }
  util::BinaryWriter wa;
  util::BinaryWriter wb;
  util::BinaryWriter wc;
  a.save_state(wa);
  b.save_state(wb);
  c.save_state(wc);
  // Same seed: byte-identical state (same drops, same latencies, same
  // in-flight set). Different seed: a different trajectory.
  EXPECT_EQ(wa.data(), wb.data());
  EXPECT_NE(wa.data(), wc.data());
  EXPECT_EQ(a.sent(), 500u);
  EXPECT_EQ(a.dropped_loss(), b.dropped_loss());
  EXPECT_GT(a.dropped_loss(), 0u);
}

TEST(NetModel, PartitionKeepsIntraRegionLinks) {
  NetConfig config;
  config.regions = 2;
  NetModel model(config, 7);
  model.set_region_partitioned(1, true);
  // Intra-region traffic inside the partitioned region survives...
  model.send(0, 0, {.file = 1, .from_sector = 1, .to_sector = 3});
  // ...cross-region and backbone traffic into it is lost...
  model.send(0, 0, {.file = 2, .from_sector = 0, .to_sector = 3});
  model.send(0, 0,
             {.file = 3, .from_sector = kBackboneRegion, .to_sector = 3});
  // ...and traffic between unpartitioned endpoints is unaffected.
  model.send(0, 0,
             {.file = 4, .from_sector = kBackboneRegion, .to_sector = 2});
  const auto delivered = drain_due(model, 0);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].file, 1u);
  EXPECT_EQ(delivered[1].file, 4u);
  EXPECT_EQ(model.dropped_partition(), 2u);
}

TEST(NetModel, DownRegionLosesAllLinks) {
  NetConfig config;
  config.regions = 2;
  NetModel model(config, 7);
  model.set_region_down(1, true);
  model.send(0, 0, {.file = 1, .from_sector = 1, .to_sector = 3});  // intra
  model.send(0, 0, {.file = 2, .from_sector = 0, .to_sector = 3});  // cross
  EXPECT_TRUE(drain_due(model, 0).empty());
  EXPECT_EQ(model.dropped_down(), 2u);
}

TEST(NetModel, MidFlightPartitionDropsAtDelivery) {
  NetConfig config;
  config.regions = 2;
  config.base_latency = 10;
  NetModel model(config, 7);
  // Cross-region traffic (region 0 -> region 1), cut mid-flight. The
  // intra-region case survives a partition by design, so only a
  // border-crossing message can be lost at delivery time.
  model.send(0, 0, {.file = 1, .from_sector = 0, .to_sector = 3});
  model.set_region_partitioned(1, false);  // no-op, still up
  model.set_region_partitioned(1, true);   // cuts the link mid-flight
  EXPECT_TRUE(drain_due(model, 20).empty());
  EXPECT_EQ(model.dropped_partition(), 1u);
  EXPECT_EQ(model.in_flight(), 0u);
}

TEST(NetModel, SaveLoadRoundTripsInFlightMessages) {
  const NetConfig config{.regions = 3,
                         .base_latency = 4,
                         .region_latency = 7,
                         .ticks_per_kib = 2,
                         .jitter = 5,
                         .drop_probability = 0.1};
  NetModel original(config, 42);
  original.set_region_partitioned(2, true);
  for (std::uint64_t i = 0; i < 200; ++i) {
    original.send(i / 8, 2048,
                  {.file = i, .from_sector = i % 5, .to_sector = i % 9,
                   .deadline = i / 8 + 40});
  }
  (void)drain_due(original, 10);  // deliver a prefix, leave the rest in flight
  ASSERT_GT(original.in_flight(), 0u);

  util::BinaryWriter saved;
  original.save_state(saved);
  NetModel restored(config, 42);
  util::BinaryReader reader(saved.data());
  restored.load_state(reader);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader.exhausted());

  // The restored model must deliver the identical remaining sequence and
  // re-encode to the identical bytes afterwards.
  EXPECT_EQ(restored.in_flight(), original.in_flight());
  EXPECT_EQ(restored.next_delivery_time(), original.next_delivery_time());
  const auto rest_a = drain_due(original, 500);
  const auto rest_b = drain_due(restored, 500);
  ASSERT_EQ(rest_a.size(), rest_b.size());
  for (std::size_t i = 0; i < rest_a.size(); ++i) {
    EXPECT_EQ(rest_a[i].file, rest_b[i].file);
    EXPECT_EQ(rest_a[i].to_sector, rest_b[i].to_sector);
  }
  util::BinaryWriter end_a;
  util::BinaryWriter end_b;
  original.save_state(end_a);
  restored.save_state(end_b);
  EXPECT_EQ(end_a.data(), end_b.data());
}

TEST(NetModel, LoadRejectsBodiesSaveCannotProduce) {
  // One region and no latency: each message is due at its send tick, so
  // the three entries are (10, seq 0), (20, seq 1) and (20, seq 2).
  NetModel original(NetConfig{}, 5);
  original.send(10, 0, {.file = 1, .to_sector = 0, .deadline = 50});
  original.send(20, 0, {.file = 2, .to_sector = 0, .deadline = 50});
  original.send(20, 0, {.file = 3, .to_sector = 0, .deadline = 50});
  util::BinaryWriter saved;
  original.save_state(saved);
  const std::vector<std::uint8_t>& canonical = saved.data();

  // The RNG words and the two region flags, then the entry count; each
  // entry is deliver_at, seq, sent_at and the 44-byte message.
  constexpr std::size_t kFirst = 32 + 2 + 8;
  constexpr std::size_t kEntry = 68;
  constexpr std::size_t kSeq = 8;
  constexpr std::size_t kSentAt = 16;
  constexpr std::size_t kNextSeq = kFirst + 3 * kEntry;
  const auto swapped = [&](std::size_t a, std::size_t b) {
    std::vector<std::uint8_t> body = canonical;
    std::swap_ranges(body.begin() + kFirst + a * kEntry,
                     body.begin() + kFirst + (a + 1) * kEntry,
                     body.begin() + kFirst + b * kEntry);
    return body;
  };
  const auto edited = [&](std::size_t at, std::uint64_t value) {
    std::vector<std::uint8_t> body = canonical;
    for (std::size_t b = 0; b < 8; ++b) {
      body[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
    }
    return body;
  };
  const auto loads = [](const std::vector<std::uint8_t>& body) {
    NetModel model(NetConfig{}, 5);
    util::BinaryReader reader(body);
    model.load_state(reader);
    return reader.ok() && reader.exhausted();
  };

  ASSERT_EQ(edited(kFirst + 2 * kEntry + kSeq, 2), canonical);
  ASSERT_EQ(edited(kNextSeq, 3), canonical);
  // The counters follow the seq counter: sent (the three in flight), then
  // delivered (none yet).
  constexpr std::size_t kSent = kNextSeq + 8;
  ASSERT_EQ(edited(kSent, 3), canonical);
  ASSERT_EQ(edited(kSent + 8, 0), canonical);
  EXPECT_TRUE(loads(canonical));
  // A zero-latency message arrives at its send tick: sent_at == deliver_at.
  ASSERT_EQ(edited(kFirst + kSentAt, 10), canonical);

  const struct {
    const char* what;
    std::vector<std::uint8_t> body;
  } cases[] = {
      {"deliver_at decreases", swapped(0, 1)},
      {"seq decreases within a tick", swapped(1, 2)},
      {"duplicate (deliver_at, seq)", edited(kFirst + 2 * kEntry + kSeq, 1)},
      {"seq equal to next_seq", edited(kFirst + 2 * kEntry + kSeq, 3)},
      {"next_seq at a queued seq", edited(kNextSeq, 2)},
      {"sent after delivery", edited(kFirst + kSentAt, 11)},
      {"sent other than delivered + dropped + in flight",
       edited(kSent, 4)},
      {"delivered other than the regions' sum", edited(kSent + 8, 1)},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(loads(c.body)) << c.what;
  }
}

}  // namespace
}  // namespace fi::sim
