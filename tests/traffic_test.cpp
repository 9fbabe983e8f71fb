// Retrieval-traffic engine: traffic.* spec parsing/rejection/round-trips,
// the Poisson-envelope defense (honest streams never flagged across
// seeds, a DDoS gang flagged within a bounded number of epochs, no
// defense-off flags), the retrieval market's asks and settlement (§III-E),
// QoS behavior under flash crowds and serve-refusal cartels, snapshot
// round-trips of every piece of new traffic/defense/market state, and the
// loaders' rejection of market rows, cache rows and totals save_state
// cannot write.

#include <algorithm>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/spec.h"
#include "core/network.h"
#include "ledger/account.h"
#include "scenario/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "snapshot/snapshot.h"
#include "traffic/defense.h"
#include "traffic/engine.h"
#include "traffic/spec.h"
#include "util/binary_io.h"
#include "util/config.h"

namespace {

using fi::adversary::AdversarySpec;
using fi::scenario::MetricsReport;
using fi::scenario::PhaseSpec;
using fi::scenario::ScenarioRunner;
using fi::scenario::ScenarioSpec;
using fi::traffic::kNeverFlagged;
using fi::traffic::PoissonEnvelopeDefense;
using fi::traffic::TrafficEngine;
using fi::traffic::TrafficSpec;
using fi::util::BinaryReader;
using fi::util::BinaryWriter;
using fi::util::Config;

// ---- Spec parsing ----------------------------------------------------------

TEST(TrafficSpecTest, AbsentBlockStaysDisabledAndSerializesNothing) {
  const auto config = Config::parse("");
  ASSERT_TRUE(config.is_ok());
  const auto spec = TrafficSpec::from_config(config.value());
  ASSERT_TRUE(spec.is_ok());
  EXPECT_FALSE(spec.value().enabled);
  std::string out;
  spec.value().serialize(out);
  EXPECT_TRUE(out.empty());
}

TEST(TrafficSpecTest, ConfigRoundTripIsLossless) {
  const std::string text =
      "traffic.requests_per_cycle = 120\n"
      "traffic.streams = 6\n"
      "traffic.zipf_s = 1.1\n"
      "traffic.diurnal_period = 8\n"
      "traffic.diurnal_amplitude = 0.5\n"
      "traffic.flash_epoch = 4\n"
      "traffic.flash_duration = 3\n"
      "traffic.flash_multiplier = 7\n"
      "traffic.flash_focus = 0.85\n"
      "traffic.provider_capacity = 16\n"
      "traffic.queue_limit = 64\n"
      "traffic.cache_blocks = 128\n"
      "traffic.price_per_kib = 2\n"
      "traffic.defense.enabled = true\n"
      "traffic.defense.warmup = 3\n"
      "traffic.defense.k = 3.5\n"
      "traffic.defense.violations = 2\n"
      "traffic.defense.surge = 6\n"
      "traffic.defense.rate_limit = false\n";
  const auto config = Config::parse(text);
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  const auto parsed = TrafficSpec::from_config(config.value());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const TrafficSpec& spec = parsed.value();
  EXPECT_TRUE(spec.enabled);
  EXPECT_EQ(spec.requests_per_cycle, 120u);
  EXPECT_EQ(spec.streams, 6u);
  EXPECT_DOUBLE_EQ(spec.zipf_s, 1.1);
  EXPECT_EQ(spec.flash_multiplier, 7u);
  EXPECT_TRUE(spec.defense_enabled);
  EXPECT_FALSE(spec.defense_rate_limit);
  EXPECT_TRUE(spec.validate().is_ok());

  std::string out;
  spec.serialize(out);
  EXPECT_EQ(out, text);
}

TEST(TrafficSpecTest, ValidateRejectsInconsistentBlocks) {
  const auto expect_invalid = [](TrafficSpec spec) {
    spec.enabled = true;
    if (spec.requests_per_cycle == 0) spec.requests_per_cycle = 10;
    EXPECT_FALSE(spec.validate().is_ok());
  };
  {
    TrafficSpec spec;
    spec.streams = 0;
    expect_invalid(spec);
  }
  {
    TrafficSpec spec;
    spec.zipf_s = 0.0;
    expect_invalid(spec);
  }
  {
    TrafficSpec spec;
    spec.diurnal_amplitude = 0.5;  // no period
    expect_invalid(spec);
  }
  {
    TrafficSpec spec;
    spec.diurnal_period = 4;  // no amplitude
    expect_invalid(spec);
  }
  {
    TrafficSpec spec;
    spec.flash_multiplier = 10;  // flash knob without a flash window
    expect_invalid(spec);
  }
  {
    TrafficSpec spec;
    spec.flash_duration = 2;
    spec.flash_multiplier = 1;  // a multiplier of 1 is no flash at all
    expect_invalid(spec);
  }
  {
    TrafficSpec spec;
    spec.defense_surge = 9;  // defense knob without defense.enabled
    expect_invalid(spec);
  }
  {
    TrafficSpec spec;  // the odd-sector ask tier would pass u64
    spec.price_per_kib = std::numeric_limits<std::uint64_t>::max();
    expect_invalid(spec);
  }
  {
    TrafficSpec spec;
    spec.defense_enabled = true;
    spec.defense_warmup = 0;
    expect_invalid(spec);
  }
  {
    // Knobs off their defaults while the block itself is disabled.
    TrafficSpec spec;
    spec.streams = 5;
    EXPECT_FALSE(spec.validate().is_ok());
  }
}

TEST(TrafficSpecTest, TrafficAdversariesRequireTheTrafficEngine) {
  ScenarioSpec spec;
  spec.sectors = 10;
  spec.initial_files = 10;
  spec.phases.push_back(PhaseSpec::make_idle(2));
  spec.adversaries.push_back(AdversarySpec::make_retrieval_ddos(10, 2, 1));
  EXPECT_FALSE(spec.validate().is_ok());
  spec.traffic.enabled = true;
  spec.traffic.requests_per_cycle = 10;
  EXPECT_TRUE(spec.validate().is_ok());

  spec.adversaries.back() = AdversarySpec::make_cartel_starver(0.2);
  EXPECT_TRUE(spec.validate().is_ok());
  spec.traffic = TrafficSpec{};
  EXPECT_FALSE(spec.validate().is_ok());
}

// ---- Defense unit behavior -------------------------------------------------

TEST(PoissonEnvelopeDefenseTest, FlagsOnlyPersistentEnvelopeBreakers) {
  // 4 streams at ~10/epoch, one attacker at 60/epoch from epoch 3.
  PoissonEnvelopeDefense defense(/*streams=*/5, /*warmup=*/3, /*k=*/4.0,
                                 /*violations=*/2);
  for (std::uint64_t epoch = 0; epoch < 8; ++epoch) {
    for (std::size_t stream = 0; stream < 4; ++stream) {
      for (int r = 0; r < 10; ++r) defense.observe(stream);
    }
    const int attack = epoch >= 3 ? 60 : 10;
    for (int r = 0; r < attack; ++r) defense.observe(4);
    defense.end_epoch(epoch);
  }
  // Envelope from warmup means of 10: 10 + 4*sqrt(10) + 3 ~ 25.6.
  EXPECT_TRUE(defense.armed());
  EXPECT_GT(defense.envelope(), 20.0);
  EXPECT_LT(defense.envelope(), 30.0);
  for (std::size_t stream = 0; stream < 4; ++stream) {
    EXPECT_FALSE(defense.flagged(stream)) << stream;
    EXPECT_EQ(defense.first_flagged_epoch(stream), kNeverFlagged);
  }
  EXPECT_TRUE(defense.flagged(4));
  // Violations at epochs 3 and 4 -> flagged when epoch 4 closes.
  EXPECT_EQ(defense.first_flagged_epoch(4), 4u);
  EXPECT_EQ(defense.allowance(), 25u);
}

TEST(PoissonEnvelopeDefenseTest, FlagIsStickyAfterBackoff) {
  PoissonEnvelopeDefense defense(/*streams=*/3, /*warmup=*/2, /*k=*/2.0,
                                 /*violations=*/1);
  for (std::uint64_t epoch = 0; epoch < 8; ++epoch) {
    for (std::size_t stream = 0; stream < 2; ++stream) {
      for (int r = 0; r < 8; ++r) defense.observe(stream);
    }
    // Attack for exactly one epoch, then go quiet.
    const int attack = epoch == 3 ? 100 : 8;
    for (int r = 0; r < attack; ++r) defense.observe(2);
    defense.end_epoch(epoch);
  }
  EXPECT_TRUE(defense.flagged(2));
  EXPECT_EQ(defense.first_flagged_epoch(2), 3u);
}

TEST(PoissonEnvelopeDefenseTest, LoadRejectsTailsSaveCannotProduce) {
  // Three streams at 1/epoch arm an envelope of 1 + 4 + 3 = 8 after one
  // warmup epoch; stream 2 sends 20 in epochs 1 and 2 and is flagged when
  // epoch 2 closes.
  const auto make_defense = [] {
    return PoissonEnvelopeDefense(/*streams=*/3, /*warmup=*/1, /*k=*/4.0,
                                  /*violations=*/2);
  };
  PoissonEnvelopeDefense defense = make_defense();
  for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
    defense.observe(0);
    defense.observe(1);
    for (int r = 0; r < (epoch == 0 ? 1 : 20); ++r) defense.observe(2);
    defense.end_epoch(epoch);
  }
  ASSERT_TRUE(defense.flagged(2));
  ASSERT_EQ(defense.first_flagged_epoch(2), 2u);
  ASSERT_FALSE(defense.flagged(0));
  BinaryWriter saved;
  defense.save_state(saved);
  const std::vector<std::uint8_t>& base = saved.data();
  // Each per-stream vector is a count and three u64s (32 bytes): the
  // epoch counts, the warmup totals, then epochs seen, the armed byte and
  // the envelope (17 bytes), the streaks, the flags and the first-flag
  // epochs.
  constexpr std::size_t kCountsAt = 8;
  constexpr std::size_t kFlagsAt = 32 + 32 + 17 + 32 + 8;
  constexpr std::size_t kEpochsAt = kFlagsAt + 24 + 8;
  ASSERT_EQ(base.size(), kEpochsAt + 24);
  const auto loads = [&](const std::vector<std::uint8_t>& bytes) {
    PoissonEnvelopeDefense fresh = make_defense();
    BinaryReader reader(bytes);
    fresh.load_state(reader);
    return reader.ok() && reader.exhausted();
  };
  const auto with = [&](std::size_t at, std::uint64_t value) {
    std::vector<std::uint8_t> bytes = base;
    for (std::size_t b = 0; b < 8; ++b) {
      bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
    }
    return bytes;
  };
  ASSERT_EQ(with(kFlagsAt + 16, 1), base);
  ASSERT_EQ(with(kEpochsAt + 16, 2), base);
  EXPECT_TRUE(loads(base));
  const struct {
    const char* what;
    std::vector<std::uint8_t> bytes;
  } cases[] = {
      {"an open epoch's count", with(kCountsAt, 1)},
      {"a flag without a first-flag epoch", with(kFlagsAt, 1)},
      {"a first-flag epoch without its flag", with(kEpochsAt, 1)},
      {"a flagged stream's flag cleared", with(kFlagsAt + 16, 0)},
      {"a flag above 1", with(kFlagsAt + 16, 2)},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(loads(c.bytes)) << c.what;
  }
}

// ---- Retrieval market ------------------------------------------------------

using Rows = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// The market's ask, served and revenue books as `save_state` encodes
/// them: (sector, value) rows after the four PRNG words.
struct Books {
  Rows asks;
  Rows served;
  Rows revenue;
};

Books books_of(const TrafficEngine& engine) {
  BinaryWriter writer;
  engine.save_state(writer);
  BinaryReader reader(writer.data());
  for (int word = 0; word < 4; ++word) (void)reader.u64();
  Books books;
  for (Rows* book : {&books.asks, &books.served, &books.revenue}) {
    const std::uint64_t rows = reader.u64();
    for (std::uint64_t r = 0; r < rows; ++r) {
      const std::uint64_t sector = reader.u64();
      const std::uint64_t value = reader.u64();
      book->emplace_back(sector, value);
    }
  }
  EXPECT_TRUE(reader.ok());
  return books;
}

/// Four sectors, one owner each, holding one confirmed 3000-byte file; a
/// traffic engine at 3 tokens per KiB retrieves it for `client`. The
/// engine gets no live files, so only injected requests run.
struct TrafficMarketTest : ::testing::Test {
  void SetUp() override {
    for (int s = 0; s < 4; ++s) {
      owners.push_back(ledger.create_account(1'000'000'000));
      ASSERT_TRUE(
          net.sector_register(owners.back(), 4 * params.min_capacity).is_ok());
    }
    const fi::AccountId uploader = ledger.create_account(1'000'000'000);
    const auto added = net.file_add(uploader, {3000, params.min_value, {}});
    ASSERT_TRUE(added.is_ok()) << added.status().to_string();
    file = added.value();
    for (fi::core::ReplicaIndex i = 0;
         i < net.allocations().replica_count(file); ++i) {
      const fi::core::SectorId target = net.allocations().entry(file, i).next;
      ASSERT_TRUE(
          net.file_confirm(net.sectors().owner(target), file, i, target)
              .is_ok());
    }
    net.advance_to(net.now() + params.transfer_window(3000));
    ASSERT_TRUE(net.file_exists(file));
    spec.enabled = true;
    spec.requests_per_cycle = 10;
    spec.streams = 1;
    spec.price_per_kib = 3;
  }

  /// Injects one request for the file and runs the epoch.
  TrafficEngine& retrieve(fi::AccountId client) {
    engine = std::make_unique<TrafficEngine>(spec, net, ledger, client,
                                             /*seed=*/7, spec.streams);
    engine->inject(0, file, 1);
    engine->on_epoch(0, {});
    return *engine;
  }

  /// The holders, each once, in ascending sector order.
  [[nodiscard]] std::vector<fi::core::SectorId> holders() const {
    std::vector<fi::core::SectorId> out;
    for (fi::core::ReplicaIndex i = 0;
         i < net.allocations().replica_count(file); ++i) {
      out.push_back(net.allocations().entry(file, i).prev);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  fi::core::Params params;
  fi::ledger::Ledger ledger;
  fi::core::Network net{params, ledger, /*seed=*/5};
  std::vector<fi::AccountId> owners;
  fi::core::FileId file = fi::core::kNoFile;
  TrafficSpec spec;
  std::unique_ptr<TrafficEngine> engine;
};

TEST_F(TrafficMarketTest, AsksArePriceForEvenSectorsAndOneMoreForOdd) {
  EXPECT_EQ(spec.ask_of(2), 3u);
  EXPECT_EQ(spec.ask_of(3), 4u);
  // Every holder that competed for the request enters the ask book at its
  // tier's ask.
  const Books books =
      books_of(retrieve(ledger.create_account(1'000'000)));
  Rows expected;
  for (const fi::core::SectorId holder : holders()) {
    expected.emplace_back(holder, spec.ask_of(holder));
  }
  EXPECT_EQ(books.asks, expected);
}

TEST_F(TrafficMarketTest, SettledRequestPaysTheQuoteToTheSellersOwner) {
  // The cheapest ask wins; every queue is empty, so ties go to the lowest
  // sector id.
  fi::core::SectorId seller = fi::core::kNoSector;
  for (const fi::core::SectorId holder : holders()) {
    if (seller == fi::core::kNoSector ||
        spec.ask_of(holder) < spec.ask_of(seller)) {
      seller = holder;
    }
  }
  const fi::TokenAmount quote = spec.ask_of(seller) * 3;  // 3000 B = 3 KiB
  const fi::AccountId client = ledger.create_account(1'000'000);
  const fi::AccountId owner = net.sectors().owner(seller);
  const fi::TokenAmount owner_before = ledger.balance(owner);

  const TrafficEngine& market = retrieve(client);
  // The client pays the lookup gas on chain and the quote to the owner.
  EXPECT_EQ(ledger.balance(client), 1'000'000 - params.gas_per_task - quote);
  EXPECT_EQ(ledger.balance(owner), owner_before + quote);
  const Books books = books_of(market);
  EXPECT_EQ(books.served, (Rows{{seller, 3000}}));
  EXPECT_EQ(books.revenue, (Rows{{seller, quote}}));
  const fi::traffic::TrafficMetrics m = market.metrics();
  EXPECT_EQ(m.retrievals_settled, 1u);
  EXPECT_EQ(m.enqueued, 1u);
  EXPECT_EQ(m.bytes_served, 3000u);
  EXPECT_EQ(m.revenue, quote);
  EXPECT_EQ(m.payment_failures, 0u);
}

TEST_F(TrafficMarketTest, UnaffordableRequestRecordsOnlyAPaymentFailure) {
  // Enough for the lookup gas, not for any quote.
  const fi::AccountId client = ledger.create_account(params.gas_per_task);
  std::vector<fi::TokenAmount> owners_before;
  for (const fi::AccountId owner : owners) {
    owners_before.push_back(ledger.balance(owner));
  }

  const TrafficEngine& market = retrieve(client);
  EXPECT_EQ(ledger.balance(client), 0u);  // the gas, and nothing else
  for (std::size_t i = 0; i < owners.size(); ++i) {
    EXPECT_EQ(ledger.balance(owners[i]), owners_before[i]) << i;
  }
  const Books books = books_of(market);
  EXPECT_TRUE(books.served.empty());
  EXPECT_TRUE(books.revenue.empty());
  const fi::traffic::TrafficMetrics m = market.metrics();
  EXPECT_EQ(m.payment_failures, 1u);
  EXPECT_EQ(m.retrievals_settled, 0u);
  EXPECT_EQ(m.enqueued, 0u);
  EXPECT_EQ(m.bytes_served, 0u);
  EXPECT_EQ(m.revenue, 0u);
  EXPECT_EQ(m.backlog, 0u);
}

// ---- Scenario fixtures -----------------------------------------------------

ScenarioSpec traffic_base_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "traffic";
  spec.seed = seed;
  spec.sectors = 60;
  spec.sector_units = 4;
  spec.initial_files = 250;
  spec.file_size_min = 1024;
  spec.file_size_max = 1024;
  spec.file_value = 10;
  spec.params.min_value = 10;
  spec.params.k = 3;
  spec.params.cap_para = 200.0;
  spec.params.gamma_deposit = 0.05;
  spec.params.avg_refresh = 20.0;
  spec.traffic.enabled = true;
  spec.traffic.requests_per_cycle = 80;
  spec.traffic.streams = 8;
  spec.traffic.provider_capacity = 16;
  spec.traffic.queue_limit = 64;
  spec.traffic.cache_blocks = 64;
  spec.phases.push_back(PhaseSpec::make_idle(12));
  spec.phases.push_back(PhaseSpec::make_rent_audit(1));
  return spec;
}

void enable_defense(ScenarioSpec& spec) {
  spec.traffic.defense_enabled = true;
  spec.traffic.defense_warmup = 3;
  spec.traffic.defense_k = 4.0;
  spec.traffic.defense_violations = 2;
  spec.traffic.defense_surge = 4;
  spec.traffic.defense_rate_limit = true;
}

// ---- Defense end-to-end ----------------------------------------------------

TEST(TrafficDefenseTest, HonestLoadIsNeverFlaggedAcrossSeeds) {
  for (const std::uint64_t seed : {11u, 202u, 3003u}) {
    ScenarioSpec spec = traffic_base_spec(seed);
    enable_defense(spec);
    ScenarioRunner runner(std::move(spec));
    const MetricsReport report = runner.run();
    ASSERT_TRUE(report.traffic.enabled);
    EXPECT_TRUE(report.traffic.defense_armed) << seed;
    EXPECT_EQ(report.traffic.flagged_streams, 0u) << seed;
    EXPECT_EQ(report.traffic.rate_limited, 0u) << seed;
    EXPECT_EQ(report.traffic.first_flagged_epoch, kNeverFlagged) << seed;
    EXPECT_GT(report.traffic.requests_attempted, 0u) << seed;
  }
}

TEST(TrafficDefenseTest, DdosGangIsFlaggedWithinBoundedEpochs) {
  ScenarioSpec spec = traffic_base_spec(77);
  enable_defense(spec);
  spec.adversaries.push_back(
      AdversarySpec::make_retrieval_ddos(/*requests_per_epoch=*/120,
                                         /*gang=*/3, /*start_epoch=*/5));
  ScenarioRunner runner(std::move(spec));
  const MetricsReport report = runner.run();
  ASSERT_TRUE(report.traffic.enabled);
  // All 3 gang streams flagged, within violations+1 epochs of the attack.
  EXPECT_EQ(report.traffic.flagged_streams, 3u);
  ASSERT_EQ(report.traffic.flagged_stream_ids.size(), 3u);
  for (const std::uint64_t stream : report.traffic.flagged_stream_ids) {
    EXPECT_GE(stream, 8u) << "an honest stream was flagged";
  }
  EXPECT_LE(report.traffic.first_flagged_epoch, 8u);
  // The rate limiter bit: most of the hammer volume never reaches a
  // provider queue.
  EXPECT_GT(report.traffic.rate_limited, 0u);
  ASSERT_EQ(report.adversaries.size(), 1u);
  const auto& extras = report.adversaries[0].counters.extras;
  const auto extra = [&extras](const char* name) {
    const auto it = std::find_if(
        extras.begin(), extras.end(),
        [name](const auto& kv) { return kv.first == name; });
    return it == extras.end() ? -1.0 : it->second;
  };
  EXPECT_EQ(extra("streams_flagged"), 3.0);
  EXPECT_GT(extra("requests_rate_limited"), 0.0);
  EXPECT_GT(extra("requests_attempted"), extra("requests_enqueued"));
}

TEST(TrafficDefenseTest, NoDefenseMeansNoFlagsAndNoLimiting) {
  ScenarioSpec spec = traffic_base_spec(78);
  spec.adversaries.push_back(
      AdversarySpec::make_retrieval_ddos(/*requests_per_epoch=*/120,
                                         /*gang=*/2, /*start_epoch=*/5));
  ScenarioRunner runner(std::move(spec));
  const MetricsReport report = runner.run();
  EXPECT_FALSE(report.traffic.defense_armed);
  EXPECT_EQ(report.traffic.flagged_streams, 0u);
  EXPECT_EQ(report.traffic.rate_limited, 0u);
}

// ---- QoS paths -------------------------------------------------------------

TEST(TrafficQosTest, CartelStarvationShowsUpAsStarvedRequests) {
  ScenarioSpec spec = traffic_base_spec(79);
  // Refuse service from most of the fleet so some files lose every
  // cooperative holder.
  spec.adversaries.push_back(AdversarySpec::make_cartel_starver(0.9, 0, 1));
  ScenarioRunner runner(std::move(spec));
  const MetricsReport report = runner.run();
  EXPECT_GT(report.traffic.starved, 0u);
  ASSERT_EQ(report.adversaries.size(), 1u);
  const auto& extras = report.adversaries[0].counters.extras;
  const auto it = std::find_if(
      extras.begin(), extras.end(),
      [](const auto& kv) { return kv.first == "refusal_hits"; });
  ASSERT_NE(it, extras.end());
  EXPECT_GT(it->second, 0.0);
}

TEST(TrafficQosTest, FlashCrowdOverloadsDropsAndRaisesTailLatency) {
  ScenarioSpec quiet = traffic_base_spec(80);
  ScenarioSpec flash = traffic_base_spec(80);
  flash.traffic.flash_epoch = 4;
  flash.traffic.flash_duration = 4;
  flash.traffic.flash_multiplier = 12;
  flash.traffic.flash_focus = 0.95;
  const MetricsReport quiet_report = ScenarioRunner(std::move(quiet)).run();
  const MetricsReport flash_report = ScenarioRunner(std::move(flash)).run();
  EXPECT_EQ(quiet_report.traffic.dropped, 0u);
  EXPECT_GT(flash_report.traffic.dropped, 0u);
  EXPECT_GE(flash_report.traffic.p99_latency,
            quiet_report.traffic.p99_latency);
  EXPECT_GT(flash_report.traffic.requests_attempted,
            quiet_report.traffic.requests_attempted);
}

TEST(TrafficQosTest, RetrievalSettlementConservesTheLedger) {
  ScenarioSpec spec = traffic_base_spec(81);
  ScenarioRunner runner(std::move(spec));
  const MetricsReport report = runner.run();
  // Every enqueued request settled exactly once, and rent conservation
  // still holds with retrieval payments riding the same ledger.
  EXPECT_EQ(report.traffic.retrievals_settled, report.traffic.enqueued);
  EXPECT_GT(report.traffic.revenue, 0u);
  EXPECT_EQ(report.traffic.payment_failures, 0u);
  EXPECT_TRUE(report.rent_conserved);
}

// ---- Snapshot round-trip ---------------------------------------------------

std::string state_hash_of(ScenarioSpec spec) {
  ScenarioRunner runner(std::move(spec));
  (void)runner.run();
  return fi::snapshot::state_hash(runner);
}

TEST(TrafficSnapshotTest, MidAttackSaveLoadContinuesByteIdentically) {
  // Save mid-flash, mid-attack, with the defense armed and flags set —
  // every piece of new state (market book/tallies, cache FIFO, queues,
  // per-stream counters, defense streaks/flags) is non-trivial at the
  // checkpoint. The gang's hammers are queued and issued within each
  // cycle, so saving mid-attack also checks that none is left queued.
  const auto make_spec = [] {
    ScenarioSpec spec = traffic_base_spec(92);
    enable_defense(spec);
    spec.traffic.flash_epoch = 5;
    spec.traffic.flash_duration = 4;
    spec.traffic.flash_multiplier = 6;
    spec.adversaries.push_back(
        AdversarySpec::make_retrieval_ddos(100, 2, 4));
    spec.adversaries.push_back(AdversarySpec::make_cartel_starver(0.3, 0, 2));
    return spec;
  };

  ScenarioRunner uninterrupted(make_spec());
  const std::string reference = uninterrupted.run().to_json(false);
  const std::string reference_hash = fi::snapshot::state_hash(uninterrupted);

  BinaryWriter saved;
  {
    ScenarioRunner saver(make_spec());
    ASSERT_EQ(saver.run_cycles(7), 7u);
    saver.save_state(saved);
    EXPECT_EQ(saver.run().to_json(false), reference);
  }
  ASSERT_GT(saved.size(), 0u);

  BinaryReader reader(saved.data());
  auto resumed = ScenarioRunner::resume(make_spec(), reader);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value()->epoch(), 7u);
  EXPECT_EQ(resumed.value()->run().to_json(false), reference);
  EXPECT_EQ(fi::snapshot::state_hash(*resumed.value()), reference_hash);
}

TEST(TrafficSnapshotTest, TruncatedTrafficTailIsRejected) {
  const auto make_spec = [] {
    ScenarioSpec spec = traffic_base_spec(93);
    enable_defense(spec);
    return spec;
  };
  BinaryWriter saved;
  {
    ScenarioRunner saver(make_spec());
    ASSERT_EQ(saver.run_cycles(5), 5u);
    saver.save_state(saved);
  }
  ASSERT_GT(saved.size(), 64u);
  // Chop into the traffic tail: the reader must fail cleanly, not crash
  // or accept a half-loaded engine.
  const auto& bytes = saved.data();
  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 48);
  BinaryReader reader(truncated);
  EXPECT_FALSE(ScenarioRunner::resume(make_spec(), reader).is_ok());
}

TEST(TrafficSnapshotTest, NonCanonicalMarketAndCacheRowsAreRejected) {
  // The loaders accept only what save_state writes: market books in
  // strictly ascending sector order naming sectors the network holds,
  // every ask its sector's price tier, every served row positive, one key
  // set for the served and revenue books, each cached file once, each
  // stored total the sum of the counters or book it totals, no queued
  // hammer and a zero admission budget.
  fi::core::Params params;
  fi::ledger::Ledger ledger;
  fi::core::Network net(params, ledger, /*seed=*/5);
  const fi::AccountId provider = ledger.create_account(1'000'000'000);
  const fi::AccountId client = ledger.create_account(0);
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(net.sector_register(provider, 4 * params.min_capacity).is_ok());
  }
  TrafficSpec spec;
  spec.enabled = true;
  spec.requests_per_cycle = 10;
  spec.streams = 2;
  spec.price_per_kib = 5;
  const auto make_engine = [&] {
    return std::make_unique<TrafficEngine>(spec, net, ledger, client,
                                           /*seed=*/7, spec.streams);
  };

  // An idle engine's encoding: four rng words, the three market books
  // (empty), three market totals, the cache window (empty), the rest.
  BinaryWriter idle;
  make_engine()->save_state(idle);
  const std::vector<std::uint8_t>& base = idle.data();
  constexpr std::size_t kBooksAt = 32;
  constexpr std::size_t kTotalsAt = kBooksAt + 3 * 8;
  constexpr std::size_t kWindowAt = kTotalsAt + 3 * 8;
  constexpr std::size_t kRestAt = kWindowAt + 8;
  // After the window: the hot file, no pending hammers, five empty
  // per-sector vectors and six per-stream vectors of two streams; then the
  // totals attempted, rate-limited, lookup failures, starved, dropped,
  // enqueued and served.
  constexpr std::size_t kHammersAt = kRestAt + 8;
  constexpr std::size_t kFirstAttemptedAt = kRestAt + 8 + 8 + 5 * 8 + 8;
  // The admission budget is the sixth per-stream vector.
  constexpr std::size_t kFirstAdmittedAt = kFirstAttemptedAt + 5 * 24;
  constexpr std::size_t kStreamTotalsAt = kRestAt + 8 + 8 + 5 * 8 + 6 * 24;
  constexpr std::size_t kServedTotalAt = kStreamTotalsAt + 6 * 8;
  ASSERT_GT(base.size(), kServedTotalAt + 8);
  const auto slice = [&](std::size_t from, std::size_t to) {
    return std::span<const std::uint8_t>(base.data() + from, to - from);
  };
  // The idle body with the u64 at each offset set to its value.
  using Words = std::vector<std::pair<std::size_t, std::uint64_t>>;
  const auto patched = [&](const Words& words) {
    std::vector<std::uint8_t> bytes = base;
    for (const auto& [at, value] : words) {
      for (std::size_t b = 0; b < 8; ++b) {
        bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
      }
    }
    return bytes;
  };
  const auto sum_of = [](const Rows& rows) {
    std::uint64_t total = 0;
    for (const auto& [sector, value] : rows) total += value;
    return total;
  };
  // The bytes-served and revenue totals are the served and revenue books'
  // sums, each plus its `_off`.
  const auto body = [&](const Rows& asks, const Rows& served,
                        const Rows& revenue,
                        const std::vector<fi::core::FileId>& window,
                        std::uint64_t served_off = 0,
                        std::uint64_t revenue_off = 0) {
    BinaryWriter writer;
    writer.raw(slice(0, kBooksAt));
    for (const Rows* book : {&asks, &served, &revenue}) {
      writer.u64(book->size());
      for (const auto& [sector, value] : *book) {
        writer.u64(sector);
        writer.u64(value);
      }
    }
    writer.raw(slice(kTotalsAt, kTotalsAt + 8));  // the settled count
    writer.u64(sum_of(served) + served_off);
    writer.u64(sum_of(revenue) + revenue_off);
    fi::util::save_u64_seq(writer, window);
    writer.raw(slice(kRestAt, base.size()));
    return writer.data();
  };

  // Sectors 0, 1 and 3 have quoted (asks 5, 6, 6); 1 and 3 have sold.
  const Rows asks = {{0, 5}, {1, 6}, {3, 6}};
  const Rows served = {{1, 2048}, {3, 1024}};
  const Rows revenue = {{1, 12}, {3, 6}};
  {
    const auto canonical = body(asks, served, revenue, {4, 2, 9});
    auto engine = make_engine();
    BinaryReader reader(canonical);
    engine->load_state(reader);
    ASSERT_TRUE(reader.ok() && reader.exhausted()) << "canonical body";
    EXPECT_EQ(engine->metrics().bytes_served, 3072u);
    EXPECT_EQ(engine->metrics().revenue, 18u);
    BinaryWriter again;
    engine->save_state(again);
    EXPECT_EQ(again.data(), canonical);
  }
  {
    // Stream 0's attempted counter with its total stays canonical.
    const auto counted =
        patched({{kFirstAttemptedAt, 1}, {kStreamTotalsAt, 1}});
    auto engine = make_engine();
    BinaryReader reader(counted);
    engine->load_state(reader);
    ASSERT_TRUE(reader.ok() && reader.exhausted()) << "counted body";
    EXPECT_EQ(engine->metrics().requests_attempted, 1u);
  }
  // One 24-byte hammer row (stream 0 hammers file 4 three times) after
  // the hot file, in the shape the queue had while it was encoded.
  const auto hammered = [&] {
    BinaryWriter writer;
    writer.raw(slice(0, kHammersAt));
    for (const std::uint64_t word : {1, 0, 4, 3}) writer.u64(word);
    writer.raw(slice(kHammersAt + 8, base.size()));
    return writer.data();
  };
  const struct {
    const char* what;
    std::vector<std::uint8_t> bytes;
  } cases[] = {
      {"asks descending", body({{1, 6}, {0, 5}}, served, revenue, {})},
      {"ask repeated", body({{0, 5}, {0, 5}, {1, 6}}, served, revenue, {})},
      {"ask sector at the sector count",
       body({{0, 5}, {4, 5}}, served, revenue, {})},
      // A crafted id must fail, not size the books.
      {"ask sector far past the sector count",
       body({{~std::uint64_t{0} - 1, 5}}, {}, {}, {})},
      {"ask off its tier", body({{0, 5}, {1, 5}, {3, 6}}, served, revenue, {})},
      {"served descending", body(asks, {{3, 1024}, {1, 2048}}, revenue, {})},
      {"served row of zero bytes",
       body(asks, {{1, 0}, {3, 1024}}, revenue, {})},
      {"served sector at the sector count",
       body(asks, {{1, 2048}, {4, 1}}, {{1, 12}, {4, 1}}, {})},
      {"revenue without a served row",
       body(asks, {{1, 2048}}, {{1, 12}, {3, 6}}, {})},
      {"served without a revenue row", body(asks, served, {{1, 12}}, {})},
      {"served and revenue on other sectors",
       body(asks, served, {{1, 12}, {2, 6}}, {})},
      {"cached file repeated", body(asks, served, revenue, {4, 2, 4})},
      {"settled count off the enqueued total", patched({{kTotalsAt, 1}})},
      {"attempted total off its per-stream sum",
       patched({{kStreamTotalsAt, 1}})},
      {"attempted counter without its total",
       patched({{kFirstAttemptedAt, 1}})},
      {"enqueued total off its per-stream sum",
       patched({{kStreamTotalsAt + 5 * 8, 1}})},
      {"served total off its per-sector sum", patched({{kServedTotalAt, 1}})},
      {"bytes-served total off its book's sum",
       body(asks, served, revenue, {}, /*served_off=*/1)},
      {"revenue total off its book's sum",
       body(asks, served, revenue, {}, 0, /*revenue_off=*/1)},
      {"a hammer queued", hammered()},
      {"an admission budget open", patched({{kFirstAdmittedAt, 1}})},
  };
  for (const auto& c : cases) {
    auto engine = make_engine();
    BinaryReader reader(c.bytes);
    engine->load_state(reader);
    EXPECT_FALSE(reader.ok()) << c.what;
  }
}

TEST(TrafficSnapshotTest, TrafficFreeSnapshotsCarryNoTrafficBytes) {
  // A disabled traffic block must leave the snapshot byte-stream exactly
  // as the pre-traffic format: the runner appends nothing.
  ScenarioSpec spec = traffic_base_spec(94);
  spec.traffic = TrafficSpec{};
  spec.adversaries.clear();
  const std::string hash_a = state_hash_of(spec);
  const std::string hash_b = state_hash_of(spec);
  EXPECT_EQ(hash_a, hash_b);
  EXPECT_FALSE(hash_a.empty());
}

}  // namespace
