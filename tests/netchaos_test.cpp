#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adversary/spec.h"
#include "api/session.h"
#include "scenario/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/net_model.h"
#include "snapshot/snapshot.h"
#include "util/binary_io.h"

/// Chaos suite for the simulated delivery network:
///
///  * partitions during refresh windows fire the Fig. 9 failure path;
///  * crash-restart outages past the ProofDeadline confiscate and
///    compensate with exact conservation, and healed regions resume
///    proving with no double-punishment;
///  * deadline-miss rates vary monotonically with injected latency, and
///    an arrival on its deadline tick counts as a network miss;
///  * mid-partition snapshots round-trip byte-identically with messages
///    still in flight, and truncated net tails are rejected.
namespace fi {
namespace {

namespace fs = std::filesystem;

struct RunOutcome {
  std::string report_json;
  std::string state_hash;
};

RunOutcome run_outcome(scenario::ScenarioSpec spec) {
  scenario::ScenarioRunner runner(std::move(spec));
  const std::string json = runner.run().to_json();
  return {json, snapshot::state_hash(runner)};
}

scenario::MetricsReport run_report(scenario::ScenarioSpec spec) {
  return scenario::ScenarioRunner(std::move(spec)).run();
}

// ---------------------------------------------------------------------------
// Partition chaos: the Fig. 9 failure path
// ---------------------------------------------------------------------------

/// Two regions under heavy refresh pressure; region 1 partitioned for
/// `partition_cycles` (proof_deadline defaults to three proof cycles).
scenario::ScenarioSpec partition_spec(std::uint64_t partition_cycles) {
  scenario::ScenarioSpec spec;
  spec.name = "netchaos_partition";
  spec.seed = 909;
  spec.sectors = 80;
  spec.sector_units = 4;
  spec.initial_files = 120;
  spec.file_size_min = 1024;
  spec.file_size_max = 1024;
  spec.file_value = 10;
  spec.params.min_value = 10;
  spec.params.avg_refresh = 3;
  spec.params.delay_per_kib = 30;
  spec.network.enabled = true;
  spec.network.regions = 2;
  spec.network.base_latency = 2;
  spec.network.region_latency = 5;
  spec.network.jitter = 3;
  spec.phases.push_back(scenario::PhaseSpec::make_idle(2));
  spec.phases.push_back(scenario::PhaseSpec::make_partition(
      /*region=*/1, partition_cycles));
  spec.phases.push_back(scenario::PhaseSpec::make_idle(6));
  spec.phases.push_back(scenario::PhaseSpec::make_rent_audit(1));
  return spec;
}

TEST(NetChaos, PartitionDuringRefreshFiresFig9Path) {
  const scenario::MetricsReport report = run_report(partition_spec(2));
  // Refresh handoffs crossing the cut miss their deadlines: receiver and
  // live holders punished, refresh retried with a fresh draw (Fig. 9).
  EXPECT_GT(report.network.dropped_partition, 0u);
  EXPECT_GT(report.totals.refreshes_failed, 0u);
  EXPECT_GT(report.totals.punishments, 0u);
  // Every miss is the network's fault — no adversary is configured.
  EXPECT_GT(report.network.deadline_misses_network, 0u);
  EXPECT_EQ(report.network.deadline_misses_malice, 0u);
  // Sabotage delays placement refresh; it cannot destroy data.
  EXPECT_EQ(report.totals.files_lost, 0u);
  EXPECT_TRUE(report.rent_conserved);
}

TEST(NetChaos, HealedPartitionResumesWithoutDoublePunishment) {
  // Two cycles dark is under the ProofDeadline (three proof cycles): the
  // region collects late-proof punishments while cut off, but healing
  // must not let confiscation fire afterwards — no file lost, nothing
  // compensated, and the run settles conserved.
  const scenario::MetricsReport report = run_report(partition_spec(2));
  EXPECT_EQ(report.totals.files_lost, 0u);
  EXPECT_EQ(report.totals.value_lost, 0u);
  EXPECT_EQ(report.totals.value_compensated, 0u);
  EXPECT_TRUE(report.rent_conserved);
  // The healed region resumes delivery: traffic into region 1 after the
  // heal shows up as deliveries (the partition phase plus six idle cycles
  // of refresh pressure give it plenty to receive).
  ASSERT_EQ(report.network.per_region.size(), 2u);
  EXPECT_GT(report.network.per_region[1].delivered, 0u);
}

// ---------------------------------------------------------------------------
// Crash-restart chaos: ProofDeadline confiscation
// ---------------------------------------------------------------------------

TEST(NetChaos, CrashRestartPastDeadlineConfiscatesAndCompensates) {
  scenario::ScenarioSpec spec;
  spec.name = "netchaos_crash";
  spec.seed = 1717;
  spec.sectors = 90;
  spec.sector_units = 4;
  spec.initial_files = 150;
  spec.file_size_min = 1024;
  spec.file_size_max = 2048;
  spec.file_value = 10;
  spec.params.min_value = 10;
  spec.params.delay_per_kib = 30;
  spec.network.enabled = true;
  spec.network.regions = 3;
  spec.network.base_latency = 2;
  spec.network.region_latency = 4;
  spec.phases.push_back(scenario::PhaseSpec::make_idle(2));
  // Four cycles down > ProofDeadline (three proof cycles): §IV-B fires.
  spec.phases.push_back(
      scenario::PhaseSpec::make_outage(/*region=*/2, /*down_cycles=*/4,
                                       /*cycles=*/8));
  spec.phases.push_back(scenario::PhaseSpec::make_rent_audit(1));
  const scenario::MetricsReport report = run_report(std::move(spec));

  // The dark region missed enough proof windows for confiscation: files
  // lost, every lost token compensated from the seized deposits, and the
  // books balance exactly.
  EXPECT_GT(report.network.dropped_down, 0u);
  EXPECT_GT(report.totals.files_lost, 0u);
  EXPECT_GT(report.totals.value_lost, 0u);
  EXPECT_EQ(report.totals.value_lost, report.totals.value_compensated);
  EXPECT_TRUE(report.rent_conserved);
  EXPECT_EQ(report.outstanding_liabilities, 0u);
  // The outage, not malice, caused every miss.
  EXPECT_EQ(report.network.deadline_misses_malice, 0u);
  // After the restart the region receives again.
  ASSERT_EQ(report.network.per_region.size(), 3u);
  EXPECT_GT(report.network.per_region[2].delivered, 0u);
}

// ---------------------------------------------------------------------------
// Deadline-miss monotonicity in injected latency
// ---------------------------------------------------------------------------

TEST(NetChaos, DeadlineMissesGrowMonotonicallyWithLatency) {
  // DelayPerSize × size gives 1-KiB transfers a 30-tick window here; the
  // sweep crosses it: base 0 keeps worst-case latency (base + region hop 6
  // + jitter 12 = 18) inside the window, base 20 puts the jitter band
  // astride the deadline (26..38), and base 120 puts everything past it.
  // The *miss rate* must grow strictly — the acceptance criterion pinning
  // that injected latency, not nondeterminism, drives the failure rate.
  // (Rates, not counts: failed uploads resample and retry, so the total
  // message volume itself varies across tiers.)
  std::vector<double> miss_rate;
  std::vector<std::uint64_t> protocol_failures;
  for (const Time base : {Time{0}, Time{20}, Time{120}}) {
    scenario::ScenarioSpec spec;
    spec.name = "netchaos_latency";
    spec.seed = 4242;
    spec.sectors = 60;
    spec.sector_units = 4;
    spec.initial_files = 90;
    spec.file_size_min = 1024;
    spec.file_size_max = 1024;
    spec.file_value = 10;
    spec.params.min_value = 10;
    spec.params.avg_refresh = 5;
    spec.params.delay_per_kib = 30;
    spec.network.enabled = true;
    spec.network.regions = 2;
    spec.network.base_latency = base;
    spec.network.region_latency = 6;
    spec.network.jitter = 12;
    spec.phases.push_back(scenario::PhaseSpec::make_idle(6));
    spec.phases.push_back(scenario::PhaseSpec::make_rent_audit(1));
    const scenario::MetricsReport report = run_report(std::move(spec));
    ASSERT_GT(report.network.sent, 0u);
    miss_rate.push_back(
        static_cast<double>(report.network.deadline_misses_network) /
        static_cast<double>(report.network.sent));
    protocol_failures.push_back(report.totals.upload_failures +
                                report.totals.refreshes_failed);
  }
  EXPECT_EQ(miss_rate[0], 0.0);
  EXPECT_LT(miss_rate[0], miss_rate[1]);
  EXPECT_LT(miss_rate[1], miss_rate[2]);
  EXPECT_EQ(miss_rate[2], 1.0);
  EXPECT_LE(protocol_failures[0], protocol_failures[1]);
  EXPECT_GT(protocol_failures[2], protocol_failures[0]);
}

TEST(NetChaos, ArrivalOnDeadlineTickIsANetworkMiss) {
  // delay_per_kib = 10 gives 1-KiB uploads a 10-tick window. Auto_CheckAlloc
  // runs at the deadline tick before that tick's deliveries, so an upload
  // arriving after exactly 10 ticks has already failed, just as one
  // arriving after 11 has: both latencies must be counted as late.
  for (const Time base : {Time{10}, Time{11}}) {
    scenario::ScenarioSpec spec;
    spec.name = "netchaos_deadline_tick";
    spec.seed = 77;
    spec.sectors = 40;
    spec.sector_units = 4;
    spec.initial_files = 60;
    spec.file_size_min = 1024;
    spec.file_size_max = 1024;
    spec.file_value = 10;
    spec.params.min_value = 10;
    spec.params.delay_per_kib = 10;
    spec.network.enabled = true;
    spec.network.regions = 1;
    spec.network.base_latency = base;
    spec.phases.push_back(scenario::PhaseSpec::make_idle(1));
    const scenario::MetricsReport report = run_report(std::move(spec));
    EXPECT_EQ(report.totals.upload_failures, 60u) << "base " << base;
    EXPECT_EQ(report.network.delivered_late, 180u) << "base " << base;
    EXPECT_EQ(report.network.deadline_misses_network, 180u) << "base " << base;
  }
}

// ---------------------------------------------------------------------------
// Malice vs network attribution
// ---------------------------------------------------------------------------

TEST(NetChaos, RefusalAttributedToMaliceNotNetwork) {
  // A refresh saboteur on a latency-free simulated network: every miss is
  // a refusal at delivery time, so the attribution split must charge
  // malice, not the network.
  scenario::ScenarioSpec spec;
  spec.name = "netchaos_malice";
  spec.seed = 808;
  spec.sectors = 60;
  spec.sector_units = 4;
  spec.initial_files = 90;
  spec.file_size_min = 1024;
  spec.file_size_max = 1024;
  spec.file_value = 10;
  spec.params.min_value = 10;
  spec.params.avg_refresh = 3;
  spec.network.enabled = true;
  spec.network.regions = 2;
  adversary::AdversarySpec saboteur;
  saboteur.kind = adversary::StrategyKind::refresh_saboteur;
  saboteur.start_epoch = 1;
  saboteur.fraction = 0.3;
  saboteur.duration = 4;
  spec.adversaries.push_back(saboteur);
  spec.phases.push_back(scenario::PhaseSpec::make_idle(6));
  spec.phases.push_back(scenario::PhaseSpec::make_rent_audit(1));
  const scenario::MetricsReport report = run_report(std::move(spec));
  EXPECT_GT(report.network.deadline_misses_malice, 0u);
  EXPECT_EQ(report.network.deadline_misses_network, 0u);
  EXPECT_EQ(report.totals.files_lost, 0u);
}

// ---------------------------------------------------------------------------
// Mid-partition snapshot round-trip
// ---------------------------------------------------------------------------

/// Latency longer than a proof cycle guarantees messages span cycle
/// boundaries, so the mid-partition checkpoint carries a non-empty
/// in-flight set through the snapshot.
scenario::ScenarioSpec in_flight_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "netchaos_inflight";
  spec.seed = 555;
  spec.sectors = 60;
  spec.sector_units = 4;
  spec.initial_files = 90;
  spec.file_size_min = 1024;
  spec.file_size_max = 1024;
  spec.file_value = 10;
  spec.params.min_value = 10;
  spec.params.avg_refresh = 5;
  spec.params.delay_per_kib = 200;
  spec.network.enabled = true;
  spec.network.regions = 2;
  spec.network.base_latency = 150;
  spec.network.jitter = 20;
  spec.phases.push_back(scenario::PhaseSpec::make_idle(1));
  spec.phases.push_back(scenario::PhaseSpec::make_partition(1, 4));
  spec.phases.push_back(scenario::PhaseSpec::make_idle(3));
  spec.phases.push_back(scenario::PhaseSpec::make_rent_audit(1));
  return spec;
}

TEST(NetSnapshot, MidPartitionRoundTripIsByteIdentical) {
  const RunOutcome uninterrupted = run_outcome(in_flight_spec());

  const fs::path path =
      fs::path(::testing::TempDir()) / "fi_netchaos_midpartition.fisnap";
  bool saved_in_flight = false;
  {
    scenario::ScenarioRunner saver(in_flight_spec());
    ASSERT_EQ(saver.run_cycles(3), 3u);  // inside the partition phase
    saved_in_flight = saver.netmodel().in_flight() > 0;
    const auto status = snapshot::save_to_file(saver, path.string());
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    EXPECT_EQ(saver.run().to_json(), uninterrupted.report_json);
  }
  ASSERT_TRUE(fs::exists(path));
  // The checkpoint really did carry live messages across the boundary.
  EXPECT_TRUE(saved_in_flight);

  auto resumed = Session::from_snapshot_file(path.string());
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed.value().report().to_json(), uninterrupted.report_json);
  EXPECT_EQ(resumed.value().state_hash(), uninterrupted.state_hash);
  fs::remove(path);
}

TEST(NetSnapshot, ResumeRejectsMessageDueBeforeClock) {
  scenario::ScenarioRunner saver(in_flight_spec());
  ASSERT_EQ(saver.run_cycles(3), 3u);
  const std::size_t in_flight = saver.netmodel().in_flight();
  ASSERT_GT(in_flight, 0u);
  const Time now = saver.network().now();
  ASSERT_GT(saver.netmodel().next_delivery_time(), now);
  const std::vector<std::uint8_t> canonical = snapshot::encode_state(saver);

  // The NetModel encoding closes the body: RNG words, two flags per
  // region, the entry count, 68 bytes per entry (deliver_at, seq, sent_at,
  // message), the seq counter, six counters and three per-region arrays.
  const std::size_t regions = saver.netmodel().regions();
  const std::size_t tail = 32 + 2 * regions + 8 + 68 * in_flight + 8 + 6 * 8 +
                           3 * 8 * regions;
  const std::size_t deliver_at = canonical.size() - tail + 32 + 2 * regions + 8;
  const std::size_t sent_at = deliver_at + 16;
  const auto with = [&](std::size_t at, Time value,
                        std::vector<std::uint8_t> body) {
    for (std::size_t b = 0; b < 8; ++b) {
      body[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
    }
    return body;
  };
  ASSERT_EQ(with(deliver_at, saver.netmodel().next_delivery_time(), canonical),
            canonical);
  const auto resumes = [](const std::vector<std::uint8_t>& body) {
    util::BinaryReader reader(body);
    return scenario::ScenarioRunner::resume(in_flight_spec(), reader).is_ok();
  };
  EXPECT_TRUE(resumes(canonical));
  // The earliest message may arrive at the restored clock, not before it.
  EXPECT_TRUE(resumes(with(deliver_at, now, canonical)));
  EXPECT_FALSE(resumes(
      with(sent_at, now - 1, with(deliver_at, now - 1, canonical))));
}

TEST(NetSnapshot, TruncatedNetTailIsRejected) {
  // The net tail is the last thing in the body; chopping bytes off the
  // end must fail resume with a malformed-body error, never a silent
  // partial restore. (The file-level digest catches this first in
  // practice; this drives the reader path the digest does not cover.)
  scenario::ScenarioRunner runner(in_flight_spec());
  (void)runner.run();
  const std::vector<std::uint8_t> body = snapshot::encode_state(runner);
  ASSERT_GT(body.size(), 16u);
  for (const std::size_t cut : {std::size_t{1}, std::size_t{7},
                                std::size_t{16}}) {
    util::BinaryReader reader(
        std::span<const std::uint8_t>(body.data(), body.size() - cut));
    auto resumed = scenario::ScenarioRunner::resume(in_flight_spec(), reader);
    ASSERT_FALSE(resumed.is_ok()) << "cut=" << cut;
    EXPECT_NE(resumed.status().to_string().find("malformed"),
              std::string::npos)
        << resumed.status().to_string();
  }
}

}  // namespace
}  // namespace fi
