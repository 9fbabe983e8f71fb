// Pinned oracles for the engine's Fig. 8 (Auto_CheckProof) and Fig. 9
// (Auto_CheckRefresh) bodies. Two mixed-path drives — one straight over
// core::Network, one through the scenario runner — are reduced to SHA-256
// digests of their event log and report JSON and compared with digests
// pinned from the engine that ran Fig. 8 as a scan/apply pair plus a
// separate breach body. Equal digests mean the single bodies take the
// late, breach, refresh and discard paths byte for byte as before.
//
// This suite also pins the SoA layout's allocation contract: once
// capacities are warm, a steady-state proof sweep performs ZERO heap
// allocations (counting global operator new hook below).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/network.h"
#include "crypto/sha256.h"
#include "ledger/account.h"
#include "scenario/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "sim/net_model.h"
#include "util/hex.h"

// ---- Counting allocator hook ----------------------------------------------
//
// Global operator new replacement (must have external linkage). Counting is
// off by default, so the rest of the binary is unaffected; the
// zero-allocation test flips it on around a steady-state sweep.

std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocation_count{0};

namespace {
void* counted_alloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using fi::AccountId;
using fi::Time;
using fi::TokenAmount;
using fi::core::Event;
using fi::core::FileId;
using fi::core::Network;
using fi::core::NetworkStats;
using fi::core::Params;
using fi::core::ReplicaTransferRequested;
using fi::core::SectorId;
using fi::scenario::PhaseSpec;
using fi::scenario::ScenarioRunner;
using fi::scenario::ScenarioSpec;

/// SHA-256 of `drive()`'s transcript and of `mixed_spec()`'s report JSON.
constexpr const char* kEventLogDigest =
    "dbc457e575f1a4d02795ce6c16591ccd399fe31a955930ac7a09778e8b457b35";
constexpr const char* kReportDigest =
    "785412f40ee6bf364c400db384d41bac23c7acf20465a886713c950d7c18ca65";

// ---- Event recording ------------------------------------------------------

struct EventPrinter {
  std::ostringstream& out;

  void operator()(const fi::core::FileStored& e) {
    out << "stored f" << e.file;
  }
  void operator()(const fi::core::UploadFailed& e) {
    out << "upload_failed f" << e.file << " " << e.reason;
  }
  void operator()(const fi::core::FileDiscarded& e) {
    out << "discarded f" << e.file << " rent=" << e.for_unpaid_rent;
  }
  void operator()(const fi::core::FileLost& e) {
    out << "lost f" << e.file << " v=" << e.value << " c="
        << e.compensated_now;
  }
  void operator()(const fi::core::SectorCorrupted& e) {
    out << "corrupted s" << e.sector << " conf=" << e.confiscated;
  }
  void operator()(const fi::core::SectorRemoved& e) {
    out << "removed s" << e.sector << " ref=" << e.refunded;
  }
  void operator()(const fi::core::ProviderPunished& e) {
    out << "punished s" << e.sector << " a=" << e.amount << " " << e.reason;
  }
  void operator()(const ReplicaTransferRequested& e) {
    out << "transfer f" << e.file << "#" << e.index << " s" << e.from
        << "->s" << e.to << " d=" << e.deadline;
  }
  void operator()(const fi::core::ReplicaActivated& e) {
    out << "activated f" << e.file << "#" << e.index << " s" << e.sector;
  }
  void operator()(const fi::core::ReplicaReleased& e) {
    out << "released f" << e.file << "#" << e.index << " s" << e.sector;
  }
  void operator()(const fi::core::RefreshSkipped& e) {
    out << "refresh_skipped f" << e.file << "#" << e.index << " s"
        << e.sector;
  }
  void operator()(const fi::core::RentDistributed& e) {
    out << "rent_distributed " << e.total;
  }
};

// ---- A miniature honest-provider harness over core::Network ---------------

std::string sha256_hex(const std::string& text) {
  return fi::util::to_hex(fi::crypto::sha256(std::span(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size())));
}

struct DriveResult {
  /// The event log followed by the end-of-run stats and rent flows.
  std::string transcript;
  NetworkStats stats;
};

/// Drives the full pipeline — uploads, proof cycles, refreshes, physical
/// corruption with one transient outage, discards — recording every
/// emitted event with its timestamp.
DriveResult drive() {
  Params params;
  params.min_value = 10;
  params.k = 3;
  params.cap_para = 200.0;
  params.gamma_deposit = 0.01;
  params.avg_refresh = 2.0;  // heavy refresh traffic

  fi::ledger::Ledger ledger;
  Network net(params, ledger, /*seed=*/99);

  std::ostringstream log;
  std::vector<ReplicaTransferRequested> transfers;
  net.subscribe([&](const Event& event) {
    log << "t" << net.now() << " ";
    std::visit(EventPrinter{log}, event);
    log << "\n";
    if (const auto* t = std::get_if<ReplicaTransferRequested>(&event)) {
      transfers.push_back(*t);
    }
  });

  const AccountId provider = ledger.create_account(100'000'000);
  const AccountId client = ledger.create_account(100'000'000);
  constexpr std::uint64_t kSectors = 60;
  for (std::uint64_t s = 0; s < kSectors; ++s) {
    const auto id =
        net.sector_register(provider, 4 * params.min_capacity);
    EXPECT_TRUE(id.is_ok()) << id.status().to_string();
  }

  std::vector<FileId> files;
  for (int f = 0; f < 200; ++f) {
    const auto id = net.file_add(
        client, {static_cast<fi::ByteCount>(1024 + (f % 2) * 512), 10, {}});
    EXPECT_TRUE(id.is_ok()) << id.status().to_string();
    files.push_back(id.value());
  }

  const auto confirm_all = [&] {
    std::vector<ReplicaTransferRequested> batch;
    batch.swap(transfers);
    for (const ReplicaTransferRequested& req : batch) {
      if (!net.sectors().exists(req.to)) continue;
      (void)net.file_confirm(net.sectors().at(req.to).owner, req.file,
                             req.index, req.to);
    }
  };
  const auto advance_confirming = [&](Time horizon) {
    confirm_all();
    while (true) {
      const Time next = net.next_task_time();
      if (next == fi::kNoTime || next > horizon) break;
      net.advance_to(next);
      confirm_all();
    }
    net.advance_to(horizon);
    confirm_all();
  };

  // Upload window, then three clean proof cycles.
  advance_confirming(net.now() + 3 + 3 * params.proof_cycle);

  // Physical corruption: three sectors go dark, one recovers before the
  // deadline (late punishments only), the others breach (confiscation +
  // compensation).
  net.corrupt_sector_physical(0);
  net.corrupt_sector_physical(1);
  net.corrupt_sector_physical(2);
  advance_confirming(net.now() + 2 * params.proof_cycle);  // late window
  net.restore_sector_physical(2);
  advance_confirming(net.now() + 3 * params.proof_cycle);  // past deadline

  // Churny tail: discard a deterministic slice, keep proving.
  for (std::size_t f = 0; f < files.size(); f += 7) {
    if (net.file_exists(files[f])) {
      (void)net.file_discard(client, files[f]);
    }
  }
  advance_confirming(net.now() + 3 * params.proof_cycle);

  const TokenAmount settled = net.settle_all_rent();
  const NetworkStats& st = net.stats();
  log << "stats added=" << st.files_added << " stored=" << st.files_stored
      << " upload_failures=" << st.upload_failures
      << " discarded=" << st.files_discarded << " lost=" << st.files_lost
      << " value_lost=" << st.value_lost
      << " compensated=" << st.value_compensated
      << " sectors_corrupted=" << st.sectors_corrupted
      << " refreshes=" << st.refreshes_started << "/"
      << st.refreshes_completed << "/" << st.refreshes_failed << "/"
      << st.refreshes_self << " collisions=" << st.refresh_collisions
      << " resamples=" << st.add_resamples
      << " punishments=" << st.punishments << "\n";
  log << "rent charged=" << net.total_rent_charged()
      << " paid=" << net.total_rent_paid() << " settled=" << settled
      << " files_left=" << net.file_count() << "\n";
  return {log.str(), st};
}

TEST(DeterminismTest, EventSequenceMatchesPinnedDigest) {
  const DriveResult result = drive();
  ASSERT_GT(result.transcript.size(), 0u);
  EXPECT_GT(result.stats.sectors_corrupted, 0u);  // breach path exercised
  EXPECT_GT(result.stats.punishments, 0u);        // late path exercised
  EXPECT_GT(result.stats.refreshes_completed, 0u);
  EXPECT_EQ(sha256_hex(result.transcript), kEventLogDigest);
}

// ---- Scenario-level: serialized reports ----------------------------------

ScenarioSpec mixed_spec() {
  ScenarioSpec spec;
  spec.name = "parallel_determinism";
  spec.seed = 1234;
  spec.sectors = 400;
  spec.sector_units = 4;
  spec.initial_files = 800;
  spec.file_size_min = 1024;
  spec.file_size_max = 2048;
  spec.file_value = 10;
  spec.params.min_value = 10;
  spec.params.k = 3;
  spec.params.cap_para = 200.0;
  spec.params.gamma_deposit = 0.01;
  spec.params.avg_refresh = 5.0;
  spec.phases.push_back(PhaseSpec::make_churn(3, 100, 0.05));
  spec.phases.push_back(PhaseSpec::make_corrupt_burst(0.02, 4));
  spec.phases.push_back(PhaseSpec::make_selfish_refresh(0.3, 3));
  spec.phases.push_back(PhaseSpec::make_rent_audit(1));
  return spec;
}

TEST(DeterminismTest, ScenarioReportMatchesPinnedDigest) {
  ScenarioRunner runner(mixed_spec());
  const std::string report = runner.run().to_json(false);
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(sha256_hex(report), kReportDigest);
}

// ---- Allocation-free steady-state sweeps ----------------------------------

/// The SoA/arena layout's contract: after warm-up, a proof-cycle sweep
/// recycles every buffer it needs — the pending list's time buckets and
/// the popped-task batch — so a steady-state epoch makes no heap
/// allocation at all.
TEST(DeterminismTest, SteadyStateSweepIsAllocationFree) {
  Params params;
  params.min_value = 10;
  params.k = 3;
  params.cap_para = 200.0;
  params.gamma_deposit = 0.01;
  params.avg_refresh = 1e15;  // refresh countdowns never fire: pure sweeps

  fi::ledger::Ledger ledger;
  Network net(params, ledger, /*seed=*/77);

  const AccountId provider = ledger.create_account(100'000'000);
  const AccountId client = ledger.create_account(100'000'000);
  for (std::uint64_t s = 0; s < 40; ++s) {
    ASSERT_TRUE(net.sector_register(provider, 4 * params.min_capacity).is_ok());
  }
  std::vector<ReplicaTransferRequested> transfers;
  net.subscribe([&](const Event& event) {
    if (const auto* t = std::get_if<ReplicaTransferRequested>(&event)) {
      transfers.push_back(*t);
    }
  });
  std::vector<FileId> files;
  for (int f = 0; f < 100; ++f) {
    const auto id = net.file_add(client, {1024, 10, {}});
    ASSERT_TRUE(id.is_ok()) << id.status().to_string();
    files.push_back(id.value());
  }
  for (const ReplicaTransferRequested& req : transfers) {
    ASSERT_TRUE(net
                    .file_confirm(net.sectors().at(req.to).owner, req.file,
                                  req.index, req.to)
                    .is_ok());
  }

  // Warm-up: three full proof cycles grow every reused buffer to its
  // steady-state capacity.
  net.advance_to(net.now() + 3 + 3 * params.proof_cycle);
  ASSERT_GT(net.stats().files_stored, 0u);

  // Measured window: two more steady-state cycles, zero allocations.
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  net.advance_to(net.now() + 2 * params.proof_cycle);
  g_count_allocations.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u);

  // Sanity: the hook itself works — a deliberate allocation is counted.
  g_count_allocations.store(true, std::memory_order_relaxed);
  auto* probe = new std::uint64_t(42);
  g_count_allocations.store(false, std::memory_order_relaxed);
  delete probe;
  EXPECT_GE(g_allocation_count.load(std::memory_order_relaxed), 1u);
}

/// The delivery queue's half of the contract: with regional_latency's
/// latency profile, a warm tick that delivers what is due and sends the
/// next batch reuses the storage of the tick it drained.
TEST(DeterminismTest, SteadyStateDeliveryIsAllocationFree) {
  const fi::sim::NetConfig config{.regions = 4,
                                  .base_latency = 2,
                                  .region_latency = 6,
                                  .ticks_per_kib = 1,
                                  .jitter = 4,
                                  .drop_probability = 0.02};
  fi::sim::NetModel model(config, /*seed=*/4242);
  std::uint64_t file = 0;
  const auto tick = [&](Time now) {
    fi::sim::TransferMessage msg;
    while (model.pop_due(now, msg)) {
    }
    for (int i = 0; i < 64; ++i, ++file) {
      model.send(now, 1536,
                 {.file = file,
                  .from_sector = file % 7 == 0 ? ~std::uint64_t{0} : file % 37,
                  .to_sector = file % 41,
                  .deadline = now + 40});
    }
  };

  // Warm-up: every in-flight tick and reused buffer reaches its size.
  Time now = 0;
  for (; now < 2000; ++now) tick(now);
  ASSERT_GT(model.in_flight(), 0u);

  // Measured window: 200 more ticks, zero allocations.
  const std::uint64_t delivered = model.delivered();
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  for (; now < 2200; ++now) tick(now);
  g_count_allocations.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u);
  EXPECT_GT(model.delivered(), delivered + 100 * 60);
}

}  // namespace
