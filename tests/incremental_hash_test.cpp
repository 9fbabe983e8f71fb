// Incremental state-hash invariants (src/snapshot/incremental_hash.h):
//
//   1. After EVERY mutation, the cached O(changed-state) fingerprint equals
//      a from-scratch recompute — version counters never miss a mutation.
//   2. The refresh really is O(delta): an unchanged network re-hashes zero
//      components, a localized mutation re-hashes only the touched ones.
//   3. A resumed snapshot reproduces the original run's subtree digests
//      component for component.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "core/network.h"
#include "ledger/account.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "snapshot/incremental_hash.h"
#include "snapshot/snapshot.h"
#include "util/config.h"

namespace fi {
namespace {

namespace fs = std::filesystem;

using core::Network;
using snapshot::IncrementalNetworkHasher;

// ---------------------------------------------------------------------------
// Direct engine driving: invariant after every mutation
// ---------------------------------------------------------------------------

class IncrementalHashFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Params p;
    p.min_capacity = 1024;
    p.min_value = 10;
    p.k = 2;
    p.cap_para = 10.0;
    p.gamma_deposit = 0.5;
    p.proof_cycle = 100;
    p.proof_due = 150;
    p.proof_deadline = 300;
    p.avg_refresh = 1000.0;
    p.verify_proofs = false;
    params = p;
    net = std::make_unique<Network>(p, ledger, /*seed=*/7);
    client = ledger.create_account(1'000'000);
    for (int i = 0; i < 4; ++i) {
      providers.push_back(ledger.create_account(1'000'000));
    }
  }

  /// The headline invariant, checked after every mutation step below.
  void expect_incremental_matches_full(const char* at) {
    EXPECT_EQ(hasher.fingerprint(*net),
              IncrementalNetworkHasher::full_fingerprint(*net))
        << "incremental fingerprint diverged after: " << at;
  }

  void confirm_all(core::FileId file) {
    for (core::ReplicaIndex i = 0;
         i < net->allocations().replica_count(file); ++i) {
      const core::AllocEntry e = net->allocations().entry(file, i);
      if (e.state != core::AllocState::alloc || e.next == core::kNoSector) {
        continue;
      }
      const core::ProviderId owner = net->sectors().at(e.next).owner;
      ASSERT_TRUE(
          net->file_confirm(owner, file, i, e.next, {}, std::nullopt).is_ok());
    }
  }

  core::Params params;
  ledger::Ledger ledger;
  std::unique_ptr<Network> net;
  core::ClientId client = kNoAccount;
  std::vector<core::ProviderId> providers;
  IncrementalNetworkHasher hasher;
};

TEST_F(IncrementalHashFixture, InvariantHoldsAfterEveryMutation) {
  expect_incremental_matches_full("construction");

  std::vector<core::SectorId> sectors;
  for (const core::ProviderId p : providers) {
    auto id = net->sector_register(p, 4 * 1024);
    ASSERT_TRUE(id.is_ok());
    sectors.push_back(id.value());
    expect_incremental_matches_full("sector_register");
  }

  auto file = net->file_add(client, {1000, 20, {}});
  ASSERT_TRUE(file.is_ok());
  expect_incremental_matches_full("file_add");

  confirm_all(file.value());
  expect_incremental_matches_full("file_confirm");

  net->advance_to(net->now() + params.transfer_window(1000));
  expect_incremental_matches_full("advance_to (check_alloc)");
  ASSERT_TRUE(net->file_exists(file.value()));

  net->advance_to(net->now() + 5 * params.proof_cycle);
  expect_incremental_matches_full("advance_to (proof cycles)");

  net->corrupt_sector_physical(sectors[0]);
  expect_incremental_matches_full("corrupt_sector_physical");

  net->restore_sector_physical(sectors[0]);
  expect_incremental_matches_full("restore_sector_physical");

  net->corrupt_sector_now(sectors[1]);
  expect_incremental_matches_full("corrupt_sector_now");

  net->settle_all_rent();
  expect_incremental_matches_full("settle_all_rent");

  // The corruptions above may already have cost the file its replicas;
  // get/discard still mutate state (rng draws, stats, escrow) when they
  // run, and the invariant must hold either way.
  if (net->file_exists(file.value())) {
    std::vector<core::SectorId> holders;
    ASSERT_TRUE(net->file_get(client, file.value(), holders).is_ok());
    expect_incremental_matches_full("file_get");

    ASSERT_TRUE(net->file_discard(client, file.value()).is_ok());
    expect_incremental_matches_full("file_discard");
  }

  // May be rejected (the sector can still host replicas); a rejected
  // request must leave the fingerprint coherent too.
  (void)net->sector_disable(net->sectors().at(sectors[2]).owner, sectors[2]);
  expect_incremental_matches_full("sector_disable");
}

TEST_F(IncrementalHashFixture, RefreshCountIsProportionalToChange) {
  for (const core::ProviderId p : providers) {
    ASSERT_TRUE(net->sector_register(p, 4 * 1024).is_ok());
  }
  auto file = net->file_add(client, {1000, 20, {}});
  ASSERT_TRUE(file.is_ok());
  confirm_all(file.value());
  net->advance_to(net->now() + params.transfer_window(1000));

  // First fingerprint hashes all six components.
  hasher.fingerprint(*net);
  EXPECT_EQ(hasher.last_refresh_count(), Network::kStateComponentCount);

  // No mutation: everything served from cache.
  hasher.fingerprint(*net);
  EXPECT_EQ(hasher.last_refresh_count(), 0u);

  // A physical corruption only flips a misc-component flag: exactly one
  // component re-hashes.
  net->corrupt_sector_physical(1);
  hasher.fingerprint(*net);
  EXPECT_EQ(hasher.last_refresh_count(), 1u);

  // And the fingerprint still matches the from-scratch oracle.
  EXPECT_EQ(hasher.fingerprint(*net),
            IncrementalNetworkHasher::full_fingerprint(*net));
}

TEST_F(IncrementalHashFixture, ComponentDigestsDistinguishComponents) {
  for (const core::ProviderId p : providers) {
    ASSERT_TRUE(net->sector_register(p, 4 * 1024).is_ok());
  }
  hasher.fingerprint(*net);
  // Six live subtree digests, pairwise distinct (the component index is
  // folded into each digest, so even empty components differ).
  for (std::size_t a = 0; a < Network::kStateComponentCount; ++a) {
    for (std::size_t b = a + 1; b < Network::kStateComponentCount; ++b) {
      EXPECT_NE(hasher.component_digest(
                    static_cast<Network::StateComponent>(a)),
                hasher.component_digest(
                    static_cast<Network::StateComponent>(b)))
          << "components " << a << " and " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Scenario runner: invariant across epochs, and across save/resume
// ---------------------------------------------------------------------------

scenario::ScenarioSpec small_spec() {
  auto config = util::Config::load(std::string(FI_CONFIG_DIR) + "/smoke.cfg");
  EXPECT_TRUE(config.is_ok()) << config.status().to_string();
  auto parsed = scenario::ScenarioSpec::from_config(config.value());
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  scenario::ScenarioSpec spec = std::move(parsed).value();
  spec.sectors = std::min<std::uint64_t>(spec.sectors, 60);
  spec.initial_files = std::min<std::uint64_t>(spec.initial_files, 80);
  for (scenario::PhaseSpec& phase : spec.phases) {
    phase.cycles = std::min<std::uint64_t>(phase.cycles, 6);
    phase.periods = std::min<std::uint64_t>(phase.periods, 1);
    phase.adds_per_cycle = std::min<std::uint64_t>(phase.adds_per_cycle, 6);
  }
  return spec;
}

TEST(IncrementalHashRunner, InvariantHoldsAtEveryEpochCheckpoint) {
  // The epoch callback is the checkpoint-safe point the snapshot layer
  // hooks; a persistent hasher there exercises the version counters across
  // full proof-cycle batches, including the proof sweep's `last` stamps.
  scenario::ScenarioRunner runner(small_spec());
  IncrementalNetworkHasher hasher;
  std::uint64_t checkpoints = 0;
  runner.set_epoch_callback([&](const scenario::ScenarioRunner& at_epoch) {
    ++checkpoints;
    ASSERT_EQ(hasher.fingerprint(at_epoch.network()),
              IncrementalNetworkHasher::full_fingerprint(at_epoch.network()))
        << "epoch " << at_epoch.epoch();
  });
  runner.run();
  EXPECT_GE(checkpoints, 5u);
}

TEST(IncrementalHashRunner, ResumedSnapshotReproducesSubtreeDigests) {
  const scenario::ScenarioSpec spec = small_spec();

  // Uninterrupted run to completion.
  scenario::ScenarioRunner full(spec);
  full.run();
  IncrementalNetworkHasher full_hasher;
  const crypto::Hash256 full_root = full_hasher.fingerprint(full.network());

  // Save mid-run, resume, finish.
  const fs::path path =
      fs::path(::testing::TempDir()) / "fi_incremental_hash.fisnap";
  {
    scenario::ScenarioRunner saver(spec);
    saver.set_epoch_callback([&](const scenario::ScenarioRunner& at_epoch) {
      if (at_epoch.epoch() == 3) {
        ASSERT_TRUE(
            snapshot::save_to_file(at_epoch, path.string()).is_ok());
      }
    });
    saver.run();
  }
  ASSERT_TRUE(fs::exists(path));
  auto resumed = snapshot::resume_from_file(path.string());
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  resumed.value()->run();

  // The resumed run must land on the identical per-component subtree
  // digests — not just the same root.
  IncrementalNetworkHasher resumed_hasher;
  EXPECT_EQ(resumed_hasher.fingerprint(resumed.value()->network()),
            full_root);
  for (std::size_t c = 0; c < Network::kStateComponentCount; ++c) {
    const auto component = static_cast<Network::StateComponent>(c);
    EXPECT_EQ(resumed_hasher.component_digest(component),
              full_hasher.component_digest(component))
        << Network::state_component_name(component);
  }
  fs::remove(path);
}

}  // namespace
}  // namespace fi
