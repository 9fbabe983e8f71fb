#include <gtest/gtest.h>

#include <optional>

#include "core/network.h"
#include "ledger/account.h"

/// Edge cases of the protocol engine: mid-flight corruptions, transient
/// outages, stale requests, and boundary arithmetic — the corners that the
/// happy-path suites don't reach.
namespace fi::core {
namespace {

Params edge_params() {
  Params p;
  p.min_capacity = 4 * 1024;
  p.min_value = 10;
  p.k = 2;
  p.cap_para = 10.0;
  p.gamma_deposit = 0.5;
  p.proof_cycle = 100;
  p.proof_due = 150;
  p.proof_deadline = 300;
  p.avg_refresh = 5.0;  // busy refreshes: several tests race them
  return p;
}

struct EdgeFixture : ::testing::Test {
  void build(int sectors = 4, ByteCount capacity = 4 * 4096) {
    net = std::make_unique<Network>(edge_params(), ledger, /*seed=*/21);
    net->subscribe([this](const Event& e) { events.push_back(e); });
    client = ledger.create_account(1'000'000);
    for (int i = 0; i < sectors; ++i) {
      providers.push_back(ledger.create_account(1'000'000));
      sectors_.push_back(
          net->sector_register(providers.back(), capacity).value());
    }
  }

  FileId add_and_store(ByteCount size, TokenAmount value) {
    auto id = net->file_add(client, {size, value, {}});
    EXPECT_TRUE(id.is_ok());
    for (ReplicaIndex i = 0; i < net->allocations().replica_count(id.value());
         ++i) {
      const AllocEntry& e = net->allocations().entry(id.value(), i);
      if (e.state != AllocState::alloc || e.next == kNoSector) continue;
      EXPECT_TRUE(net->file_confirm(net->sectors().at(e.next).owner,
                                    id.value(), i, e.next)
                      .is_ok());
    }
    net->advance_to(net->now() +
                    net->params().transfer_window(size));
    return id.value();
  }

  /// Drives chain tasks until some replica of `file` is mid-refresh
  /// (state alloc with both prev and next set).
  void force_refresh(FileId file) {
    for (int guard = 0; guard < 20000; ++guard) {
      net->advance_to(net->next_task_time());
      for (ReplicaIndex i = 0; i < net->allocations().replica_count(file);
           ++i) {
        const AllocEntry& e = net->allocations().entry(file, i);
        if (e.next != kNoSector && e.prev != kNoSector &&
            e.state == AllocState::alloc) {
          return;
        }
      }
    }
    FAIL() << "no refresh started";
  }

  ledger::Ledger ledger;
  std::unique_ptr<Network> net;
  ClientId client = 0;
  std::vector<ProviderId> providers;
  std::vector<SectorId> sectors_;
  std::vector<Event> events;
};

// ---------------------------------------------------------------------------
// Transient outages (restore_sector_physical)
// ---------------------------------------------------------------------------

TEST_F(EdgeFixture, TransientOutageSlashedButNotConfiscated) {
  build();
  const FileId id = add_and_store(1000, 20);
  const SectorId victim = net->allocations().entry(id, 0).prev;
  const TokenAmount deposit = net->deposits().remaining(victim);

  net->corrupt_sector_physical(victim);
  // Past ProofDue (two cycles) but back before ProofDeadline.
  net->advance_to(net->now() + 2 * net->params().proof_cycle + 5);
  net->restore_sector_physical(victim);
  net->advance_to(net->now() + 3 * net->params().proof_cycle);

  EXPECT_EQ(net->sectors().at(victim).state, SectorState::normal);
  EXPECT_LT(net->deposits().remaining(victim), deposit);  // slashed
  EXPECT_GT(net->deposits().remaining(victim), 0u);       // not confiscated
  EXPECT_TRUE(net->file_exists(id));
}

TEST_F(EdgeFixture, RestoreAfterConfiscationIsANoOp) {
  build();
  const FileId id = add_and_store(1000, 20);
  const SectorId victim = net->allocations().entry(id, 0).prev;
  net->corrupt_sector_now(victim);
  net->restore_sector_physical(victim);  // too late: chain already acted
  EXPECT_EQ(net->sectors().at(victim).state, SectorState::corrupted);
  EXPECT_TRUE(net->is_physically_corrupted(victim));
}

// ---------------------------------------------------------------------------
// Corruption racing a refresh
// ---------------------------------------------------------------------------

TEST_F(EdgeFixture, RefreshTargetDiesMidFlight) {
  build(6);
  const FileId id = add_and_store(1000, 20);
  force_refresh(id);
  // Find the in-flight entry and kill its target.
  bool exercised = false;
  for (ReplicaIndex i = 0; i < net->allocations().replica_count(id); ++i) {
    const AllocEntry& e = net->allocations().entry(id, i);
    if (e.next != kNoSector && e.prev != kNoSector) {
      const SectorId target = e.next;
      net->corrupt_sector_now(target);
      const AllocEntry& after = net->allocations().entry(id, i);
      // The transfer is cancelled; the old holder keeps the replica.
      EXPECT_EQ(after.next, kNoSector);
      EXPECT_EQ(after.state, AllocState::normal);
      EXPECT_NE(after.prev, target);
      exercised = true;
      break;
    }
  }
  ASSERT_TRUE(exercised) << "no in-flight refresh found";
  net->advance_to(net->now() + 5 * net->params().proof_cycle);
  EXPECT_TRUE(net->file_exists(id));
}

TEST_F(EdgeFixture, RefreshSourceDiesAfterConfirmCompletesSwap) {
  build(6);
  const FileId id = add_and_store(1000, 20);
  force_refresh(id);
  bool exercised = false;
  for (ReplicaIndex i = 0; i < net->allocations().replica_count(id); ++i) {
    const AllocEntry& e = net->allocations().entry(id, i);
    if (e.next != kNoSector && e.prev != kNoSector &&
        e.state == AllocState::alloc) {
      const SectorId source = e.prev;
      const SectorId target = e.next;
      // The successor confirms, then the source dies before CheckRefresh.
      ASSERT_TRUE(net->file_confirm(net->sectors().at(target).owner, id, i,
                                    target)
                      .is_ok());
      net->corrupt_sector_now(source);
      const AllocEntry& after = net->allocations().entry(id, i);
      // The healthy new copy is adopted instead of being thrown away.
      EXPECT_EQ(after.prev, target);
      EXPECT_EQ(after.next, kNoSector);
      EXPECT_EQ(after.state, AllocState::normal);
      exercised = true;
      break;
    }
  }
  ASSERT_TRUE(exercised);
  net->advance_to(net->now() + 5 * net->params().proof_cycle);
  EXPECT_TRUE(net->file_exists(id));
}

TEST_F(EdgeFixture, UploadTargetDiesBeforeConfirmToleratedAsDeadSlot) {
  build(4, 2 * 4096);
  auto id = net->file_add(client, {1000, 20, {}});  // cp = 4
  ASSERT_TRUE(id.is_ok());
  // Confirm three replicas; the fourth's sector dies before confirming.
  ReplicaIndex unconfirmed = 4;
  for (ReplicaIndex i = 0; i < 4; ++i) {
    const AllocEntry& e = net->allocations().entry(id.value(), i);
    if (i == 3) {
      net->corrupt_sector_now(e.next);
      unconfirmed = i;
      break;
    }
    ASSERT_TRUE(net->file_confirm(net->sectors().at(e.next).owner, id.value(),
                                  i, e.next)
                    .is_ok());
  }
  ASSERT_LT(unconfirmed, 4u);
  net->advance_to(net->params().transfer_window(1000));
  // Fig. 7: corrupted entries are tolerated — the file stores with a dead
  // replica slot instead of failing the upload.
  ASSERT_TRUE(net->file_exists(id.value()));
  EXPECT_EQ(net->allocations().entry(id.value(), unconfirmed).state,
            AllocState::corrupted);
  EXPECT_EQ(net->stats().files_stored, 1u);
  EXPECT_EQ(net->stats().upload_failures, 0u);
}

// ---------------------------------------------------------------------------
// Stale and malformed requests
// ---------------------------------------------------------------------------

TEST_F(EdgeFixture, RequestsAgainstUnknownEntitiesRejected) {
  build();
  std::vector<SectorId> holders{7};
  EXPECT_EQ(net->file_get(client, 999, holders).status().code(),
            util::ErrorCode::not_found);
  EXPECT_TRUE(holders.empty());
  EXPECT_EQ(net->file_discard(client, 999).code(),
            util::ErrorCode::not_found);
  EXPECT_EQ(net->sector_disable(providers[0], 999).code(),
            util::ErrorCode::not_found);
  EXPECT_EQ(net->file_confirm(providers[0], 999, 0, sectors_[0]).code(),
            util::ErrorCode::not_found);
}

TEST_F(EdgeFixture, ConfirmAfterUploadFailureIsStale) {
  build();
  auto id = net->file_add(client, {1000, 20, {}});
  ASSERT_TRUE(id.is_ok());
  const AllocEntry e0 = net->allocations().entry(id.value(), 0);
  net->advance_to(net->params().transfer_window(1000));  // nobody confirmed
  ASSERT_FALSE(net->file_exists(id.value()));
  EXPECT_EQ(net->file_confirm(net->sectors().at(e0.next).owner, id.value(), 0,
                              e0.next)
                .code(),
            util::ErrorCode::not_found);
}

TEST_F(EdgeFixture, AdvanceBackwardsThrows) {
  build();
  net->advance_to(100);
  EXPECT_THROW(net->advance_to(50), util::InvariantViolation);
}

// ---------------------------------------------------------------------------
// Sector lifecycle corners
// ---------------------------------------------------------------------------

TEST_F(EdgeFixture, DisabledSectorDrainsViaFileRemovalToo) {
  build();
  const FileId id = add_and_store(1000, 20);
  // Disable every sector hosting a replica, then discard the file: the
  // sectors drain through file removal rather than refresh.
  std::vector<SectorId> hosts;
  for (ReplicaIndex i = 0; i < 2; ++i) {
    const SectorId s = net->allocations().entry(id, i).prev;
    if (net->sectors().at(s).state == SectorState::normal) {
      ASSERT_TRUE(net->sector_disable(net->sectors().at(s).owner, s).is_ok());
      hosts.push_back(s);
    }
  }
  ASSERT_TRUE(net->file_discard(client, id).is_ok());
  net->advance_to(net->now() + 2 * net->params().proof_cycle);
  for (SectorId s : hosts) {
    EXPECT_EQ(net->sectors().at(s).state, SectorState::removed) << s;
  }
}

TEST_F(EdgeFixture, DoubleCorruptionConfiscatesOnce) {
  build();
  const FileId id = add_and_store(1000, 20);
  const SectorId victim = net->allocations().entry(id, 0).prev;
  net->corrupt_sector_now(victim);
  const TokenAmount pool = net->deposits().pool_balance();
  net->corrupt_sector_now(victim);  // idempotent
  EXPECT_EQ(net->deposits().pool_balance(), pool);
  EXPECT_EQ(net->stats().sectors_corrupted, 1u);
}

TEST_F(EdgeFixture, DepositRoundingNeverUndercollateralizes) {
  Params p = edge_params();
  p.gamma_deposit = 0.00001;  // absurdly small: still rounds up to >= 1
  net = std::make_unique<Network>(p, ledger, 9);
  const ProviderId provider = ledger.create_account(1'000'000);
  const auto s = net->sector_register(provider, p.min_capacity);
  ASSERT_TRUE(s.is_ok());
  EXPECT_GE(net->deposits().remaining(s.value()), 1u);
}

// ---------------------------------------------------------------------------
// Ledger corner
// ---------------------------------------------------------------------------

TEST(LedgerEdge, SelfTransferIsANetNoOp) {
  ledger::Ledger ledger;
  const AccountId a = ledger.create_account(100);
  ASSERT_TRUE(ledger.transfer(a, a, 40).is_ok());
  EXPECT_EQ(ledger.balance(a), 100u);
  EXPECT_EQ(ledger.transfer(a, a, 200).code(),
            util::ErrorCode::insufficient_funds);
}

}  // namespace
}  // namespace fi::core
