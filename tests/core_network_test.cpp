#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "core/network.h"
#include "ledger/account.h"

namespace fi::core {
namespace {

/// Engine fixture: replicas auto-prove unless a test withholds their
/// sector's proofs with `corrupt_sector_physical`.
class NetworkFixture : public ::testing::Test {
 protected:
  static Params test_params() {
    Params p;
    p.min_capacity = 1024;
    p.min_value = 10;
    p.k = 2;
    p.cap_para = 10.0;
    p.gamma_deposit = 0.5;  // generous pool so compensation is visible
    p.proof_cycle = 100;
    p.proof_due = 150;
    p.proof_deadline = 300;
    p.avg_refresh = 1000.0;  // effectively no refresh unless a test wants it
    return p;
  }

  void build(Params p, int sectors = 4, ByteCount capacity = 4 * 1024) {
    params = p;
    net = std::make_unique<Network>(p, ledger, /*seed=*/7);
    net->subscribe([this](const Event& e) { events.push_back(e); });
    client = ledger.create_account(1'000'000);
    for (int i = 0; i < sectors; ++i) {
      providers.push_back(ledger.create_account(1'000'000));
      auto id = net->sector_register(providers.back(), capacity);
      EXPECT_TRUE(id.is_ok()) << id.status().to_string();
      sectors_.push_back(id.value());
    }
  }

  /// Adds a file and confirms every replica, returning the id.
  FileId add_and_store(ByteCount size, TokenAmount value) {
    auto id = net->file_add(client, {size, value, {}});
    EXPECT_TRUE(id.is_ok()) << id.status().to_string();
    confirm_all(id.value());
    const Time deadline = net->now() + params.transfer_window(size);
    net->advance_to(deadline);
    EXPECT_TRUE(net->file_exists(id.value()));
    return id.value();
  }

  void confirm_all(FileId file) {
    for (ReplicaIndex i = 0; i < net->allocations().replica_count(file); ++i) {
      const AllocEntry& e = net->allocations().entry(file, i);
      if (e.state != AllocState::alloc || e.next == kNoSector) continue;
      const ProviderId owner = net->sectors().at(e.next).owner;
      auto status = net->file_confirm(owner, file, i, e.next);
      EXPECT_TRUE(status.is_ok()) << status.to_string();
    }
  }

  template <typename E>
  [[nodiscard]] std::vector<E> events_of() const {
    std::vector<E> out;
    for (const Event& e : events) {
      if (const E* ev = std::get_if<E>(&e)) out.push_back(*ev);
    }
    return out;
  }

  /// Every token in the system is in a known account.
  [[nodiscard]] TokenAmount system_total() const {
    TokenAmount total = ledger.balance(client);
    for (AccountId p : providers) total += ledger.balance(p);
    total += ledger.balance(net->escrow_account());
    total += ledger.balance(net->pool_account());
    total += ledger.balance(net->rent_pool_account());
    total += ledger.balance(net->gas_sink_account());
    total += ledger.balance(net->traffic_escrow_account());
    return total;
  }

  Params params;
  ledger::Ledger ledger;
  std::unique_ptr<Network> net;
  ClientId client = 0;
  std::vector<ProviderId> providers;
  std::vector<SectorId> sectors_;
  std::vector<Event> events;
};

// ---------------------------------------------------------------------------
// Sector registration / disable
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, RegisterPledgesDeposit) {
  build(test_params(), 1);
  const TokenAmount deposit = params.sector_deposit(4 * 1024);
  EXPECT_EQ(net->deposits().remaining(sectors_[0]), deposit);
  EXPECT_EQ(ledger.balance(providers[0]),
            1'000'000 - deposit - params.gas_per_task);
}

TEST_F(NetworkFixture, RegisterRejectsBadCapacityAndPoorProvider) {
  build(test_params(), 1);
  EXPECT_EQ(net->sector_register(providers[0], 1000).status().code(),
            util::ErrorCode::invalid_argument);
  const AccountId pauper = ledger.create_account(1);
  EXPECT_EQ(net->sector_register(pauper, 1024).status().code(),
            util::ErrorCode::insufficient_funds);
}

TEST_F(NetworkFixture, DisableEmptySectorRefundsImmediately) {
  build(test_params(), 1);
  const TokenAmount before = ledger.balance(providers[0]);
  ASSERT_TRUE(net->sector_disable(providers[0], sectors_[0]).is_ok());
  EXPECT_EQ(net->sectors().at(sectors_[0]).state, SectorState::removed);
  EXPECT_EQ(ledger.balance(providers[0]),
            before + params.sector_deposit(4 * 1024) - params.gas_per_task);
  EXPECT_EQ(events_of<SectorRemoved>().size(), 1u);
}

TEST_F(NetworkFixture, DisableRequiresOwnership) {
  build(test_params(), 2);
  EXPECT_EQ(net->sector_disable(providers[0], sectors_[1]).code(),
            util::ErrorCode::permission_denied);
}

// ---------------------------------------------------------------------------
// File_Add validation and allocation
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, FileAddValidatesInputs) {
  build(test_params());
  EXPECT_EQ(net->file_add(client, {0, 10, {}}).status().code(),
            util::ErrorCode::invalid_argument);
  EXPECT_EQ(net->file_add(client, {100, 15, {}}).status().code(),
            util::ErrorCode::invalid_argument);
  EXPECT_EQ(net->file_add(client, {100, 0, {}}).status().code(),
            util::ErrorCode::invalid_argument);
  EXPECT_EQ(net->file_add(999, {100, 10, {}}).status().code(),
            util::ErrorCode::not_found);
}

TEST_F(NetworkFixture, FileAddReservesSpaceAndEmitsTransfers) {
  build(test_params());
  auto id = net->file_add(client, {2048, 20, {}});  // cp = 4
  ASSERT_TRUE(id.is_ok());
  const auto requests = events_of<ReplicaTransferRequested>();
  ASSERT_EQ(requests.size(), 4u);
  ByteCount reserved = 0;
  for (SectorId s : sectors_) {
    reserved += net->sectors().at(s).capacity - net->sectors().at(s).free_cap;
  }
  EXPECT_EQ(reserved, 4u * 2048u);
  for (const auto& r : requests) {
    EXPECT_EQ(r.from, kNoSector);
    EXPECT_EQ(r.client, client);
    EXPECT_EQ(r.deadline, params.transfer_window(2048));
  }
}

TEST_F(NetworkFixture, FileAddFailsWhenNothingFits) {
  build(test_params(), 2, 1024);
  // 800-byte file, cp=2; both sectors can hold one replica each; a second
  // file cannot fit anywhere.
  ASSERT_TRUE(net->file_add(client, {800, 10, {}}).is_ok());
  const auto result = net->file_add(client, {800, 10, {}});
  EXPECT_EQ(result.status().code(), util::ErrorCode::insufficient_space);
  EXPECT_GT(net->stats().add_resamples, 0u);
  // Failed allocation must not leak reservations.
  ByteCount reserved = 0;
  for (SectorId s : sectors_) {
    reserved += net->sectors().at(s).capacity - net->sectors().at(s).free_cap;
  }
  EXPECT_EQ(reserved, 2u * 800u);
}

TEST_F(NetworkFixture, FileAddWithNoSectorsFails) {
  build(test_params(), 0);
  EXPECT_EQ(net->file_add(client, {100, 10, {}}).status().code(),
            util::ErrorCode::unavailable);
}

// ---------------------------------------------------------------------------
// Upload: confirm, CheckAlloc success and failure
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, SuccessfulUploadActivatesReplicas) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  EXPECT_EQ(events_of<FileStored>().size(), 1u);
  EXPECT_EQ(events_of<ReplicaActivated>().size(), 4u);
  for (ReplicaIndex i = 0; i < 4; ++i) {
    const AllocEntry& e = net->allocations().entry(id, i);
    EXPECT_EQ(e.state, AllocState::normal);
    EXPECT_NE(e.prev, kNoSector);
    EXPECT_EQ(e.next, kNoSector);
    EXPECT_NE(e.last, kNoTime);
  }
  EXPECT_EQ(net->total_stored_value(), 20u);
  EXPECT_EQ(net->stats().files_stored, 1u);
}

TEST_F(NetworkFixture, ConfirmValidations) {
  build(test_params());
  auto id = net->file_add(client, {1000, 10, {}});
  ASSERT_TRUE(id.is_ok());
  const AllocEntry& e = net->allocations().entry(id.value(), 0);
  const ProviderId owner = net->sectors().at(e.next).owner;
  // Wrong provider.
  const ProviderId wrong =
      providers[0] == owner ? providers[1] : providers[0];
  if (net->sectors().at(e.next).owner != wrong) {
    EXPECT_EQ(net->file_confirm(wrong, id.value(), 0, e.next).code(),
              util::ErrorCode::permission_denied);
  }
  // Unknown file / bad index.
  EXPECT_EQ(net->file_confirm(owner, 999, 0, e.next).code(),
            util::ErrorCode::not_found);
  EXPECT_EQ(net->file_confirm(owner, id.value(), 9, e.next).code(),
            util::ErrorCode::invalid_argument);
  // Valid confirm, then double-confirm is rejected (state moved on).
  ASSERT_TRUE(net->file_confirm(owner, id.value(), 0, e.next).is_ok());
  EXPECT_EQ(net->file_confirm(owner, id.value(), 0, e.next).code(),
            util::ErrorCode::failed_precondition);
}

TEST_F(NetworkFixture, UnconfirmedUploadFailsAndRefunds) {
  build(test_params());
  const TokenAmount before = ledger.balance(client);
  auto id = net->file_add(client, {1000, 20, {}});  // cp=4
  ASSERT_TRUE(id.is_ok());
  // Only confirm replica 0; the rest never arrive.
  const AllocEntry& e0 = net->allocations().entry(id.value(), 0);
  const ProviderId owner = net->sectors().at(e0.next).owner;
  ASSERT_TRUE(net->file_confirm(owner, id.value(), 0, e0.next).is_ok());
  net->advance_to(params.transfer_window(1000));

  EXPECT_FALSE(net->file_exists(id.value()));
  EXPECT_EQ(net->stats().upload_failures, 1u);
  ASSERT_EQ(events_of<UploadFailed>().size(), 1u);
  // All reservations released.
  for (SectorId s : sectors_) {
    EXPECT_EQ(net->sectors().at(s).free_cap, net->sectors().at(s).capacity);
  }
  // Client got back the 3 unconfirmed traffic fees; the confirmed provider
  // keeps one; gas (request + prepaid CheckAlloc) is burnt.
  const TokenAmount traffic = params.traffic_fee(1000);
  EXPECT_EQ(ledger.balance(client),
            before - 2 * params.gas_per_task - traffic);
  EXPECT_EQ(ledger.balance(net->traffic_escrow_account()), 0u);
}

TEST_F(NetworkFixture, ConfirmedProviderEarnsTrafficFee) {
  build(test_params());
  auto id = net->file_add(client, {1000, 10, {}});
  ASSERT_TRUE(id.is_ok());
  const AllocEntry& e = net->allocations().entry(id.value(), 0);
  const ProviderId owner = net->sectors().at(e.next).owner;
  const TokenAmount before = ledger.balance(owner);
  ASSERT_TRUE(net->file_confirm(owner, id.value(), 0, e.next).is_ok());
  EXPECT_EQ(ledger.balance(owner), before + params.traffic_fee(1000));
}

// ---------------------------------------------------------------------------
// Proofs, punishment, corruption (Auto_CheckProof)
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, AutoProveKeepsFileHealthy) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  net->advance_to(3000);
  EXPECT_TRUE(net->file_exists(id));
  EXPECT_EQ(net->stats().punishments, 0u);
  EXPECT_EQ(net->stats().sectors_corrupted, 0u);
}

TEST_F(NetworkFixture, LateProofPunished) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  // Every sector withholds its proofs: the second CheckProof sees
  // last + proof_due < now.
  for (const SectorId s : sectors_) net->corrupt_sector_physical(s);
  const TokenAmount deposit_before = net->deposits().remaining(
      net->allocations().entry(id, 0).prev);
  net->advance_to(251);  // checks at 1+100=101 (fresh), 201 (late)
  EXPECT_GT(net->stats().punishments, 0u);
  EXPECT_LT(net->deposits().remaining(net->allocations().entry(id, 0).prev),
            deposit_before);
  EXPECT_FALSE(events_of<ProviderPunished>().empty());
  EXPECT_TRUE(net->file_exists(id));
}

TEST_F(NetworkFixture, ProofDeadlineCorruptsSector) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  // No sector proves: at t=301+, last(=1) + 300 < now -> confiscation.
  for (const SectorId s : sectors_) net->corrupt_sector_physical(s);
  net->advance_to(402);
  EXPECT_GT(net->stats().sectors_corrupted, 0u);
  EXPECT_FALSE(events_of<SectorCorrupted>().empty());
  const auto corrupted = events_of<SectorCorrupted>();
  for (const auto& ev : corrupted) {
    EXPECT_EQ(net->deposits().remaining(ev.sector), 0u);
    EXPECT_GT(ev.confiscated, 0u);
  }
  (void)id;
}

// ---------------------------------------------------------------------------
// File loss and compensation
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, LosingAllReplicasCompensatesClient) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  const TokenAmount before = ledger.balance(client);
  // Corrupt every sector holding a replica.
  for (ReplicaIndex i = 0; i < 4; ++i) {
    const AllocEntry& e = net->allocations().entry(id, i);
    if (net->sectors().at(e.prev).state != SectorState::corrupted) {
      net->corrupt_sector_now(e.prev);
    }
  }
  const Time next_check = net->next_task_time();
  net->advance_to(next_check);
  EXPECT_FALSE(net->file_exists(id));
  const auto lost = events_of<FileLost>();
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].value, 20u);
  EXPECT_EQ(lost[0].compensated_now, 20u);  // pool is well funded
  // Fig. 8 deducts the cycle's rent + gas before discovering the loss.
  const TokenAmount cycle_cost =
      params.rent_per_cycle(1000, 4) + 2 * params.gas_per_task;
  EXPECT_EQ(ledger.balance(client), before + 20u - cycle_cost);
  EXPECT_EQ(net->stats().files_lost, 1u);
  EXPECT_EQ(net->stats().value_lost, 20u);
}

TEST_F(NetworkFixture, PartialCorruptionKeepsFileAlive) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  net->corrupt_sector_now(net->allocations().entry(id, 0).prev);
  net->advance_to(net->now() + 5 * params.proof_cycle);
  EXPECT_TRUE(net->file_exists(id));
  EXPECT_EQ(net->stats().files_lost, 0u);
}

TEST_F(NetworkFixture, CompensationShortfallBecomesLiability) {
  Params p = test_params();
  p.gamma_deposit = 0.001;  // deliberately under-collateralized
  build(p, 4, 4 * 1024);
  const FileId id = add_and_store(500, 100);  // cp = 20, value 100
  const TokenAmount client_before = ledger.balance(client);
  // Destroy the whole fleet: every replica is gone, but the confiscated
  // deposits cannot cover the value.
  for (SectorId s : sectors_) net->corrupt_sector_now(s);
  net->advance_to(net->now() + params.proof_cycle + 1);
  EXPECT_FALSE(net->file_exists(id));
  const auto lost = events_of<FileLost>();
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_LT(lost[0].compensated_now, lost[0].value);
  EXPECT_GT(net->deposits().outstanding_liabilities(), 0u);
  // A later confiscation settles the liability FIFO.
  const AccountId fresh_provider = ledger.create_account(1'000'000);
  // Big enough that its confiscated deposit covers the whole shortfall.
  auto fresh = net->sector_register(fresh_provider, 1024 * 1024);
  ASSERT_TRUE(fresh.is_ok());
  net->corrupt_sector_now(fresh.value());
  EXPECT_EQ(net->deposits().outstanding_liabilities(), 0u);
  // Full value arrives net of the cycle's rent+gas deducted at CheckProof.
  const TokenAmount cycle_cost =
      params.rent_per_cycle(500, 20) + 2 * params.gas_per_task;
  EXPECT_EQ(ledger.balance(client), client_before + 100u - cycle_cost);
}

TEST_F(NetworkFixture, LateSettlementCountsAsCompensation) {
  Params p = test_params();
  p.gamma_deposit = 0.001;  // the pool falls short of the loss
  build(p, 4, 4 * 1024);
  (void)add_and_store(500, 100);
  for (SectorId s : sectors_) net->corrupt_sector_now(s);
  net->advance_to(net->now() + params.proof_cycle + 1);
  const auto lost = events_of<FileLost>();
  ASSERT_EQ(lost.size(), 1u);
  ASSERT_LT(lost[0].compensated_now, 100u);
  // The insurance identity (§IV-B): every lost token was paid or is owed,
  // and the engine reports what the deposit book paid.
  const auto insured = [this] {
    const NetworkStats stats = net->stats();
    EXPECT_EQ(stats.value_compensated, net->deposits().total_compensated());
    EXPECT_EQ(stats.value_lost,
              stats.value_compensated +
                  net->deposits().outstanding_liabilities());
  };
  insured();
  EXPECT_EQ(net->stats().value_compensated, lost[0].compensated_now);

  // A later confiscation settles the liability, and the settlement is
  // compensation too.
  auto fresh =
      net->sector_register(ledger.create_account(1'000'000), 1024 * 1024);
  ASSERT_TRUE(fresh.is_ok());
  net->corrupt_sector_now(fresh.value());
  EXPECT_EQ(net->deposits().outstanding_liabilities(), 0u);
  EXPECT_EQ(net->stats().value_compensated, 100u);
  insured();
}

// ---------------------------------------------------------------------------
// Discard and rent
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, DiscardRemovesAtNextCheckProof) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  ASSERT_TRUE(net->file_discard(client, id).is_ok());
  EXPECT_TRUE(net->file_exists(id));  // still there until the check
  net->advance_to(net->now() + params.proof_cycle + 1);
  EXPECT_FALSE(net->file_exists(id));
  const auto discarded = events_of<FileDiscarded>();
  ASSERT_EQ(discarded.size(), 1u);
  EXPECT_FALSE(discarded[0].for_unpaid_rent);
  // Space is reclaimed.
  for (SectorId s : sectors_) {
    EXPECT_EQ(net->sectors().at(s).free_cap, net->sectors().at(s).capacity);
  }
  EXPECT_EQ(net->stats().files_discarded, 1u);
}

TEST_F(NetworkFixture, DiscardRequiresOwnership) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  EXPECT_EQ(net->file_discard(providers[0], id).code(),
            util::ErrorCode::permission_denied);
}

TEST_F(NetworkFixture, RentChargedEachCycleAndDistributed) {
  build(test_params());
  const TokenAmount client_before = ledger.balance(client);
  const FileId id = add_and_store(1000, 20);
  const TokenAmount after_add = ledger.balance(client);
  const TokenAmount upload_cost = client_before - after_add;
  // traffic fees flowed to providers; remaining cost is gas.
  EXPECT_GT(upload_cost, 0u);

  const TokenAmount rent = params.rent_per_cycle(1000, 4);
  net->advance_to(net->now() + params.proof_cycle + 1);  // one CheckProof
  EXPECT_EQ(ledger.balance(client),
            after_add - rent - 2 * params.gas_per_task);

  // After a full rent period the pool pays out to providers by capacity.
  net->advance_to(params.rent_period_cycles * params.proof_cycle + 1);
  EXPECT_FALSE(events_of<RentDistributed>().empty());
  EXPECT_TRUE(net->file_exists(id));
}

TEST_F(NetworkFixture, UnpaidRentDiscardsFile) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  // Drain the client to a balance below one cycle's rent+gas.
  const TokenAmount balance = ledger.balance(client);
  ASSERT_TRUE(ledger.transfer(client, providers[0], balance - 1).is_ok());
  net->advance_to(net->now() + params.proof_cycle + 1);
  EXPECT_FALSE(net->file_exists(id));
  const auto discarded = events_of<FileDiscarded>();
  ASSERT_EQ(discarded.size(), 1u);
  EXPECT_TRUE(discarded[0].for_unpaid_rent);
}

// ---------------------------------------------------------------------------
// Refresh (Auto_Refresh / Auto_CheckRefresh)
// ---------------------------------------------------------------------------

class RefreshFixture : public NetworkFixture {
 protected:
  static Params refresh_params() {
    Params p = test_params();
    p.avg_refresh = 1.0;  // refresh roughly every cycle
    return p;
  }

  /// Confirms any in-flight refresh transfers (plays the honest successor).
  void confirm_refreshes(FileId id) {
    for (ReplicaIndex i = 0; i < net->allocations().replica_count(id); ++i) {
      const AllocEntry& e = net->allocations().entry(id, i);
      if (e.state == AllocState::alloc && e.next != kNoSector &&
          e.prev != kNoSector) {
        const ProviderId owner = net->sectors().at(e.next).owner;
        ASSERT_TRUE(net->file_confirm(owner, id, i, e.next).is_ok());
      }
    }
  }
};

TEST_F(RefreshFixture, RefreshMovesReplicaWhenConfirmed) {
  build(refresh_params());
  const FileId id = add_and_store(1000, 20);
  // Drive cycles, confirming every requested handoff, until a refresh
  // completes.
  for (int step = 0; step < 200 && net->stats().refreshes_completed == 0;
       ++step) {
    const Time next = net->next_task_time();
    net->advance_to(next);
    confirm_refreshes(id);
  }
  EXPECT_GT(net->stats().refreshes_started, 0u);
  EXPECT_GT(net->stats().refreshes_completed, 0u);
  EXPECT_TRUE(net->file_exists(id));
  // Space accounting stays exact: total used == live replicas * size.
  ByteCount used = 0;
  for (SectorId s : sectors_) {
    const Sector& sec = net->sectors().at(s);
    if (sec.state == SectorState::normal) used += sec.capacity - sec.free_cap;
  }
  ByteCount expected = 0;
  for (ReplicaIndex i = 0; i < 4; ++i) {
    const AllocEntry& e = net->allocations().entry(id, i);
    if (e.prev != kNoSector && e.state != AllocState::corrupted) {
      expected += 1000;
    }
    if (e.next != kNoSector) expected += 1000;
  }
  EXPECT_EQ(used, expected);
}

TEST_F(RefreshFixture, FailedHandoffPunishesAndRetries) {
  build(refresh_params());
  const FileId id = add_and_store(1000, 20);
  // Never confirm refresh transfers: each CheckRefresh punishes the
  // successor and all holders, then retries.
  for (int step = 0; step < 60 && net->stats().refreshes_failed == 0; ++step) {
    net->advance_to(net->next_task_time());
  }
  EXPECT_GT(net->stats().refreshes_failed, 0u);
  EXPECT_GT(net->stats().punishments, 0u);
  const auto punished = events_of<ProviderPunished>();
  EXPECT_FALSE(punished.empty());
  EXPECT_TRUE(net->file_exists(id));  // the replica never left its holder
}

TEST_F(RefreshFixture, RefreshSkipsWhenTargetFull) {
  Params p = refresh_params();
  build(p, 2, 1024);  // two tight sectors
  const FileId id = add_and_store(800, 10);  // cp=2 fills both sectors
  for (int step = 0; step < 100 && net->stats().refresh_collisions == 0;
       ++step) {
    net->advance_to(net->next_task_time());
  }
  EXPECT_GT(net->stats().refresh_collisions, 0u);
  EXPECT_FALSE(events_of<RefreshSkipped>().empty());
  EXPECT_TRUE(net->file_exists(id));
}

/// Steps task batch by task batch, confirming nothing, until a refresh of
/// `file` is requested (`from` set) and returns that request.
ReplicaTransferRequested await_refresh(Network& net,
                                       const std::vector<Event>& events,
                                       FileId file) {
  for (int batch = 0; batch < 200; ++batch) {
    const std::size_t seen = events.size();
    net.advance_to(net.next_task_time());
    for (std::size_t e = seen; e < events.size(); ++e) {
      const auto* req = std::get_if<ReplicaTransferRequested>(&events[e]);
      if (req != nullptr && req->file == file && req->from != kNoSector) {
        return *req;
      }
    }
  }
  ADD_FAILURE() << "no refresh of file " << file << " started";
  return {};
}

// A refresh cancelled because its source sector died leaves the file's
// countdown at 0, where Auto_CheckProof no longer counts it down: both
// branches must re-sample it, or the surviving replicas never move again.
// A copy that already landed in a target which then stopped accepting data
// takes over from the dead source on that draining target; the next
// refresh moves it out, so the target still drains, exits and gets its
// deposit back.
TEST_F(RefreshFixture, RefreshCancelledBySourceCorruptionRestartsCountdown) {
  for (const bool target_confirmed : {false, true}) {
    SCOPED_TRACE(target_confirmed ? "target confirmed, then disabled"
                                  : "transfer in flight");
    events.clear();
    providers.clear();
    sectors_.clear();
    build(refresh_params(), 6, 4 * 1024);
    const FileId id = add_and_store(1000, 10);  // k = 2: two replicas
    const ReplicaTransferRequested req = await_refresh(*net, events, id);
    ASSERT_EQ(req.file, id);
    ASSERT_EQ(net->file(id).cntdown, 0);
    if (target_confirmed) {
      const ProviderId target_owner = net->sectors().at(req.to).owner;
      ASSERT_TRUE(
          net->file_confirm(target_owner, id, req.index, req.to).is_ok());
      ASSERT_TRUE(net->sector_disable(target_owner, req.to).is_ok());
    }
    net->corrupt_sector_now(req.from);
    const AllocEntry moved = net->allocations().entry(id, req.index);
    if (target_confirmed) {
      EXPECT_EQ(moved.state, AllocState::normal);
      EXPECT_EQ(moved.prev, req.to);
      EXPECT_EQ(moved.next, kNoSector);
    } else {
      ASSERT_EQ(moved.state, AllocState::corrupted);
    }
    const AllocEntry other = net->allocations().entry(id, 1 - req.index);
    ASSERT_NE(other.state, AllocState::corrupted) << "the file must survive";

    // Stop between refreshes: one in flight holds the countdown at 0.
    const auto refreshing = [&] {
      for (ReplicaIndex i = 0; i < net->allocations().replica_count(id); ++i) {
        if (net->allocations().entry(id, i).next != kNoSector) return true;
      }
      return false;
    };
    const std::uint64_t started = net->stats().refreshes_started;
    for (int step = 0; step < 2000; ++step) {
      if (net->now() > req.deadline + 200 * params.proof_cycle &&
          !refreshing()) {
        break;
      }
      net->advance_to(net->next_task_time());
      if (!net->file_exists(id)) break;
      confirm_refreshes(id);
    }
    ASSERT_TRUE(net->file_exists(id));
    ASSERT_FALSE(refreshing());
    EXPECT_GT(net->file(id).cntdown, 0);
    EXPECT_GT(net->stats().refreshes_started, started);
    if (target_confirmed) {
      EXPECT_EQ(net->sectors().at(req.to).state, SectorState::removed);
      EXPECT_EQ(net->allocations().references(req.to), 0u);
      const auto removed = events_of<SectorRemoved>();
      ASSERT_EQ(removed.size(), 1u);
      EXPECT_EQ(removed[0].sector, req.to);
      EXPECT_GT(removed[0].refunded, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Sector disable drains via refresh
// ---------------------------------------------------------------------------

TEST_F(RefreshFixture, DisabledSectorDrainsAndExits) {
  build(refresh_params(), 6, 4 * 1024);
  const FileId id = add_and_store(1000, 20);
  // Disable the sector holding replica 0.
  const SectorId victim = net->allocations().entry(id, 0).prev;
  const ProviderId owner = net->sectors().at(victim).owner;
  ASSERT_TRUE(net->sector_disable(owner, victim).is_ok());
  EXPECT_EQ(net->sectors().at(victim).state, SectorState::disabled);
  // Keep confirming handoffs; refreshes eventually move everything out and
  // the sector exits with a refund.
  for (int step = 0; step < 3000; ++step) {
    if (net->sectors().at(victim).state == SectorState::removed) break;
    net->advance_to(net->next_task_time());
    confirm_refreshes(id);
  }
  EXPECT_EQ(net->sectors().at(victim).state, SectorState::removed);
  EXPECT_FALSE(events_of<SectorRemoved>().empty());
}

// ---------------------------------------------------------------------------
// File_Get
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, FileGetListsLiveHolders) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  std::vector<SectorId> holders;
  const util::Result<ByteCount> size = net->file_get(client, id, holders);
  ASSERT_TRUE(size.is_ok());
  EXPECT_EQ(size.value(), 1000u);  // the lookup also answers the file size
  EXPECT_EQ(holders.size(), 4u);
  // Corrupt one holder: every replica it hosted drops out of the list
  // (i.i.d. placement can put several replicas in one sector).
  const SectorId victim = holders[0];
  const auto hosted = static_cast<std::size_t>(
      std::count(holders.begin(), holders.end(), victim));
  net->corrupt_sector_now(victim);
  // The buffer is cleared and refilled, not appended to.
  ASSERT_TRUE(net->file_get(client, id, holders).is_ok());
  EXPECT_EQ(holders.size(), 4u - hosted);
}

// ---------------------------------------------------------------------------
// distinct_sectors ablation flag
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, DistinctSectorsPlacesReplicasApart) {
  Params p = test_params();
  p.distinct_sectors = true;
  build(p, 4, 16 * 1024);
  // Many 4-replica files over only 4 sectors: without the flag, duplicate
  // placements are near-certain; with it, each file must use all 4 sectors.
  for (int n = 0; n < 10; ++n) {
    const FileId id = add_and_store(500, 20);
    std::set<SectorId> used;
    for (ReplicaIndex i = 0; i < 4; ++i) {
      used.insert(net->allocations().entry(id, i).prev);
    }
    EXPECT_EQ(used.size(), 4u) << "file " << id;
  }
  EXPECT_GT(net->stats().add_resamples, 0u);
}

TEST_F(NetworkFixture, DistinctSectorsFailsWhenNotEnoughSectors) {
  Params p = test_params();
  p.distinct_sectors = true;
  build(p, 3, 16 * 1024);  // cp=4 > 3 sectors: can never place distinctly
  const auto result = net->file_add(client, {500, 20, {}});
  EXPECT_EQ(result.status().code(), util::ErrorCode::insufficient_space);
}

// ---------------------------------------------------------------------------
// §VI-B admission rebalancing
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, AdmissionRebalanceSwapsBackupsIn) {
  Params p = test_params();
  p.admission_rebalance = true;
  build(p, 4, 16 * 1024);
  // Store enough backups that the Poisson mean for a new equal-size sector
  // (~ entries/5) is comfortably positive.
  std::vector<FileId> files;
  for (int i = 0; i < 10; ++i) files.push_back(add_and_store(500, 20));
  const std::uint64_t refreshes_before = net->stats().refreshes_started;
  const AccountId newcomer = ledger.create_account(1'000'000);
  auto fresh = net->sector_register(newcomer, 16 * 1024);
  ASSERT_TRUE(fresh.is_ok());
  // §VI-B: registering triggered targeted refreshes into the new sector.
  EXPECT_GT(net->stats().refreshes_started, refreshes_before);
  bool any_inbound = false;
  for (FileId f : files) {
    for (ReplicaIndex i = 0; i < net->allocations().replica_count(f); ++i) {
      if (net->allocations().entry(f, i).next == fresh.value()) {
        any_inbound = true;
      }
    }
  }
  EXPECT_TRUE(any_inbound);
}

// ---------------------------------------------------------------------------
// Money conservation
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, TokensConservedThroughBusyScenario) {
  build(test_params(), 6, 4 * 1024);
  const TokenAmount initial = system_total();
  std::vector<FileId> files;
  for (int i = 0; i < 5; ++i) files.push_back(add_and_store(700, 20));
  net->advance_to(500);
  net->corrupt_sector_now(sectors_[0]);
  net->corrupt_sector_now(sectors_[1]);
  ASSERT_TRUE(net->file_discard(client, files[0]).is_ok());
  net->advance_to(2500);
  EXPECT_EQ(system_total(), initial);
  EXPECT_EQ(ledger.total_supply(), initial);
}

// ---------------------------------------------------------------------------
// Snapshot encoding
// ---------------------------------------------------------------------------

TEST_F(NetworkFixture, LoadRejectsManualProvingFlag) {
  build(test_params());
  (void)add_and_store(1000, 20);
  util::BinaryWriter writer;
  net->save(writer);
  // Byte 144 follows the five system-account ids, the PRNG state, the clock
  // and the rent accumulators. It held the former manual-proving flag;
  // `save` always writes `true` there.
  constexpr std::size_t kFlagOffset = 144;
  ASSERT_EQ(writer.data().at(kFlagOffset), 1u);
  for (const std::uint8_t flag : {std::uint8_t{0}, std::uint8_t{1}}) {
    std::vector<std::uint8_t> body = writer.data();
    body[kFlagOffset] = flag;
    ledger::Ledger fresh_ledger;
    Network fresh(test_params(), fresh_ledger, /*seed=*/7);
    util::BinaryReader reader(body);
    EXPECT_EQ(fresh.load(reader).is_ok(), flag == 1) << int{flag};
  }
}

TEST_F(NetworkFixture, LoadRejectsTaskDueBeforeClock) {
  build(test_params());
  (void)add_and_store(1000, 20);
  const Time next_task = net->next_task_time();
  ASSERT_NE(next_task, kNoTime);
  ASSERT_GT(next_task, net->now());
  util::BinaryWriter writer;
  net->save(writer);
  // The clock follows the five system-account ids and the PRNG state.
  constexpr std::size_t kClockOffset = 72;
  const auto body_at = [&](Time clock) {
    std::vector<std::uint8_t> body = writer.data();
    for (std::size_t b = 0; b < 8; ++b) {
      body[kClockOffset + b] = static_cast<std::uint8_t>(clock >> (8 * b));
    }
    return body;
  };
  ASSERT_EQ(body_at(net->now()), writer.data());
  const auto loads_at = [&](Time clock) {
    const std::vector<std::uint8_t> body = body_at(clock);
    ledger::Ledger fresh_ledger;
    Network fresh(test_params(), fresh_ledger, /*seed=*/7);
    util::BinaryReader reader(body);
    return fresh.load(reader).is_ok();
  };
  EXPECT_TRUE(loads_at(net->now()));
  EXPECT_TRUE(loads_at(next_task));  // a task due at the clock still runs
  EXPECT_FALSE(loads_at(next_task + 1));
}

TEST_F(NetworkFixture, LoadRejectsFileRecordsThatDisagreeWithAllocations) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  const std::uint32_t cp = net->allocations().replica_count(id);
  util::BinaryWriter head;  // every component before `files`
  for (std::size_t c = 0; c + 1 < Network::kStateComponentCount; ++c) {
    net->save_state_component(static_cast<Network::StateComponent>(c), head);
  }
  util::BinaryWriter files;
  net->save_state_component(Network::StateComponent::files, files);
  // One record after the u64 count: id, size, value, 32-byte root, u32 cp,
  // cntdown, state byte, owner, added_at, u64 flag count, one byte a flag.
  constexpr std::size_t kId = 8;
  constexpr std::size_t kCp = 64;
  constexpr std::size_t kFlagCount = 93;
  const std::vector<std::uint8_t>& canonical = files.data();
  ASSERT_EQ(canonical.size(), kFlagCount + 8 + cp);
  ASSERT_EQ(canonical[kCp], cp);
  ASSERT_EQ(canonical[kFlagCount], cp);

  const auto loads = [&](const std::vector<std::uint8_t>& tail) {
    std::vector<std::uint8_t> body = head.data();
    body.insert(body.end(), tail.begin(), tail.end());
    ledger::Ledger fresh_ledger;
    Network fresh(test_params(), fresh_ledger, /*seed=*/7);
    util::BinaryReader reader(body);
    return fresh.load(reader).is_ok();
  };
  EXPECT_TRUE(loads(canonical));

  std::vector<std::uint8_t> more_replicas = canonical;  // cp and flags + 1
  ++more_replicas[kCp];
  ++more_replicas[kFlagCount];
  more_replicas.push_back(1);
  EXPECT_FALSE(loads(more_replicas));

  std::vector<std::uint8_t> cp_only = canonical;  // cp + 1, flags as saved
  ++cp_only[kCp];
  EXPECT_FALSE(loads(cp_only));

  std::vector<std::uint8_t> extra_flag = canonical;  // flags + 1, cp as saved
  ++extra_flag[kFlagCount];
  extra_flag.push_back(1);
  EXPECT_FALSE(loads(extra_flag));

  std::vector<std::uint8_t> no_group = canonical;  // an id with no entries
  no_group[kId] = static_cast<std::uint8_t>(id + 100);
  EXPECT_FALSE(loads(no_group));

  // The replicas are stored, so their upload fees were paid out: a flag
  // must say what the entry implies.
  std::vector<std::uint8_t> escrowed = canonical;
  ASSERT_EQ(escrowed[kFlagCount + 8], 0);
  escrowed[kFlagCount + 8] = 1;
  EXPECT_FALSE(loads(escrowed));

  std::vector<std::uint8_t> empty = canonical;  // size 0: File_Add rejects it
  std::fill_n(empty.begin() + kId + 8, 8, std::uint8_t{0});
  EXPECT_FALSE(loads(empty));

  // No record: the allocation table holds a file the component omits.
  EXPECT_FALSE(loads(std::vector<std::uint8_t>(8, 0)));
}

/// The fixture engine's snapshot body with `component` encoded as `bytes`,
/// and whether a fresh engine loads it.
bool loads_with(const Network& net, Network::StateComponent component,
                const std::vector<std::uint8_t>& bytes) {
  util::BinaryWriter body;
  for (std::size_t c = 0; c < Network::kStateComponentCount; ++c) {
    const auto at = static_cast<Network::StateComponent>(c);
    if (at == component) {
      body.raw(bytes);
    } else {
      net.save_state_component(at, body);
    }
  }
  ledger::Ledger fresh_ledger;
  Network fresh(net.params(), fresh_ledger, /*seed=*/7);
  util::BinaryReader reader(body.data());
  return fresh.load(reader).is_ok();
}

std::vector<std::uint8_t> component_of(const Network& net,
                                       Network::StateComponent component) {
  util::BinaryWriter writer;
  net.save_state_component(component, writer);
  return writer.data();
}

/// Overwrites `width` little-endian bytes at `at` with `value`.
void put_le(std::vector<std::uint8_t>& bytes, std::size_t at,
            unsigned __int128 value, std::size_t width) {
  for (std::size_t b = 0; b < width; ++b) {
    bytes[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
}

// A sector row after the u64 count: id, owner, capacity, free, state byte,
// registered_at, u32 reference count, u128 rent snapshot.
constexpr std::size_t kSectorRow = 61;
constexpr std::size_t kRefCountAt = 41;
constexpr std::size_t kRentSnapshotAt = 45;

TEST_F(NetworkFixture, LoadRejectsReferenceCountsThatDisagreeWithEntries) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  const SectorId holder = net->allocations().entry(id, 0).prev;
  const auto refs =
      static_cast<std::uint32_t>(net->allocations().references(holder));
  ASSERT_GT(refs, 0u);
  const auto sectors = component_of(*net, Network::StateComponent::sectors);
  const std::size_t ref_at = 8 + holder * kSectorRow + kRefCountAt;
  ASSERT_EQ(sectors[ref_at], refs);
  EXPECT_TRUE(loads_with(*net, Network::StateComponent::sectors, sectors));
  for (const std::uint32_t count : {0u, refs - 1, refs + 1}) {
    std::vector<std::uint8_t> off = sectors;
    put_le(off, ref_at, count, 4);
    EXPECT_FALSE(loads_with(*net, Network::StateComponent::sectors, off))
        << count;
  }
}

// The misc component's next file id follows the five system-account ids,
// the PRNG state and the clock.
constexpr std::size_t kNextFileIdAt = 80;

TEST_F(NetworkFixture, LoadRejectsFileIdsAtOrPastTheNextId) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  ASSERT_EQ(id, 1u);
  // File_Add would hand out an id at or below a stored file's, and then
  // abort on the collision.
  const auto misc = component_of(*net, Network::StateComponent::misc);
  const auto loads_at = [&](FileId next_file_id) {
    std::vector<std::uint8_t> bytes = misc;
    put_le(bytes, kNextFileIdAt, next_file_id, 8);
    return loads_with(*net, Network::StateComponent::misc, bytes);
  };
  EXPECT_TRUE(loads_at(id + 1));
  EXPECT_TRUE(loads_at(id + 100));  // ids of removed files are never reused
  EXPECT_FALSE(loads_at(id));
  EXPECT_FALSE(loads_at(0));
}

TEST_F(NetworkFixture, LoadRejectsACompensationSlotOtherThanTheBooksTotal) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  for (SectorId s : sectors_) net->corrupt_sector_now(s);
  net->advance_to(net->now() + params.proof_cycle + 1);
  ASSERT_FALSE(net->file_exists(id));
  const TokenAmount total = net->deposits().total_compensated();
  ASSERT_EQ(total, 20u);
  // The misc component ends with the 15-counter stats block, whose 7th
  // counter is value_compensated.
  const auto misc = component_of(*net, Network::StateComponent::misc);
  const std::size_t slot = misc.size() - 15 * 8 + 6 * 8;
  const auto loads_at = [&](TokenAmount compensated) {
    std::vector<std::uint8_t> bytes = misc;
    put_le(bytes, slot, compensated, 8);
    return loads_with(*net, Network::StateComponent::misc, bytes);
  };
  const std::span<const std::uint8_t> slot_bytes(misc.data() + slot, 8);
  util::BinaryReader stored(slot_bytes);
  ASSERT_EQ(stored.u64(), total);
  EXPECT_TRUE(loads_at(total));
  EXPECT_FALSE(loads_at(total - 1));
  EXPECT_FALSE(loads_at(total + 1));
  EXPECT_FALSE(loads_at(0));
}

TEST_F(NetworkFixture, LoadRejectsRentSnapshotsPastTheAccumulator) {
  build(test_params());
  (void)add_and_store(1000, 20);
  // Every sector earns; each is 4 units, and every snapshot is zero.
  ASSERT_EQ(net->sectors().at(0).rent_acc_snapshot, 0u);
  const auto sectors = component_of(*net, Network::StateComponent::sectors);
  std::vector<std::uint8_t> ahead = sectors;
  put_le(ahead, 8 + kRentSnapshotAt, ~RentAcc{0}, 16);
  EXPECT_FALSE(loads_with(*net, Network::StateComponent::sectors, ahead));

  // The accumulator follows the five system-account ids, the PRNG state,
  // the clock, the next file id and the stored value.
  constexpr std::size_t kRentAccAt = 96;
  const auto misc = component_of(*net, Network::StateComponent::misc);
  const auto loads_at = [&](RentAcc acc) {
    std::vector<std::uint8_t> bytes = misc;
    put_le(bytes, kRentAccAt, acc, 16);
    return loads_with(*net, Network::StateComponent::misc, bytes);
  };
  EXPECT_TRUE(loads_at(RentAcc{1} << 100));
  EXPECT_TRUE(loads_at(~RentAcc{0} / 4));  // 4 units of owed rent still fit
  EXPECT_FALSE(loads_at(~RentAcc{0} / 4 + 1));
}

// An allocation group after the u64 count: u64 id, u32 replica count, then
// one row per replica: prev, next, last, state byte, 32 reserved bytes. The
// sampler section closes the component: a u64 count, then u64 file and u32
// index per normal entry.
constexpr std::size_t kGroupHead = 12;
constexpr std::size_t kEntryRow = 57;
constexpr std::size_t kEntryStateAt = 24;
constexpr std::size_t kSamplerItem = 12;

TEST_F(NetworkFixture, LoadRejectsEntriesWhoseStateDisagreesWithTheirLinks) {
  build(test_params());
  const FileId stored = add_and_store(1000, 20);  // normal: a prev, no next
  const std::uint32_t cp = net->allocations().replica_count(stored);
  auto added = net->file_add(client, {1000, 20, {}});
  ASSERT_TRUE(added.is_ok()) << added.status().to_string();
  const FileId uploading = added.value();
  ASSERT_EQ(uploading, stored + 1);
  // The upload's replica 0 lands: confirm, no prev, its target as next.
  const SectorId target = net->allocations().entry(uploading, 0).next;
  ASSERT_TRUE(net->file_confirm(net->sectors().at(target).owner, uploading, 0,
                                target)
                  .is_ok());
  const auto allocations =
      component_of(*net, Network::StateComponent::allocations);
  const std::size_t normals = net->allocations().normal_entry_count();
  ASSERT_EQ(normals, cp);  // the stored file's replicas
  const std::size_t sampler_at = allocations.size() - kSamplerItem * normals;
  ASSERT_EQ(allocations[sampler_at - 8], normals);
  EXPECT_TRUE(
      loads_with(*net, Network::StateComponent::allocations, allocations));

  // Entry (file, index) in `state`, the sampler edited to match, so every
  // link, index, reference count and escrow flag is as saved.
  const auto with_state = [&](FileId file, ReplicaIndex index,
                              AllocState state) {
    std::vector<std::uint8_t> bytes = allocations;
    const std::size_t group =
        8 + (file == stored ? 0 : kGroupHead + cp * kEntryRow);
    bytes[group + kGroupHead + index * kEntryRow + kEntryStateAt] =
        static_cast<std::uint8_t>(state);
    std::vector<std::uint8_t> item(kSamplerItem);
    put_le(item, 0, file, 8);
    put_le(item, 8, index, 4);
    const bool was_normal =
        net->allocations().entry(file, index).state == AllocState::normal;
    EXPECT_NE(was_normal, state == AllocState::normal);
    put_le(bytes, sampler_at - 8, was_normal ? normals - 1 : normals + 1, 8);
    if (was_normal) {
      const auto at = std::search(bytes.begin() + sampler_at, bytes.end(),
                                  item.begin(), item.end());
      EXPECT_NE(at, bytes.end());
      if (at == bytes.end()) return true;  // fails the caller's expectation
      EXPECT_EQ((at - bytes.begin() - sampler_at) % kSamplerItem, 0u);
      bytes.erase(at, at + kSamplerItem);
    } else {
      bytes.insert(bytes.end(), item.begin(), item.end());
    }
    return loads_with(*net, Network::StateComponent::allocations, bytes);
  };
  // activate leaves a normal entry stored and with no target.
  EXPECT_FALSE(with_state(uploading, 0, AllocState::normal))
      << "normal entry with no prev and a next";
  // A confirmed replica names the target it landed in.
  EXPECT_FALSE(with_state(stored, 0, AllocState::confirm))
      << "confirm entry with no next";
  // A stored replica goes back to alloc only as a refresh, with a target.
  EXPECT_FALSE(with_state(stored, 0, AllocState::alloc))
      << "alloc entry with a prev and no next";
  // A corrupted entry keeps whatever links it had.
  EXPECT_TRUE(with_state(stored, 0, AllocState::corrupted));
}

TEST_F(NetworkFixture, LoadRejectsAllocationGroupsOutOfIdOrder) {
  build(test_params());
  const FileId first = add_and_store(1000, 20);
  const FileId second = add_and_store(1000, 20);
  ASSERT_EQ(second, first + 1);
  const std::uint32_t cp = net->allocations().replica_count(first);
  ASSERT_EQ(net->allocations().replica_count(second), cp);
  const auto allocations =
      component_of(*net, Network::StateComponent::allocations);
  // Both groups swapped; the files rows stay in id order and match them.
  const std::size_t group = kGroupHead + cp * kEntryRow;
  std::vector<std::uint8_t> swapped = allocations;
  std::copy_n(allocations.begin() + 8, group,
              swapped.begin() + 8 + static_cast<std::ptrdiff_t>(group));
  std::copy_n(allocations.begin() + 8 + static_cast<std::ptrdiff_t>(group),
              group, swapped.begin() + 8);
  ASSERT_EQ(swapped[8], second);
  EXPECT_TRUE(
      loads_with(*net, Network::StateComponent::allocations, allocations));
  EXPECT_FALSE(loads_with(*net, Network::StateComponent::allocations, swapped));
}

TEST_F(NetworkFixture, LoadRejectsFilesRowsOutOfIdOrder) {
  build(test_params());
  const FileId first = add_and_store(1000, 20);
  const FileId second = add_and_store(1000, 20);
  ASSERT_EQ(second, first + 1);
  const std::uint32_t cp = net->allocations().replica_count(first);
  ASSERT_EQ(net->allocations().replica_count(second), cp);
  const auto files = component_of(*net, Network::StateComponent::files);
  // A files row: 93 bytes up to its flag count, then one byte a flag. Both
  // rows swapped; the allocation groups stay in id order.
  const std::size_t row = 93 + cp;
  ASSERT_EQ(files.size(), 8 + 2 * row);
  std::vector<std::uint8_t> swapped = files;
  std::copy_n(files.begin() + 8, row,
              swapped.begin() + 8 + static_cast<std::ptrdiff_t>(row));
  std::copy_n(files.begin() + 8 + static_cast<std::ptrdiff_t>(row), row,
              swapped.begin() + 8);
  ASSERT_EQ(swapped[8], second);
  EXPECT_TRUE(loads_with(*net, Network::StateComponent::files, files));
  EXPECT_FALSE(loads_with(*net, Network::StateComponent::files, swapped));
}

TEST_F(NetworkFixture, LoadBoundsTheIdWindowByTheBodySize) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  std::uint64_t body_bytes = 0;
  for (std::size_t c = 0; c < Network::kStateComponentCount; ++c) {
    body_bytes +=
        component_of(*net, static_cast<Network::StateComponent>(c)).size();
  }
  // The window runs from the oldest file to the next id; one id per body
  // byte is the most a body can ask for.
  const auto misc = component_of(*net, Network::StateComponent::misc);
  const auto loads_at = [&](FileId next_file_id) {
    std::vector<std::uint8_t> bytes = misc;
    put_le(bytes, kNextFileIdAt, next_file_id, 8);
    return loads_with(*net, Network::StateComponent::misc, bytes);
  };
  EXPECT_TRUE(loads_at(id + body_bytes));
  EXPECT_FALSE(loads_at(id + body_bytes + 1));
  // Rejected before the window is sized: 2^40 ids would be 4 TiB of index.
  EXPECT_FALSE(loads_at(FileId{1} << 40));
  EXPECT_FALSE(loads_at(kNoFile));
}

struct DepositRow {
  SectorId sector;
  ProviderId owner;
  TokenAmount remaining;
};

/// A deposits component: the rows, the (client, amount) liability queue,
/// the stored liability total, then the confiscated and compensated totals.
std::vector<std::uint8_t> deposit_body(
    const std::vector<DepositRow>& rows,
    const std::vector<std::pair<ClientId, TokenAmount>>& liabilities,
    TokenAmount total, TokenAmount confiscated, TokenAmount compensated) {
  util::BinaryWriter writer;
  writer.u64(rows.size());
  for (const DepositRow& row : rows) {
    writer.u64(row.sector);
    writer.u64(row.owner);
    writer.u64(row.remaining);
  }
  writer.u64(liabilities.size());
  for (const auto& [client, amount] : liabilities) {
    writer.u64(client);
    writer.u64(amount);
  }
  writer.u64(total);
  writer.u64(confiscated);
  writer.u64(compensated);
  return writer.data();
}

TEST_F(NetworkFixture, LoadRejectsDepositRowsSaveCannotProduce) {
  build(test_params());
  // Sector 0 holds nothing, so disabling it removes it and refunds it.
  ASSERT_TRUE(net->sector_disable(providers[0], sectors_[0]).is_ok());
  ASSERT_EQ(net->sectors().at(sectors_[0]).state, SectorState::removed);
  (void)add_and_store(1000, 20);
  std::vector<DepositRow> rows;
  for (std::size_t s = 1; s < sectors_.size(); ++s) {
    rows.push_back({sectors_[s], providers[s],
                    net->deposits().remaining(sectors_[s])});
  }
  const DepositBook& book = net->deposits();
  const auto body = [&](const std::vector<DepositRow>& with_rows,
                        const std::vector<std::pair<ClientId, TokenAmount>>&
                            liabilities = {},
                        TokenAmount total = 0) {
    return deposit_body(with_rows, liabilities, total,
                        book.total_confiscated(), book.total_compensated());
  };
  const auto loads = [&](const std::vector<std::uint8_t>& bytes) {
    return loads_with(*net, Network::StateComponent::deposits, bytes);
  };
  ASSERT_EQ(body(rows), component_of(*net, Network::StateComponent::deposits));
  EXPECT_TRUE(loads(body(rows)));
  EXPECT_TRUE(loads(body(rows, {{client, 5}, {client, 7}}, 12)));

  std::vector<DepositRow> swapped = rows;
  std::swap(swapped[0], swapped[1]);
  std::vector<DepositRow> duplicate = rows;
  duplicate.insert(duplicate.begin() + 1, rows[0]);
  std::vector<DepositRow> unknown = rows;
  unknown.push_back({999'999, providers[0], 1});
  std::vector<DepositRow> removed = rows;
  removed.insert(removed.begin(), {sectors_[0], providers[0], 1});
  std::vector<DepositRow> missing = rows;
  missing.pop_back();
  std::vector<DepositRow> stranger = rows;
  stranger[0].owner = client;
  const struct {
    const char* what;
    std::vector<std::uint8_t> bytes;
  } cases[] = {
      {"rows out of sector order", body(swapped)},
      {"duplicate sector row", body(duplicate)},
      {"row for an unregistered sector", body(unknown)},
      {"row for a removed sector", body(removed)},
      {"live sector without a row", body(missing)},
      {"owner other than the sector's", body(stranger)},
      {"zero liability", body(rows, {{client, 0}}, 0)},
      {"total over an empty queue", body(rows, {}, 55)},
      {"total other than the queue's sum", body(rows, {{client, 5}}, 6)},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(loads(c.bytes)) << c.what;
  }
}

TEST_F(NetworkFixture, LoadRejectsRefreshTasksPastTheReplicas) {
  build(test_params());
  const FileId id = add_and_store(1000, 20);
  const std::uint32_t cp = net->allocations().replica_count(id);
  const auto pending = component_of(*net, Network::StateComponent::pending);
  // Appends a check_refresh task for (file, index) after every queued task:
  // u64 time, kind byte, u64 file, u32 index.
  const auto with_refresh = [&](FileId file, ReplicaIndex index) {
    std::vector<std::uint8_t> bytes = pending;
    put_le(bytes, 0, net->pending_tasks() + 1, 8);
    bytes.resize(bytes.size() + 21);
    const std::size_t row = pending.size();
    put_le(bytes, row, net->now() + 1'000'000, 8);
    bytes[row + 8] = static_cast<std::uint8_t>(TaskKind::check_refresh);
    put_le(bytes, row + 9, file, 8);
    put_le(bytes, row + 17, index, 4);
    return loads_with(*net, Network::StateComponent::pending, bytes);
  };
  EXPECT_TRUE(with_refresh(id, cp - 1));
  EXPECT_FALSE(with_refresh(id, cp));
  // A task whose file is gone is stale: the engine skips it unread.
  EXPECT_TRUE(with_refresh(id + 100, cp));
}

}  // namespace
}  // namespace fi::core
