#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <utility>
#include <variant>
#include <vector>

#include "core/network.h"
#include "crypto/merkle.h"
#include "ledger/account.h"
#include "util/fenwick.h"
#include "util/prng.h"

/// Property-style suites: parameterized sweeps asserting invariants across
/// randomized inputs rather than single examples.
namespace fi {
namespace {

// ---------------------------------------------------------------------------
// Fenwick tree vs a naive reference, across sizes
// ---------------------------------------------------------------------------

class FenwickProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FenwickProperty, MatchesNaiveReferenceUnderRandomOps) {
  const std::size_t n = GetParam();
  util::Xoshiro256 rng(n * 1337 + 1);
  util::FenwickTree tree(n);
  std::vector<std::uint64_t> naive(n, 0);
  for (int op = 0; op < 2000; ++op) {
    const std::size_t i = rng.uniform_below(n);
    const std::uint64_t w = rng.uniform_below(50);
    tree.set(i, w);
    naive[i] = w;
    // Invariants: total, random prefix, and sampled slot has weight > 0.
    std::uint64_t total = 0;
    for (std::uint64_t x : naive) total += x;
    ASSERT_EQ(tree.total(), total);
    const std::size_t q = rng.uniform_below(n + 1);
    std::uint64_t prefix = 0;
    for (std::size_t j = 0; j < q; ++j) prefix += naive[j];
    ASSERT_EQ(tree.prefix_sum(q), prefix);
    if (total > 0) {
      ASSERT_GT(naive[tree.sample(rng)], 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FenwickProperty,
                         ::testing::Values(1, 2, 3, 7, 8, 9, 64, 100, 257));

// ---------------------------------------------------------------------------
// Merkle proofs across random data sizes
// ---------------------------------------------------------------------------

class MerkleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MerkleProperty, AllProofsVerifyAndCrossProofsFail) {
  util::Xoshiro256 rng(GetParam());
  const std::size_t size = 1 + rng.uniform_below(8000);
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const crypto::MerkleTree tree = crypto::MerkleTree::over_data(data);
  for (std::uint64_t i = 0; i < tree.leaf_count(); ++i) {
    const auto proof = tree.prove(i);
    ASSERT_TRUE(crypto::merkle_verify(tree.root(), tree.leaf(i), proof));
    // A proof for leaf i never verifies another leaf's hash.
    if (tree.leaf_count() > 1) {
      const std::uint64_t other = (i + 1) % tree.leaf_count();
      if (tree.leaf(other) != tree.leaf(i)) {
        ASSERT_FALSE(
            crypto::merkle_verify(tree.root(), tree.leaf(other), proof));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MerkleProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Protocol fuzz: random operation sequences preserve global invariants
// ---------------------------------------------------------------------------

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static core::Params fuzz_params() {
    core::Params p;
    p.min_capacity = 1024;
    p.min_value = 10;
    p.k = 2;
    p.cap_para = 10.0;
    p.gamma_deposit = 0.2;
    p.proof_cycle = 50;
    p.proof_due = 75;
    p.proof_deadline = 150;
    p.avg_refresh = 3.0;  // busy refresh traffic
    return p;
  }
};

TEST_P(ProtocolFuzz, InvariantsHoldUnderRandomOperations) {
  const std::uint64_t seed = GetParam();
  util::Xoshiro256 rng(seed);
  ledger::Ledger ledger;
  const core::Params params = fuzz_params();
  core::Network net(params, ledger, seed);

  std::vector<AccountId> clients, providers;
  std::vector<core::SectorId> sectors;
  std::vector<core::FileId> files;
  for (int i = 0; i < 3; ++i) clients.push_back(ledger.create_account(500'000));
  for (int i = 0; i < 4; ++i) {
    providers.push_back(ledger.create_account(500'000));
    auto s = net.sector_register(providers.back(), 8 * 1024);
    ASSERT_TRUE(s.is_ok());
    sectors.push_back(s.value());
  }
  const TokenAmount initial_supply = ledger.total_supply();

  std::map<core::FileId, int> lost_events;
  net.subscribe([&](const core::Event& e) {
    if (const auto* lost = std::get_if<core::FileLost>(&e)) {
      ++lost_events[lost->file];
    }
  });

  // Transient outages, FIFO by restore time (now + two proof cycles).
  // Restoring is a no-op once Auto_CheckProof has confiscated the sector.
  std::deque<std::pair<core::SectorId, Time>> outages;
  auto pass_time = [&](Time dt) {
    const Time target = net.now() + dt;
    while (!outages.empty() && outages.front().second <= target) {
      net.advance_to(outages.front().second);
      net.restore_sector_physical(outages.front().first);
      outages.pop_front();
    }
    net.advance_to(target);
  };

  auto confirm_everything = [&] {
    for (core::FileId f : files) {
      if (!net.file_exists(f)) continue;
      for (core::ReplicaIndex i = 0;
           i < net.allocations().replica_count(f); ++i) {
        const core::AllocEntry& e = net.allocations().entry(f, i);
        if (e.state == core::AllocState::alloc && e.next != core::kNoSector &&
            rng.uniform_below(10) < 9) {
          const AccountId owner = net.sectors().at(e.next).owner;
          (void)net.file_confirm(owner, f, i, e.next);
        }
      }
    }
  };

  for (int step = 0; step < 300; ++step) {
    switch (rng.uniform_below(11)) {
      case 0:
      case 1:
      case 2: {  // add a file
        const ByteCount size = 100 + rng.uniform_below(900);
        const TokenAmount value = 10 * (1 + rng.uniform_below(3));
        const AccountId client = clients[rng.uniform_below(clients.size())];
        auto f = net.file_add(client, {size, value, {}});
        if (f.is_ok()) files.push_back(f.value());
        break;
      }
      case 3: {  // discard a file
        if (!files.empty()) {
          const core::FileId f = files[rng.uniform_below(files.size())];
          if (net.file_exists(f)) {
            (void)net.file_discard(net.file_owner(f), f);
          }
        }
        break;
      }
      case 4: {  // register another sector
        const AccountId p = providers[rng.uniform_below(providers.size())];
        auto s = net.sector_register(p, 1024 * (1 + rng.uniform_below(8)));
        if (s.is_ok()) sectors.push_back(s.value());
        break;
      }
      case 5: {  // disable a sector
        const core::SectorId s = sectors[rng.uniform_below(sectors.size())];
        (void)net.sector_disable(net.sectors().at(s).owner, s);
        break;
      }
      case 6: {  // corrupt a sector (rarely)
        if (rng.uniform_below(4) == 0) {
          const core::SectorId s = sectors[rng.uniform_below(sectors.size())];
          if (net.sectors().at(s).state == core::SectorState::normal) {
            net.corrupt_sector_now(s);
          }
        }
        break;
      }
      case 7: {  // transient outage: dark past ProofDue, back in 2 cycles
        const core::SectorId s = sectors[rng.uniform_below(sectors.size())];
        if (net.sectors().at(s).state == core::SectorState::normal &&
            !net.is_physically_corrupted(s)) {
          net.corrupt_sector_physical(s);
          outages.emplace_back(s, net.now() + 2 * params.proof_cycle);
        }
        break;
      }
      default: {  // let time pass and play honest provider
        confirm_everything();
        pass_time(1 + rng.uniform_below(60));
        confirm_everything();
        break;
      }
    }

    // ---- Invariants, checked continuously -----------------------------
    // 1. Money is conserved.
    ASSERT_EQ(ledger.total_supply(), initial_supply);

    // 2. Sector space accounting: used == sum of entry footprints.
    std::map<core::SectorId, ByteCount> expected_use;
    for (core::FileId f : files) {
      if (!net.file_exists(f)) continue;
      const ByteCount size = net.file(f).size;
      for (core::ReplicaIndex i = 0;
           i < net.allocations().replica_count(f); ++i) {
        const core::AllocEntry& e = net.allocations().entry(f, i);
        if (e.prev != core::kNoSector &&
            e.state != core::AllocState::corrupted) {
          expected_use[e.prev] += size;
        }
        if (e.next != core::kNoSector) expected_use[e.next] += size;
      }
    }
    for (core::SectorId s : sectors) {
      const core::Sector& sec = net.sectors().at(s);
      if (sec.state == core::SectorState::corrupted ||
          sec.state == core::SectorState::removed) {
        continue;
      }
      ASSERT_EQ(sec.capacity - sec.free_cap, expected_use[s])
          << "sector " << s << " step " << step << " seed " << seed;
    }

    // 3. Reference counts match link counts.
    std::map<core::SectorId, std::uint32_t> expected_refs;
    for (core::FileId f : files) {
      if (!net.file_exists(f)) continue;
      for (core::ReplicaIndex i = 0;
           i < net.allocations().replica_count(f); ++i) {
        const core::AllocEntry& e = net.allocations().entry(f, i);
        if (e.prev != core::kNoSector) ++expected_refs[e.prev];
        if (e.next != core::kNoSector) ++expected_refs[e.next];
      }
    }
    for (core::SectorId s : sectors) {
      ASSERT_EQ(net.allocations().references(s), expected_refs[s])
          << "sector " << s << " step " << step << " seed " << seed;
    }

    // 4. Deposit escrow equals the sum of per-sector remainders.
    TokenAmount total_deposits = 0;
    for (core::SectorId s : sectors) {
      total_deposits += net.deposits().remaining(s);
    }
    ASSERT_EQ(net.deposits().escrow_balance(), total_deposits);

    // 5. Every lost value is either paid out or owed as a liability.
    ASSERT_EQ(net.deposits().total_compensated() +
                  net.deposits().outstanding_liabilities(),
              net.stats().value_lost)
        << "step " << step << " seed " << seed;

    // 6. No replica claims to be live on a corrupted sector.
    for (core::FileId f : files) {
      if (!net.file_exists(f)) continue;
      for (core::ReplicaIndex i = 0;
           i < net.allocations().replica_count(f); ++i) {
        const core::AllocEntry& e = net.allocations().entry(f, i);
        if (e.state != core::AllocState::normal) continue;
        ASSERT_NE(net.sectors().at(e.prev).state, core::SectorState::corrupted)
            << "file " << f << " replica " << i << " step " << step
            << " seed " << seed;
      }
    }

    // 7. A file is lost at most once, and a lost file is gone.
    for (const auto& [f, count] : lost_events) {
      ASSERT_EQ(count, 1) << "file " << f << " seed " << seed;
      ASSERT_FALSE(net.file_exists(f)) << "file " << f << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace fi
