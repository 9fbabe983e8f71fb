// Engineering micro-benchmarks (not in the paper): throughput of the
// primitives every experiment rests on — hashing, Merkle trees,
// capacity-weighted sector sampling, and the protocol engine's hot paths.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/network.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "ledger/account.h"
#include "util/fenwick.h"
#include "util/prng.h"

namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  fi::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// ---------------------------------------------------------------------------
// Crypto substrate
// ---------------------------------------------------------------------------

void BM_Sha256(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fi::crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_MerkleBuild(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fi::crypto::MerkleTree::over_data(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MerkleBuild)->Arg(4096)->Arg(65536);

// ---------------------------------------------------------------------------
// RandomSector (the Fenwick tree behind every placement decision)
// ---------------------------------------------------------------------------

void BM_RandomSectorSample(benchmark::State& state) {
  const auto sectors = static_cast<std::size_t>(state.range(0));
  fi::util::FenwickTree tree(sectors);
  fi::util::Xoshiro256 rng(9);
  for (std::size_t i = 0; i < sectors; ++i) {
    tree.set(i, 1 + rng.uniform_below(16));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.sample(rng));
  }
}
BENCHMARK(BM_RandomSectorSample)->Arg(1000)->Arg(100'000)->Arg(1'000'000);

void BM_FenwickUpdate(benchmark::State& state) {
  constexpr std::size_t kSectors = 100'000;
  fi::util::FenwickTree tree(kSectors);
  fi::util::Xoshiro256 rng(10);
  for (std::size_t i = 0; i < kSectors; ++i) tree.set(i, 8);
  for (auto _ : state) {
    tree.set(rng.uniform_below(kSectors), rng.uniform_below(16));
  }
}
BENCHMARK(BM_FenwickUpdate);

// ---------------------------------------------------------------------------
// Protocol engine hot paths
// ---------------------------------------------------------------------------

void BM_FileAddConfirmStore(benchmark::State& state) {
  using namespace fi;
  core::Params params;
  params.min_capacity = 64 * 1024;
  params.min_value = 10;
  params.k = 3;
  params.cap_para = 100.0;
  params.gamma_deposit = 0.01;
  ledger::Ledger ledger;
  core::Network net(params, ledger, 11);
  const AccountId provider = ledger.create_account(1'000'000'000ull);
  for (int s = 0; s < 256; ++s) {
    (void)net.sector_register(provider, params.min_capacity);
  }
  const AccountId client = ledger.create_account(1'000'000'000ull);
  std::vector<core::FileId> files;
  for (auto _ : state) {
    auto f = net.file_add(client, {1024, 10, {}});
    if (!f.is_ok()) {  // network full: recycle by discarding everything
      state.PauseTiming();
      for (core::FileId old : files) {
        if (net.file_exists(old)) (void)net.file_discard(client, old);
      }
      files.clear();
      net.advance(2 * params.proof_cycle);
      state.ResumeTiming();
      continue;
    }
    for (core::ReplicaIndex i = 0;
         i < net.allocations().replica_count(f.value()); ++i) {
      const core::AllocEntry& e = net.allocations().entry(f.value(), i);
      (void)net.file_confirm(net.sectors().at(e.next).owner, f.value(), i,
                             e.next);
    }
    files.push_back(f.value());
  }
}
BENCHMARK(BM_FileAddConfirmStore);

void BM_ProofCycleAdvance(benchmark::State& state) {
  using namespace fi;
  core::Params params;
  params.min_capacity = 64 * 1024;
  params.min_value = 10;
  params.k = 3;
  params.cap_para = 100.0;
  params.gamma_deposit = 0.01;
  params.avg_refresh = 1e9;  // isolate CheckProof cost from refresh cost
  ledger::Ledger ledger;
  core::Network net(params, ledger, 12);
  const AccountId provider = ledger.create_account(1'000'000'000ull);
  for (int s = 0; s < 64; ++s) {
    (void)net.sector_register(provider, params.min_capacity);
  }
  const AccountId client = ledger.create_account(1'000'000'000ull);
  for (int i = 0; i < 500; ++i) {
    auto f = net.file_add(client, {1024, 10, {}});
    if (!f.is_ok()) break;
    for (core::ReplicaIndex r = 0;
         r < net.allocations().replica_count(f.value()); ++r) {
      const core::AllocEntry& e = net.allocations().entry(f.value(), r);
      (void)net.file_confirm(net.sectors().at(e.next).owner, f.value(), r,
                             e.next);
    }
  }
  for (auto _ : state) {
    net.advance(params.proof_cycle);  // one CheckProof per stored file
  }
}
BENCHMARK(BM_ProofCycleAdvance);

}  // namespace

BENCHMARK_MAIN();
