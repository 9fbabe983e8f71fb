// Engineering micro-benchmarks (not in the paper): throughput of the
// primitives every experiment rests on — hashing, Merkle trees,
// capacity-weighted sector sampling, and the protocol engine's and the
// delivery network's hot paths.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "core/network.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "ledger/account.h"
#include "sim/net_model.h"
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

/// One Auto_CheckProof per stored file per iteration. The argument is the
/// file count; sectors scale with it to keep usage as at 500 files.
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
  const auto files = static_cast<int>(state.range(0));
  const AccountId provider = ledger.create_account(1'000'000'000ull);
  for (int s = 0; s < std::max(64, files * 64 / 500); ++s) {
    (void)net.sector_register(provider, params.min_capacity);
  }
  const AccountId client = ledger.create_account(1'000'000'000ull);
  int added = 0;
  for (; added < files; ++added) {
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
  state.SetItemsProcessed(state.iterations() * added);
  state.counters["files"] = added;
}
BENCHMARK(BM_ProofCycleAdvance)->Arg(500)->Arg(10'000);

/// One delivery tick with regional_latency's latency profile: deliver what
/// is due, then send the next `range(0)` messages of 1-2 KiB. In flight
/// settles near that batch times the mean latency (about 10 ticks), so a
/// batch of 3000 holds about 31k, near regional_latency_1e4's peak of 29k.
void BM_NetModelSendPop(benchmark::State& state) {
  using namespace fi;
  const sim::NetConfig config{.regions = 4,
                              .base_latency = 2,
                              .region_latency = 6,
                              .ticks_per_kib = 1,
                              .jitter = 4,
                              .drop_probability = 0.02};
  sim::NetModel model(config, 4242);
  util::Xoshiro256 rng(13);
  const auto batch = static_cast<std::uint64_t>(state.range(0));
  Time now = 0;
  std::uint64_t file = 0;
  sim::TransferMessage msg;
  for (auto _ : state) {
    while (model.pop_due(now, msg)) benchmark::DoNotOptimize(msg);
    for (std::uint64_t i = 0; i < batch; ++i, ++file) {
      const bool upload = rng.uniform_below(8) == 0;
      model.send(now, 1024 + rng.uniform_below(1025),
                 {.file = file,
                  .from_sector =
                      upload ? ~std::uint64_t{0} : rng.uniform_below(2000),
                  .to_sector = rng.uniform_below(2000),
                  .deadline = now + 80});
    }
    ++now;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    batch));
  state.counters["in_flight"] = static_cast<double>(model.in_flight());
}
BENCHMARK(BM_NetModelSendPop)->Arg(100)->Arg(3000);

}  // namespace

BENCHMARK_MAIN();
