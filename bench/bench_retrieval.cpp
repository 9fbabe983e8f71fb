// Retrieval-traffic throughput at engine scale: builds a stored population
// of 10^5-10^6 files, then drives the full request pipeline — Zipf draw,
// File_Get holder lookup, refusal filter, content cache, cheapest-holder
// selection, bounded queueing, off-chain settlement, Poisson-envelope
// defense bookkeeping — and reports sustained requests/sec.
//
// The gated number is the honest steady state with the defense armed (the
// most instrumented, most realistic path), so a regression anywhere in the
// per-request pipeline shows up here. Ride-along correctness checks (exit
// status): the defense must not flag any honest stream, and every admitted
// request must be accounted for (enqueued + dropped + starved + lookup
// failures = attempted - rate_limited).
//
// With --json the measurement is emitted machine-readably (schema:
// docs/BENCHMARKS.md); CI feeds that file to
// scripts/check_bench_regression.py against bench/baseline_retrieval.json,
// which also enforces the 10^5 requests/sec hard floor.
//
// Usage: bench_retrieval [files] [--epochs 10] [--requests 50000]
//                        [--json <path>]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/network.h"
#include "core/params.h"
#include "ledger/account.h"
#include "traffic/engine.h"
#include "traffic/spec.h"
#include "util/check.h"
#include "util/checked.h"
#include "util/config.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Fleet sizing shared with the other scale benches.
std::uint64_t sectors_for(std::uint64_t files) {
  return files / 5 < 1'000 ? 1'000 : files / 5;
}

/// The stored population the traffic runs against. Owns everything the
/// engine borrows (ledger, network, live-file list), so it must outlive
/// the TrafficEngine.
struct Population {
  fi::ledger::Ledger ledger;
  std::unique_ptr<fi::core::Network> net;
  fi::core::ClientId client = 0;
  std::vector<fi::core::FileId> live;
  std::vector<fi::core::ReplicaTransferRequested> transfer_queue;
  std::unordered_set<fi::core::FileId> failed;
  double setup_seconds = 0.0;
};

void drain_transfers(Population& pop) {
  std::vector<fi::core::ReplicaTransferRequested> batch;
  batch.swap(pop.transfer_queue);
  for (const fi::core::ReplicaTransferRequested& req : batch) {
    if (!pop.net->sectors().exists(req.to)) continue;
    (void)pop.net->file_confirm(pop.net->sectors().at(req.to).owner, req.file,
                                req.index, req.to);
  }
}

void build_population(Population& pop, std::uint64_t files,
                      std::uint64_t requests_total) {
  namespace util = fi::util;
  const auto setup0 = Clock::now();

  fi::core::Params p;
  p.min_value = 10;
  p.k = 3;
  p.cap_para = 200.0;
  p.gamma_deposit = 0.02;
  const std::uint64_t sectors = sectors_for(files);
  constexpr std::uint64_t kUnits = 4;
  constexpr fi::ByteCount kFileSize = 2048;
  const fi::ByteCount capacity = util::checked_mul(kUnits, p.min_capacity);

  // Fund the provider for every pledge and the client for every add plus
  // the whole run's retrieval bill (ask tier + 1, no surge: honest load is
  // never repriced); over-funding is harmless.
  const fi::TokenAmount provider_funds = util::checked_add(
      util::checked_mul(
          sectors, util::checked_add(p.sector_deposit(capacity),
                                     p.gas_per_task)),
      1'000'000'000ull);
  const std::uint32_t cp = p.replica_count(10);
  const fi::TokenAmount per_file = util::checked_add(
      util::checked_add(util::checked_mul(p.traffic_fee(kFileSize), cp),
                        util::checked_mul(p.gas_per_task, 4)),
      util::checked_mul(p.rent_per_cycle(kFileSize, cp), 4));
  const fi::TokenAmount per_request = util::checked_add(
      p.gas_per_task, util::checked_mul(2, (kFileSize + 1023) / 1024));
  const fi::TokenAmount client_funds = util::checked_add(
      util::checked_add(util::checked_mul(files, per_file),
                        util::checked_mul(requests_total, per_request)),
      1'000'000'000ull);

  const auto provider = pop.ledger.create_account(provider_funds);
  pop.client = pop.ledger.create_account(client_funds);

  pop.net = std::make_unique<fi::core::Network>(p, pop.ledger, /*seed=*/42);
  pop.net->subscribe([&pop](const fi::core::Event& event) {
    if (const auto* transfer =
            std::get_if<fi::core::ReplicaTransferRequested>(&event)) {
      pop.transfer_queue.push_back(*transfer);
    } else if (const auto* failed =
                   std::get_if<fi::core::UploadFailed>(&event)) {
      pop.failed.insert(failed->file);
    }
  });

  for (std::uint64_t s = 0; s < sectors; ++s) {
    const auto id = pop.net->sector_register(provider, capacity);
    FI_CHECK_MSG(id.is_ok(), "sector_register failed: "
                                 << id.status().to_string());
  }
  drain_transfers(pop);

  std::vector<fi::core::FileId> added;
  added.reserve(files);
  for (std::uint64_t f = 0; f < files; ++f) {
    const auto id = pop.net->file_add(pop.client, {kFileSize, 10, {}});
    FI_CHECK_MSG(id.is_ok(),
                 "file_add failed: " << id.status().to_string());
    added.push_back(id.value());
  }

  // Let every upload confirm and pass Auto_CheckAlloc, so the traffic runs
  // against a fully stored population.
  const fi::Time horizon =
      pop.net->now() + p.transfer_window(kFileSize) + 1;
  drain_transfers(pop);
  while (true) {
    const fi::Time next = pop.net->next_task_time();
    if (next == fi::kNoTime || next > horizon) break;
    pop.net->advance_to(next);
    drain_transfers(pop);
  }
  pop.net->advance_to(horizon);
  drain_transfers(pop);

  pop.live.reserve(added.size());
  for (const fi::core::FileId file : added) {
    if (!pop.failed.contains(file)) pop.live.push_back(file);
  }
  pop.setup_seconds = seconds_since(setup0);
}

fi::traffic::TrafficSpec traffic_spec(std::uint64_t requests_per_epoch) {
  fi::traffic::TrafficSpec t;
  t.enabled = true;
  t.requests_per_cycle = requests_per_epoch;
  t.streams = 32;
  t.zipf_s = 0.8;
  t.provider_capacity = 64;
  t.queue_limit = 256;
  t.cache_blocks = 4096;
  t.price_per_kib = 1;
  t.defense_enabled = true;
  t.defense_warmup = 2;
  t.defense_k = 4.0;
  t.defense_violations = 2;
  t.defense_surge = 8;
  t.defense_rate_limit = true;
  FI_CHECK(t.validate().is_ok());
  return t;
}

struct Measurement {
  std::uint64_t files = 0;
  std::uint64_t requests = 0;
  double seconds = 0.0;
  double requests_per_second = 0.0;
};

bool write_json(const std::string& path, std::uint64_t sectors,
                const Measurement& m) {
  std::ofstream out(path, std::ios::binary);
  out << "{\n";
  out << "  \"bench\": \"bench_retrieval\",\n";
  out << "  \"files\": " << m.files << ",\n";
  out << "  \"sectors\": " << sectors << ",\n";
  out << "  \"retrieval_throughput\": [\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "    {\"files\": %llu, \"requests\": %llu, "
                "\"seconds\": %.6f, \"requests_per_second\": %.1f}\n",
                static_cast<unsigned long long>(m.files),
                static_cast<unsigned long long>(m.requests), m.seconds,
                m.requests_per_second);
  out << buf;
  out << "  ]\n";
  out << "}\n";
  out.close();
  return out.good();
}

int usage(const char* argv0, const char* complaint) {
  std::fprintf(stderr,
               "bench_retrieval: %s\n"
               "usage: %s [files] [--epochs N] [--requests N] "
               "[--json <path>]\n",
               complaint, argv0);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  // Positive-only wrapper over the shared strict parse (util/config.h).
  return fi::util::parse_u64(text, out) && out != 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t files = 1'000'000;
  std::uint64_t epochs = 10;
  std::uint64_t requests_per_epoch = 50'000;
  std::string json_path;
  bool files_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--json" || arg == "--epochs" || arg == "--requests") &&
        i + 1 >= argc) {
      return usage(argv[0], (arg + " expects a value").c_str());
    }
    if (arg == "--json") {
      json_path = argv[++i];
    } else if (arg == "--epochs") {
      if (!parse_u64(argv[++i], epochs)) {
        return usage(argv[0], "--epochs expects a positive integer");
      }
    } else if (arg == "--requests") {
      if (!parse_u64(argv[++i], requests_per_epoch)) {
        return usage(argv[0], "--requests expects a positive integer");
      }
    } else if (!files_given && !arg.empty() && arg[0] != '-') {
      constexpr std::uint64_t kMaxFiles = 10'000'000;
      if (!parse_u64(argv[i], files)) {
        return usage(argv[0], "file count must be a positive integer");
      }
      files_given = true;
      if (files > kMaxFiles) {
        std::fprintf(stderr, "bench_retrieval: clamping to %llu files\n",
                     static_cast<unsigned long long>(kMaxFiles));
        files = kMaxFiles;
      }
    } else {
      return usage(argv[0], ("unknown argument '" + arg + "'").c_str());
    }
  }

  const std::uint64_t sectors = sectors_for(files);
  std::printf("Retrieval throughput: %llu files, %llu sectors, %llu epochs "
              "x ~%llu requests, defense armed\n\n",
              static_cast<unsigned long long>(files),
              static_cast<unsigned long long>(sectors),
              static_cast<unsigned long long>(epochs),
              static_cast<unsigned long long>(requests_per_epoch));

  Population pop;
  build_population(pop, files,
                   fi::util::checked_mul(epochs + 1, requests_per_epoch) * 2);
  std::printf("  setup: %llu files stored in %.1fs (%.0f files/s)\n",
              static_cast<unsigned long long>(pop.live.size()),
              pop.setup_seconds,
              static_cast<double>(pop.live.size()) / pop.setup_seconds);

  const fi::traffic::TrafficSpec spec = traffic_spec(requests_per_epoch);
  fi::traffic::TrafficEngine engine(spec, *pop.net, pop.ledger, pop.client,
                                    /*seed=*/42, spec.streams);

  // One untimed epoch warms the content cache, the market book, and the
  // defense's observation window.
  engine.on_epoch(0, pop.live);
  const std::uint64_t warm_requests = engine.metrics().requests_attempted;

  const auto bench0 = Clock::now();
  for (std::uint64_t e = 1; e <= epochs; ++e) engine.on_epoch(e, pop.live);
  const double seconds = seconds_since(bench0);

  const fi::traffic::TrafficMetrics m = engine.metrics();
  Measurement result;
  result.files = files;
  result.requests = m.requests_attempted - warm_requests;
  result.seconds = seconds;
  result.requests_per_second =
      seconds > 0.0 ? static_cast<double>(result.requests) / seconds : 0.0;

  std::printf("  timed: %llu requests in %.3fs — %.0f requests/s\n",
              static_cast<unsigned long long>(result.requests), seconds,
              result.requests_per_second);
  std::printf("  pipeline: served=%llu enqueued=%llu dropped=%llu "
              "starved=%llu cache_hit=%.1f%%\n",
              static_cast<unsigned long long>(m.served),
              static_cast<unsigned long long>(m.enqueued),
              static_cast<unsigned long long>(m.dropped),
              static_cast<unsigned long long>(m.starved),
              100.0 * static_cast<double>(m.cache_hits) /
                  static_cast<double>(m.cache_hits + m.cache_misses));
  std::printf("  qos: p50=%llu p99=%llu cycles, settled=%llu, revenue=%llu\n",
              static_cast<unsigned long long>(m.p50_latency),
              static_cast<unsigned long long>(m.p99_latency),
              static_cast<unsigned long long>(m.retrievals_settled),
              static_cast<unsigned long long>(m.revenue));
  std::printf("  defense: armed=%s envelope=%.1f flagged=%llu\n",
              m.defense_armed ? "yes" : "no", m.defense_envelope,
              static_cast<unsigned long long>(m.flagged_streams));

  if (!json_path.empty() && !write_json(json_path, sectors, result)) {
    std::fprintf(stderr, "bench_retrieval: failed to write %s\n",
                 json_path.c_str());
    return 1;
  }

  // Ride-along correctness: honest load must never be flagged, and every
  // admitted request must land in exactly one disposition bucket.
  bool ok = true;
  if (m.flagged_streams != 0) {
    std::fprintf(stderr, "bench_retrieval: defense flagged %llu honest "
                         "stream(s)\n",
                 static_cast<unsigned long long>(m.flagged_streams));
    ok = false;
  }
  const std::uint64_t admitted = m.requests_attempted - m.rate_limited;
  const std::uint64_t accounted = m.enqueued + m.dropped + m.starved +
                                  m.lookup_failures + m.payment_failures;
  if (admitted != accounted) {
    std::fprintf(stderr, "bench_retrieval: request accounting leak — "
                         "admitted %llu != accounted %llu\n",
                 static_cast<unsigned long long>(admitted),
                 static_cast<unsigned long long>(accounted));
    ok = false;
  }
  return ok ? 0 : 1;
}
