#include "mirror.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "adversary/strategy.h"
#include "ledger/account.h"
#include "scenario/runner.h"
#include "sim/net_model.h"
#include "traffic/engine.h"
#include "util/check.h"
#include "util/checked.h"
#include "util/distributions.h"
#include "util/hex.h"
#include "util/prng.h"

namespace fi::bench {

namespace {

using adversary::StrategyKind;
using scenario::PhaseKind;
using scenario::PhaseSpec;
using scenario::ScenarioSpec;

util::Status check_supported(const ScenarioSpec& spec) {
  for (const PhaseSpec& phase : spec.phases) {
    if (phase.kind != PhaseKind::idle && phase.kind != PhaseKind::churn &&
        phase.kind != PhaseKind::rent_audit) {
      return util::err(
          util::ErrorCode::invalid_argument,
          std::string("traced driver does not mirror phase kind ") +
              scenario::phase_kind_name(phase.kind));
    }
  }
  for (const adversary::AdversarySpec& adv : spec.adversaries) {
    if (adv.kind != StrategyKind::retrieval_ddos &&
        adv.kind != StrategyKind::cartel_starver) {
      return util::err(util::ErrorCode::invalid_argument,
                       std::string("traced driver does not mirror strategy ") +
                           adversary::strategy_kind_name(adv.kind));
    }
  }
  return util::Status::ok();
}

// The runner's funding estimate (runner.cpp: planned_adds, planned_cycles,
// build_network), restricted to the supported phases and strategies.
std::uint64_t planned_adds(const ScenarioSpec& spec) {
  std::uint64_t adds = spec.initial_files;
  for (const PhaseSpec& phase : spec.phases) {
    if (phase.kind == PhaseKind::churn) {
      adds = util::checked_add(
          adds, util::checked_mul(phase.adds_per_cycle, phase.cycles));
    }
  }
  return adds;
}

std::uint64_t planned_cycles(const ScenarioSpec& spec) {
  std::uint64_t cycles = 8;
  for (const PhaseSpec& phase : spec.phases) {
    cycles += phase.kind == PhaseKind::rent_audit
                  ? phase.periods * spec.params.rent_period_cycles
                  : phase.cycles;
  }
  return cycles;
}

std::string network_sha(const core::Network& net) {
  util::BinaryWriter writer(/*keep_bytes=*/false);
  net.save(writer);
  return util::to_hex(writer.digest());
}

class Mirror {
 public:
  Mirror(const ScenarioSpec& spec, Tracer& tracer)
      : spec_(spec),
        tracer_(tracer),
        workload_rng_(spec_.seed ^ scenario::kWorkloadSeedSalt) {
    for (std::size_t i = 0; i < spec_.adversaries.size(); ++i) {
      adversaries_.push_back(
          {adversary::make_strategy(spec_.adversaries[i]),
           util::Xoshiro256(spec_.seed ^ scenario::kAdversarySeedSalt ^
                            (0x9e3779b97f4a7c15ULL * (i + 1))),
           {},
           {}});
    }
    build_network();
  }

  void run() {
    setup_population();
    for (const PhaseSpec& phase : spec_.phases) {
      const std::uint64_t cycles =
          phase.kind == PhaseKind::rent_audit
              ? util::checked_mul(phase.periods,
                                  spec_.params.rent_period_cycles)
              : phase.cycles;
      for (std::uint64_t c = 0; c < cycles; ++c) step_phase_cycle(phase);
      if (phase.kind == PhaseKind::rent_audit) {
        tracer_.timed(Call::core_settle_all_rent,
                      [&] { return net_->settle_all_rent(); });
      }
    }
    // Finalization hooks (the runner discards any actions emitted here).
    for (Adversary& adv : adversaries_) {
      adversary::AdversaryView view(*net_, epoch_, adv.rng, live_files_,
                                    adv.claimed, adv.counters);
      adv.strategy->on_run_end(view);
    }
  }

  [[nodiscard]] MirrorResult result() const {
    scenario::MetricsReport report;
    report.totals = net_->stats();
    if (traffic_ != nullptr) report.traffic = traffic_->metrics();
    if (spec_.network.enabled) {
      // runner.cpp finalize(); no mirrored strategy refuses transfers, so
      // deadline_misses_malice stays 0.
      scenario::NetworkMetrics& nm = report.network;
      nm.enabled = true;
      nm.regions = netmodel_->regions();
      nm.sent = netmodel_->sent();
      nm.delivered = netmodel_->delivered();
      nm.delivered_late = netmodel_->delivered_late();
      nm.dropped_loss = netmodel_->dropped_loss();
      nm.dropped_partition = netmodel_->dropped_partition();
      nm.dropped_down = netmodel_->dropped_down();
      nm.deadline_misses_network = nm.delivered_late + nm.dropped_loss +
                                   nm.dropped_partition + nm.dropped_down;
      for (std::uint64_t r = 0; r < nm.regions; ++r) {
        scenario::RegionMetrics region;
        region.delivered = netmodel_->region_delivered(r);
        region.mean_latency =
            region.delivered == 0
                ? 0.0
                : static_cast<double>(netmodel_->region_latency_sum(r)) /
                      static_cast<double>(region.delivered);
        region.max_latency = netmodel_->region_latency_max(r);
        nm.per_region.push_back(region);
      }
    }

    MirrorResult result;
    result.fingerprint = fingerprint(*net_, report);
    result.counts = counts_;
    result.counts.traffic = report.traffic;
    if (netmodel_ != nullptr) {
      result.counts.sim_sent = netmodel_->sent();
      result.counts.sim_delivered = netmodel_->delivered();
      result.counts.sim_dropped = netmodel_->dropped_loss() +
                                  netmodel_->dropped_partition() +
                                  netmodel_->dropped_down();
    }
    return result;
  }

 private:
  struct Adversary {
    std::unique_ptr<adversary::AdversaryStrategy> strategy;
    util::Xoshiro256 rng;
    adversary::AdversaryCounters counters;
    std::vector<core::SectorId> claimed;
  };

  void build_network() {
    const core::Params& p = spec_.params;
    const ByteCount capacity =
        util::checked_mul(spec_.sector_units, p.min_capacity);
    const TokenAmount per_sector =
        util::checked_add(p.sector_deposit(capacity), p.gas_per_task);
    provider_ = ledger_.create_account(util::checked_add(
        util::checked_mul(spec_.sectors, per_sector), 1'000'000'000ull));

    const std::uint32_t cp = p.replica_count(spec_.effective_file_value());
    const TokenAmount upfront = util::checked_add(
        util::checked_mul(p.traffic_fee(spec_.file_size_max), cp),
        util::checked_mul(p.gas_per_task, 2));
    const TokenAmount per_cycle =
        util::checked_add(p.rent_per_cycle(spec_.file_size_max, cp),
                          util::checked_mul(p.gas_per_task, 2));
    const TokenAmount per_file = util::checked_add(
        upfront, util::checked_mul(per_cycle, planned_cycles(spec_)));
    TokenAmount traffic_budget = 0;
    if (spec_.traffic.enabled) {
      const traffic::TrafficSpec& t = spec_.traffic;
      const TokenAmount kib = (spec_.file_size_max + 1023) / 1024;
      TokenAmount per_request = util::checked_add(
          p.gas_per_task, util::checked_mul(t.price_per_kib + 1, kib));
      if (t.defense_enabled) {
        per_request = util::checked_mul(per_request, t.defense_surge);
      }
      std::uint64_t requests = util::checked_mul(t.requests_per_cycle, 2);
      if (t.flash_duration > 0) {
        requests = util::checked_mul(requests, t.flash_multiplier);
      }
      for (const adversary::AdversarySpec& adv : spec_.adversaries) {
        if (adv.kind == StrategyKind::retrieval_ddos) {
          requests = util::checked_add(
              requests, util::checked_mul(adv.gang, adv.requests_per_epoch));
        }
      }
      requests = util::checked_add(requests, 64);
      traffic_budget = util::checked_mul(
          util::checked_mul(requests, per_request), planned_cycles(spec_));
    }
    client_ = ledger_.create_account(util::checked_add(
        util::checked_add(
            util::checked_mul(util::checked_add(planned_adds(spec_), 1),
                              per_file),
            traffic_budget),
        1'000'000'000ull));

    net_ = std::make_unique<core::Network>(p, ledger_, spec_.seed);
    net_->set_auto_prove(true);
    net_->set_workers(spec_.engine_workers);
    // Only the listener effects that feed back into the run are mirrored;
    // the runner's loss/confiscation attribution fills adversary counters
    // that the mirrored strategies never read.
    net_->subscribe([this](const core::Event& event) {
      if (const auto* transfer =
              std::get_if<core::ReplicaTransferRequested>(&event)) {
        transfer_queue_.push_back(*transfer);
        ++counts_.transfers_requested;
      } else if (const auto* lost = std::get_if<core::FileLost>(&event)) {
        forget_file(lost->file);
      } else if (const auto* gone = std::get_if<core::FileDiscarded>(&event)) {
        forget_file(gone->file);
      } else if (const auto* failed = std::get_if<core::UploadFailed>(&event)) {
        forget_file(failed->file);
      }
    });

    if (spec_.network.enabled) {
      netmodel_ = std::make_unique<sim::NetModel>(
          spec_.network.to_net_config(),
          spec_.seed ^ scenario::kNetSeedSalt);
    }
    if (spec_.traffic.enabled) {
      std::uint64_t next_stream = spec_.traffic.streams;
      for (const adversary::AdversarySpec& adv : spec_.adversaries) {
        gang_base_.push_back(next_stream);
        if (adv.kind == StrategyKind::retrieval_ddos) {
          next_stream = util::checked_add(next_stream, adv.gang);
        }
      }
      traffic_ = std::make_unique<traffic::TrafficEngine>(
          spec_.traffic, *net_, ledger_, client_,
          spec_.seed ^ scenario::kTrafficSeedSalt, next_stream);
    }
  }

  void setup_population() {
    const ByteCount capacity =
        util::checked_mul(spec_.sector_units, spec_.params.min_capacity);
    for (std::uint64_t s = 0; s < spec_.sectors; ++s) {
      const auto id = tracer_.timed(Call::core_sector_register, [&] {
        return net_->sector_register(provider_, capacity);
      });
      FI_CHECK_MSG(id.is_ok(), "setup sector_register failed");
    }
    drain_transfers();
    for (std::uint64_t f = 0; f < spec_.initial_files; ++f) {
      if (!add_file()) break;
    }
    advance_confirming(net_->now() +
                       spec_.params.transfer_window(spec_.file_size_max) + 1);
  }

  void confirm_transfer(const core::ReplicaTransferRequested& req) {
    if (!net_->sectors().exists(req.to)) return;
    const util::Status status = tracer_.timed(Call::core_file_confirm, [&] {
      return net_->file_confirm(net_->sectors().at(req.to).owner, req.file,
                                req.index, req.to, {}, std::nullopt);
    });
    if (!status.is_ok()) ++counts_.confirm_rejected;
  }

  void deliver_messages() {
    sim::TransferMessage msg;
    while (tracer_.timed(Call::sim_pop_due, [&] {
      return netmodel_->pop_due(net_->now(), msg);
    })) {
      core::ReplicaTransferRequested req;
      req.file = msg.file;
      req.index = msg.index;
      req.from = msg.from_sector;
      req.to = msg.to_sector;
      req.client = msg.client;
      req.deadline = msg.deadline;
      confirm_transfer(req);
    }
  }

  void drain_transfers() {
    std::vector<core::ReplicaTransferRequested> batch;
    batch.swap(transfer_queue_);
    if (netmodel_ == nullptr) {
      for (const core::ReplicaTransferRequested& req : batch) {
        confirm_transfer(req);
      }
      return;
    }
    const Time now = net_->now();
    for (const core::ReplicaTransferRequested& req : batch) {
      sim::TransferMessage msg;
      msg.file = req.file;
      msg.index = req.index;
      msg.from_sector = req.from;
      msg.to_sector = req.to;
      msg.client = req.client;
      msg.deadline = req.deadline;
      const ByteCount size =
          net_->file_exists(req.file) ? net_->file(req.file).size : 0;
      tracer_.timed(Call::sim_send,
                    [&] { netmodel_->send(now, size, msg); });
    }
    counts_.in_flight_max =
        std::max<std::uint64_t>(counts_.in_flight_max, netmodel_->in_flight());
    deliver_messages();
  }

  void advance_to(Time t) {
    tracer_.timed(Call::core_advance_to, [&] { net_->advance_to(t); });
  }

  void advance_confirming(Time horizon) {
    drain_transfers();
    while (true) {
      const Time next_task = net_->next_task_time();
      const Time next_msg =
          netmodel_ != nullptr ? netmodel_->next_delivery_time() : kNoTime;
      const Time next = std::min(next_task, next_msg);
      if (next == kNoTime || next > horizon) break;
      advance_to(next);
      drain_transfers();
    }
    advance_to(horizon);
    drain_transfers();
  }

  void advance_cycle() {
    for (std::size_t i = 0; i < adversaries_.size(); ++i) {
      Adversary& adv = adversaries_[i];
      adversary::AdversaryView view(*net_, epoch_, adv.rng, live_files_,
                                    adv.claimed, adv.counters);
      tracer_.timed(Call::adversary_on_epoch,
                    [&] { adv.strategy->on_epoch(view); });
      tracer_.timed(Call::adversary_apply, [&] { apply_actions(i, view); });
    }
    if (traffic_ != nullptr) {
      tracer_.timed(Call::traffic_on_epoch,
                    [&] { traffic_->on_epoch(epoch_, live_files_); });
    }
    advance_confirming(net_->now() + spec_.params.proof_cycle);
    ++epoch_;
  }

  void apply_actions(std::size_t index, const adversary::AdversaryView& view) {
    for (const adversary::AdversaryAction& action : view.actions()) {
      ++counts_.adversary_actions;
      if (const auto* hammer = std::get_if<adversary::HammerFile>(&action)) {
        traffic_->inject(gang_base_[index] + hammer->stream_offset,
                         hammer->file, hammer->requests);
      } else if (const auto* starve =
                     std::get_if<adversary::RefuseServe>(&action)) {
        if (!net_->sectors().exists(starve->sector)) continue;
        if (claims_.emplace(starve->sector, index).second) {
          adversaries_[index].claimed.push_back(starve->sector);
        }
        traffic_->set_serve_refusal(starve->sector, starve->refuse);
      } else {
        // check_supported admits only strategies emitting the two above.
        FI_CHECK_MSG(false, "traced driver got an unmirrored action");
      }
    }
  }

  bool add_file() {
    const ByteCount span = spec_.file_size_max - spec_.file_size_min + 1;
    const ByteCount size =
        spec_.file_size_min + workload_rng_.uniform_below(span);
    const auto id = tracer_.timed(Call::core_file_add, [&] {
      return net_->file_add(client_, {size, spec_.effective_file_value(), {}});
    });
    if (!id.is_ok()) return false;
    live_positions_.emplace(id.value(), live_files_.size());
    live_files_.push_back(id.value());
    return true;
  }

  core::FileId sample_live_file() {
    while (!live_files_.empty()) {
      const std::size_t idx = static_cast<std::size_t>(
          workload_rng_.uniform_below(live_files_.size()));
      const core::FileId file = live_files_[idx];
      if (net_->file_exists(file)) return file;
      forget_file(file);
    }
    return core::kNoFile;
  }

  void forget_file(core::FileId file) {
    const auto it = live_positions_.find(file);
    if (it == live_positions_.end()) return;
    const std::size_t idx = it->second;
    const core::FileId moved = live_files_.back();
    live_files_[idx] = moved;
    live_positions_[moved] = idx;
    live_files_.pop_back();
    live_positions_.erase(file);
  }

  void step_phase_cycle(const PhaseSpec& phase) {
    if (phase.kind == PhaseKind::churn) {
      const std::uint64_t arrivals =
          phase.poisson_arrivals
              ? util::sample_poisson(workload_rng_,
                                     static_cast<double>(phase.adds_per_cycle))
              : phase.adds_per_cycle;
      for (std::uint64_t a = 0; a < arrivals; ++a) (void)add_file();
      const double expected_discards =
          phase.discard_fraction * static_cast<double>(live_files_.size());
      const std::uint64_t discards =
          expected_discards > 0.0
              ? util::sample_poisson(workload_rng_, expected_discards)
              : 0;
      for (std::uint64_t d = 0; d < discards; ++d) {
        const core::FileId file = sample_live_file();
        if (file == core::kNoFile) break;
        (void)tracer_.timed(Call::core_file_discard,
                            [&] { return net_->file_discard(client_, file); });
        forget_file(file);
      }
    }
    advance_cycle();
  }

  const ScenarioSpec& spec_;
  Tracer& tracer_;
  ledger::Ledger ledger_;
  std::unique_ptr<core::Network> net_;
  util::Xoshiro256 workload_rng_;
  AccountId provider_ = kNoAccount;
  AccountId client_ = kNoAccount;
  std::vector<core::ReplicaTransferRequested> transfer_queue_;
  std::vector<core::FileId> live_files_;
  std::unordered_map<core::FileId, std::size_t> live_positions_;
  std::vector<Adversary> adversaries_;
  std::unordered_map<core::SectorId, std::size_t> claims_;
  std::uint64_t epoch_ = 0;
  std::unique_ptr<sim::NetModel> netmodel_;
  std::unique_ptr<traffic::TrafficEngine> traffic_;
  std::vector<std::uint64_t> gang_base_;
  MirrorCounts counts_;
};

}  // namespace

EngineFingerprint fingerprint(const core::Network& net,
                              const scenario::MetricsReport& report) {
  scenario::MetricsReport blocks;
  blocks.totals = report.totals;
  blocks.traffic = report.traffic;
  blocks.network = report.network;
  return {network_sha(net), blocks.to_json()};
}

util::Result<MirrorResult> run_mirror(const ScenarioSpec& spec,
                                      Tracer& tracer) {
  if (auto status = spec.validate(); !status.is_ok()) return status;
  if (auto status = check_supported(spec); !status.is_ok()) return status;
  const auto start = Tracer::Clock::now();
  Mirror mirror(spec, tracer);
  mirror.run();
  const double wall =
      std::chrono::duration<double>(Tracer::Clock::now() - start).count();
  MirrorResult result = mirror.result();
  result.wall_seconds = wall;
  return result;
}

}  // namespace fi::bench
