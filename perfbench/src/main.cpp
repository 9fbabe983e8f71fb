// fi_bench — the repository benchmark (see ../README.md).
//
//   fi_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--root <repo>] [--work-dir <dir>] [--smoke]
//
// Untraced (--trace 0): repeats the workload end to end through the public
// fi::Session API — open, step every epoch, report, state hash, checkpoint,
// resume — while another repetition fits in --seconds (at least once),
// checks every repetition, and reports each timing as the fastest sample of
// identical work (see Samples).
//
// Traced (--trace 1): one untraced reference run, then the snapshot layer
// under spans, then the same spec through the traced driver (mirror.h) at
// engine.workers 4 and 1; both must reproduce the reference's engine state
// exactly. Reports per-layer call counts, times, self-time shares and the
// traced driver's overhead.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; progress and check failures go to stderr. --smoke
// runs each workload at 1/10 scale (self-tests: no pinned hash there).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/session.h"
#include "mirror.h"
#include "snapshot/snapshot.h"
#include "trace.h"

namespace {

using fi::Session;
using fi::bench::Call;
using fi::bench::Tracer;
using Clock = std::chrono::steady_clock;
using Overrides = std::vector<std::pair<std::string, std::string>>;

/// `engine.workers` for every measured run: the benchmark host's core
/// count, pinned as a number so results do not depend on where it runs.
constexpr std::uint64_t kWorkers = 4;
/// setup_s is the fastest of at least this many Session opens per run.
constexpr std::size_t kMinSetups = 5;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Workload {
  const char* name;
  const char* config;  ///< relative to the repository root
  Overrides full;
  Overrides smoke;  ///< a small `full` of the same shape
  std::uint64_t default_seed;
  const char* golden_hash;  ///< end state_hash() at default_seed, `full`
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // Read-heavy: ~0.35M retrievals through the traffic tick plus a
      // hammer gang and a 300-sector serving cartel.
      {"retrieval_ddos_1e4",
       "configs/retrieval_ddos.cfg",
       {{"sectors", "2000"},
        {"initial_files", "10000"},
        {"traffic.requests_per_cycle", "5000"},
        {"traffic.streams", "16"},
        {"traffic.provider_capacity", "16"},
        {"traffic.queue_limit", "64"},
        {"traffic.cache_blocks", "410"},
        {"adversary.0.requests_per_epoch", "1500"},
        {"phase.0.cycles", "30"}},
       {{"sectors", "200"},
        {"initial_files", "1000"},
        {"traffic.requests_per_cycle", "500"},
        {"traffic.streams", "16"},
        {"traffic.provider_capacity", "16"},
        {"traffic.queue_limit", "64"},
        {"traffic.cache_blocks", "41"},
        {"adversary.0.requests_per_epoch", "150"},
        {"phase.0.cycles", "30"}},
       63,
       "8cd139c8740be2873a9e643c1becc4b99f2f717db84e1e549af5a5b1e795ffb4"},
      // The latency-sampled transfer path: ~0.1M NetModel messages.
      {"regional_latency_1e4",
       "configs/regional_latency.cfg",
       {{"sectors", "2000"},
        {"initial_files", "10000"},
        {"phase.0.adds_per_cycle", "1000"},
        {"phase.1.cycles", "10"},
        {"net.avg_refresh", "4"}},
       {{"sectors", "200"},
        {"initial_files", "1000"},
        {"phase.0.adds_per_cycle", "100"},
        {"phase.1.cycles", "10"},
        {"net.avg_refresh", "4"}},
       4242,
       "e10cf1ec4e8722c12d106ca284034c5e53f5660f7bd672a8793d15a35aa3bc0a"},
  };
  return all;
}

struct Job {
  std::string config_path;
  Session::OpenOptions options;
  fi::scenario::ScenarioSpec spec;
  std::optional<std::string> golden_hash;
  std::string checkpoint_path;
};

// ---- Checks ----------------------------------------------------------------

bool fail(const std::string& what) {
  std::fprintf(stderr, "fi_bench: CHECK FAILED: %s\n", what.c_str());
  return false;
}

/// Report invariants every run must satisfy.
bool check_report(const fi::scenario::ScenarioSpec& spec,
                  const fi::scenario::MetricsReport& report) {
  bool ok = true;
  if (!report.rent_conserved) ok = fail("rent not conserved");
  const auto& totals = report.totals;
  if (totals.value_lost !=
      totals.value_compensated + report.outstanding_liabilities) {
    ok = fail("value_lost != value_compensated + outstanding_liabilities");
  }
  if (spec.traffic.enabled) {
    const fi::traffic::TrafficMetrics& t = report.traffic;
    if (t.requests_attempted - t.rate_limited !=
        t.enqueued + t.dropped + t.starved + t.lookup_failures +
            t.payment_failures) {
      ok = fail("traffic requests are not all accounted for");
    }
    if (spec.traffic.defense_enabled) {
      // Gang streams follow the honest block, one block per gang, in
      // adversary order; the defense must flag exactly those.
      std::vector<std::uint64_t> gang;
      std::uint64_t next = spec.traffic.streams;
      for (const auto& adv : spec.adversaries) {
        if (adv.kind != fi::adversary::StrategyKind::retrieval_ddos) continue;
        for (std::uint64_t g = 0; g < adv.gang; ++g) gang.push_back(next++);
      }
      std::vector<std::uint64_t> flagged = t.flagged_stream_ids;
      std::sort(flagged.begin(), flagged.end());
      if (flagged != gang) ok = fail("defense flagged streams != gang streams");
    }
  }
  return ok;
}

// ---- Untraced run ----------------------------------------------------------

/// Host times of every repetition. Each repetition does identical work (same
/// spec, same seed), so a sample can only be slowed by the host, never sped
/// up: each timing metric is the fastest sample of its operation, and run_s
/// is built from the fastest sample of each epoch index.
struct Samples {
  std::vector<double> setup_s;
  std::vector<std::vector<double>> epoch_s;  ///< [epoch index][repetition]
  std::vector<double> report_s;
  std::vector<double> state_hash_s;
  std::vector<double> checkpoint_s;
  std::vector<double> resume_s;
  std::vector<double> snapshot_mb;
};

std::optional<Session> open_session(const Job& job, double& seconds) {
  const auto start = Clock::now();
  auto opened = Session::from_config_file(job.config_path, job.options);
  seconds = since(start);
  if (!opened.is_ok()) {
    fail("open: " + opened.status().to_string());
    return std::nullopt;
  }
  return std::move(opened).value();
}

/// Steps every epoch and finalizes; returns each epoch's time (a trailing
/// end-of-phase flush is folded into the last epoch) and the report's.
std::pair<std::vector<double>, double> run_all(
    Session& session, fi::scenario::MetricsReport& report) {
  std::vector<double> epochs;
  while (!session.finished()) {
    const auto start = Clock::now();
    const std::uint64_t ran = session.run_epochs(1);
    const double dt = since(start);
    if (ran == 0 && !epochs.empty()) {
      epochs.back() += dt;
      break;
    }
    epochs.push_back(dt);
    if (ran == 0) break;
  }
  const auto start = Clock::now();
  report = session.report();
  return {std::move(epochs), since(start)};
}

/// One end-to-end repetition of the workload; false if any check failed.
bool measure_once(const Job& job, Samples& samples) {
  double setup = 0.0;
  std::optional<Session> session = open_session(job, setup);
  if (!session) return false;
  samples.setup_s.push_back(setup);

  fi::scenario::MetricsReport report;
  auto [epochs, report_s] = run_all(*session, report);
  bool ok = check_report(job.spec, report);
  if (samples.epoch_s.empty()) samples.epoch_s.resize(epochs.size());
  if (epochs.size() != samples.epoch_s.size()) {
    return fail("epoch count changed between repetitions");
  }
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    samples.epoch_s[e].push_back(epochs[e]);
  }
  samples.report_s.push_back(report_s);

  auto start = Clock::now();
  const std::string hash = session->state_hash();
  samples.state_hash_s.push_back(since(start));
  if (job.golden_hash && hash != *job.golden_hash) {
    ok = fail("end state hash " + hash + " != pinned " + *job.golden_hash);
  }

  start = Clock::now();
  const fi::util::Status saved = session->checkpoint(job.checkpoint_path);
  samples.checkpoint_s.push_back(since(start));
  if (!saved.is_ok()) return fail("checkpoint: " + saved.to_string());
  samples.snapshot_mb.push_back(
      static_cast<double>(std::filesystem::file_size(job.checkpoint_path)) /
      1e6);

  // The resumed session replaces the original, so memory does not double.
  session.reset();
  start = Clock::now();
  auto resumed = Session::from_snapshot_file(job.checkpoint_path, job.options);
  samples.resume_s.push_back(since(start));
  std::filesystem::remove(job.checkpoint_path);
  if (!resumed.is_ok()) return fail("resume: " + resumed.status().to_string());

  start = Clock::now();
  const std::string resumed_hash = resumed.value().state_hash();
  samples.state_hash_s.push_back(since(start));
  if (resumed_hash != hash) {
    ok = fail("resumed state hash differs from the original");
  }
  return ok;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

int run_untraced(const Job& job, double seconds) {
  Samples samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Repeat while one more repetition as long as the longest so far still
  // fits in --seconds (always at least one).
  const auto start = Clock::now();
  double longest = 0.0;
  do {
    ++attempted;
    const auto rep = Clock::now();
    if (!measure_once(job, samples)) ++failed;
    longest = std::max(longest, since(rep));
  } while (since(start) + longest <= seconds);
  while (samples.setup_s.size() < kMinSetups) {
    double setup = 0.0;
    if (!open_session(job, setup)) {
      ++attempted;
      ++failed;
      break;
    }
    samples.setup_s.push_back(setup);
  }
  double run_s = fastest(samples.report_s);
  std::vector<double> epoch_ms;
  for (const std::vector<double>& epoch : samples.epoch_s) {
    run_s += fastest(epoch);
    epoch_ms.push_back(fastest(epoch) * 1e3);
  }
  std::fprintf(stderr,
               "fi_bench: %llu repetition(s) of %zu epochs, %zu setups\n",
               static_cast<unsigned long long>(attempted),
               samples.epoch_s.size(), samples.setup_s.size());
  print_result(failed == 0, attempted, failed,
               {{"setup_s", fastest(samples.setup_s), "s"},
                {"run_s", run_s, "s"},
                {"epoch_ms_p50", median(epoch_ms), "ms"},
                {"state_hash_s", fastest(samples.state_hash_s), "s"},
                {"checkpoint_s", fastest(samples.checkpoint_s), "s"},
                {"resume_s", fastest(samples.resume_s), "s"},
                {"snapshot_mb", median(samples.snapshot_mb), "MB"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

// ---- Traced run ------------------------------------------------------------

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

int run_traced(const Job& job) {
  std::uint64_t attempted = 1;
  bool ok = true;

  // Untraced reference: the Session run the traced driver must reproduce.
  double ref_setup = 0.0;
  std::optional<Session> session = open_session(job, ref_setup);
  if (!session) return 1;
  fi::scenario::MetricsReport report;
  const auto [ref_epochs, ref_report_s] = run_all(*session, report);
  double ref_run = ref_report_s;
  for (const double dt : ref_epochs) ref_run += dt;
  ok = check_report(job.spec, report) && ok;
  const fi::bench::EngineFingerprint reference =
      fi::bench::fingerprint(session->network(), report);

  // Snapshot layer, under spans: hash, checkpoint, read, resume, re-hash.
  Tracer tracer;
  auto start = Clock::now();
  const std::string hash = tracer.timed(Call::snapshot_state_hash,
                                        [&] { return session->state_hash(); });
  if (job.golden_hash && hash != *job.golden_hash) {
    ok = fail("end state hash " + hash + " != pinned " + *job.golden_hash);
  }
  const fi::util::Status saved = tracer.timed(Call::snapshot_save_to_file, [&] {
    return session->checkpoint(job.checkpoint_path);
  });
  double snapshot_wall = since(start);
  if (!saved.is_ok()) {
    fail("checkpoint: " + saved.to_string());
    return 1;
  }

  // Encoding cost per engine component, into a hash-only writer. A
  // breakdown of state_hash's work, outside the traced total.
  std::vector<Metric> encode;
  for (std::size_t c = 0; c < fi::core::Network::kStateComponentCount; ++c) {
    const auto component = static_cast<fi::core::Network::StateComponent>(c);
    const std::string prefix =
        std::string("snapshot.encode.") +
        fi::core::Network::state_component_name(component);
    fi::util::BinaryWriter writer(/*keep_bytes=*/false);
    const auto t0 = Clock::now();
    session->network().save_state_component(component, writer);
    encode.push_back({prefix + ".s", since(t0), "s"});
    encode.push_back(
        {prefix + ".bytes", static_cast<double>(writer.size()), "bytes"});
  }
  session.reset();

  start = Clock::now();
  {
    auto snap = tracer.timed(Call::snapshot_read_file, [&] {
      return fi::snapshot::read_file(job.checkpoint_path);
    });
    if (!snap.is_ok()) {
      fail("read: " + snap.status().to_string());
      return 1;
    }
    auto runner = tracer.timed(Call::snapshot_resume, [&] {
      fi::util::BinaryReader reader(snap.value().body);
      return fi::scenario::ScenarioRunner::resume(snap.value().spec, reader);
    });
    if (!runner.is_ok()) {
      fail("resume: " + runner.status().to_string());
      return 1;
    }
    const std::string resumed = tracer.timed(Call::snapshot_state_hash, [&] {
      return fi::snapshot::state_hash(*runner.value());
    });
    snapshot_wall += since(start);
    if (resumed != hash) ok = fail("resumed state hash differs");
  }
  std::filesystem::remove(job.checkpoint_path);

  // The traced driver at the measured worker count, then at 1 worker.
  ++attempted;
  auto mirrored = fi::bench::run_mirror(job.spec, tracer);
  if (!mirrored.is_ok()) {
    fail(mirrored.status().to_string());
    return 1;
  }
  const fi::bench::MirrorResult& m = mirrored.value();
  if (!(m.fingerprint == reference)) {
    ok = fail("traced driver diverged from the Session run (workers " +
              std::to_string(job.spec.engine_workers) + ")");
  }

  ++attempted;
  fi::scenario::ScenarioSpec serial = job.spec;
  serial.engine_workers = 1;
  Tracer serial_tracer;
  auto serial_run = fi::bench::run_mirror(serial, serial_tracer);
  if (!serial_run.is_ok()) {
    fail(serial_run.status().to_string());
    return 1;
  }
  if (!(serial_run.value().fingerprint == reference)) {
    ok = fail("traced driver diverged from the Session run (workers 1)");
  }

  const double total = m.wall_seconds + snapshot_wall;
  std::vector<Metric> metrics;
  for (std::size_t c = 0; c < fi::bench::kCallCount; ++c) {
    const auto call = static_cast<Call>(c);
    const std::string name = fi::bench::kCalls[c].name;
    metrics.push_back(
        {name + ".calls", static_cast<double>(tracer.calls(call)), "count"});
    metrics.push_back({name + ".s", tracer.seconds(call), "s"});
  }
  const fi::bench::MirrorCounts& n = m.counts;
  const double advance_w4 = tracer.seconds(Call::core_advance_to);
  const double advance_w1 = serial_tracer.seconds(Call::core_advance_to);
  const fi::traffic::TrafficMetrics& t = n.traffic;
  metrics.insert(
      metrics.end(),
      {{"core.file_confirm.rejected",
        static_cast<double>(n.confirm_rejected), "count"},
       {"core.transfers_requested", static_cast<double>(n.transfers_requested),
        "count"},
       {"core.advance_to.w1.s", advance_w1, "s"},
       {"core.advance_to.speedup_w4", ratio(advance_w1, advance_w4), "ratio"},
       {"traffic.requests", static_cast<double>(t.requests_attempted), "count"},
       {"traffic.rate_limited", static_cast<double>(t.rate_limited), "count"},
       {"traffic.us_per_request",
        ratio(tracer.seconds(Call::traffic_on_epoch) * 1e6,
              static_cast<double>(t.requests_attempted)),
        "us"},
       {"traffic.served_ratio",
        ratio(static_cast<double>(t.served),
              static_cast<double>(t.requests_attempted)),
        "ratio"},
       {"traffic.cache_hit_ratio",
        ratio(static_cast<double>(t.cache_hits),
              static_cast<double>(t.cache_hits + t.cache_misses)),
        "ratio"},
       {"sim.delivered", static_cast<double>(n.sim_delivered), "count"},
       {"sim.dropped", static_cast<double>(n.sim_dropped), "count"},
       {"sim.in_flight_max", static_cast<double>(n.in_flight_max), "count"},
       {"sim.delivered_ratio",
        ratio(static_cast<double>(n.sim_delivered),
              static_cast<double>(n.sim_sent)),
        "ratio"},
       {"adversary.actions", static_cast<double>(n.adversary_actions),
        "count"}});
  metrics.insert(metrics.end(), encode.begin(), encode.end());

  double layered = 0.0;
  for (std::size_t l = 0; l < fi::bench::kLayerCount; ++l) {
    const double self = tracer.self_seconds(static_cast<fi::bench::Layer>(l));
    layered += self;
    metrics.push_back({std::string(fi::bench::kLayerNames[l]) + ".share",
                       ratio(self, total), "ratio"});
  }
  const double scenario_self = total - layered;
  metrics.insert(metrics.end(),
                 {{"scenario.self.s", scenario_self, "s"},
                  {"scenario.share", ratio(scenario_self, total), "ratio"},
                  {"trace.total_s", total, "s"},
                  // Both sides include the same snapshot phase, so this is
                  // the traced driver's wall minus the Session's.
                  {"trace.overhead_s",
                   total - (ref_setup + ref_run + snapshot_wall), "s"}});
  std::fprintf(stderr,
               "fi_bench: traced %.3fs (driver %.3fs, snapshot %.3fs), "
               "untraced setup+run %.3fs; advance_to w4 %.3fs w1 %.3fs\n",
               total, m.wall_seconds, snapshot_wall, ref_setup + ref_run,
               advance_w4, advance_w1);
  print_result(ok, attempted, ok ? 0 : 1, metrics);
  return 0;
}

// ---- Arguments -------------------------------------------------------------

int usage(const char* why) {
  std::fprintf(stderr,
               "fi_bench: %s\nusage: fi_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--root <dir>] [--work-dir <dir>] "
               "[--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process (no mmap'd chunks, no trimming), so
  // repetitions after the first reuse mapped pages instead of faulting in
  // fresh ones, whose cost on a virtual machine varies with the host.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  std::string workload_name;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::string root = ".";
  std::string work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed");
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds >= 0.0)) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      trace = value == "1";
    } else if (arg == "--root") {
      root = value;
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) return usage("unknown --workload");

  Job job;
  job.config_path = root + "/" + workload->config;
  job.options.overrides = smoke ? workload->smoke : workload->full;
  const std::uint64_t run_seed = seed.value_or(workload->default_seed);
  job.options.overrides.emplace_back("seed", std::to_string(run_seed));
  job.options.workers = kWorkers;
  if (!smoke && run_seed == workload->default_seed) {
    job.golden_hash = workload->golden_hash;
  }
  job.checkpoint_path = work_dir + "/" + workload->name + ".fisnap";
  auto spec = Session::load_spec(job.config_path, job.options);
  if (!spec.is_ok()) return usage(spec.status().to_string().c_str());
  job.spec = std::move(spec).value();

  return trace ? run_traced(job) : run_untraced(job, seconds);
}
