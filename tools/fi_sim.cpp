// fi_sim — run a declarative FileInsurer scenario and emit a JSON report.
//
//   fi_sim --scenario configs/churn_1m.cfg --out report.json
//   fi_sim --scenario configs/smoke.cfg --set seed=7 --set sectors=500
//   fi_sim --scenario configs/smoke.cfg --save ckpt.fisnap --save-at 5
//   fi_sim --load ckpt.fisnap --out report.json --hash-state
//   fi_sim --scenario configs/smoke.cfg --out r.json --hash-state-every 1
//
// The report (schema: docs/BENCHMARKS.md) goes to --out, or stdout when no
// --out is given; a one-line human summary always goes to stderr. Without
// --timings the JSON is a pure function of the spec, so two runs with the
// same config are byte-identical — diff reports to track trends.
//
// Since PR 10 this binary is a thin adapter over `fi::Session`
// (src/api/session.h): it parses flags into `Session::OpenOptions`, steps
// the session one epoch at a time applying the checkpoint/state-hash
// policy, and prints the report — every simulation capability lives in
// the library, shared with `fi_orchestrate` and embeddings. The stepping
// loop is byte-identical to the old monolithic run (pinned by
// tests/session_test.cpp and the golden-hash CI gate).
//
// Snapshots (docs/ARCHITECTURE.md, src/snapshot): --save checkpoints the
// whole simulation — engine tables, ledger, every PRNG stream, adversary
// and phase progress — and --load continues it; the continued run's report
// and --hash-state output are byte-identical to the uninterrupted run's.
// --hash-state prints the SHA-256 fingerprint of
// the canonical end-of-run state as the last stdout line (use --out for
// the report when capturing it); the CI golden-hashes job pins these
// per-config in tests/golden/state_hashes.txt. It is taken after
// report(), whose finalization (adversary end hooks) can still change
// state. --hash-state-every n prints the same hash during the run, as
// 'state-hash epoch=<e> <hex>' every n epochs, so two runs (or a run and
// its resumed continuation) can be diffed to their first divergent epoch.
//
// Exit codes (tests/cli_contract_test.cpp): 0 ok, 1 run/input failure
// (bad file, rent leak, failed save), 2 usage.

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "api/session.h"
#include "snapshot/snapshot.h"
#include "util/arg_parser.h"

int main(int argc, char** argv) {
  std::string scenario_path;
  std::string load_path;
  std::string save_path;
  std::string out_path;
  std::uint64_t save_at = 0;
  std::uint64_t save_every = 0;
  std::uint64_t hash_every = 0;
  bool timings = false;
  bool dump_spec = false;
  bool hash_state = false;
  fi::Session::OpenOptions options;

  fi::util::ArgParser parser(
      "fi_sim",
      "--scenario <config> | --load <snapshot>  [options]");
  parser.add_string("--scenario", &scenario_path, "config",
                    "scenario spec (key=value or flat JSON file)");
  parser.add_string("--load", &load_path, "file",
                    "resume a saved run instead of --scenario; the\n"
                    "continuation is byte-identical to the\n"
                    "uninterrupted run");
  parser.add_string("--out", &out_path, "path",
                    "write the JSON report here (default: stdout)");
  parser.add_flag("--timings", &timings,
                  "include wall-clock timings in the report\n"
                  "(breaks byte-for-byte reproducibility)");
  parser.add_repeated_kv("--set", &options.overrides,
                         "override a config key (repeatable)");
  parser.add_flag("--dump-spec", &dump_spec,
                  "print the normalized spec and exit");
  parser.add_string("--save", &save_path, "file",
                    "write a snapshot: at --save-at <epoch>, every\n"
                    "--save-every <n> epochs (overwriting), or at\n"
                    "the end of the run when neither is given");
  // Zero is reserved for "save at end of run" (no --save-at given); an
  // explicit 0 would silently switch modes, so the parser rejects it.
  parser.add_u64("--save-at", &save_at, "epoch",
                 "write --save's snapshot at this epoch", 1,
                 "an epoch >= 1");
  parser.add_u64("--save-every", &save_every, "n",
                 "write --save's snapshot every n epochs", 1,
                 "a cycle count >= 1");
  parser.add_flag("--hash-state", &hash_state,
                  "print the end-of-run state hash (SHA-256 of\n"
                  "the canonical state encoding) to stdout; it is\n"
                  "taken after the report, which can still change\n"
                  "state");
  parser.add_u64("--hash-state-every", &hash_every, "n",
                 "every <n> epochs, print the same state hash,\n"
                 "taken before the report, as\n"
                 "'state-hash epoch=<e> <hex>'",
                 1, "a cycle count >= 1");

  if (auto status = parser.parse(argc, argv); !status.is_ok()) {
    return parser.usage_error(status);
  }
  if (parser.help_requested()) {
    std::fputs(parser.help_text().c_str(), stdout);
    return 0;
  }
  if (scenario_path.empty() == load_path.empty()) {
    return parser.usage_error(
        "exactly one of --scenario or --load is required");
  }
  if (save_path.empty() && (save_at != 0 || save_every != 0)) {
    return parser.usage_error("--save-at/--save-every need --save");
  }
  if (save_at != 0 && save_every != 0) {
    return parser.usage_error("--save-at and --save-every are exclusive");
  }
  if (!load_path.empty() && !options.overrides.empty()) {
    // A snapshot embeds its spec. (fi_orchestrate plan nodes *can* fork a
    // snapshot with divergent knobs; the CLI keeps --load a faithful
    // continuation.)
    return parser.usage_error(
        "--set cannot modify a resumed run (the snapshot pins the spec); "
        "use an fi_orchestrate plan to fork divergent branches");
  }

  if (dump_spec) {
    std::string spec_text;
    if (!load_path.empty()) {
      auto snapshot = fi::snapshot::read_file(load_path);
      if (!snapshot.is_ok()) {
        std::fprintf(stderr, "fi_sim: %s\n",
                     snapshot.status().to_string().c_str());
        return 1;
      }
      spec_text = snapshot.value().spec.to_config_string();
    } else {
      auto spec = fi::Session::load_spec(scenario_path, options);
      if (!spec.is_ok()) {
        std::fprintf(stderr, "fi_sim: %s: %s\n", scenario_path.c_str(),
                     spec.status().to_string().c_str());
        return 1;
      }
      spec_text = spec.value().to_config_string();
    }
    std::fputs(spec_text.c_str(), stdout);
    return 0;
  }

  auto opened = !load_path.empty()
                    ? fi::Session::from_snapshot_file(load_path, options)
                    : fi::Session::from_config_file(scenario_path, options);
  if (!opened.is_ok()) {
    if (!scenario_path.empty()) {
      std::fprintf(stderr, "fi_sim: %s: %s\n", scenario_path.c_str(),
                   opened.status().to_string().c_str());
    } else {
      std::fprintf(stderr, "fi_sim: %s\n",
                   opened.status().to_string().c_str());
    }
    return 1;
  }
  fi::Session session = std::move(opened).value();

  bool save_failed = false;
  bool save_fired = false;
  const bool save_hook =
      !save_path.empty() && (save_at != 0 || save_every != 0);

  // The stepping loop: one epoch per iteration, policy applied at the
  // checkpoint-safe pause point — exactly where the monolithic run loop
  // fired its epoch callback, so snapshots are byte-identical to the
  // pre-Session fi_sim's, and each state-hash line equals the hash that a
  // checkpoint saved at the same epoch resumes to.
  while (!session.finished()) {
    if (session.run_epochs(1) == 0) break;  // trailing zero-cycle phases
    const std::uint64_t epoch = session.epoch();
    if (hash_every != 0 && epoch % hash_every == 0) {
      std::fprintf(stdout, "state-hash epoch=%llu %s\n",
                   static_cast<unsigned long long>(epoch),
                   session.state_hash().c_str());
    }
    if (save_hook) {
      const bool due =
          save_every != 0 ? epoch % save_every == 0 : epoch == save_at;
      if (due) {
        save_fired = true;
        if (auto status = session.checkpoint(save_path); !status.is_ok()) {
          std::fprintf(stderr, "fi_sim: snapshot save failed: %s\n",
                       status.to_string().c_str());
          save_failed = true;
        }
      }
    }
  }

  const fi::scenario::MetricsReport report = session.report();
  const std::string json = report.to_json(timings);

  if (!save_path.empty() && save_at == 0 && save_every == 0) {
    // End-of-run snapshot: after report(), like the monolithic run —
    // finalization (adversary end hooks) is part of the saved state.
    if (auto status = session.checkpoint(save_path); !status.is_ok()) {
      std::fprintf(stderr, "fi_sim: snapshot save failed: %s\n",
                   status.to_string().c_str());
      save_failed = true;
    }
  } else if (!save_path.empty() && !save_fired) {
    // A requested checkpoint that never happened must not look like
    // success — the epoch was past the run's end (or the interval longer
    // than the run), and a later --load would fail on a missing file.
    std::fprintf(stderr,
                 "fi_sim: --save never fired: the run ended at epoch %llu "
                 "before the requested save point\n",
                 static_cast<unsigned long long>(session.epoch()));
    save_failed = true;
  }

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    out << json;
    out.close();
    if (!out.good()) {
      std::fprintf(stderr, "fi_sim: failed to write %s\n", out_path.c_str());
      return 1;
    }
  }

  if (hash_state) {
    std::fprintf(stdout, "%s\n", session.state_hash().c_str());
  }

  std::fprintf(
      stderr,
      "fi_sim: %s seed=%llu — %llu files stored, %llu lost, "
      "rent %s, %.1fs (setup %.1fs)\n",
      report.scenario.c_str(), static_cast<unsigned long long>(report.seed),
      static_cast<unsigned long long>(report.totals.files_stored),
      static_cast<unsigned long long>(report.totals.files_lost),
      report.rent_conserved ? "conserved" : "LEAKED",
      report.wall_seconds + report.setup_seconds, report.setup_seconds);
  if (save_failed) return 1;
  return report.rent_conserved ? 0 : 1;
}
