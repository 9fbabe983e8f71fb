#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/network.h"
#include "scenario/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "util/status.h"

/// `fi::Session` — a whole simulation as a movable value.
///
/// The session API is the library-level surface that `tools/fi_sim.cpp`
/// used to monopolize: open an experiment from a spec, a config file, or a
/// snapshot; step it epoch by epoch; fingerprint, checkpoint, or fork it
/// at any epoch boundary; and finalize it into a `MetricsReport`. Any
/// binary — the CLI, the orchestrator, a test, an embedding application —
/// drives runs through the same calls, and all of them inherit the
/// determinism contract: a session's reports, state hashes, and snapshot
/// bytes are pure functions of (spec, epochs run), independent of how the
/// run was segmented.
///
/// Equivalences pinned by `tests/session_test.cpp`:
///   - stepping `run_epochs(1)` to completion + `report()` is
///     byte-identical to one monolithic `ScenarioRunner::run()`;
///   - `checkpoint()` after `run_epochs(n)` writes the same file bytes as
///     `fi_sim --save --save-at n`;
///   - forks share the parent's prefix: `fork().state_hash() ==
///     state_hash()`, even when the fork overrides spec knobs.
namespace fi {

class Session final {
 public:
  /// Knobs applied when opening or forking a session. `overrides` are
  /// `--set`-style key=value pairs layered over the base spec (config
  /// keys, see docs/SCENARIOS.md).
  struct OpenOptions {
    std::vector<std::pair<std::string, std::string>> overrides;
    /// Inert: only perfbench/src/main.cpp sets it; deleted with mirror.cpp.
    std::optional<std::uint64_t> workers;
  };

  /// Opens a fresh run from a validated spec (setup population included).
  static util::Result<Session> from_spec(scenario::ScenarioSpec spec);

  /// `Config::load` + overrides + `from_spec`.
  static util::Result<Session> from_config_file(const std::string& path,
                                                const OpenOptions& options = {});

  /// Resumes a `FISNAP01` snapshot file mid-run. Overrides rewrite the
  /// embedded spec before resuming — the mechanism behind counterfactual
  /// forks (same state prefix, divergent knobs from here on). State must
  /// stay structurally compatible: the resume path cross-validates
  /// account layout, adversary count, and phase cursor.
  static util::Result<Session> from_snapshot_file(
      const std::string& path, const OpenOptions& options = {});

  /// Loads a spec the way `from_config_file` would (config + overrides),
  /// without building the (expensive) network — `fi_sim --dump-spec`.
  static util::Result<scenario::ScenarioSpec> load_spec(
      const std::string& path, const OpenOptions& options = {});

  /// `base` with `options`' overrides layered on top, the way
  /// `from_snapshot_file` and `fork` rewrite the spec they resume under
  /// (`fi_orchestrate --validate` composes a plan child's spec with it).
  static util::Result<scenario::ScenarioSpec> spec_with_overrides(
      const scenario::ScenarioSpec& base, const OpenOptions& options);

  Session(Session&&) noexcept = default;
  Session& operator=(Session&&) noexcept = default;

  /// Advances at most `epochs` proof cycles; returns how many ran (fewer
  /// only when the run's phases are exhausted). Cheap to call in a loop.
  std::uint64_t run_epochs(std::uint64_t epochs);

  /// Runs until `epoch() == target`. Fails if the target is behind the
  /// current epoch or past the run's end.
  util::Status run_to_epoch(std::uint64_t target);

  /// True when no proof cycles remain (the next `report()` is final).
  [[nodiscard]] bool finished() const;

  /// Proof cycles completed since genesis (counts across segments: a
  /// session resumed from an epoch-10 snapshot starts at 10).
  [[nodiscard]] std::uint64_t epoch() const;

  /// SHA-256 of the canonical state body (`snapshot::state_hash`):
  /// replayable across machines and save/load history.
  [[nodiscard]] std::string state_hash() const;

  /// Writes a `FISNAP01` snapshot of the current state; any session (or
  /// `fi_sim --load`) can continue from it byte-identically.
  [[nodiscard]] util::Status checkpoint(const std::string& path) const;

  /// Clones the current state into an independent session, optionally
  /// with divergent spec knobs — the counterfactual primitive: both forks
  /// share this session's `state_hash()` as their prefix, then evolve
  /// under their own specs. The parent is untouched.
  [[nodiscard]] util::Result<Session> fork(const OpenOptions& options = {}) const;

  /// Runs every remaining cycle and assembles the final report.
  /// Single-shot (the underlying runner latches); step/fork/checkpoint
  /// before calling, not after — finalization fires adversary end-of-run
  /// hooks, so it is itself a state transition (end-of-run checkpoints
  /// deliberately happen after it, matching `fi_sim --save`).
  scenario::MetricsReport report();

  [[nodiscard]] const scenario::ScenarioSpec& spec() const;
  [[nodiscard]] const core::Network& network() const;

 private:
  explicit Session(std::unique_ptr<scenario::ScenarioRunner> runner)
      : runner_(std::move(runner)) {}

  std::unique_ptr<scenario::ScenarioRunner> runner_;
};

}  // namespace fi
