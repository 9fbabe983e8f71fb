#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/baseline.h"
#include "util/config.h"
#include "util/status.h"

/// `fi::ExperimentPlan` — a DAG of named experiment segments, parsed from
/// the same key=value format as scenario configs (docs/ORCHESTRATION.md
/// documents the schema; `fi_orchestrate --validate` also builds the spec
/// of every node under a scenario root, overrides included).
///
/// Each node is one of:
///   - a **scenario root**: a scenario config + `--set`-style overrides,
///     run from genesis (sweeps = several roots with divergent sets);
///   - a **child segment**: resumes its parent node's end checkpoint,
///     optionally with divergent overrides (counterfactual forks — same
///     state prefix, different knobs from there on); `parent_snapshot`
///     resumes an external `.fisnap` file instead (cached-genesis CI);
///   - a **baseline**: a Table-IV protocol model (`fi::run_baseline`).
///
/// `epochs` is the segment length: run that many proof cycles then
/// checkpoint (a segment), or 0 to run to completion and report (a leaf
/// — chained long horizons are segment → segment → leaf).
namespace fi {

struct PlanNode {
  enum class Kind : std::uint8_t { scenario, baseline };

  std::string name;
  Kind kind = Kind::scenario;

  // -- scenario nodes --
  /// Scenario config path (resolved against the plan file's directory);
  /// roots only — children inherit the parent checkpoint's spec.
  std::string scenario;
  /// Parent node name; empty for roots.
  std::string parent;
  /// External `.fisnap` to resume instead of a parent node (resolved
  /// against the invoking process's cwd — it is a runtime artifact, not
  /// part of the plan). Exclusive with `parent` and `scenario`.
  std::string parent_snapshot;
  /// Expected `state_hash()` of `parent_snapshot`, 64 lowercase hex
  /// (optional; parent-node edges are always validated against the
  /// recorded hash instead).
  std::string parent_hash;
  /// Proof cycles to run; 0 = to completion (final report + table row).
  std::uint64_t epochs = 0;
  /// `--set`-style spec overrides, applied in plan order.
  std::vector<std::pair<std::string, std::string>> overrides;

  // -- baseline nodes --
  BaselineSpec baseline;
};

struct ExperimentPlan {
  std::string name = "plan";
  std::vector<PlanNode> nodes;

  /// Parses `plan.name` + `node.<i>.*` groups (dense from 0). Unknown
  /// keys are rejected, like scenario configs. `base_dir` resolves
  /// relative scenario paths ("" = leave as written).
  static util::Result<ExperimentPlan> from_config(const util::Config& config,
                                                  const std::string& base_dir);

  /// `Config::load` + `from_config` with the file's directory as base.
  static util::Result<ExperimentPlan> from_file(const std::string& path);

  /// Structural validation: unique node names, resolvable acyclic parent
  /// edges, roots have a scenario, children don't, baselines stand alone,
  /// a `parent_hash` is a state hash.
  /// (`from_config` runs this; exposed for plan-building code.)
  [[nodiscard]] util::Status validate() const;

  /// Builds the spec of every node under a scenario root: the root config,
  /// then each ancestor's `set.*` overrides from the root down, then its
  /// own. A child resumes its parent's checkpoint, whose spec is the
  /// parent's, so a run composes the same specs. Nodes under a
  /// `parent_snapshot` are skipped: their root is in that file. Fails with
  /// "node <name>: <why>" at the first spec that does not build.
  /// `run_plan` calls this before any node runs; `fi_orchestrate
  /// --validate` calls it too.
  [[nodiscard]] util::Status validate_specs() const;

  /// Index of `name` in `nodes`, or `nodes.size()` when absent.
  [[nodiscard]] std::size_t index_of(const std::string& node_name) const;
};

}  // namespace fi
