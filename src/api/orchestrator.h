#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "api/comparison.h"
#include "api/experiment_plan.h"
#include "util/status.h"

/// Executes an `ExperimentPlan` DAG with a bounded thread pool: every
/// node whose parent has completed is eligible, up to `jobs` run at once,
/// and each runs in its own `fi::Session` or `fi::run_baseline` call (fully
/// independent state, so concurrency cannot perturb determinism — the
/// emitted tables are byte-identical for every `jobs` value).
///
/// Segment chaining: a node with `epochs = N` runs N proof cycles and
/// checkpoints to `<out_dir>/<name>.fisnap`; its children resume that
/// file and their freshly-loaded `state_hash()` is validated against the
/// hash recorded when the parent checkpointed — a mismatched edge fails
/// the child (and, transitively, its descendants) rather than silently
/// continuing from the wrong prefix. Leaf nodes (`epochs = 0`) run to
/// completion and contribute full reports to the comparison table.
namespace fi {

struct OrchestrateOptions {
  /// Checkpoints, per-node reports and the comparison table land here
  /// (must exist; the CLI creates it).
  std::string out_dir;
  /// Concurrent nodes; 0 = hardware concurrency.
  std::uint64_t jobs = 2;
  /// Reuse an existing `<out_dir>/<name>.fisnap` for a segment node
  /// instead of re-running it (CI's cached-genesis pattern; the file's
  /// digest-checked body supplies the recorded parent hash).
  bool reuse_checkpoints = false;
  /// Progress lines ("node X done ...") go here; nullptr = quiet.
  std::FILE* log = nullptr;
};

struct NodeOutcome {
  std::string name;
  PlanNode::Kind kind = PlanNode::Kind::scenario;
  util::Status status = util::Status::ok();
  /// Not run because an ancestor failed.
  bool skipped = false;
  /// A parent edge existed and the resumed hash matched the recorded one.
  bool parent_hash_validated = false;
  /// Reused a cached checkpoint instead of running.
  bool reused_checkpoint = false;
  /// End-of-node state fingerprint.
  std::string state_hash;
  std::uint64_t end_epoch = 0;
  /// Written checkpoint ("" for leaves-without-children and baselines).
  std::string checkpoint_path;
  /// Final report JSON (completed scenario nodes; "" for segments).
  std::string report_json;
  bool has_row = false;
  ComparisonRow row;
};

struct PlanOutcome {
  std::string plan_name;
  /// Plan order (not completion order).
  std::vector<NodeOutcome> nodes;

  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] std::vector<ComparisonRow> rows() const;
};

/// Runs the plan; a `Result` error means the orchestration itself could
/// not start (bad out_dir, or a node spec that does not build:
/// `ExperimentPlan::validate_specs`), while per-node failures land in the
/// outcome.
[[nodiscard]] util::Result<PlanOutcome> run_plan(
    const ExperimentPlan& plan, const OrchestrateOptions& options);

}  // namespace fi
