#include "api/orchestrator.h"

#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "api/baseline.h"
#include "api/session.h"

namespace fi {

namespace {

enum class NodeState : std::uint8_t { waiting, running, done };

struct Scheduler {
  // fi-lint: allow(wall-clock-adjacent host machinery) — the orchestrator
  // is host-side plumbing; node *results* are pure functions of the plan.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<NodeState> state;
  std::uint64_t done_count = 0;
};

/// Runs one scenario node to its declared length. `parent_hash` is the
/// recorded end hash of the parent node ("" for roots / external edges).
void run_scenario_node(const PlanNode& node, const std::string& parent_hash,
                       const OrchestrateOptions& opts, bool needs_checkpoint,
                       NodeOutcome& outcome) {
  const std::string& out_dir = opts.out_dir;

  // Cached-genesis path: an existing checkpoint stands in for re-running
  // the segment. Loading it replays the digest check (a corrupt or
  // truncated cache falls through to a fresh run that overwrites it) and
  // fills the row exactly as a fresh run would, so reused and fresh runs
  // emit byte-identical tables. Lineage is trusted — key the cache on the
  // plan's inputs (CI keys on config + golden hashes).
  if (opts.reuse_checkpoints && needs_checkpoint && node.epochs > 0) {
    const std::string path = out_dir + "/" + node.name + ".fisnap";
    auto cached = Session::from_snapshot_file(path, {});
    if (cached.is_ok()) {
      const Session& session = cached.value();
      outcome.reused_checkpoint = true;
      outcome.end_epoch = session.epoch();
      outcome.state_hash = session.state_hash();
      outcome.checkpoint_path = path;
      outcome.row.node = node.name;
      outcome.row.protocol = "FileInsurer";
      outcome.row.kind = "segment";
      outcome.row.files = session.network().stats().files_stored;
      outcome.row.epochs = outcome.end_epoch;
      outcome.row.state_hash = outcome.state_hash;
      outcome.has_row = true;
      return;
    }
  }

  Session::OpenOptions options;
  options.overrides = node.overrides;

  util::Result<Session> opened = [&]() -> util::Result<Session> {
    if (!node.parent.empty()) {
      return Session::from_snapshot_file(out_dir + "/" + node.parent +
                                             ".fisnap",
                                         options);
    }
    if (!node.parent_snapshot.empty()) {
      return Session::from_snapshot_file(node.parent_snapshot, options);
    }
    return Session::from_config_file(node.scenario, options);
  }();
  if (!opened.is_ok()) {
    outcome.status = opened.status();
    return;
  }
  Session session = std::move(opened).value();

  // Parent-edge validation: the freshly resumed state must hash to what
  // the parent recorded when it checkpointed. Divergent overrides cannot
  // break this — spec knobs are carried in the spec text, never in the
  // state body — so a mismatch means a stale or foreign checkpoint.
  const std::string expected =
      !node.parent.empty() ? parent_hash : node.parent_hash;
  if (!expected.empty()) {
    const std::string loaded = session.state_hash();
    if (loaded != expected) {
      outcome.status = util::err(
          util::ErrorCode::failed_precondition,
          "parent state hash mismatch: resumed " + loaded + ", expected " +
              expected);
      return;
    }
    outcome.parent_hash_validated = true;
  }

  if (node.epochs > 0) {
    session.run_epochs(node.epochs);
    outcome.row.kind = "segment";
    outcome.row.protocol = "FileInsurer";
  } else {
    const scenario::MetricsReport report = session.report();
    outcome.report_json = report.to_json(/*include_timings=*/false);
    outcome.row =
        row_from_report(node.name, session.spec(), report, session.epoch(),
                        /*state_hash=*/"");
  }
  outcome.end_epoch = session.epoch();
  outcome.state_hash = session.state_hash();
  outcome.row.node = node.name;
  outcome.row.files = outcome.row.has_outcome
                          ? outcome.row.files
                          : session.network().stats().files_stored;
  outcome.row.epochs = outcome.end_epoch;
  outcome.row.state_hash = outcome.state_hash;
  outcome.has_row = true;

  if (needs_checkpoint) {
    const std::string path = out_dir + "/" + node.name + ".fisnap";
    if (auto status = session.checkpoint(path); !status.is_ok()) {
      outcome.status = status;
      return;
    }
    outcome.checkpoint_path = path;
  }
}

void run_baseline_node(const PlanNode& node, NodeOutcome& outcome) {
  auto row = run_baseline(node.baseline, node.name);
  if (!row.is_ok()) {
    outcome.status = row.status();
    return;
  }
  outcome.row = std::move(row).value();
  outcome.has_row = true;
  outcome.end_epoch = outcome.row.epochs;
  outcome.state_hash = outcome.row.state_hash;
}

void run_node(const PlanNode& node, const std::string& parent_hash,
              const OrchestrateOptions& options, bool needs_checkpoint,
              NodeOutcome& outcome) {
  if (node.kind == PlanNode::Kind::baseline) {
    run_baseline_node(node, outcome);
  } else {
    run_scenario_node(node, parent_hash, options, needs_checkpoint, outcome);
  }
}

}  // namespace

bool PlanOutcome::all_ok() const {
  for (const NodeOutcome& node : nodes) {
    if (node.skipped || !node.status.is_ok()) return false;
  }
  return true;
}

std::vector<ComparisonRow> PlanOutcome::rows() const {
  std::vector<ComparisonRow> rows;
  for (const NodeOutcome& node : nodes) {
    if (node.has_row) rows.push_back(node.row);
  }
  return rows;
}

util::Result<PlanOutcome> run_plan(const ExperimentPlan& plan,
                                   const OrchestrateOptions& options) {
  if (auto status = plan.validate(); !status.is_ok()) return status;
  if (options.out_dir.empty()) {
    return util::err(util::ErrorCode::invalid_argument,
                     "orchestration needs an out_dir for checkpoints and "
                     "reports");
  }
  // A node whose spec does not build would fail only after its ancestors
  // ran and wrote their checkpoints; refuse the plan before any runs.
  if (auto status = plan.validate_specs(); !status.is_ok()) return status;

  const std::size_t n = plan.nodes.size();
  PlanOutcome outcome;
  outcome.plan_name = plan.name;
  outcome.nodes.resize(n);

  // A node's end state must be persisted iff some edge resumes it.
  std::vector<bool> needs_checkpoint(n, false);
  std::vector<std::size_t> parent_of(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    outcome.nodes[i].name = plan.nodes[i].name;
    outcome.nodes[i].kind = plan.nodes[i].kind;
    if (!plan.nodes[i].parent.empty()) {
      parent_of[i] = plan.index_of(plan.nodes[i].parent);
      needs_checkpoint[parent_of[i]] = true;
    }
    if (plan.nodes[i].epochs > 0 &&
        plan.nodes[i].kind == PlanNode::Kind::scenario) {
      needs_checkpoint[i] = true;  // segments are checkpoints by contract
    }
  }

  std::uint64_t jobs = options.jobs;
  if (jobs == 0) jobs = std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  if (jobs > n) jobs = n;

  Scheduler sched;
  sched.state.assign(n, NodeState::waiting);

  auto worker = [&] {
    std::unique_lock<std::mutex> lock(sched.mu);
    while (sched.done_count < n) {
      bool progressed = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (sched.state[i] != NodeState::waiting) continue;
        const std::size_t parent = parent_of[i];
        if (parent != n && sched.state[parent] != NodeState::done) continue;
        NodeOutcome& node_outcome = outcome.nodes[i];

        // Failed/skipped ancestors poison the subtree: better a visibly
        // skipped node than a run continued from a wrong or missing
        // checkpoint.
        if (parent != n && (!outcome.nodes[parent].status.is_ok() ||
                            outcome.nodes[parent].skipped)) {
          node_outcome.skipped = true;
          sched.state[i] = NodeState::done;
          ++sched.done_count;
          if (options.log != nullptr) {
            std::fprintf(options.log,
                         "fi_orchestrate: node %s skipped (parent %s "
                         "failed)\n",
                         plan.nodes[i].name.c_str(),
                         plan.nodes[parent].name.c_str());
          }
          progressed = true;
          sched.cv.notify_all();
          continue;
        }

        sched.state[i] = NodeState::running;
        const std::string parent_hash =
            parent != n ? outcome.nodes[parent].state_hash : std::string{};
        lock.unlock();
        try {
          run_node(plan.nodes[i], parent_hash, options, needs_checkpoint[i],
                   node_outcome);
        } catch (const std::exception& e) {
          // An invariant violation inside one node (FI_CHECK) fails that
          // node — and poisons its subtree — instead of tearing down the
          // pool; sibling branches still complete and report.
          node_outcome.status = util::err(
              util::ErrorCode::failed_precondition,
              std::string("node threw: ") + e.what());
        }
        lock.lock();
        sched.state[i] = NodeState::done;
        ++sched.done_count;
        if (options.log != nullptr) {
          std::fprintf(
              options.log,
              "fi_orchestrate: node %s %s epoch=%llu hash=%.12s… "
              "(%llu/%llu)\n",
              plan.nodes[i].name.c_str(),
              !node_outcome.status.is_ok()
                  ? node_outcome.status.to_string().c_str()
                  : (node_outcome.reused_checkpoint ? "reused checkpoint"
                                                    : "done"),
              static_cast<unsigned long long>(node_outcome.end_epoch),
              node_outcome.state_hash.empty() ? "-"
                                              : node_outcome.state_hash.c_str(),
              static_cast<unsigned long long>(sched.done_count),
              static_cast<unsigned long long>(n));
        }
        sched.cv.notify_all();
        progressed = true;
        break;  // rescan from the lowest index
      }
      if (!progressed && sched.done_count < n) sched.cv.wait(lock);
    }
    sched.cv.notify_all();
  };

  std::vector<std::thread> threads;
  threads.reserve(jobs);
  for (std::uint64_t t = 0; t < jobs; ++t) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();

  return outcome;
}

}  // namespace fi
