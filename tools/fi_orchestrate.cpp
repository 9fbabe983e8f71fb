// fi_orchestrate — execute a DAG of experiment segments from a plan file
// and aggregate the results into a comparison table.
//
//   fi_orchestrate --plan plans/compare_world.plan --out-dir out/
//   fi_orchestrate --plan plans/long_horizon.plan --out-dir out/
//       --reuse-checkpoints          # CI: resume from a cached genesis
//   fi_orchestrate --plan plans/compare_world.plan --validate
//
// A plan (schema: docs/ORCHESTRATION.md) names nodes that are scenario
// roots (config + --set overrides — parameter sweeps), child segments
// (fork the parent's checkpoint, optionally with divergent knobs —
// counterfactual A/B branches and chained long horizons), or Table-IV
// baseline protocol models. Nodes run on a bounded thread pool; every
// resumed edge's state hash is validated against the parent's recorded
// hash. Everything an individual node does is the `fi::Session` API —
// the same calls `fi_sim` makes — so per-node reports are byte-identical
// to standalone runs of the same spec.
//
// Outputs in --out-dir: <node>.fisnap checkpoints (segments and forked
// parents), <node>.report.json (completed scenario nodes, fi_sim report
// schema), comparison.json and comparison.md (all nodes, plan order).
//
// Exit codes (tests/cli_contract_test.cpp): 0 ok, 1 plan/run failure
// (bad plan file, failed node, hash mismatch), 2 usage.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "api/comparison.h"
#include "api/experiment_plan.h"
#include "api/orchestrator.h"
#include "util/arg_parser.h"

namespace {

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.close();
  if (!out.good()) {
    std::fprintf(stderr, "fi_orchestrate: failed to write %s\n",
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_path;
  std::string out_dir;
  std::uint64_t jobs = 2;
  bool validate_only = false;
  bool print_table = false;
  bool reuse_checkpoints = false;
  bool quiet = false;

  fi::util::ArgParser parser("fi_orchestrate",
                             "--plan <file> --out-dir <dir> [options]");
  parser.add_string("--plan", &plan_path, "file",
                    "experiment plan (key=value file; schema:\n"
                    "docs/ORCHESTRATION.md)");
  parser.add_string("--out-dir", &out_dir, "dir",
                    "checkpoints, per-node reports and the comparison\n"
                    "table land here (created if missing)");
  parser.add_u64("--jobs", &jobs, "n",
                 "concurrent nodes (0 = hardware threads); tables are\n"
                 "byte-identical for every value");
  parser.add_flag("--validate", &validate_only,
                  "parse and validate the plan and build the spec\n"
                  "of every node under a scenario root, then exit\n"
                  "(no run)");
  parser.add_flag("--print-table", &print_table,
                  "also print the markdown comparison table to stdout");
  parser.add_flag("--reuse-checkpoints", &reuse_checkpoints,
                  "skip segment nodes whose checkpoint already exists\n"
                  "in --out-dir (CI's cached-genesis pattern; children\n"
                  "still validate its state hash)");
  parser.add_flag("--quiet", &quiet, "suppress per-node progress lines");

  if (auto status = parser.parse(argc, argv); !status.is_ok()) {
    return parser.usage_error(status);
  }
  if (parser.help_requested()) {
    std::fputs(parser.help_text().c_str(), stdout);
    return 0;
  }
  if (plan_path.empty()) {
    return parser.usage_error("--plan is required");
  }

  auto plan = fi::ExperimentPlan::from_file(plan_path);
  if (!plan.is_ok()) {
    std::fprintf(stderr, "fi_orchestrate: %s: %s\n", plan_path.c_str(),
                 plan.status().to_string().c_str());
    return 1;
  }
  if (validate_only) {
    if (auto status = plan.value().validate_specs(); !status.is_ok()) {
      std::fprintf(stderr, "fi_orchestrate: %s: %s\n", plan_path.c_str(),
                   status.message().c_str());
      return 1;
    }
    std::fprintf(stdout, "plan ok: %s (%zu nodes)\n",
                 plan.value().name.c_str(), plan.value().nodes.size());
    return 0;
  }
  if (out_dir.empty()) {
    return parser.usage_error("--out-dir is required (unless --validate)");
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "fi_orchestrate: cannot create %s: %s\n",
                 out_dir.c_str(), ec.message().c_str());
    return 1;
  }

  fi::OrchestrateOptions options;
  options.out_dir = out_dir;
  options.jobs = jobs;
  options.reuse_checkpoints = reuse_checkpoints;
  options.log = quiet ? nullptr : stderr;

  auto outcome = fi::run_plan(plan.value(), options);
  if (!outcome.is_ok()) {
    std::fprintf(stderr, "fi_orchestrate: %s: %s\n", plan_path.c_str(),
                 outcome.status().message().c_str());
    return 1;
  }

  bool write_failed = false;
  for (const fi::NodeOutcome& node : outcome.value().nodes) {
    if (node.report_json.empty()) continue;
    if (!write_file(out_dir + "/" + node.name + ".report.json",
                    node.report_json)) {
      write_failed = true;
    }
  }

  const std::string json = fi::comparison_table_json(
      outcome.value().plan_name, outcome.value().rows());
  const std::string markdown = fi::comparison_table_markdown(
      outcome.value().plan_name, outcome.value().rows());
  if (!write_file(out_dir + "/comparison.json", json)) write_failed = true;
  if (!write_file(out_dir + "/comparison.md", markdown)) write_failed = true;
  if (print_table) std::fputs(markdown.c_str(), stdout);

  bool node_failed = false;
  for (const fi::NodeOutcome& node : outcome.value().nodes) {
    if (node.skipped) {
      std::fprintf(stderr, "fi_orchestrate: node %s skipped\n",
                   node.name.c_str());
      node_failed = true;
    } else if (!node.status.is_ok()) {
      std::fprintf(stderr, "fi_orchestrate: node %s failed: %s\n",
                   node.name.c_str(), node.status.to_string().c_str());
      node_failed = true;
    }
  }
  std::fprintf(stderr, "fi_orchestrate: plan %s — %zu nodes, %s\n",
               outcome.value().plan_name.c_str(),
               outcome.value().nodes.size(),
               node_failed ? "FAILED" : "all ok");
  return (node_failed || write_failed) ? 1 : 0;
}
