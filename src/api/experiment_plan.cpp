#include "api/experiment_plan.h"

#include <algorithm>
#include <optional>

#include "api/session.h"

namespace fi {

namespace {

bool safe_node_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  return std::all_of(name.begin(), name.end(), [](const char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '-';
  });
}

std::string resolve_path(const std::string& base_dir,
                         const std::string& path) {
  if (base_dir.empty() || path.empty() || path.front() == '/') return path;
  return base_dir + "/" + path;
}

/// A baseline node's model knobs (`node.<i>.*`; `protocol` aside, and
/// `epochs` is the node's segment length).
constexpr util::Key<BaselineSpec> kBaselineKeys[] = {
    {"seed", &BaselineSpec::seed},
    {"sectors", &BaselineSpec::sectors},
    {"files", &BaselineSpec::files},
    {"file_size", &BaselineSpec::file_size},
    {"file_value", &BaselineSpec::file_value},
    {"lambda", &BaselineSpec::lambda},
    {"sybil_fraction", &BaselineSpec::sybil_fraction},
};

bool is_state_hash(const std::string& text) {
  return text.size() == 64 &&
         std::all_of(text.begin(), text.end(), [](const char c) {
           return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
         });
}

util::Status node_err(std::size_t index, const std::string& message) {
  return util::err(util::ErrorCode::invalid_argument,
                   "plan node." + std::to_string(index) + ": " + message);
}

}  // namespace

util::Result<ExperimentPlan> ExperimentPlan::from_config(
    const util::Config& config, const std::string& base_dir) {
  ExperimentPlan plan;
  {
    auto name = config.get_string_or("plan.name", plan.name);
    if (!name.is_ok()) return name.status();
    plan.name = name.value();
  }

  // Nodes are dense from 0, probed like a config's `phase.<i>.kind` list.
  for (std::size_t i = 0;; ++i) {
    const std::string prefix = "node." + std::to_string(i) + ".";
    if (!config.contains(prefix + "name")) break;
    PlanNode node;

    auto name = config.get_string(prefix + "name");
    if (!name.is_ok()) return name.status();
    node.name = name.value();
    if (!safe_node_name(node.name)) {
      return node_err(i, "node names are [A-Za-z0-9_-]{1,64} (they become "
                         "checkpoint/report file names), got '" +
                             node.name + "'");
    }

    auto kind = config.get_string_or(prefix + "kind", "scenario");
    if (!kind.is_ok()) return kind.status();
    if (kind.value() == "scenario") {
      node.kind = PlanNode::Kind::scenario;
    } else if (kind.value() == "baseline") {
      node.kind = PlanNode::Kind::baseline;
    } else {
      return node_err(i, "kind must be scenario or baseline, got '" +
                             kind.value() + "'");
    }

    auto scenario = config.get_string_or(prefix + "scenario", "");
    if (!scenario.is_ok()) return scenario.status();
    node.scenario = resolve_path(base_dir, scenario.value());

    auto parent = config.get_string_or(prefix + "parent", "");
    if (!parent.is_ok()) return parent.status();
    node.parent = parent.value();

    auto parent_snapshot =
        config.get_string_or(prefix + "parent_snapshot", "");
    if (!parent_snapshot.is_ok()) return parent_snapshot.status();
    node.parent_snapshot = parent_snapshot.value();

    auto parent_hash = config.get_string_or(prefix + "parent_hash", "");
    if (!parent_hash.is_ok()) return parent_hash.status();
    node.parent_hash = parent_hash.value();

    auto epochs = config.get_u64_or(prefix + "epochs", 0);
    if (!epochs.is_ok()) return epochs.status();
    node.epochs = epochs.value();

    // `set.<config key>` overrides, in the config's canonical (sorted)
    // key order — deterministic, and plans care about the set, not the
    // sequence (duplicate keys cannot occur in a parsed config).
    const std::string set_prefix = prefix + "set.";
    for (const auto& [key, value] : config.entries()) {
      if (key.rfind(set_prefix, 0) != 0) continue;
      auto consumed = config.get_string(key);  // marks the key consumed
      if (!consumed.is_ok()) return consumed.status();
      node.overrides.emplace_back(key.substr(set_prefix.size()),
                                  consumed.value());
    }

    if (node.kind == PlanNode::Kind::baseline) {
      auto protocol = config.get_string_or(prefix + "protocol", "");
      if (!protocol.is_ok()) return protocol.status();
      node.baseline.protocol = protocol.value();
      if (util::Status s = util::read_keys(config, prefix, kBaselineKeys,
                                           util::kAllKinds, node.baseline);
          !s.is_ok()) {
        return s;
      }
      if (node.epochs != 0) node.baseline.epochs = node.epochs;
    }

    plan.nodes.push_back(std::move(node));
  }

  const std::vector<std::string> leftover = config.unconsumed_keys();
  if (!leftover.empty()) {
    std::string message = "unknown plan key(s):";
    for (std::size_t i = 0; i < leftover.size() && i < 5; ++i) {
      message += " " + leftover[i];
    }
    if (leftover.size() > 5) message += " ...";
    message += " (node.<i> groups must be dense from 0)";
    return util::err(util::ErrorCode::invalid_argument, message);
  }

  if (auto status = plan.validate(); !status.is_ok()) return status;
  return plan;
}

util::Result<ExperimentPlan> ExperimentPlan::from_file(
    const std::string& path) {
  auto config = util::Config::load(path);
  if (!config.is_ok()) return config.status();
  const std::size_t slash = path.find_last_of('/');
  const std::string base_dir =
      slash == std::string::npos ? std::string{} : path.substr(0, slash);
  return from_config(config.value(), base_dir);
}

std::size_t ExperimentPlan::index_of(const std::string& node_name) const {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name == node_name) return i;
  }
  return nodes.size();
}

util::Status ExperimentPlan::validate() const {
  if (nodes.empty()) {
    return util::err(util::ErrorCode::invalid_argument,
                     "plan has no nodes (node.0.name missing?)");
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& node = nodes[i];
    for (std::size_t j = 0; j < i; ++j) {
      if (nodes[j].name == node.name) {
        return node_err(i, "duplicate node name '" + node.name + "'");
      }
    }

    if (node.kind == PlanNode::Kind::baseline) {
      if (!node.parent.empty() || !node.parent_snapshot.empty()) {
        return node_err(i, "baseline nodes cannot have a parent");
      }
      if (!node.scenario.empty()) {
        return node_err(i, "baseline nodes take protocol knobs, not a "
                           "scenario config");
      }
      if (!node.overrides.empty()) {
        return node_err(i, "baseline nodes take protocol knobs, not set.* "
                           "overrides");
      }
      if (node.baseline.protocol.empty()) {
        return node_err(i, "baseline nodes need a protocol");
      }
      if (auto status = node.baseline.validate(); !status.is_ok()) {
        return node_err(i, status.message());
      }
      continue;
    }

    const int sources = (node.scenario.empty() ? 0 : 1) +
                        (node.parent.empty() ? 0 : 1) +
                        (node.parent_snapshot.empty() ? 0 : 1);
    if (sources != 1) {
      return node_err(i, "exactly one of scenario (root), parent (fork from "
                         "a plan node) or parent_snapshot (resume a .fisnap "
                         "file) is required");
    }
    if (!node.parent_hash.empty() && node.parent_snapshot.empty()) {
      return node_err(i, "parent_hash only applies to parent_snapshot "
                         "edges (node edges validate against the recorded "
                         "hash automatically)");
    }
    if (!node.parent_hash.empty() && !is_state_hash(node.parent_hash)) {
      return node_err(i, "parent_hash must be a state hash (64 lowercase "
                         "hex digits), got '" +
                             node.parent_hash + "'");
    }
    if (!node.parent.empty()) {
      const std::size_t parent = index_of(node.parent);
      if (parent == nodes.size()) {
        return node_err(i, "unknown parent '" + node.parent + "'");
      }
      if (parent == i) return node_err(i, "node is its own parent");
      if (nodes[parent].kind == PlanNode::Kind::baseline) {
        return node_err(i, "cannot fork from baseline node '" + node.parent +
                               "' (baselines have no checkpoints)");
      }
    }
  }

  // Parent edges must be acyclic (each node has at most one parent, so a
  // cycle is a parent chain that revisits a node).
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::size_t hops = 0;
    std::size_t at = i;
    while (!nodes[at].parent.empty()) {
      at = index_of(nodes[at].parent);
      if (++hops > nodes.size()) {
        return node_err(i, "parent chain contains a cycle");
      }
    }
  }
  return util::Status::ok();
}

util::Status ExperimentPlan::validate_specs() const {
  std::vector<std::optional<scenario::ScenarioSpec>> specs(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::vector<std::size_t> lineage{i};  // this node, then its ancestors
    while (!nodes[lineage.back()].parent.empty()) {
      lineage.push_back(index_of(nodes[lineage.back()].parent));
    }
    if (nodes[lineage.back()].scenario.empty()) continue;
    const scenario::ScenarioSpec* parent = nullptr;
    for (auto at = lineage.rbegin(); at != lineage.rend(); ++at) {
      if (!specs[*at].has_value()) {
        const PlanNode& node = nodes[*at];
        Session::OpenOptions open;
        open.overrides = node.overrides;
        auto spec = parent == nullptr
                        ? Session::load_spec(node.scenario, open)
                        : Session::spec_with_overrides(*parent, open);
        if (!spec.is_ok()) {
          return util::err(spec.status().code(),
                           "node " + node.name + ": " +
                               spec.status().to_string());
        }
        specs[*at] = std::move(spec).value();
      }
      parent = &*specs[*at];
    }
  }
  return util::Status::ok();
}

}  // namespace fi
