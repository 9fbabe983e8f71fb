#include "api/comparison.h"

#include <cstdio>

#include "util/config.h"

namespace fi {

namespace {

using util::format_shortest_double;

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fraction_cell(double value) {
  if (value < 0.0) return "—";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", value);
  return buf;
}

std::string overhead_cell(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", value);
  return buf;
}

const char* yn(bool value) { return value ? "yes" : "no"; }

}  // namespace

ComparisonRow row_from_report(std::string node,
                              const scenario::ScenarioSpec& spec,
                              const scenario::MetricsReport& report,
                              std::uint64_t epochs, std::string state_hash) {
  ComparisonRow row;
  row.node = std::move(node);
  row.protocol = "FileInsurer";
  row.kind = "scenario";
  row.files = report.totals.files_stored;
  row.epochs = epochs;
  row.has_outcome = true;
  const double value_stored =
      static_cast<double>(report.totals.files_stored) *
      static_cast<double>(spec.effective_file_value());
  row.lost_value_fraction =
      value_stored == 0.0
          ? 0.0
          : static_cast<double>(report.totals.value_lost) / value_stored;
  row.compensated_fraction =
      report.totals.value_lost == 0
          ? 1.0
          : static_cast<double>(report.totals.value_compensated) /
                static_cast<double>(report.totals.value_lost);
  row.cost_fraction =
      value_stored == 0.0
          ? 0.0
          : static_cast<double>(report.rent_charged) / value_stored;
  // Placement replicates each file cp = k·⌈value/minValue⌉ times.
  row.storage_overhead = static_cast<double>(
      spec.params.replica_count(spec.effective_file_value()));
  // The paper's Table IV properties; the Sybil and provability ones rest
  // on PoRep and WindowPoSt, which the engine assumes.
  row.capacity_scalable = true;
  row.prevents_sybil = true;
  row.provable_robustness = true;
  row.full_compensation = true;
  row.state_hash = std::move(state_hash);
  return row;
}

std::string comparison_table_json(const std::string& plan_name,
                                  const std::vector<ComparisonRow>& rows) {
  std::string json = "{\n  \"plan\": \"" + json_escape(plan_name) +
                     "\",\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ComparisonRow& row = rows[i];
    json += i == 0 ? "\n" : ",\n";
    json += "    {\"node\": \"" + json_escape(row.node) + "\"";
    json += ", \"protocol\": \"" + json_escape(row.protocol) + "\"";
    json += ", \"kind\": \"" + row.kind + "\"";
    json += ", \"files\": " + std::to_string(row.files);
    json += ", \"epochs\": " + std::to_string(row.epochs);
    if (row.has_outcome) {
      json += ", \"lost_value_fraction\": " +
              format_shortest_double(row.lost_value_fraction);
      json += ", \"compensated_fraction\": " +
              format_shortest_double(row.compensated_fraction);
      if (row.sybil_loss_fraction >= 0.0) {
        json += ", \"sybil_loss_fraction\": " +
                format_shortest_double(row.sybil_loss_fraction);
      }
      json += ", \"storage_overhead\": " +
              format_shortest_double(row.storage_overhead);
      if (row.cost_fraction >= 0.0) {
        json += ", \"cost_fraction\": " +
                format_shortest_double(row.cost_fraction);
      }
      json += std::string(", \"capacity_scalable\": ") +
              (row.capacity_scalable ? "true" : "false");
      json += std::string(", \"prevents_sybil\": ") +
              (row.prevents_sybil ? "true" : "false");
      json += std::string(", \"provable_robustness\": ") +
              (row.provable_robustness ? "true" : "false");
      json += std::string(", \"full_compensation\": ") +
              (row.full_compensation ? "true" : "false");
    }
    if (!row.state_hash.empty()) {
      json += ", \"state_hash\": \"" + row.state_hash + "\"";
    }
    json += "}";
  }
  json += rows.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return json;
}

std::string comparison_table_markdown(const std::string& plan_name,
                                      const std::vector<ComparisonRow>& rows) {
  std::string md = "# Plan `" + plan_name + "` — comparison table\n\n";
  md += "| node | protocol | kind | files | epochs | loss | compensated |"
        " sybil loss | overhead | cost | scalable | sybil-proof | provable |"
        " full comp. | state hash |\n";
  md += "|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|---|---|---|"
        "---|\n";
  for (const ComparisonRow& row : rows) {
    md += "| " + row.node + " | " + row.protocol + " | " + row.kind + " | " +
          std::to_string(row.files) + " | " + std::to_string(row.epochs) +
          " | ";
    if (row.has_outcome) {
      md += fraction_cell(row.lost_value_fraction) + " | " +
            fraction_cell(row.compensated_fraction) + " | " +
            fraction_cell(row.sybil_loss_fraction) + " | " +
            overhead_cell(row.storage_overhead) + " | " +
            fraction_cell(row.cost_fraction) + " | " + yn(row.capacity_scalable) +
            " | " + yn(row.prevents_sybil) + " | " +
            yn(row.provable_robustness) + " | " + yn(row.full_compensation) +
            " | ";
    } else {
      md += "— | — | — | — | — | — | — | — | — | ";
    }
    md += (row.state_hash.empty() ? "—"
                                  : "`" + row.state_hash.substr(0, 12) + "…`");
    md += " |\n";
  }
  return md;
}

}  // namespace fi
