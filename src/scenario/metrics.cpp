#include "scenario/metrics.h"

#include <cmath>
#include <sstream>

#include "util/config.h"

namespace fi::scenario {

namespace {

/// Minimal streaming JSON writer with fixed two-space indentation. Only
/// what the report needs: objects, arrays, strings, integers, doubles,
/// booleans — emitted in call order, so output order is fully determined
/// by the serialization code below.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostringstream& out) : out_(out) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array(const std::string& key) {
    comma_and_indent();
    write_string(key);
    out_ << ": ";
    out_ << '[';
    fresh_ = true;
    ++depth_;
  }
  void end_array() { close(']'); }

  void key(const std::string& name) {
    comma_and_indent();
    write_string(name);
    out_ << ": ";
  }
  void object(const std::string& name) {
    key(name);
    out_ << '{';
    fresh_ = true;
    ++depth_;
  }

  void field(const std::string& name, const std::string& value) {
    key(name);
    write_string(value);
  }
  void field(const std::string& name, std::uint64_t value) {
    key(name);
    out_ << value;
  }
  void field(const std::string& name, bool value) {
    key(name);
    out_ << (value ? "true" : "false");
  }
  void field(const std::string& name, double value) {
    key(name);
    write_double(value);
  }

 private:
  void open(char c) {
    comma_and_indent();
    out_ << c;
    fresh_ = true;
    ++depth_;
  }

  void close(char c) {
    --depth_;
    if (!fresh_) {
      out_ << '\n';
      indent();
    }
    out_ << c;
    fresh_ = false;
  }

  void comma_and_indent() {
    if (depth_ == 0) {
      return;  // the root value has no preceding key or comma
    }
    if (!fresh_) out_ << ',';
    out_ << '\n';
    indent();
    fresh_ = false;
  }

  void indent() {
    for (int i = 0; i < depth_; ++i) out_ << "  ";
  }

  void write_string(const std::string& s) {
    out_ << '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ << "\\\""; break;
        case '\\': out_ << "\\\\"; break;
        case '\n': out_ << "\\n"; break;
        case '\t': out_ << "\\t"; break;
        default: out_ << c;
      }
    }
    out_ << '"';
  }

  void write_double(double value) {
    // JSON has no NaN/Inf literal; emit null rather than invalid output.
    if (!std::isfinite(value)) {
      out_ << "null";
      return;
    }
    // Exact small integers print as integers; everything else uses the
    // shortest strtod-round-trippable decimal form, so the rendering is a
    // pure function of the bits.
    if (value == std::floor(value) && std::abs(value) < 9.0e15) {
      out_ << static_cast<long long>(value);
      return;
    }
    out_ << util::format_shortest_double(value);
  }

  std::ostringstream& out_;
  int depth_ = 0;
  bool fresh_ = true;  ///< no sibling emitted yet at the current depth
};

void write_counters(JsonWriter& json, const core::NetworkStats& stats,
                    TokenAmount rent_charged, TokenAmount rent_paid) {
  for (const core::NetworkCounter& counter : core::kNetworkCounters) {
    json.field(counter.name, stats.*counter.member);
  }
  json.field("rent_charged", rent_charged);
  json.field("rent_paid", rent_paid);
}

}  // namespace

void PhaseMetrics::save(util::BinaryWriter& writer) const {
  writer.str(label);
  writer.str(kind);
  writer.u64(start_time);
  writer.u64(end_time);
  core::save_network_stats(delta, writer);
  writer.u64(rent_charged);
  writer.u64(rent_paid);
  util::save_named_doubles(writer, extras);
}

void PhaseMetrics::load(util::BinaryReader& reader) {
  label = reader.str();
  kind = reader.str();
  start_time = reader.u64();
  end_time = reader.u64();
  delta = core::load_network_stats(reader);
  rent_charged = reader.u64();
  rent_paid = reader.u64();
  extras = util::load_named_doubles(reader);
  wall_seconds = 0.0;
}

double extra_or(const PhaseMetrics& phase, std::string_view name,
                double fallback) {
  for (const auto& [key, value] : phase.extras) {
    if (key == name) return value;
  }
  return fallback;
}

std::string MetricsReport::to_json(bool include_timings) const {
  std::ostringstream out;
  JsonWriter json(out);

  json.begin_object();
  json.field("scenario", scenario);
  json.field("seed", seed);
  json.field("sectors", sectors);
  json.field("initial_files", initial_files);

  json.begin_array("phases");
  for (const PhaseMetrics& phase : phases) {
    json.begin_object();
    json.field("label", phase.label);
    json.field("kind", phase.kind);
    json.field("start_time", phase.start_time);
    json.field("end_time", phase.end_time);
    json.object("counters");
    write_counters(json, phase.delta, phase.rent_charged, phase.rent_paid);
    json.end_object();
    if (!phase.extras.empty()) {
      json.object("extras");
      for (const auto& [name, value] : phase.extras) {
        json.field(name, value);
      }
      json.end_object();
    }
    if (include_timings) {
      json.field("wall_seconds", phase.wall_seconds);
    }
    json.end_object();
  }
  json.end_array();

  if (!adversaries.empty()) {
    json.begin_array("adversaries");
    for (const AdversaryMetrics& adv : adversaries) {
      json.begin_object();
      json.field("label", adv.label);
      json.field("strategy", adv.strategy);
      json.object("counters");
      json.field("replicas_attacked", adv.counters.replicas_attacked);
      json.field("sectors_corrupted", adv.counters.sectors_corrupted);
      json.field("proofs_withheld", adv.counters.proofs_withheld);
      json.field("transfers_refused", adv.counters.transfers_refused);
      json.field("sectors_exited", adv.counters.sectors_exited);
      json.field("sectors_joined", adv.counters.sectors_joined);
      json.field("files_lost", adv.counters.files_lost);
      json.field("deposits_confiscated", adv.counters.deposits_confiscated);
      json.field("penalties_paid", adv.counters.penalties_paid);
      json.field("compensation_paid", adv.counters.compensation_paid);
      json.end_object();
      if (!adv.counters.extras.empty()) {
        json.object("extras");
        for (const auto& [name, value] : adv.counters.extras) {
          json.field(name, value);
        }
        json.end_object();
      }
      json.end_object();
    }
    json.end_array();
  }

  if (traffic.enabled) {
    json.object("traffic");
    json.field("epochs", traffic.epochs);
    json.field("streams", traffic.streams);
    json.field("honest_streams", traffic.honest_streams);
    json.field("requests_attempted", traffic.requests_attempted);
    json.field("rate_limited", traffic.rate_limited);
    json.field("lookup_failures", traffic.lookup_failures);
    json.field("starved", traffic.starved);
    json.field("dropped", traffic.dropped);
    json.field("enqueued", traffic.enqueued);
    json.field("served", traffic.served);
    json.field("backlog", traffic.backlog);
    json.field("cache_hits", traffic.cache_hits);
    json.field("cache_misses", traffic.cache_misses);
    json.field("payment_failures", traffic.payment_failures);
    json.field("retrievals_settled", traffic.retrievals_settled);
    json.field("bytes_served", traffic.bytes_served);
    json.field("revenue", traffic.revenue);
    json.field("p50_latency", traffic.p50_latency);
    json.field("p99_latency", traffic.p99_latency);
    json.object("defense");
    json.field("armed", traffic.defense_armed);
    json.field("envelope", traffic.defense_envelope);
    json.field("flagged_streams", traffic.flagged_streams);
    if (traffic.first_flagged_epoch != traffic::kNeverFlagged) {
      json.field("first_flagged_epoch", traffic.first_flagged_epoch);
    }
    if (!traffic.flagged_stream_ids.empty()) {
      json.begin_array("flagged_stream_ids");
      for (const std::uint64_t stream : traffic.flagged_stream_ids) {
        json.begin_object();
        json.field("stream", stream);
        json.end_object();
      }
      json.end_array();
    }
    json.end_object();
    if (!traffic.top_providers.empty()) {
      json.begin_array("top_providers");
      for (const traffic::ProviderQoS& q : traffic.top_providers) {
        json.begin_object();
        json.field("sector", q.sector);
        json.field("served", q.served);
        json.field("dropped", q.dropped);
        json.field("backlog", q.backlog);
        json.end_object();
      }
      json.end_array();
    }
    json.end_object();
  }

  if (network.enabled) {
    json.object("network");
    json.field("regions", network.regions);
    json.field("sent", network.sent);
    json.field("delivered", network.delivered);
    json.field("delivered_late", network.delivered_late);
    json.field("dropped_loss", network.dropped_loss);
    json.field("dropped_partition", network.dropped_partition);
    json.field("dropped_down", network.dropped_down);
    json.object("deadline_misses");
    json.field("network", network.deadline_misses_network);
    json.field("malice", network.deadline_misses_malice);
    json.end_object();
    json.begin_array("per_region");
    for (const RegionMetrics& region : network.per_region) {
      json.begin_object();
      json.field("delivered", region.delivered);
      json.field("mean_latency", region.mean_latency);
      json.field("max_latency", region.max_latency);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  json.object("totals");
  write_counters(json, totals, rent_charged, rent_paid);
  json.field("rent_pool", rent_pool);
  json.field("rent_conserved", rent_conserved);
  json.field("compensation_pool", compensation_pool);
  json.field("outstanding_liabilities", outstanding_liabilities);
  json.end_object();

  json.object("final");
  json.field("files", final_files);
  json.field("time", final_time);
  json.end_object();

  if (include_timings) {
    json.object("timings");
    json.field("setup_seconds", setup_seconds);
    json.field("total_seconds", wall_seconds);
    json.end_object();
  }

  json.end_object();
  out << '\n';
  return out.str();
}

}  // namespace fi::scenario
