#include "sim/net_model.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace fi::sim {

NetModel::NetModel(const NetConfig& config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      partitioned_(config.regions, 0),
      down_(config.regions, 0),
      region_delivered_(config.regions, 0),
      region_latency_sum_(config.regions, 0),
      region_latency_max_(config.regions, 0) {
  FI_CHECK_MSG(config.regions > 0, "NetModel needs at least one region");
}

void NetModel::set_region_partitioned(std::uint64_t region, bool partitioned) {
  partitioned_[region] = partitioned ? 1 : 0;
}

void NetModel::set_region_down(std::uint64_t region, bool down) {
  down_[region] = down ? 1 : 0;
}

std::uint64_t NetModel::source_region(const TransferMessage& msg) const {
  // Uploads carry `from_sector == ~0` (no sending sector): the client
  // transmits from the backbone.
  if (msg.from_sector == ~std::uint64_t{0}) return kBackboneRegion;
  return region_of_sector(msg.from_sector);
}

bool NetModel::path_down(std::uint64_t src, std::uint64_t dst) const {
  return (src != kBackboneRegion && region_down(src)) ||
         (dst != kBackboneRegion && region_down(dst));
}

bool NetModel::path_partitioned(std::uint64_t src, std::uint64_t dst) const {
  if (src == dst) return false;  // intra-region links survive a partition
  return (src != kBackboneRegion && region_partitioned(src)) ||
         (dst != kBackboneRegion && region_partitioned(dst));
}

void NetModel::send(Time now, ByteCount payload_bytes,
                    const TransferMessage& message) {
  const std::uint64_t src = source_region(message);
  const std::uint64_t dst = region_of_sector(message.to_sector);
  if (path_down(src, dst)) {
    ++dropped_down_;
    return;
  }
  if (path_partitioned(src, dst)) {
    ++dropped_partition_;
    return;
  }
  if (config_.drop_probability > 0.0 &&
      rng_.uniform_double() < config_.drop_probability) {
    ++dropped_loss_;
    return;
  }
  Time latency = config_.base_latency;
  if (src != dst) latency += config_.region_latency;
  latency += config_.ticks_per_kib * ((payload_bytes + 1023) / 1024);
  if (config_.jitter > 0) latency += rng_.uniform_below(config_.jitter + 1);

  queue_.push(now + latency, InFlight{next_seq_++, now, message});
}

Time NetModel::next_delivery_time() const { return queue_.next_time(); }

bool NetModel::pop_due(Time now, TransferMessage& out) {
  while (!queue_.empty() && queue_.next_time() <= now) {
    const Time deliver_at = queue_.next_time();
    const InFlight entry = queue_.front();
    queue_.pop();
    const std::uint64_t src = source_region(entry.msg);
    const std::uint64_t dst = region_of_sector(entry.msg.to_sector);
    if (path_down(src, dst)) {
      ++dropped_down_;
      continue;
    }
    if (path_partitioned(src, dst)) {
      ++dropped_partition_;
      continue;
    }
    if (deliver_at >= entry.msg.deadline) ++delivered_late_;
    const Time latency = deliver_at - entry.sent_at;
    ++region_delivered_[dst];
    region_latency_sum_[dst] += latency;
    region_latency_max_[dst] = std::max(region_latency_max_[dst], latency);
    out = entry.msg;
    return true;
  }
  return false;
}

std::uint64_t NetModel::sent() const {
  return delivered() + dropped_loss_ + dropped_partition_ + dropped_down_ +
         queue_.size();
}

std::uint64_t NetModel::delivered() const {
  std::uint64_t total = 0;
  for (const std::uint64_t v : region_delivered_) total += v;
  return total;
}

void NetModel::save_state(util::BinaryWriter& writer) const {
  for (const std::uint64_t word : rng_.state()) writer.u64(word);
  for (const std::uint8_t flag : partitioned_) writer.u8(flag);
  for (const std::uint8_t flag : down_) writer.u8(flag);

  writer.u64(queue_.size());
  queue_.for_each([&writer](Time deliver_at, const InFlight& entry) {
    writer.u64(deliver_at);
    writer.u64(entry.seq);
    writer.u64(entry.sent_at);
    writer.u64(entry.msg.file);
    writer.u32(entry.msg.index);
    writer.u64(entry.msg.from_sector);
    writer.u64(entry.msg.to_sector);
    writer.u64(entry.msg.client);
    writer.u64(entry.msg.deadline);
  });
  writer.u64(next_seq_);

  writer.u64(sent());
  writer.u64(delivered());
  writer.u64(delivered_late_);
  writer.u64(dropped_loss_);
  writer.u64(dropped_partition_);
  writer.u64(dropped_down_);
  for (const std::uint64_t v : region_delivered_) writer.u64(v);
  for (const std::uint64_t v : region_latency_sum_) writer.u64(v);
  for (const std::uint64_t v : region_latency_max_) writer.u64(v);
}

void NetModel::load_state(util::BinaryReader& reader) {
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = reader.u64();
  rng_.set_state(rng_state);
  for (std::uint8_t& flag : partitioned_) flag = reader.u8();
  for (std::uint8_t& flag : down_) flag = reader.u8();

  queue_.clear();
  const std::uint64_t in_flight = reader.count(68);
  std::pair<Time, std::uint64_t> last{0, 0};
  std::uint64_t max_seq = 0;
  for (std::uint64_t i = 0; i < in_flight; ++i) {
    const Time deliver_at = reader.u64();
    InFlight entry;
    entry.seq = reader.u64();
    entry.sent_at = reader.u64();
    entry.msg.file = reader.u64();
    entry.msg.index = reader.u32();
    entry.msg.from_sector = reader.u64();
    entry.msg.to_sector = reader.u64();
    entry.msg.client = reader.u64();
    entry.msg.deadline = reader.u64();
    // Wire order is delivery order, strictly increasing in
    // (deliver_at, seq), and no message arrives before it was sent (the
    // latency stats subtract the two).
    const std::pair<Time, std::uint64_t> key{deliver_at, entry.seq};
    if ((i > 0 && key <= last) || entry.sent_at > deliver_at) {
      reader.fail();
      break;
    }
    last = key;
    max_seq = std::max(max_seq, entry.seq);
    queue_.push(deliver_at, entry);
  }
  next_seq_ = reader.u64();
  // Every queued seq was issued before the counter's current value.
  if (!queue_.empty() && max_seq >= next_seq_) reader.fail();

  const std::uint64_t stored_sent = reader.u64();
  const std::uint64_t stored_delivered = reader.u64();
  delivered_late_ = reader.u64();
  dropped_loss_ = reader.u64();
  dropped_partition_ = reader.u64();
  dropped_down_ = reader.u64();
  for (std::uint64_t& v : region_delivered_) v = reader.u64();
  for (std::uint64_t& v : region_latency_sum_) v = reader.u64();
  for (std::uint64_t& v : region_latency_max_) v = reader.u64();
  // Both totals are sums of the counters that follow them.
  if (stored_sent != sent() || stored_delivered != delivered()) reader.fail();
}

}  // namespace fi::sim
