#include "traffic/engine.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <tuple>

#include "util/check.h"
#include "util/checked.h"
#include "util/distributions.h"

namespace fi::traffic {

namespace {

/// Smallest histogram bucket at which the cumulative count reaches
/// `numer/denom` of the total.
std::uint64_t percentile(const std::vector<std::uint64_t>& hist,
                         std::uint64_t total, std::uint64_t numer,
                         std::uint64_t denom) {
  if (total == 0) return 0;
  std::uint64_t cumulative = 0;
  for (std::size_t bucket = 0; bucket < hist.size(); ++bucket) {
    cumulative += hist[bucket];
    if (cumulative * denom >= total * numer) return bucket;
  }
  return hist.size() - 1;
}

void grow_to(std::vector<std::uint64_t>& v, std::size_t index) {
  if (index >= v.size()) v.resize(index + 1, 0);
}

std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

/// Writes one market book: the rows (sector, `value(sector)`) of the
/// sectors `in_book` selects, in ascending sector order.
template <typename InBook, typename Value>
void save_book(util::BinaryWriter& writer, SectorId sectors, InBook in_book,
               Value value) {
  std::uint64_t rows = 0;
  for (SectorId sector = 0; sector < sectors; ++sector) {
    rows += in_book(sector) ? 1 : 0;
  }
  writer.u64(rows);
  for (SectorId sector = 0; sector < sectors; ++sector) {
    if (!in_book(sector)) continue;
    writer.u64(sector);
    writer.u64(value(sector));
  }
}

/// Reads one book `save_book` wrote, handing each row to `take`, and
/// returns its row count. Sectors must ascend strictly and stay below
/// `sector_count`, so no loaded key sizes more than the network holds.
template <typename Take>
std::uint64_t load_book(util::BinaryReader& reader, SectorId sector_count,
                        Take take) {
  const std::uint64_t rows = reader.count(16);
  SectorId next_min = 0;
  for (std::uint64_t i = 0; i < rows && reader.ok(); ++i) {
    const SectorId sector = reader.u64();
    const std::uint64_t value = reader.u64();
    if (sector < next_min || sector >= sector_count) {
      reader.fail();
      break;
    }
    next_min = sector + 1;
    take(sector, value);
  }
  return rows;
}

}  // namespace

TrafficEngine::TrafficEngine(const TrafficSpec& spec, core::Network& net,
                             ledger::Ledger& ledger, ClientId client,
                             std::uint64_t seed, std::uint64_t total_streams)
    : spec_(spec),
      net_(net),
      ledger_(ledger),
      client_(client),
      streams_(total_streams),
      honest_streams_(spec.streams),
      rng_(seed),
      attempted_(total_streams, 0),
      rate_limited_(total_streams, 0),
      dropped_(total_streams, 0),
      starved_(total_streams, 0),
      enqueued_(total_streams, 0),
      admitted_epoch_(total_streams, 0),
      hist_(64, 0) {
  if (spec.defense_enabled) {
    defense_ = std::make_unique<PoissonEnvelopeDefense>(
        total_streams, spec.defense_warmup, spec.defense_k,
        spec.defense_violations);
  }
}

void TrafficEngine::inject(std::uint64_t stream, FileId file,
                           std::uint64_t requests) {
  pending_.push_back(Injected{stream, file, requests});
}

void TrafficEngine::set_serve_refusal(SectorId sector, bool refuse) {
  grow_to(serve_refused_, sector);
  serve_refused_[sector] = refuse ? 1 : 0;
}

std::uint64_t TrafficEngine::refusal_hits(SectorId sector) const {
  return sector < refusal_hits_.size() ? refusal_hits_[sector] : 0;
}

bool TrafficEngine::flash_active(std::uint64_t epoch) const {
  return spec_.flash_duration > 0 && epoch >= spec_.flash_epoch &&
         epoch < spec_.flash_epoch + spec_.flash_duration;
}

std::uint64_t TrafficEngine::rate_for(std::uint64_t epoch) const {
  std::uint64_t rate = spec_.requests_per_cycle;
  if (spec_.diurnal_period > 0 && spec_.diurnal_amplitude > 0.0) {
    // Triangle wave: integer phase arithmetic plus a handful of
    // IEEE-exact double ops, so the load curve is bit-stable everywhere.
    const double frac = static_cast<double>(epoch % spec_.diurnal_period) /
                        static_cast<double>(spec_.diurnal_period);
    const double wave = 1.0 - std::fabs(2.0 * frac - 1.0);
    const double mult = 1.0 + spec_.diurnal_amplitude * (2.0 * wave - 1.0);
    rate = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(rate) * mult));
  }
  if (flash_active(epoch)) {
    rate = util::checked_mul(rate, spec_.flash_multiplier);
  }
  return rate;
}

void TrafficEngine::service_tick() {
  for (std::size_t sector = 0; sector < queues_.size(); ++sector) {
    const std::uint64_t take =
        std::min(queues_[sector], spec_.provider_capacity);
    if (take == 0) continue;
    queues_[sector] -= take;
    grow_to(sector_served_, sector);
    sector_served_[sector] += take;
  }
}

void TrafficEngine::cache_admit(FileId file) {
  cache_fifo_.push_back(file);
  while (cached_.size() > spec_.cache_blocks) {
    cached_.erase(cache_fifo_[cache_head_]);
    ++cache_head_;
  }
  if (cache_head_ > 0 && cache_head_ * 2 > cache_fifo_.size()) {
    cache_fifo_.erase(cache_fifo_.begin(),
                      cache_fifo_.begin() +
                          static_cast<std::ptrdiff_t>(cache_head_));
    cache_head_ = 0;
  }
}

void TrafficEngine::issue(std::uint64_t stream, FileId file) {
  const std::size_t si = static_cast<std::size_t>(stream);
  ++attempted_[si];
  if (defense_ != nullptr) {
    // Offered load is observed before the limiter: a flagged stream
    // cannot launder its counts back under the envelope by being limited.
    defense_->observe(si);
    if (defense_->flagged(si) && spec_.defense_rate_limit &&
        admitted_epoch_[si] >= defense_->allowance()) {
      ++rate_limited_[si];
      return;
    }
  }
  ++admitted_epoch_[si];

  const util::Result<ByteCount> size =
      net_.file_get(client_, file, candidates_);
  if (!size.is_ok() || candidates_.empty()) {
    ++lookup_failures_;
    return;
  }

  // Drop refusing holders in place, keeping the lookup order.
  std::size_t kept = 0;
  for (const SectorId holder : candidates_) {
    if (holder < serve_refused_.size() && serve_refused_[holder] != 0) {
      grow_to(refusal_hits_, holder);
      ++refusal_hits_[holder];
      continue;
    }
    candidates_[kept++] = holder;
  }
  candidates_.resize(kept);
  if (candidates_.empty()) {
    ++starved_[si];
    return;
  }

  // Provider-side content cache: a hit serves from the hot set, a miss
  // adds one fetch cycle and warms the cache. The insert is the lookup.
  std::uint64_t extra_latency = 0;
  if (!cached_.insert(file).second) {
    ++cache_hits_;
  } else {
    ++cache_misses_;
    extra_latency = 1;
    cache_admit(file);
  }

  // Market competition with QoS awareness: cheapest ask wins, ties break
  // to the shortest queue, then the lowest sector id.
  SectorId best = kNoSector;
  TokenAmount best_price = 0;
  std::uint64_t best_queue = 0;
  for (const SectorId candidate : candidates_) {
    if (candidate >= books_.size()) books_.resize(candidate + 1);
    books_[candidate].asked = true;
    const TokenAmount price = spec_.ask_of(candidate);
    const std::uint64_t depth = queue_depth(candidate);
    if (best == kNoSector || price < best_price ||
        (price == best_price &&
         (depth < best_queue || (depth == best_queue && candidate < best)))) {
      best = candidate;
      best_price = price;
      best_queue = depth;
    }
  }

  if (best_queue >= spec_.queue_limit) {
    ++dropped_[si];
    grow_to(sector_dropped_, best);
    ++sector_dropped_[best];
    return;
  }

  const ByteCount bytes = size.value();
  TokenAmount price = util::checked_mul(best_price, (bytes + 1023) / 1024);
  if (defense_ != nullptr && defense_->flagged(si)) {
    // Surge repricing: a flagged stream pays a multiple for every request
    // it is still allowed — abuse gets expensive before it gets blocked.
    price = util::checked_mul(price, spec_.defense_surge);
  }
  // Settlement: the client pays the seller sector's owner; a client that
  // cannot pay records nothing.
  if (!ledger_.transfer(client_, net_.sectors().owner(best), price)
           .is_ok()) {
    ++payment_failures_;
    return;
  }
  SectorBook& book = books_[best];
  book.served = util::checked_add(book.served, bytes);
  book.revenue = util::checked_add(book.revenue, price);

  const std::uint64_t latency =
      best_queue / spec_.provider_capacity + extra_latency;
  ++hist_[std::min<std::uint64_t>(latency, hist_.size() - 1)];
  grow_to(queues_, best);
  ++queues_[best];
  ++enqueued_[si];
}

void TrafficEngine::on_epoch(std::uint64_t epoch,
                             const std::vector<FileId>& live_files) {
  service_tick();

  if (!live_files.empty()) {
    if (flash_active(epoch) && hot_file_ == kNoFile) {
      hot_file_ =
          live_files[static_cast<std::size_t>(
              rng_.uniform_below(live_files.size()))];
    }
    const bool flash_now =
        flash_active(epoch) && hot_file_ != kNoFile &&
        net_.file_exists(hot_file_);
    const double per_stream_mean =
        static_cast<double>(rate_for(epoch)) /
        static_cast<double>(honest_streams_);
    // Nothing on the request path adds or removes a file, so the
    // population, and with it the sampler's constants, is fixed here.
    const util::ZipfSampler zipf(live_files.size(), spec_.zipf_s);
    for (std::uint64_t stream = 0; stream < honest_streams_; ++stream) {
      const std::uint64_t n = util::sample_poisson(rng_, per_stream_mean);
      for (std::uint64_t r = 0; r < n; ++r) {
        FileId file;
        if (flash_now && rng_.uniform_double() < spec_.flash_focus) {
          file = hot_file_;
        } else {
          file = live_files[static_cast<std::size_t>(zipf(rng_) - 1)];
        }
        issue(stream, file);
      }
    }
  }

  for (const Injected& hammer : pending_) {
    for (std::uint64_t r = 0; r < hammer.requests; ++r) {
      issue(hammer.stream, hammer.file);
    }
  }
  pending_.clear();

  if (defense_ != nullptr) defense_->end_epoch(epoch);
  std::fill(admitted_epoch_.begin(), admitted_epoch_.end(), 0);
  ++epochs_run_;
}

std::pair<ByteCount, TokenAmount> TrafficEngine::book_totals() const {
  std::pair<ByteCount, TokenAmount> totals{0, 0};
  for (const SectorBook& book : books_) {
    totals.first += book.served;
    totals.second += book.revenue;
  }
  return totals;
}

StreamTotals TrafficEngine::stream_totals(std::uint64_t first,
                                          std::uint64_t count) const {
  FI_CHECK_MSG(first <= streams_ && count <= streams_ - first,
               "stream block out of range");
  StreamTotals t;
  for (std::uint64_t stream = first; stream < first + count; ++stream) {
    t.attempted += attempted_[stream];
    t.rate_limited += rate_limited_[stream];
    t.starved += starved_[stream];
    t.dropped += dropped_[stream];
    t.enqueued += enqueued_[stream];
    if (defense_ != nullptr && defense_->flagged(stream)) {
      ++t.flagged;
      t.first_flagged_epoch = std::min(
          t.first_flagged_epoch, defense_->first_flagged_epoch(stream));
    }
  }
  return t;
}

TrafficMetrics TrafficEngine::metrics() const {
  const StreamTotals all = stream_totals(0, streams_);
  TrafficMetrics m;
  m.enabled = true;
  m.epochs = epochs_run_;
  m.streams = streams_;
  m.honest_streams = honest_streams_;
  m.requests_attempted = all.attempted;
  m.rate_limited = all.rate_limited;
  m.lookup_failures = lookup_failures_;
  m.starved = all.starved;
  m.dropped = all.dropped;
  m.enqueued = all.enqueued;
  m.served = sum(sector_served_);
  m.backlog = sum(queues_);
  m.cache_hits = cache_hits_;
  m.cache_misses = cache_misses_;
  m.payment_failures = payment_failures_;
  // Every settled request is enqueued right after it pays.
  m.retrievals_settled = all.enqueued;
  std::tie(m.bytes_served, m.revenue) = book_totals();
  m.p50_latency = percentile(hist_, all.enqueued, 1, 2);
  m.p99_latency = percentile(hist_, all.enqueued, 99, 100);
  m.flagged_streams = all.flagged;
  m.first_flagged_epoch = all.first_flagged_epoch;
  if (defense_ != nullptr) {
    m.defense_armed = defense_->armed();
    m.defense_envelope = defense_->envelope();
    for (std::uint64_t stream = 0; stream < streams_; ++stream) {
      if (defense_->flagged(stream)) m.flagged_stream_ids.push_back(stream);
    }
  }
  std::vector<ProviderQoS> qos;
  const std::size_t sectors = std::max(
      {sector_served_.size(), sector_dropped_.size(), queues_.size()});
  for (std::size_t sector = 0; sector < sectors; ++sector) {
    ProviderQoS q;
    q.sector = sector;
    q.served = sector < sector_served_.size() ? sector_served_[sector] : 0;
    q.dropped = sector < sector_dropped_.size() ? sector_dropped_[sector] : 0;
    q.backlog = sector < queues_.size() ? queues_[sector] : 0;
    if (q.served > 0 || q.dropped > 0 || q.backlog > 0) qos.push_back(q);
  }
  std::sort(qos.begin(), qos.end(),
            [](const ProviderQoS& a, const ProviderQoS& b) {
              if (a.served != b.served) return a.served > b.served;
              return a.sector < b.sector;
            });
  if (qos.size() > 8) qos.resize(8);
  m.top_providers = std::move(qos);
  return m;
}

void TrafficEngine::save_state(util::BinaryWriter& writer) const {
  const StreamTotals all = stream_totals(0, streams_);
  for (const std::uint64_t word : rng_.state()) writer.u64(word);
  const SectorId sectors = books_.size();
  save_book(
      writer, sectors, [&](SectorId s) { return books_[s].asked; },
      [&](SectorId s) { return spec_.ask_of(s); });
  save_book(
      writer, sectors, [&](SectorId s) { return books_[s].served > 0; },
      [&](SectorId s) { return books_[s].served; });
  save_book(
      writer, sectors, [&](SectorId s) { return books_[s].served > 0; },
      [&](SectorId s) { return books_[s].revenue; });
  const auto [bytes_served, revenue] = book_totals();
  writer.u64(all.enqueued);  // the settled count
  writer.u64(bytes_served);
  writer.u64(revenue);
  // The cache is encoded as its live FIFO window (insertion order), from
  // which load_state rebuilds the membership set.
  writer.u64(cache_fifo_.size() - cache_head_);
  for (std::size_t i = cache_head_; i < cache_fifo_.size(); ++i) {
    writer.u64(cache_fifo_[i]);
  }
  writer.u64(hot_file_);
  // inject() queues hammers in the adversaries' turn and the same cycle's
  // on_epoch issues them, and every epoch close zeroes the admission
  // budget: at a save point the body keeps the hammer count, 0, and a zero
  // budget per stream.
  FI_CHECK_MSG(pending_.empty(), "checkpoint with " << pending_.size()
                                                    << " hammers queued");
  FI_CHECK_MSG(std::ranges::all_of(admitted_epoch_,
                                   [](std::uint64_t n) { return n == 0; }),
               "checkpoint with an open admission budget");
  writer.u64(0);
  util::save_u64_seq(writer, queues_);
  util::save_u64_seq(writer, sector_served_);
  util::save_u64_seq(writer, sector_dropped_);
  util::save_u64_seq(writer, refusal_hits_);
  util::save_u64_seq(writer, serve_refused_);
  util::save_u64_seq(writer, attempted_);
  util::save_u64_seq(writer, rate_limited_);
  util::save_u64_seq(writer, dropped_);
  util::save_u64_seq(writer, starved_);
  util::save_u64_seq(writer, enqueued_);
  util::save_u64_seq(writer, admitted_epoch_);
  writer.u64(all.attempted);
  writer.u64(all.rate_limited);
  writer.u64(lookup_failures_);
  writer.u64(all.starved);
  writer.u64(all.dropped);
  writer.u64(all.enqueued);
  writer.u64(sum(sector_served_));
  writer.u64(cache_hits_);
  writer.u64(cache_misses_);
  writer.u64(payment_failures_);
  util::save_u64_seq(writer, hist_);
  writer.u64(epochs_run_);
  if (defense_ != nullptr) defense_->save_state(writer);
}

void TrafficEngine::load_state(util::BinaryReader& reader) {
  std::array<std::uint64_t, 4> rng_state{};
  for (std::uint64_t& word : rng_state) word = reader.u64();
  rng_.set_state(rng_state);
  books_.clear();
  const SectorId sector_count = net_.sectors().count();
  const auto book_of = [&](SectorId sector) -> SectorBook& {
    if (sector >= books_.size()) books_.resize(sector + 1);
    return books_[sector];
  };
  load_book(reader, sector_count, [&](SectorId sector, std::uint64_t ask) {
    if (ask != spec_.ask_of(sector)) reader.fail();
    book_of(sector).asked = true;
  });
  const std::uint64_t sold = load_book(
      reader, sector_count, [&](SectorId sector, std::uint64_t served) {
        if (served == 0) reader.fail();
        book_of(sector).served = served;
      });
  // Both books ascend strictly, so equal row counts plus every revenue
  // sector having a served row make their key sets equal.
  const std::uint64_t paid = load_book(
      reader, sector_count, [&](SectorId sector, std::uint64_t revenue) {
        SectorBook& book = book_of(sector);
        if (book.served == 0) reader.fail();
        book.revenue = revenue;
      });
  if (paid != sold) reader.fail();
  const std::uint64_t settled = reader.u64();
  const ByteCount bytes_served = reader.u64();
  const TokenAmount revenue = reader.u64();
  cache_fifo_ = util::load_u64_seq<FileId>(reader);
  cache_head_ = 0;
  cached_.clear();
  for (const FileId file : cache_fifo_) {
    // save_state writes each cached file once.
    if (!cached_.insert(file).second) reader.fail();
  }
  hot_file_ = reader.u64();
  pending_.clear();
  if (reader.u64() != 0) reader.fail();
  queues_ = util::load_u64_seq<std::uint64_t>(reader);
  sector_served_ = util::load_u64_seq<std::uint64_t>(reader);
  sector_dropped_ = util::load_u64_seq<std::uint64_t>(reader);
  refusal_hits_ = util::load_u64_seq<std::uint64_t>(reader);
  serve_refused_ = util::load_u64_seq<std::uint64_t>(reader);
  attempted_ = util::load_u64_seq<std::uint64_t>(reader);
  rate_limited_ = util::load_u64_seq<std::uint64_t>(reader);
  dropped_ = util::load_u64_seq<std::uint64_t>(reader);
  starved_ = util::load_u64_seq<std::uint64_t>(reader);
  enqueued_ = util::load_u64_seq<std::uint64_t>(reader);
  admitted_epoch_ = util::load_u64_seq<std::uint64_t>(reader);
  StreamTotals stored;
  stored.attempted = reader.u64();
  stored.rate_limited = reader.u64();
  lookup_failures_ = reader.u64();
  stored.starved = reader.u64();
  stored.dropped = reader.u64();
  stored.enqueued = reader.u64();
  const std::uint64_t served = reader.u64();
  cache_hits_ = reader.u64();
  cache_misses_ = reader.u64();
  payment_failures_ = reader.u64();
  hist_ = util::load_u64_seq<std::uint64_t>(reader);
  epochs_run_ = reader.u64();
  if (defense_ != nullptr) defense_->load_state(reader);
  // Per-stream vectors must match the spec-derived stream layout; a
  // crafted body with other lengths is rejected, not indexed OOB.
  if (attempted_.size() != streams_ || rate_limited_.size() != streams_ ||
      dropped_.size() != streams_ || starved_.size() != streams_ ||
      enqueued_.size() != streams_ || admitted_epoch_.size() != streams_ ||
      hist_.size() != 64) {
    reader.fail();
  }
  for (const std::uint64_t admitted : admitted_epoch_) {
    if (admitted != 0) reader.fail();
  }
  for (const std::uint64_t flag : serve_refused_) {
    if (flag > 1) reader.fail();
  }
  // Each total is a sum of the counters or books above, and the settled
  // count is the enqueued total.
  if (reader.ok()) {
    const StreamTotals sums = stream_totals(0, streams_);
    if (stored.attempted != sums.attempted ||
        stored.rate_limited != sums.rate_limited ||
        stored.starved != sums.starved || stored.dropped != sums.dropped ||
        stored.enqueued != sums.enqueued || settled != sums.enqueued ||
        served != sum(sector_served_) ||
        book_totals() != std::pair{bytes_served, revenue}) {
      reader.fail();
    }
  }
}

}  // namespace fi::traffic
