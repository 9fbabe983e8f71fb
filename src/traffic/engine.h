#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/network.h"
#include "core/types.h"
#include "ledger/account.h"
#include "traffic/defense.h"
#include "traffic/spec.h"
#include "util/binary_io.h"
#include "util/prng.h"

/// Retrieval-traffic engine and the retrieval market it trades on.
///
/// The DSN stores files; this layer asks for them back. Each epoch it
/// generates a stream-structured request load over the live file set —
/// Zipf-skewed popularity, an optional diurnal load curve, an optional
/// flash crowd concentrating on one hot file — plus whatever the
/// adversary layer injected (`retrieval_ddos` hammers), and pushes every
/// request through the paper's File_Get / retrieval-market pipeline
/// (§III-A2, §III-E): "the providers who store this file compete to
/// respond to the request for the corresponding payment ... the clients
/// and providers exchange the file without the witness of DSN." Holder
/// lookup is on chain; the cheapest cooperative holder serves, at the
/// ask `TrafficSpec::ask_of` quotes, and the client pays its owner
/// directly — off-chain from the DSN's point of view, on the shared
/// ledger for accounting. The market's ask, served and revenue books are
/// kept per sector. Per-sector queues with bounded depth and fixed service
/// capacity turn request volume into QoS: queueing latency (in simulated
/// cycles), drops under overload, starvation when every holder refuses to
/// serve (`cartel_starver`).
///
/// When the defense is enabled, a `PoissonEnvelopeDefense` watches every
/// stream's offered load and flags abusive ones; flagged streams are
/// rate-limited to the envelope allowance and surge-priced through the
/// market — the economic half of the countermeasure.
///
/// Determinism: one private PRNG (seed ^ kTrafficSeedSalt), consumed in
/// a fixed order each epoch; no wall clocks; every container iterated
/// for effects or encoding is dense and index-ordered, so reports and
/// snapshots are byte-identical across runs of the same spec.
namespace fi::traffic {

using core::ClientId;
using core::FileId;
using core::SectorId;
using core::kNoFile;
using core::kNoSector;

/// Per-sector service quality summary (top-N table in the report).
struct ProviderQoS {
  SectorId sector = kNoSector;
  std::uint64_t served = 0;
  std::uint64_t dropped = 0;
  std::uint64_t backlog = 0;
};

/// Request outcomes summed over a block of streams.
struct StreamTotals {
  std::uint64_t attempted = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t starved = 0;
  std::uint64_t dropped = 0;
  std::uint64_t enqueued = 0;
  /// Streams the defense has flagged, and the earliest epoch any of them
  /// was (`kNeverFlagged` if none).
  // fi-lint: not-serialized(read from the defense, which encodes its flags)
  std::uint64_t flagged = 0;
  // fi-lint: not-serialized(read from the defense, which encodes its flags)
  std::uint64_t first_flagged_epoch = kNeverFlagged;
};

/// Aggregated traffic metrics for `scenario::MetricsReport`.
struct TrafficMetrics {
  bool enabled = false;
  std::uint64_t epochs = 0;
  std::uint64_t streams = 0;
  std::uint64_t honest_streams = 0;
  std::uint64_t requests_attempted = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t lookup_failures = 0;
  std::uint64_t starved = 0;
  std::uint64_t dropped = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t served = 0;
  std::uint64_t backlog = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t payment_failures = 0;
  std::uint64_t retrievals_settled = 0;
  ByteCount bytes_served = 0;
  TokenAmount revenue = 0;
  /// Queueing-latency percentiles over enqueued requests, in simulated
  /// cycles (clamped to the histogram's top bucket, 63).
  std::uint64_t p50_latency = 0;
  std::uint64_t p99_latency = 0;
  bool defense_armed = false;
  double defense_envelope = 0.0;
  std::uint64_t flagged_streams = 0;
  /// Earliest epoch any stream was flagged (`kNeverFlagged` if none).
  std::uint64_t first_flagged_epoch = kNeverFlagged;
  std::vector<std::uint64_t> flagged_stream_ids;
  /// Busiest sectors by requests served (at most 8, served-descending,
  /// ties to the lower sector id).
  std::vector<ProviderQoS> top_providers;
};

class TrafficEngine {
 public:
  /// `total_streams` = the spec's honest streams plus one stream per
  /// adversary gang member (the runner lays gangs out after the honest
  /// block). `client` is the funded retrieval client account; `ledger`
  /// is the shared ledger retrieval payments settle on.
  TrafficEngine(const TrafficSpec& spec, core::Network& net,
                ledger::Ledger& ledger, ClientId client, std::uint64_t seed,
                std::uint64_t total_streams);

  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;

  /// Queues `requests` hammer requests on `stream` against `file` for the
  /// next `on_epoch` (adversary actions are applied before the tick).
  void inject(std::uint64_t stream, FileId file, std::uint64_t requests);

  /// Marks / clears a sector as refusing to serve retrievals
  /// (`cartel_starver`). Refusing holders are skipped by selection and
  /// counted in `refusal_hits`.
  void set_serve_refusal(SectorId sector, bool refuse);
  [[nodiscard]] std::uint64_t refusal_hits(SectorId sector) const;

  /// One epoch of traffic: service tick, honest generation, injected
  /// hammers, defense epoch close. `live_files` is the runner's dense
  /// live-file list (popularity rank = list order).
  void on_epoch(std::uint64_t epoch, const std::vector<FileId>& live_files);

  /// Sums streams [first, first + count): every stream for the report,
  /// one gang's block for its adversary extras.
  [[nodiscard]] StreamTotals stream_totals(std::uint64_t first,
                                           std::uint64_t count) const;

  /// Aggregates the current counters into a report block.
  [[nodiscard]] TrafficMetrics metrics() const;

  /// Canonical snapshot encoding / restore (`src/snapshot`). The spec,
  /// network and ledger wiring, client id and stream layout are rebuilt
  /// from the scenario spec before `load_state`, and the network is loaded
  /// first: the market's books may name only sectors it holds. The body
  /// keeps the request totals (and the market's settled count, which is
  /// the enqueued total) beside the per-stream and per-sector counters
  /// they sum; `save_state` writes the sums there, and `load_state`
  /// rejects a body whose stored total is not its sum. The books are
  /// (sector, value) rows in ascending sector order: every ask `ask_of`
  /// its sector, every served row positive, and one key set for the
  /// served and revenue books. The hammer queue and the admission budget
  /// are per-cycle scratch, empty at every save point: the body keeps a
  /// hammer count of 0 and a zero budget per stream, and `load_state`
  /// rejects any other value.
  void save_state(util::BinaryWriter& writer) const;
  void load_state(util::BinaryReader& reader);

 private:
  struct Injected {
    std::uint64_t stream = 0;
    FileId file = kNoFile;
    std::uint64_t requests = 0;
  };

  /// Offered request rate for `epoch`: base, diurnal triangle wave,
  /// flash-crowd multiplier.
  [[nodiscard]] std::uint64_t rate_for(std::uint64_t epoch) const;
  [[nodiscard]] bool flash_active(std::uint64_t epoch) const;
  /// One sector's rows in the market's three books.
  struct SectorBook {
    /// In the ask book (has competed for a request).
    bool asked = false;
    /// The served and revenue books: a sector has sold iff `served > 0`
    /// (every file is at least one byte).
    ByteCount served = 0;
    TokenAmount revenue = 0;
  };

  /// The served-bytes and revenue books summed over sectors.
  [[nodiscard]] std::pair<ByteCount, TokenAmount> book_totals() const;
  /// Runs one request through the full pipeline (defense, lookup,
  /// refusal filter, cache, selection, queueing, settlement).
  void issue(std::uint64_t stream, FileId file);
  /// Drains each sector's queue by its service capacity, in sector order.
  void service_tick();
  [[nodiscard]] std::uint64_t queue_depth(SectorId sector) const {
    return sector < queues_.size() ? queues_[sector] : 0;
  }
  /// Queues a file `cached_` just admitted, FIFO-evicting past the cache
  /// size.
  void cache_admit(FileId file);

  // fi-lint: not-serialized(configuration, rebuilt from the scenario spec
  // when the engine is re-created on resume)
  TrafficSpec spec_;
  // fi-lint: not-serialized(runtime wiring, re-supplied on construction)
  core::Network& net_;
  // fi-lint: not-serialized(runtime wiring, re-supplied on construction)
  ledger::Ledger& ledger_;
  // fi-lint: not-serialized(construction input, rebuilt by the runner)
  ClientId client_;
  // fi-lint: not-serialized(derived from the spec and the adversary list)
  std::uint64_t streams_;
  // fi-lint: not-serialized(derived from the spec)
  std::uint64_t honest_streams_;
  // fi-lint: not-serialized(derived: the files in the FIFO window, rebuilt
  // by load_state; lookups only, never iterated)
  std::unordered_set<FileId> cached_;
  // fi-lint: not-serialized(scratch: one request's serving holders,
  // refilled by every issue(); reused so a cache hit allocates nothing)
  std::vector<SectorId> candidates_;

  util::Xoshiro256 rng_;
  /// The market's books, indexed by sector id, grown on demand.
  std::vector<SectorBook> books_;
  /// Provider-side content cache: cached files in insertion order;
  /// `cache_head_` marks the FIFO front (ring-style so eviction is O(1),
  /// compacted when stale).
  std::vector<FileId> cache_fifo_;
  std::size_t cache_head_ = 0;
  /// The flash crowd's hot file (picked once at flash onset).
  FileId hot_file_ = kNoFile;
  /// Adversary hammers queued in the adversaries' turn for the same
  /// cycle's tick, which issues and clears them: empty at a save point.
  std::vector<Injected> pending_;

  /// Dense per-sector state, grown on demand (sector ids are dense).
  std::vector<std::uint64_t> queues_;
  std::vector<std::uint64_t> sector_served_;
  std::vector<std::uint64_t> sector_dropped_;
  std::vector<std::uint64_t> refusal_hits_;
  /// 0/1 refuse-to-serve flags (u64 for the shared u64-seq framing).
  std::vector<std::uint64_t> serve_refused_;

  /// Per-stream counters, indexed by stream id, sized `streams_`.
  std::vector<std::uint64_t> attempted_;
  std::vector<std::uint64_t> rate_limited_;
  std::vector<std::uint64_t> dropped_;
  std::vector<std::uint64_t> starved_;
  std::vector<std::uint64_t> enqueued_;
  /// Requests admitted this epoch (the rate limiter's budget), zeroed at
  /// each epoch close: all zero at a save point.
  std::vector<std::uint64_t> admitted_epoch_;

  std::uint64_t lookup_failures_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t payment_failures_ = 0;
  /// Queueing-latency histogram: bucket = min(latency cycles, 63).
  std::vector<std::uint64_t> hist_;
  std::uint64_t epochs_run_ = 0;

  /// Present iff the spec enables the defense.
  std::unique_ptr<PoissonEnvelopeDefense> defense_;
};

}  // namespace fi::traffic
