#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "util/check.h"
#include "util/types.h"

/// Closure-based discrete-event scheduler: the clock `core::Simulation`
/// drives its provider/client actor behaviour with. Events at equal
/// timestamps run in scheduling order (stable), which keeps simulations
/// deterministic under a fixed seed. Scenario runs do not use it: their
/// clock is the protocol pending list, and replica transfers travel
/// through `sim::NetModel` (net_model.h).
namespace fi::sim {

class EventQueue {
 public:
  using Handler = std::function<void()>;

  /// Schedules `handler` at absolute time `at` (>= now). Returns an event
  /// id usable with `cancel`.
  std::uint64_t schedule_at(Time at, Handler handler);

  /// Schedules `handler` `delay` ticks from now.
  std::uint64_t schedule_after(Time delay, Handler handler);

  /// Cancels a pending event; returns false if it already ran or is unknown.
  bool cancel(std::uint64_t event_id);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return live_count_; }
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Timestamp of the earliest live event, or `kNoTime` when empty.
  /// (Prunes cancelled entries encountered at the head.)
  [[nodiscard]] Time next_event_time();

  /// Runs a single event; returns false if the queue is empty.
  bool step();

  /// Runs all events with time <= deadline, then advances the clock to
  /// `deadline` even if no event landed exactly there.
  void run_until(Time deadline);

  /// Runs until the queue drains; returns the number of events executed.
  /// `max_events` guards against runaway self-rescheduling loops.
  std::size_t run_all(std::size_t max_events = 100'000'000);

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;  // tie-breaker: stable FIFO within a timestamp
    std::uint64_t id;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool pop_and_run();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> queue_;
  std::unordered_map<std::uint64_t, Handler> handlers_;  // id -> live handler
  std::size_t live_count_ = 0;
};

}  // namespace fi::sim
