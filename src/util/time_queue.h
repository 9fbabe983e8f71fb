#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/types.h"

/// Time-ordered queue that pops items in (time, push order): the one
/// scheduling structure behind the protocol pending list
/// (`core::PendingList`, Fig. 1) and the delivery network (`sim::NetModel`).
///
/// Both users push mostly at or after the newest pending time (a re-armed
/// Auto_CheckProof is due one ProofCycle out, a message a bounded latency
/// out), and many items share one time: every stored file's proof check
/// falls due at the same tick. So instead of a binary heap that pays an
/// O(log n) sift per item, the queue keeps one bucket per distinct pending
/// time in a time-sorted vector, each bucket a vector with a read cursor:
///   - `push` scans back from the newest bucket and appends: O(1) when the
///     time is at or after the newest one;
///   - `pop` advances the front bucket's cursor: O(1);
///   - a drained bucket hands its storage to a short spare list, so a warm
///     cycle that drains one bucket and fills another allocates nothing.
///
/// Order is a pure function of the push/pop history, never of the layout,
/// so an owner's save can walk `for_each` and its load can push in wire
/// order.
namespace fi::util {

template <typename T>
class TimeQueue {
 public:
  /// Queues `item` at `at`, behind every item already queued at `at`.
  void push(Time at, const T& item) {
    std::size_t pos = buckets_.size();
    while (pos > first_ && buckets_[pos - 1].at > at) --pos;
    if (pos == first_ || buckets_[pos - 1].at != at) {
      pos = open_bucket(pos, at) + 1;
    }
    buckets_[pos - 1].items.push_back(item);
    ++size_;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Time of the earliest item, or kNoTime when empty.
  [[nodiscard]] Time next_time() const {
    return size_ == 0 ? kNoTime : buckets_[first_].at;
  }

  /// The earliest item: the first one pushed at `next_time()`.
  [[nodiscard]] const T& front() const {
    FI_CHECK_MSG(size_ > 0, "front() of an empty TimeQueue");
    const Bucket& bucket = buckets_[first_];
    return bucket.items[bucket.head];
  }

  /// Removes `front()`.
  void pop() {
    FI_CHECK_MSG(size_ > 0, "pop() of an empty TimeQueue");
    --size_;
    Bucket& bucket = buckets_[first_];
    if (++bucket.head == bucket.items.size()) retire_front();
  }

  /// Calls `visit(time, item)` for every queued item in pop order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (std::size_t b = first_; b < buckets_.size(); ++b) {
      const Bucket& bucket = buckets_[b];
      for (std::size_t i = bucket.head; i < bucket.items.size(); ++i) {
        visit(bucket.at, bucket.items[i]);
      }
    }
  }

  void clear() {
    buckets_.clear();
    first_ = 0;
    size_ = 0;
  }

 private:
  /// Items `[head, items.size())` are queued; a live bucket is never empty.
  struct Bucket {
    Time at = 0;
    std::size_t head = 0;
    std::vector<T> items;
  };

  /// Drained buffers kept for reuse. Two cover the steady states: one
  /// proof-cycle bucket handed from each cycle to the next, and one
  /// delivery tick retired as the next one opens. Keeping every drained
  /// buffer only holds memory that the next burst does not reuse.
  static constexpr std::size_t kMaxSpare = 2;

  /// Opens an empty bucket for `at` at live position `pos`; returns its
  /// index. A time before every live bucket reuses the retired slot just
  /// before them, when there is one.
  std::size_t open_bucket(std::size_t pos, Time at) {
    Bucket bucket{at, 0, {}};
    if (!spare_.empty()) {
      bucket.items = std::move(spare_.back());
      spare_.pop_back();
    }
    if (pos == first_ && first_ > 0) {
      buckets_[--first_] = std::move(bucket);
      return first_;
    }
    buckets_.insert(buckets_.begin() + static_cast<std::ptrdiff_t>(pos),
                    std::move(bucket));
    return pos;
  }

  /// Retires the drained front bucket. Retired slots stay in `buckets_`
  /// until they are as many as the live ones, then slide out in one move,
  /// so retiring is amortised O(1).
  void retire_front() {
    std::vector<T>& items = buckets_[first_].items;
    if (spare_.size() < kMaxSpare) {
      items.clear();
      spare_.push_back(std::move(items));
    } else {
      std::vector<T>().swap(items);
    }
    ++first_;
    if (first_ == buckets_.size()) {
      buckets_.clear();
      first_ = 0;
    } else if (2 * first_ >= buckets_.size()) {
      buckets_.erase(buckets_.begin(),
                     buckets_.begin() + static_cast<std::ptrdiff_t>(first_));
      first_ = 0;
    }
  }

  /// Ascending by `at`, one bucket per time; `[first_, size())` are live,
  /// `[0, first_)` are retired slots whose storage has moved out.
  std::vector<Bucket> buckets_;
  std::size_t first_ = 0;
  std::size_t size_ = 0;
  std::vector<std::vector<T>> spare_;
};

}  // namespace fi::util
