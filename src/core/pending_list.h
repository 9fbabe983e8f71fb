#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"
#include "util/binary_io.h"
#include "util/types.h"

/// Pending list (Fig. 1): tasks the network executes automatically at a
/// specific future time. Tasks at the same timestamp run in scheduling
/// order, so executions are deterministic.
///
/// Gas prepayment (§IV-A3): the request that schedules a task pays its
/// gas up front — e.g. File_Add charges the Auto_CheckAlloc gas in the
/// same transaction, and each Auto_CheckProof charges the client rent
/// *plus* the gas for its own re-arming. The pending list itself never
/// touches balances; by the time a task is queued its execution is
/// already funded, so tasks cannot fail for lack of gas and the list
/// never needs to evict.
namespace fi::core {

enum class TaskKind : std::uint8_t {
  check_alloc,       ///< Auto_CheckAlloc(f)
  check_proof,       ///< Auto_CheckProof(f)
  check_refresh,     ///< Auto_CheckRefresh(f, i)
  rent_distribution, ///< periodic rent payout (§IV-A2)
};

/// One scheduled execution. `file` is kNoFile for network-wide tasks
/// (rent distribution); `index` is meaningful only for per-replica kinds
/// (check_refresh).
struct Task {
  TaskKind kind = TaskKind::check_alloc;
  FileId file = kNoFile;
  ReplicaIndex index = 0;
};

/// Flat binary min-heap over (time, insertion-sequence) in one contiguous
/// vector. The previous node-based multimap paid a heap allocation plus
/// pointer-chasing per scheduled task; the vector heap is allocation-free
/// once capacity is warm (re-arming storms recycle the same storage every
/// proof cycle) and keeps sift paths inside a few cache lines.
///
/// The heap's *internal* array order is layout-dependent and never
/// observable: every read goes through pops ordered by the strict total
/// order (time, seq) or through `save`, which sorts a copy into execution
/// order first.
class PendingList {
 public:
  /// Enqueues `task` for execution at time `at` (gas already prepaid by
  /// the scheduling request). `at` may equal the current batch time:
  /// Network::advance_to runs such tasks within the same call.
  ///
  /// The global sequence counter breaks timestamp ties by insertion
  /// order, so execution order is identical to the historical
  /// insertion-ordered multimap.
  void schedule(Time at, Task task) {
    heap_.push_back(Item{at, next_seq_++, task});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Pops every task with timestamp <= `t`, ordered by (time, insertion),
  /// appending onto `out` without clearing it. The epoch loop passes the
  /// same buffer every batch, so steady-state pops allocate nothing.
  void pop_due_into(Time t, std::vector<std::pair<Time, Task>>& out) {
    while (!heap_.empty() && heap_.front().at <= t) {
      out.emplace_back(heap_.front().at, heap_.front().task);
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  /// Convenience wrapper returning a fresh vector (tests / cold paths).
  [[nodiscard]] std::vector<std::pair<Time, Task>> pop_due(Time t) {
    std::vector<std::pair<Time, Task>> due;
    pop_due_into(t, due);
    return due;
  }

  /// Time of the earliest pending task, or kNoTime when empty.
  [[nodiscard]] Time next_time() const {
    return heap_.empty() ? kNoTime : heap_.front().at;
  }

  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Canonical snapshot encoding: tasks in execution order. The heap array
  /// itself is layout-dependent, so `save` sorts a copy by the (time, seq)
  /// total order — byte-identical to the historical multimap iteration —
  /// and `load` re-schedules in that order with a fresh dense sequence,
  /// which preserves relative order and hence pop order.
  void save(util::BinaryWriter& writer) const {
    std::vector<Item> ordered(heap_);
    std::sort(ordered.begin(), ordered.end(),
              [](const Item& a, const Item& b) {
                return a.at != b.at ? a.at < b.at : a.seq < b.seq;
              });
    writer.u64(ordered.size());
    for (const Item& item : ordered) {
      writer.u64(item.at);
      writer.u8(static_cast<std::uint8_t>(item.task.kind));
      writer.u64(item.task.file);
      writer.u32(item.task.index);
    }
  }
  void load(util::BinaryReader& reader) {
    heap_.clear();
    next_seq_ = 0;
    const std::uint64_t n = reader.count(21);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Time at = reader.u64();
      Task task;
      const std::uint8_t kind = reader.u8();
      if (kind > static_cast<std::uint8_t>(TaskKind::rent_distribution)) {
        reader.fail();
        return;
      }
      task.kind = static_cast<TaskKind>(kind);
      task.file = reader.u64();
      task.index = reader.u32();
      schedule(at, task);
    }
  }

 private:
  struct Item {
    Time at = 0;
    /// Insertion tie-break: encoded *positionally* — save sorts by
    /// (at, seq) and load renumbers densely in wire order, preserving the
    /// only observable property (relative order).
    // fi-lint: not-serialized(encoded positionally via the sorted order)
    std::uint64_t seq = 0;
    Task task;
  };
  /// Max-heap comparator inverted into a min-heap on (at, seq): the
  /// strict total order guarantees a unique pop sequence for any heap
  /// layout holding the same multiset of items.
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  std::vector<Item> heap_;
  /// Tie-break sequence. Only *relative* order is observable (pops and the
  /// sorted save), so the dense renumbering on load changes nothing.
  // fi-lint: not-serialized(tie-break counter; load() renumbers densely)
  std::uint64_t next_seq_ = 0;
};

}  // namespace fi::core
