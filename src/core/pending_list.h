#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.h"
#include "util/binary_io.h"
#include "util/time_queue.h"
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

/// Tasks sit in a `util::TimeQueue`: one FIFO bucket per distinct due
/// time, so the thousands of Auto_CheckProof tasks that share a ProofCycle
/// tick append and pop in O(1) each, and a warm proof cycle reuses the
/// storage the previous cycle drained.
class PendingList {
 public:
  /// Enqueues `task` for execution at time `at` (gas already prepaid by
  /// the scheduling request). `at` may equal the current batch time:
  /// Network::advance_to runs such tasks within the same call. Tasks at
  /// one time run in scheduling order.
  void schedule(Time at, Task task) { queue_.push(at, task); }

  /// Pops every task with timestamp <= `t`, ordered by (time, insertion),
  /// appending onto `out` without clearing it. The epoch loop passes the
  /// same buffer every batch, so steady-state pops allocate nothing.
  void pop_due_into(Time t, std::vector<std::pair<Time, Task>>& out) {
    while (!queue_.empty() && queue_.next_time() <= t) {
      out.emplace_back(queue_.next_time(), queue_.front());
      queue_.pop();
    }
  }

  /// Convenience wrapper returning a fresh vector (tests / cold paths).
  [[nodiscard]] std::vector<std::pair<Time, Task>> pop_due(Time t) {
    std::vector<std::pair<Time, Task>> due;
    pop_due_into(t, due);
    return due;
  }

  /// Time of the earliest pending task, or kNoTime when empty.
  [[nodiscard]] Time next_time() const { return queue_.next_time(); }

  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

  /// Visits every task as `visit(time, task)`, in execution order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    queue_.for_each(visit);
  }

  /// Canonical snapshot encoding: tasks in execution order, which is the
  /// queue's own order. `load` schedules in wire order, so relative order
  /// and hence pop order survive; it rejects times that decrease, which
  /// `save` cannot produce.
  void save(util::BinaryWriter& writer) const {
    writer.u64(queue_.size());
    for_each([&writer](Time at, const Task& task) {
      writer.u64(at);
      writer.u8(static_cast<std::uint8_t>(task.kind));
      writer.u64(task.file);
      writer.u32(task.index);
    });
  }
  void load(util::BinaryReader& reader) {
    queue_.clear();
    const std::uint64_t n = reader.count(21);
    Time last = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const Time at = reader.u64();
      Task task;
      const std::uint8_t kind = reader.u8();
      if (kind > static_cast<std::uint8_t>(TaskKind::rent_distribution) ||
          at < last) {
        reader.fail();
        return;
      }
      last = at;
      task.kind = static_cast<TaskKind>(kind);
      task.file = reader.u64();
      task.index = reader.u32();
      queue_.push(at, task);
    }
  }

 private:
  util::TimeQueue<Task> queue_;
};

}  // namespace fi::core
