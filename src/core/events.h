#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "core/types.h"
#include "util/types.h"

/// Protocol events ("inform ..." lines in the pseudocode, Figs. 4–9).
///
/// The chain state machine emits events; the scenario runner, benches and
/// test observers subscribe. Events are the only channel by which the
/// off-chain side learns what the network expects of it (e.g. a replica
/// transfer deadline).
namespace fi::core {

/// A file was successfully stored (Auto_CheckAlloc success).
struct FileStored {
  FileId file;
};

/// Upload failed: some sector never confirmed (Auto_CheckAlloc failure).
struct UploadFailed {
  FileId file;
  std::string reason;
};

/// File removed after a File_Discard (or unpaid rent) at Auto_CheckProof.
struct FileDiscarded {
  FileId file;
  bool for_unpaid_rent;
};

/// All replicas corrupted: the file is lost and the owner compensated.
struct FileLost {
  FileId file;
  TokenAmount value;
  TokenAmount compensated_now;  ///< may be < value if the pool ran dry
};

/// A sector breached ProofDeadline (or was corrupted by injection); its
/// deposit moved to the compensation pool.
struct SectorCorrupted {
  SectorId sector;
  TokenAmount confiscated;
};

/// A drained disabled sector exited safely; deposit refunded.
struct SectorRemoved {
  SectorId sector;
  TokenAmount refunded;
};

/// A provider was slashed (late proof or failed refresh handoff).
struct ProviderPunished {
  SectorId sector;
  TokenAmount amount;
  std::string reason;
};

/// The network requests a replica transfer: for the initial upload
/// (`from == kNoSector`, the client sends the data) or a refresh (`from`
/// holds the replica). Must be confirmed before `deadline`.
struct ReplicaTransferRequested {
  FileId file;
  ReplicaIndex index;
  SectorId from;
  SectorId to;
  ClientId client;
  Time deadline;
};

/// Entry became `normal`: `sector` now authoritatively stores replica
/// (file, index) and must prove it each cycle.
struct ReplicaActivated {
  FileId file;
  ReplicaIndex index;
  SectorId sector;
};

/// `sector` no longer stores replica (file, index) — refresh moved it away,
/// or the file was removed. Its bytes are already back in the sector's free
/// capacity (`SectorTable::release`).
struct ReplicaReleased {
  FileId file;
  ReplicaIndex index;
  SectorId sector;
};

/// Auto_Refresh drew a sector without room; the refresh was skipped and the
/// countdown re-sampled (a "collision", §V-B2).
struct RefreshSkipped {
  FileId file;
  ReplicaIndex index;
  SectorId sector;
};

/// Periodic rent distribution: `total` tokens were credited to providers'
/// accruals (reward-per-capacity-unit accumulator). The ledger transfer to
/// each provider happens at that sector's next lazy settlement, not at
/// emission time.
struct RentDistributed {
  TokenAmount total;
};

using Event = std::variant<FileStored, UploadFailed, FileDiscarded, FileLost,
                           SectorCorrupted, SectorRemoved, ProviderPunished,
                           ReplicaTransferRequested, ReplicaActivated,
                           ReplicaReleased, RefreshSkipped, RentDistributed>;

/// Synchronous observer bus: listeners run in subscription order inside the
/// emitting transaction/task.
class EventBus {
 public:
  using Listener = std::function<void(const Event&)>;

  void subscribe(Listener listener) {
    listeners_.push_back(std::move(listener));
  }

  void emit(const Event& event) const {
    for (const Listener& listener : listeners_) listener(event);
  }

 private:
  std::vector<Listener> listeners_;
};

}  // namespace fi::core
