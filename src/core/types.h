#pragma once

#include <cstddef>
#include <cstdint>

#include "util/types.h"

/// Core protocol identifier types and state enums (Fig. 1).
namespace fi::core {

using FileId = std::uint64_t;
using SectorId = std::uint64_t;
using ReplicaIndex = std::uint32_t;
using ClientId = AccountId;
using ProviderId = AccountId;

inline constexpr SectorId kNoSector = ~SectorId{0};
inline constexpr FileId kNoFile = ~FileId{0};

/// Sector lifecycle (Fig. 1 plus the corrupted/removed terminal states).
enum class SectorState : std::uint8_t {
  normal,     ///< accepts new files
  disabled,   ///< no new files; drains via refresh, then removed
  corrupted,  ///< any bit lost; deposit confiscated
  removed,    ///< safely exited; deposit refunded
};

/// Number of SectorState enumerators (keep tied to the last one above).
inline constexpr std::size_t kSectorStateCount =
    static_cast<std::size_t>(SectorState::removed) + 1;

/// File lifecycle (Fig. 1).
enum class FileState : std::uint8_t {
  normal,   ///< stored and maintained
  discard,  ///< marked for removal at the next Auto_CheckProof
  removed,  ///< terminal (kept for audit)
};

/// Allocation-entry state machine (Fig. 1).
enum class AllocState : std::uint8_t {
  alloc,      ///< (re)allocation announced, transfer in flight
  confirm,    ///< receiving sector confirmed the replica
  normal,     ///< `prev` stores the replica
  corrupted,  ///< the storing sector is corrupted (dead replica slot)
};

const char* to_string(SectorState s);
const char* to_string(FileState s);
const char* to_string(AllocState s);

}  // namespace fi::core
