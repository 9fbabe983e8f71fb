#pragma once

#include <cstdint>

/// Fundamental scalar types shared by every FileInsurer module.
///
/// All quantities are fixed-width integers so that simulations are exactly
/// reproducible across platforms; floating point appears only in statistics
/// and in the closed-form theorem bounds.
namespace fi {

/// Simulated time, in abstract ticks: the clock of the protocol pending
/// list, which `sim::NetModel` deliveries share.
using Time = std::uint64_t;

/// Sentinel for "no timestamp" (the paper's `last = -1`).
inline constexpr Time kNoTime = ~Time{0};

/// A byte count (file sizes, sector capacities).
using ByteCount = std::uint64_t;

/// A token amount in the network's smallest denomination.
/// Arithmetic on balances must go through `fi::util::checked_*`.
using TokenAmount = std::uint64_t;

/// Ledger account identifier. Providers and clients are both accounts.
using AccountId = std::uint64_t;

inline constexpr AccountId kNoAccount = ~AccountId{0};

}  // namespace fi
