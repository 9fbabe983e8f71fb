#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "util/check.h"
#include "util/checked.h"
#include "util/types.h"

/// Protocol parameters (paper Table I and §IV).
///
/// Defaults are scaled for simulation (a "sector unit" of 64 KiB instead of
/// 64 GB) — every analytic quantity in the paper depends only on *ratios*
/// (capacity/minCapacity, value/minValue, cap/size), so scaling the absolute
/// unit changes nothing in the reproduced results.
namespace fi::core {

struct Params {
  // ---- Sizes and values -------------------------------------------------
  /// The paper's `minCapacity`: every sector capacity is an integer
  /// multiple of this.
  ByteCount min_capacity = 64 * 1024;
  /// The paper's `minValue`: every file value is an integer multiple.
  TokenAmount min_value = 100;
  /// `k`: replicas stored for a file of value exactly `minValue`
  /// (`f.cp = k · f.value / minValue`).
  std::uint32_t k = 3;
  /// `capPara = N_v^m / N_s`: designed maximum stored value (in minValue
  /// units) per sector unit. With `gamma_deposit` this fixes the deposit a
  /// sector must pledge.
  double cap_para = 10.0;
  /// `γ_deposit`: total deposits as a fraction of the maximum storable
  /// value (Theorem 4 gives the sufficient value).
  double gamma_deposit = 0.05;

  // ---- Timing -----------------------------------------------------------
  /// `ProofCycle`: ticks between `Auto_CheckProof` executions per file.
  Time proof_cycle = 100;
  /// `ProofDue`: a proof older than this is punished.
  Time proof_due = 150;
  /// `ProofDeadline`: a proof older than this corrupts the sector.
  Time proof_deadline = 300;
  /// `AvgRefresh`: mean number of proof cycles between location refreshes
  /// of one replica (the countdown is Exp-distributed, Fig. 7).
  double avg_refresh = 10.0;
  /// `DelayPerSize`: ticks of transfer window per KiB of file size.
  Time delay_per_kib = 1;
  /// Minimum transfer window, so tiny files still get a full tick.
  Time min_transfer_window = 1;

  // ---- Fees and penalties ------------------------------------------------
  /// Storage rent per KiB per replica per proof cycle (uniform across
  /// files, §IV-A2).
  TokenAmount unit_rent = 1;
  /// Traffic fee per KiB per replica, committed at File_Add and released
  /// to each provider on File_Confirm (§IV-A1).
  TokenAmount traffic_fee_per_kib = 1;
  /// Prepaid gas per scheduled Auto task, burned to the gas sink (§IV-A3).
  TokenAmount gas_per_task = 2;
  /// Punishment for a late (but not deadline-breaching) proof or a failed
  /// refresh handoff, in basis points of the sector's remaining deposit.
  std::uint32_t punish_bp = 100;
  /// Rent is distributed to providers every this many proof cycles.
  std::uint32_t rent_period_cycles = 10;

  // ---- Placement behaviour ----------------------------------------------
  /// Fig. 4 resamples `RandomSector()` while the chosen sector lacks space
  /// ("almost never happens"); this bounds the loop defensively.
  std::uint32_t max_alloc_resample = 10'000;
  /// Ablation: require a file's replicas to land in distinct sectors
  /// (the paper's analysis assumes fully i.i.d. placement — `false`).
  bool distinct_sectors = false;
  /// §VI-B: on Sector_Register, swap a Poisson-distributed number of
  /// random backups into the new sector to keep placement i.i.d.
  bool admission_rebalance = false;

  /// Validates internal consistency; throws on misconfiguration.
  void validate() const {
    FI_CHECK_MSG(min_capacity > 0, "min_capacity must be positive");
    FI_CHECK_MSG(min_value > 0, "min_value must be positive");
    FI_CHECK_MSG(k >= 1, "k must be at least 1");
    FI_CHECK_MSG(cap_para > 0, "cap_para must be positive");
    FI_CHECK_MSG(gamma_deposit > 0, "gamma_deposit must be positive");
    FI_CHECK_MSG(proof_cycle > 0, "proof_cycle must be positive");
    FI_CHECK_MSG(proof_due >= proof_cycle, "proof_due below proof_cycle");
    FI_CHECK_MSG(proof_deadline > proof_due,
                 "proof_deadline must exceed proof_due");
    FI_CHECK_MSG(avg_refresh >= 1.0, "avg_refresh below one cycle");
    FI_CHECK_MSG(punish_bp <= 10'000, "punish_bp above 100%");
    // Zero would reschedule the rent task at `now`, so time never advances;
    // so would a period that wraps the clock to zero.
    FI_CHECK_MSG(rent_period_cycles >= 1,
                 "rent_period_cycles must be at least 1");
    FI_CHECK_MSG(proof_cycle <= std::numeric_limits<Time>::max() /
                                    rent_period_cycles,
                 "rent period (rent_period_cycles x proof_cycle) overflows "
                 "the clock");
    // Zero draws no sector, so every File_Add fails.
    FI_CHECK_MSG(max_alloc_resample >= 1,
                 "max_alloc_resample must be at least 1");
  }

  /// Replica count for a file of the given value (`backupCnt` in Fig. 4):
  /// `cp = k · value / minValue`. Value must be a positive multiple of
  /// `min_value`. Throws `std::overflow_error` when cp exceeds u32.
  [[nodiscard]] std::uint32_t replica_count(TokenAmount value) const {
    FI_CHECK_MSG(value >= min_value && value % min_value == 0,
                 "file value must be a positive multiple of min_value");
    const std::uint64_t cp = util::checked_mul(k, value / min_value);
    if (cp > std::numeric_limits<std::uint32_t>::max()) {
      throw std::overflow_error("replica count exceeds u32");
    }
    return static_cast<std::uint32_t>(cp);
  }

  /// Deposit pledged for a sector of the given capacity (§IV-B):
  /// `capacity/minCapacity × γ_deposit × capPara × minValue`, rounded up so
  /// rounding never under-collateralizes. Throws `std::overflow_error` when
  /// the deposit does not fit in a token amount (`util/checked.h`).
  [[nodiscard]] TokenAmount sector_deposit(ByteCount capacity) const {
    const double units = static_cast<double>(capacity) /
                         static_cast<double>(min_capacity);
    const double deposit = gamma_deposit * cap_para *
                           static_cast<double>(min_value) * units;
    // 2^64 is exact as a double; converting anything at or above it (or a
    // NaN) to u64 is undefined behaviour.
    if (!(deposit >= 0.0 && deposit < 0x1p64)) {
      throw std::overflow_error("sector deposit exceeds u64");
    }
    return static_cast<TokenAmount>(deposit) +
           (deposit > static_cast<double>(static_cast<TokenAmount>(deposit))
                ? 1
                : 0);
  }

  /// Transfer window for a file of `size` bytes (`DelayPerSize × f.size`).
  /// Throws `std::overflow_error` when the window does not fit in a `Time`.
  [[nodiscard]] Time transfer_window(ByteCount size) const {
    const Time ticks = util::checked_mul(delay_per_kib, (size + 1023) / 1024);
    return ticks < min_transfer_window ? min_transfer_window : ticks;
  }

  /// Ticks between two rent distributions (`rent_period_cycles ×
  /// ProofCycle`). Throws `std::overflow_error` when it does not fit in a
  /// `Time`; `validate` rejects such params up front.
  [[nodiscard]] Time rent_period() const {
    return util::checked_mul(rent_period_cycles, proof_cycle);
  }

  /// Storage rent for one file replica set for one proof cycle. Throws
  /// `std::overflow_error` when it does not fit in a token amount.
  [[nodiscard]] TokenAmount rent_per_cycle(ByteCount size,
                                           std::uint32_t cp) const {
    return util::checked_mul(
        util::checked_mul(unit_rent, (size + 1023) / 1024), cp);
  }

  /// Traffic fee for transferring one replica of a file. Throws
  /// `std::overflow_error` when it does not fit in a token amount.
  [[nodiscard]] TokenAmount traffic_fee(ByteCount size) const {
    return util::checked_mul(traffic_fee_per_kib, (size + 1023) / 1024);
  }
};

}  // namespace fi::core
