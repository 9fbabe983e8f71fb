#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "ledger/account.h"
#include "util/binary_io.h"
#include "util/status.h"

/// The Retrieval Market (§III-A2, §III-E): "when a client requests retrieval
/// of a specified file, the providers who store this file compete to respond
/// to the request for the corresponding payment ... the clients and
/// providers exchange the file without the witness of DSN."
///
/// Each sector asks a price per KiB served; the traffic engine
/// (`src/traffic`) resolves a File_Get's holder set to the cheapest
/// cooperative holder, and payment settles directly between the two
/// accounts — off-chain from the DSN's point of view, on our shared ledger
/// for accounting. The books are dense and sector-indexed: sector ids are
/// dense, and a loaded book may name only sectors the network holds.
namespace fi::core {

class RetrievalMarket {
 public:
  RetrievalMarket(ledger::Ledger& ledger, TokenAmount price_per_kib)
      : ledger_(ledger), price_per_kib_(price_per_kib) {}

  /// A sector's ask per KiB. Two price tiers keyed off the id parity:
  /// enough spread that cheapest-wins selection is exercised, and a pure
  /// function of the sector id, so a resumed run quotes identically.
  [[nodiscard]] TokenAmount ask_of(SectorId sector) const {
    return price_per_kib_ + (sector & 1);
  }

  /// Enters `sector` in the ask book (idempotent). The book records which
  /// sectors have competed for a request; their asks are `ask_of`.
  void post_ask(SectorId sector) {
    if (sector >= books_.size()) books_.resize(sector + 1);
    books_[sector].posted = true;
  }

  /// Price quoted by `sector` for `bytes` of content.
  [[nodiscard]] TokenAmount quote(SectorId sector, ByteCount bytes) const;

  /// Settles the payment for a served retrieval at `price` (the quote, or
  /// the defense layer's surge repricing); fails (and records nothing) if
  /// the client cannot pay. The accounting is keyed by `seller` — the
  /// competing holder sector — while the tokens land in `payee`, the
  /// seller's owning account.
  util::Status settle_to(ClientId client, SectorId seller, AccountId payee,
                         ByteCount bytes, TokenAmount price);

  /// Lifetime accounting.
  [[nodiscard]] ByteCount bytes_served(SectorId seller) const {
    return seller < books_.size() ? books_[seller].served : 0;
  }
  [[nodiscard]] TokenAmount revenue(SectorId seller) const {
    return seller < books_.size() ? books_[seller].revenue : 0;
  }
  [[nodiscard]] std::uint64_t retrievals_settled() const { return settled_; }
  [[nodiscard]] ByteCount total_bytes_served() const { return total_bytes_; }
  [[nodiscard]] TokenAmount total_revenue() const { return total_revenue_; }

  /// Canonical snapshot encoding / restore (`src/snapshot`): the ask,
  /// served and revenue books as (sector, value) rows in ascending sector
  /// order, then the lifetime totals. `load_state` accepts only what
  /// `save_state` writes: strictly ascending sectors below `sector_count`,
  /// every ask `ask_of` its sector, and one key set for the served and
  /// revenue books. The ledger reference and the price are construction
  /// inputs, restored by the owner.
  void save_state(util::BinaryWriter& writer) const;
  void load_state(util::BinaryReader& reader, std::uint64_t sector_count);

 private:
  /// One sector's rows in the three books.
  struct SectorBook {
    /// In the ask book.
    bool posted = false;
    /// In the served and revenue books (has settled a retrieval).
    bool sold = false;
    ByteCount served = 0;
    TokenAmount revenue = 0;
  };

  // fi-lint: not-serialized(runtime wiring, re-supplied on construction)
  ledger::Ledger& ledger_;
  // fi-lint: not-serialized(construction input, rebuilt from the spec)
  TokenAmount price_per_kib_;
  /// Indexed by sector id, grown on demand.
  std::vector<SectorBook> books_;
  std::uint64_t settled_ = 0;
  ByteCount total_bytes_ = 0;
  TokenAmount total_revenue_ = 0;
};

}  // namespace fi::core
