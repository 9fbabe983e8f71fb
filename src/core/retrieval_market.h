#pragma once

#include <cstdint>
#include <unordered_map>
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
/// Providers post asks (price per KiB served); the traffic engine
/// (`src/traffic`) resolves a File_Get's holder set to the cheapest
/// cooperative holder against this book, and payment settles directly
/// between the two accounts — off-chain from the DSN's point of view, on
/// our shared ledger for accounting.
namespace fi::core {

class RetrievalMarket {
 public:
  /// `default_price_per_kib` applies to providers who never posted an ask.
  RetrievalMarket(ledger::Ledger& ledger, TokenAmount default_price_per_kib)
      : ledger_(ledger), default_price_(default_price_per_kib) {}

  /// Posts or updates a provider's ask.
  void post_ask(ProviderId provider, TokenAmount price_per_kib) {
    asks_[provider] = price_per_kib;
  }

  [[nodiscard]] TokenAmount ask_of(ProviderId provider) const {
    const auto it = asks_.find(provider);
    return it == asks_.end() ? default_price_ : it->second;
  }

  /// Price quoted by `provider` for `bytes` of content.
  [[nodiscard]] TokenAmount quote(ProviderId provider, ByteCount bytes) const;

  /// Settles the payment for a served retrieval at `price` (the quote, or
  /// the defense layer's surge repricing); fails (and records nothing) if
  /// the client cannot pay. The accounting is keyed by `seller` — the
  /// competing holder, a sector in the scenario engine's per-sector QoS
  /// model — while the tokens land in `payee`, the seller's owning
  /// account.
  util::Status settle_to(ClientId client, ProviderId seller, AccountId payee,
                         ByteCount bytes, TokenAmount price);

  /// Lifetime accounting.
  [[nodiscard]] ByteCount bytes_served(ProviderId provider) const;
  [[nodiscard]] TokenAmount revenue(ProviderId provider) const;
  [[nodiscard]] std::uint64_t retrievals_settled() const { return settled_; }
  [[nodiscard]] ByteCount total_bytes_served() const { return total_bytes_; }
  [[nodiscard]] TokenAmount total_revenue() const { return total_revenue_; }

  /// Canonical snapshot encoding / restore (`src/snapshot`): the book of
  /// asks plus lifetime accounting. The ledger reference and default
  /// price are construction inputs, restored by the owner.
  void save_state(util::BinaryWriter& writer) const;
  void load_state(util::BinaryReader& reader);

 private:
  // fi-lint: not-serialized(runtime wiring, re-supplied on construction)
  ledger::Ledger& ledger_;
  // fi-lint: not-serialized(construction input, rebuilt from the spec)
  TokenAmount default_price_;
  std::unordered_map<ProviderId, TokenAmount> asks_;
  std::unordered_map<ProviderId, ByteCount> served_;
  std::unordered_map<ProviderId, TokenAmount> revenue_;
  std::uint64_t settled_ = 0;
  ByteCount total_bytes_ = 0;
  TokenAmount total_revenue_ = 0;
};

}  // namespace fi::core
