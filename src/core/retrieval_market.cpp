#include "core/retrieval_market.h"

#include "util/checked.h"

namespace fi::core {

TokenAmount RetrievalMarket::quote(SectorId sector, ByteCount bytes) const {
  return util::checked_mul(ask_of(sector), (bytes + 1023) / 1024);
}

util::Status RetrievalMarket::settle_to(ClientId client, SectorId seller,
                                        AccountId payee, ByteCount bytes,
                                        TokenAmount price) {
  if (auto status = ledger_.transfer(client, payee, price); !status.is_ok()) {
    return status;
  }
  if (seller >= books_.size()) books_.resize(seller + 1);
  SectorBook& book = books_[seller];
  book.sold = true;
  book.served = util::checked_add(book.served, bytes);
  book.revenue = util::checked_add(book.revenue, price);
  ++settled_;
  total_bytes_ = util::checked_add(total_bytes_, bytes);
  total_revenue_ = util::checked_add(total_revenue_, price);
  return util::Status::ok();
}

namespace {

/// Writes one book: the rows (sector, `value(sector)`) of the sectors
/// `in_book` selects, in ascending sector order.
template <typename InBook, typename Value>
void save_book(util::BinaryWriter& writer, SectorId sectors, InBook in_book,
               Value value) {
  std::uint64_t rows = 0;
  for (SectorId sector = 0; sector < sectors; ++sector) {
    rows += in_book(sector) ? 1 : 0;
  }
  writer.u64(rows);
  for (SectorId sector = 0; sector < sectors; ++sector) {
    if (!in_book(sector)) continue;
    writer.u64(sector);
    writer.u64(value(sector));
  }
}

/// Reads one book `save_book` wrote, handing each row to `take`, and
/// returns its row count. Sectors must ascend strictly and stay below
/// `sector_count`, so no loaded key sizes more than the network holds.
template <typename Take>
std::uint64_t load_book(util::BinaryReader& reader, SectorId sector_count,
                        Take take) {
  const std::uint64_t rows = reader.count(16);
  SectorId next_min = 0;
  for (std::uint64_t i = 0; i < rows && reader.ok(); ++i) {
    const SectorId sector = reader.u64();
    const std::uint64_t value = reader.u64();
    if (sector < next_min || sector >= sector_count) {
      reader.fail();
      break;
    }
    next_min = sector + 1;
    take(sector, value);
  }
  return rows;
}

}  // namespace

void RetrievalMarket::save_state(util::BinaryWriter& writer) const {
  const SectorId sectors = books_.size();
  save_book(
      writer, sectors, [&](SectorId s) { return books_[s].posted; },
      [&](SectorId s) { return ask_of(s); });
  save_book(
      writer, sectors, [&](SectorId s) { return books_[s].sold; },
      [&](SectorId s) { return books_[s].served; });
  save_book(
      writer, sectors, [&](SectorId s) { return books_[s].sold; },
      [&](SectorId s) { return books_[s].revenue; });
  writer.u64(settled_);
  writer.u64(total_bytes_);
  writer.u64(total_revenue_);
}

void RetrievalMarket::load_state(util::BinaryReader& reader,
                                 std::uint64_t sector_count) {
  books_.clear();
  const auto book_of = [&](SectorId sector) -> SectorBook& {
    if (sector >= books_.size()) books_.resize(sector + 1);
    return books_[sector];
  };
  load_book(reader, sector_count, [&](SectorId sector, std::uint64_t ask) {
    if (ask != ask_of(sector)) reader.fail();
    book_of(sector).posted = true;
  });
  const std::uint64_t sold =
      load_book(reader, sector_count, [&](SectorId sector, std::uint64_t v) {
        SectorBook& book = book_of(sector);
        book.sold = true;
        book.served = v;
      });
  // Both books ascend strictly, so equal row counts plus every revenue
  // sector having a served row make their key sets equal.
  const std::uint64_t paid =
      load_book(reader, sector_count, [&](SectorId sector, std::uint64_t v) {
        SectorBook& book = book_of(sector);
        if (!book.sold) reader.fail();
        book.revenue = v;
      });
  if (paid != sold) reader.fail();
  settled_ = reader.u64();
  total_bytes_ = reader.u64();
  total_revenue_ = reader.u64();
}

}  // namespace fi::core
