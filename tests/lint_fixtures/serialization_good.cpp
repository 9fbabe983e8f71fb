// fi_lint fixture: clean serialization coverage — full round-trips,
// reasoned exemptions, and complete element-wise aggregate encoding.
// The self-test asserts fi_lint reports nothing here.
#include <cstdint>
#include <vector>

namespace util {
class BinaryWriter {
 public:
  void u64(std::uint64_t) {}
  void boolean(bool) {}
};
class BinaryReader {
 public:
  std::uint64_t u64() { return 0; }
  std::uint64_t count(std::uint64_t) { return 0; }
  bool boolean() { return false; }
};
}  // namespace util

namespace fixture {

struct Counters {
  std::uint64_t challenges = 0;
  std::uint64_t proofs = 0;
  std::uint64_t compensation = 0;
};

class FullyCovered {
 public:
  void save(util::BinaryWriter& writer) const {
    writer.u64(stored_);
    writer.boolean(flag_);
    writer.u64(counters_.challenges);
    writer.u64(counters_.proofs);
    writer.u64(counters_.compensation);
  }
  void load(util::BinaryReader& reader) {
    stored_ = reader.u64();
    flag_ = reader.boolean();
    counters_.challenges = reader.u64();
    counters_.proofs = reader.u64();
    counters_.compensation = reader.u64();
    cache_ = stored_ * 2;
  }

 private:
  std::uint64_t stored_ = 0;
  bool flag_ = false;
  Counters counters_;
  // fi-lint: not-serialized(derived: recomputed from stored_ on load)
  std::uint64_t cache_ = 0;
};

// A member encoded only by the class's component pair is covered: the
// component `save_rows`/`load_rows` sits elsewhere in the snapshot body.
class CoveredByComponent {
 public:
  void save(util::BinaryWriter& writer) const { writer.u64(count_); }
  void load(util::BinaryReader& reader) { count_ = reader.u64(); }
  void save_rows(util::BinaryWriter& writer) const { writer.u64(rows_); }
  void load_rows(util::BinaryReader& reader) { rows_ = reader.u64(); }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t rows_ = 0;
};

}  // namespace fixture
