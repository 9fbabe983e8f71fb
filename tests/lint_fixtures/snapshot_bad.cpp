// fi_lint fixture: snapshot-hygiene violations — unvalidated wire counts
// sizing allocations, and a writer/reader sequence that diverges.
#include <cstdint>
#include <vector>

namespace util {
class BinaryWriter {
 public:
  void u32(std::uint32_t) {}
  void u64(std::uint64_t) {}
  void str(const char*) {}
};
class BinaryReader {
 public:
  std::uint32_t u32() { return 0; }
  std::uint64_t u64() { return 0; }
  std::uint64_t count(std::uint64_t) { return 0; }
  const char* str() { return ""; }
  std::uint64_t remaining() const { return 0; }
};
}  // namespace util

namespace fixture {

// A raw u64 straight off the wire sizes a reserve: hostile input can
// request a multi-terabyte allocation before any content check runs.
inline std::vector<std::uint64_t> load_rows(util::BinaryReader& reader) {
  std::vector<std::uint64_t> rows;
  const std::uint64_t n = reader.u64();  // unvalidated
  rows.reserve(n);  // unchecked-count
  for (std::uint64_t i = 0; i < n; ++i) rows.push_back(reader.u64());
  return rows;
}

// Same hole, inline form.
inline void load_inline(util::BinaryReader& reader,
                        std::vector<std::uint64_t>& out) {
  out.resize(reader.u64());  // unchecked-count (inline)
}

// Mirror-symmetry break: save writes u32 tag then u64 payload, load
// consumes them in the opposite order.
class SwappedOrder {
 public:
  void save(util::BinaryWriter& writer) const {
    writer.u32(tag_);
    writer.u64(payload_);  // rw-mismatch vs load order
  }
  void load(util::BinaryReader& reader) {
    payload_ = reader.u64();  // reads payload where save wrote the tag
    tag_ = reader.u32();
  }

 private:
  std::uint32_t tag_ = 0;
  std::uint64_t payload_ = 0;
};

// The same break inside a component pair, which must mirror on its own.
class ComponentSwappedOrder {
 public:
  void save(util::BinaryWriter& writer) const { writer.u64(payload_); }
  void load(util::BinaryReader& reader) { payload_ = reader.u64(); }
  void save_tags(util::BinaryWriter& writer) const {
    writer.u32(tag_);  // rw-mismatch vs load_tags order
    writer.u64(payload_);
  }
  void load_tags(util::BinaryReader& reader) {
    payload_ = reader.u64();
    tag_ = reader.u32();
  }

 private:
  std::uint32_t tag_ = 0;
  std::uint64_t payload_ = 0;
};

}  // namespace fixture
