// fi_lint fixture: serialization-coverage violations. Every marker below
// is listed in expected_findings.txt; the self-test asserts an exact match.
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

// A field written but never restored: load drops `dropped_on_load`.
class DropsFieldOnLoad {
 public:
  void save(util::BinaryWriter& writer) const {
    writer.u64(kept_);
    writer.u64(dropped_on_load_);
  }
  void load(util::BinaryReader& reader) {
    kept_ = reader.u64();
    reader.u64();  // value discarded: restore forgotten
  }

 private:
  std::uint64_t kept_ = 0;
  std::uint64_t dropped_on_load_ = 0;  // MARKER missing-in-load
};

// A field never serialized at all and not annotated.
class ForgetsField {
 public:
  void save_state(util::BinaryWriter& writer) const { writer.u64(stored_); }
  void load_state(util::BinaryReader& reader) { stored_ = reader.u64(); }

 private:
  std::uint64_t stored_ = 0;
  bool forgotten_ = false;  // MARKER missing-in-save missing-in-load
};

// An annotation without a reason is itself a finding.
class EmptyReason {
 public:
  void save(util::BinaryWriter& writer) const { writer.u64(a_); }
  void load(util::BinaryReader& reader) { a_ = reader.u64(); }

 private:
  std::uint64_t a_ = 0;
  // fi-lint: not-serialized()
  std::uint64_t unexplained_ = 0;  // exempted, but reason is empty
};

// Element-wise aggregate encoding that skips one field (the PR 5
// compensation_paid drift class).
struct Counters {
  std::uint64_t challenges = 0;
  std::uint64_t proofs = 0;
  std::uint64_t compensation = 0;  // MARKER aggregate-missing
};

class AggregateDrift {
 public:
  void save(util::BinaryWriter& writer) const {
    writer.u64(counters_.challenges);
    writer.u64(counters_.proofs);  // MARKER aggregate-site
    // counters_.compensation never written
  }
  void load(util::BinaryReader& reader) {
    counters_.challenges = reader.u64();
    counters_.proofs = reader.u64();  // MARKER aggregate-site-load
    // counters_.compensation never restored
  }

 private:
  Counters counters_;
};

// Attributes and alignas() between the class key and the name. Two
// [[nodiscard]] classes, so a model that names them both `nodiscard`
// cannot resolve either one and misses the dropped field.
class [[nodiscard]] AttributedDropsField {
 public:
  void save(util::BinaryWriter& writer) const { writer.u64(kept_); }
  void load(util::BinaryReader& reader) { kept_ = reader.u64(); }

 private:
  std::uint64_t kept_ = 0;
  std::uint64_t skipped_ = 0;  // MARKER missing-in-save missing-in-load
};

class [[nodiscard]] AttributedClean {
 public:
  void save(util::BinaryWriter& writer) const { writer.u64(value_); }
  void load(util::BinaryReader& reader) { value_ = reader.u64(); }

 private:
  std::uint64_t value_ = 0;
};

// A nested alignas(64) struct encoded field by field, one field skipped.
class AlignedScanDrift {
 public:
  void save(util::BinaryWriter& writer) const {
    writer.u64(scan_.hits);  // MARKER aggregate-site
    writer.u64(scan_.misses);
  }
  void load(util::BinaryReader& reader) {
    scan_.hits = reader.u64();  // MARKER aggregate-site-load
    scan_.misses = reader.u64();
  }

 private:
  struct alignas(64) Scan {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t late = 0;  // MARKER aggregate-missing
  };
  Scan scan_;
};

// A component pair (`save_rows`/`load_rows` beside `save`/`load`) counts
// toward the class's coverage, but `load_rows` forgets `rows_`.
class ComponentDropsField {
 public:
  void save(util::BinaryWriter& writer) const { writer.u64(count_); }
  void load(util::BinaryReader& reader) { count_ = reader.u64(); }
  void save_rows(util::BinaryWriter& writer) const { writer.u64(rows_); }
  void load_rows(util::BinaryReader& reader) { (void)reader.u64(); }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t rows_ = 0;  // MARKER component-missing-in-load
};

}  // namespace fixture
