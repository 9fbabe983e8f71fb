#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

/// Span recorder for the benchmark's traced run.
///
/// Spans are recorded by the benchmark's own driver around each call it
/// makes into a `src/` layer (there is no tracing inside the program). A
/// span's time is charged to its call (inclusive) and, minus the time of
/// spans nested inside it, to its layer (self time). Driver time outside
/// every span is the `scenario` layer's self time, derived by the caller
/// as the traced wall total minus every other layer's self time.
namespace fi::bench {

enum class Layer : std::uint8_t { core, traffic, sim, adversary, snapshot };
inline constexpr std::size_t kLayerCount = 5;
inline constexpr const char* kLayerNames[kLayerCount] = {
    "core", "traffic", "sim", "adversary", "snapshot"};

enum class Call : std::uint8_t {
  core_file_add,
  core_file_confirm,
  core_file_discard,
  core_sector_register,
  core_advance_to,
  core_settle_all_rent,
  traffic_on_epoch,
  sim_send,
  sim_pop_due,
  adversary_on_epoch,
  adversary_apply,
  snapshot_state_hash,
  snapshot_save_to_file,
  snapshot_read_file,
  snapshot_resume,
};
inline constexpr std::size_t kCallCount = 15;

struct CallInfo {
  const char* name;  ///< metric prefix, e.g. "core.file_add"
  Layer layer;
};
inline constexpr CallInfo kCalls[kCallCount] = {
    {"core.file_add", Layer::core},
    {"core.file_confirm", Layer::core},
    {"core.file_discard", Layer::core},
    {"core.sector_register", Layer::core},
    {"core.advance_to", Layer::core},
    {"core.settle_all_rent", Layer::core},
    {"traffic.on_epoch", Layer::traffic},
    {"sim.send", Layer::sim},
    {"sim.pop_due", Layer::sim},
    {"adversary.on_epoch", Layer::adversary},
    {"adversary.apply", Layer::adversary},
    {"snapshot.state_hash", Layer::snapshot},
    {"snapshot.save_to_file", Layer::snapshot},
    {"snapshot.read_file", Layer::snapshot},
    {"snapshot.resume", Layer::snapshot},
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Runs `fn` inside a span for `call` and returns its result.
  template <typename Fn>
  decltype(auto) timed(Call call, Fn&& fn) {
    const Scope scope(*this, call);
    return fn();
  }

  [[nodiscard]] std::uint64_t calls(Call call) const {
    return calls_[index(call)];
  }
  [[nodiscard]] double seconds(Call call) const {
    return seconds_[index(call)];
  }
  [[nodiscard]] double self_seconds(Layer layer) const {
    return self_[static_cast<std::size_t>(layer)];
  }

 private:
  struct Frame {
    Clock::time_point start;
    double child_seconds = 0.0;
  };

  /// Opens a span on construction and closes it on destruction, so a call
  /// that throws still leaves the stack balanced.
  class Scope {
   public:
    Scope(Tracer& tracer, Call call) : tracer_(tracer), call_(call) {
      tracer_.stack_.push_back({Clock::now(), 0.0});
    }
    ~Scope() { tracer_.close(call_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    Call call_;
  };

  static std::size_t index(Call call) { return static_cast<std::size_t>(call); }

  void close(Call call) {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double span =
        std::chrono::duration<double>(Clock::now() - frame.start).count();
    ++calls_[index(call)];
    seconds_[index(call)] += span;
    self_[static_cast<std::size_t>(kCalls[index(call)].layer)] +=
        span - frame.child_seconds;
    if (!stack_.empty()) stack_.back().child_seconds += span;
  }

  std::vector<Frame> stack_;
  std::array<std::uint64_t, kCallCount> calls_{};
  std::array<double, kCallCount> seconds_{};
  std::array<double, kLayerCount> self_{};
};

}  // namespace fi::bench
