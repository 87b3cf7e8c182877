// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only in the benchmark's own code, around its calls
// into the library's public functions.  A span name is "<layer>.<call>"
// where <layer> is a src/ module (tensor, formats, core, kernels, linalg,
// cpd, serve, net); the part before the first dot is the layer that self
// time is charged to.  Each span has a start, an end, a parent (the span
// open on the same thread when it began, or one given explicitly) and a
// request id shared by every span of one request.  Spans stay in memory
// and are written out once, when the run ends.  A disabled tracer records
// nothing and reads no clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread; nests under the thread's open span.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  // null when tracing is off
    const char* name_;
    std::uint64_t request_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_;
  };

  /// `name` must be a string literal (it is stored by pointer).
  Scope scope(const char* name, std::uint64_t request = 0) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }

  /// Records an interval timed elsewhere (a request observed from
  /// another thread).  Returns its span id (0 when disabled) so derived
  /// child spans can name it as their parent.
  std::uint64_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t request,
                       std::uint64_t parent = 0);

  struct Stat {
    std::size_t count = 0;
    double total_ms = 0.0;
    double mean_ms() const {
      return count == 0 ? 0.0 : total_ms / static_cast<double>(count);
    }
  };
  /// Count and summed duration of every span called `name`.
  Stat stat(const std::string& name) const;
  /// Self time per layer in ms: each span's duration minus the part its
  /// child spans cover, summed by layer.
  std::map<std::string, double> self_ms_by_layer() const;
  std::size_t span_count() const;
  /// One JSON object per line: name, layer, start_us, end_us, id, parent,
  /// request.  Times are relative to the first recorded span.
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::uint64_t next_id();
  void push(const Span& span);

  const bool enabled_;
  mutable std::mutex mutex_;
  std::uint64_t last_id_ = 0;  // guarded by mutex_
  std::vector<Span> spans_;    // guarded by mutex_
};

}  // namespace perfbench
