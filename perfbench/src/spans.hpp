// Host-time spans for the traced run.
//
// The benchmark wraps each call it makes into a layer's public function in a
// Span. With tracing off a Span is a branch on one flag; with tracing on it
// records (name, start, end, parent, operation id) in memory, and the whole
// set is written out once at exit as Chrome trace-event JSON (the format
// sim/trace_export.hpp writes, so host spans open in Perfetto next to a
// simulated-cycle trace). Per-layer numbers are self times: a span's
// duration minus the part of it its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  struct Record {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  // index into records(), -1 for a root span
    std::uint64_t op = 0;      // grid point or request id the span works for
    std::uint32_t thread = 0;
  };
  struct Layer {
    std::uint64_t calls = 0;
    double self_ms = 0.0;
    double total_ms = 0.0;
  };

  static SpanLog& instance();

  void enable() { enabled_ = true; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span on the calling thread; returns its index (or -1 when off).
  std::int64_t begin(const char* name, std::uint64_t op);
  void end(std::int64_t index);

  [[nodiscard]] std::vector<Record> records() const;
  /// Per-name call count, self time and total time.
  [[nodiscard]] std::map<std::string, Layer> layers() const;
  /// Self time per call of `name` in milliseconds; 0 when never called.
  [[nodiscard]] double self_ms_per_call(const std::string& name) const;

  void write_chrome_trace(std::ostream& os) const;
  /// Human-readable self-time table, one row per span name.
  void write_table(std::ostream& os) const;

 private:
  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(const char* name, std::uint64_t op)
      : index_(SpanLog::instance().enabled() ? SpanLog::instance().begin(name, op) : -1) {}
  ~Span() {
    if (index_ >= 0) SpanLog::instance().end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_;
};

}  // namespace perfbench
