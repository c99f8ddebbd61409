// The benchmark's own spans: one per call into a layer, timed with
// steady_clock around public functions of the program, kept in memory and
// written out as a Chrome trace when the run ends. Timing goes through
// Span whether or not the log records, so traced and untraced runs measure
// the same intervals.

#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Sum of the durations of every recorded span called `name`.
  double Total(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events, microseconds since the log
  /// started), loadable in chrome://tracing or Perfetto.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  friend class Span;
  struct Record {
    std::string name;
    std::string detail;
    double start_s;
    double seconds;
    int depth;
  };
  bool enabled_;
  Clock::time_point origin_;
  int depth_ = 0;
  std::vector<Record> records_;
};

/// Times the enclosing scope (or until End()); records it when the log is
/// enabled. Spans nest by scope on the one benchmark thread.
class Span {
 public:
  Span(SpanLog& log, std::string name, std::string detail = "");
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Stops the clock (once) and returns the span's seconds.
  double End();

 private:
  SpanLog& log_;
  std::string name_;
  std::string detail_;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

}  // namespace e2e
