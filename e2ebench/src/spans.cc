#include "spans.h"

#include <fstream>

namespace e2e {

namespace {

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

std::string Escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double SpanLog::Total(const std::string& name) const {
  double total = 0.0;
  for (const Record& r : records_) {
    if (r.name == name) total += r.seconds;
  }
  return total;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << Escaped(r.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << r.start_s * 1e6
        << ",\"dur\":" << r.seconds * 1e6 << ",\"args\":{\"detail\":\""
        << Escaped(r.detail) << "\",\"depth\":" << r.depth << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(SpanLog& log, std::string name, std::string detail)
    : log_(log), name_(std::move(name)), detail_(std::move(detail)) {
  ++log_.depth_;
  start_ = Clock::now();
}

double Span::End() {
  if (seconds_ >= 0.0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = Seconds(end - start_);
  --log_.depth_;
  if (log_.enabled_) {
    log_.records_.push_back({std::move(name_), std::move(detail_),
                             Seconds(start_ - log_.origin_), seconds_,
                             log_.depth_});
  }
  return seconds_;
}

}  // namespace e2e
