#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ostream>

namespace perfbench {

namespace {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> open_spans;

}  // namespace

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

std::int64_t SpanLog::begin(const char* name, std::uint64_t op) {
  Record r;
  r.name = name;
  r.parent = open_spans.empty() ? -1 : open_spans.back();
  r.op = op;
  r.thread = thread_number();
  std::lock_guard lock(mutex_);
  r.start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           epoch_)
          .count());
  records_.push_back(r);
  const auto index = static_cast<std::int64_t>(records_.size() - 1);
  open_spans.push_back(index);
  return index;
}

void SpanLog::end(std::int64_t index) {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           epoch_)
          .count());
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  std::lock_guard lock(mutex_);
  records_[static_cast<std::size_t>(index)].end_ns = now;
}

std::vector<SpanLog::Record> SpanLog::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

std::map<std::string, SpanLog::Layer> SpanLog::layers() const {
  const auto recs = records();
  std::vector<double> child_ms(recs.size(), 0.0);
  for (const auto& r : recs) {
    if (r.parent >= 0) {
      const double ms = static_cast<double>(r.end_ns - r.start_ns) / 1e6;
      child_ms[static_cast<std::size_t>(r.parent)] += ms;
    }
  }
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const double total = static_cast<double>(recs[i].end_ns - recs[i].start_ns) / 1e6;
    Layer& layer = out[recs[i].name];
    ++layer.calls;
    layer.total_ms += total;
    layer.self_ms += total - child_ms[i];
  }
  return out;
}

double SpanLog::self_ms_per_call(const std::string& name) const {
  const auto all = layers();
  const auto it = all.find(name);
  if (it == all.end() || it->second.calls == 0) return 0.0;
  return it->second.self_ms / static_cast<double>(it->second.calls);
}

void SpanLog::write_chrome_trace(std::ostream& os) const {
  const auto recs = records();
  os << "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [\n";
  os << "    {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
        "\"args\":{\"name\":\"perfbench host\"}}";
  char buf[160];
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    // Complete events in microseconds, with the span tree kept in args.
    std::snprintf(buf, sizeof(buf), ",\n    {\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":%u,",
                  r.name, r.thread);
    os << buf;
    std::snprintf(buf, sizeof(buf),
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,\"op\":%llu}}",
                  static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3, i,
                  static_cast<long long>(r.parent), static_cast<unsigned long long>(r.op));
    os << buf;
  }
  os << "\n  ]\n}\n";
}

void SpanLog::write_table(std::ostream& os) const {
  const auto all = layers();
  std::vector<std::pair<std::string, Layer>> rows(all.begin(), all.end());
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second.self_ms > b.second.self_ms; });
  double self_sum = 0.0;
  for (const auto& [name, layer] : rows) self_sum += layer.self_ms;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-26s %9s %12s %12s %13s %7s\n", "span", "calls", "self ms",
                "total ms", "self ms/call", "self %");
  os << buf;
  for (const auto& [name, layer] : rows) {
    std::snprintf(buf, sizeof(buf), "%-26s %9llu %12.3f %12.3f %13.5f %6.1f%%\n", name.c_str(),
                  static_cast<unsigned long long>(layer.calls), layer.self_ms, layer.total_ms,
                  layer.self_ms / static_cast<double>(layer.calls),
                  self_sum > 0.0 ? 100.0 * layer.self_ms / self_sum : 0.0);
    os << buf;
  }
}

}  // namespace perfbench
