#include "bench.hpp"

#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <ostream>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "stats.hpp"

namespace perfbench {

void Result::fail(const std::string& op, const std::string& why) {
  ++failed;
  auto& [count, first] = failures_[op];
  if (count++ == 0) first = why;
}

void Result::write_failures(std::ostream& os) const {
  for (const auto& [op, entry] : failures_) {
    os << "failed: " << op << " x" << entry.first << ": " << entry.second << '\n';
  }
}

namespace {

/// Pin every thread of this process to `cpus`.
void pin_process(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) {
    sched_setaffinity(0, sizeof(set), &set);
    return;
  }
  while (const dirent* entry = readdir(tasks)) {
    const int tid = std::atoi(entry->d_name);
    // A thread that exits meanwhile fails the call; nothing to do then.
    if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
  }
  closedir(tasks);
}

/// Every `k`-element subset of `items`, in lexicographic order.
void subsets(const std::vector<int>& items, std::size_t k, std::size_t from,
             std::vector<int>& current, std::vector<std::vector<int>>& out) {
  if (current.size() == k) {
    out.push_back(current);
    return;
  }
  for (std::size_t i = from; i < items.size(); ++i) {
    current.push_back(items[i]);
    subsets(items, k, i + 1, current, out);
    current.pop_back();
  }
}

void add_latency(Result& result, const char* name, const std::vector<double>& ms, double p50) {
  const Tail t = tail(ms);
  result.add(std::string(name) + ".p50", p50, "ms");
  result.add(std::string(name) + ".p99", t.value, "ms");
  std::fprintf(stderr, "perfbench: %s: %zu samples, .p99 reports p%.2f\n", name, t.samples,
               t.percentile * 100.0);
}

}  // namespace

void add_host_metrics(Result& result, const Samples& s) {
  // Each window is scaled to the reference host speed by its calibration
  // rate: rates up when the host was slow, times down. A window without one
  // cannot be scaled and is left out rather than mixed in unscaled.
  std::vector<double> cycles, points, reqs, hit, miss, hit_window_p50;
  for (const Window& w : s.windows) {
    if (!(w.calibration > 0.0)) continue;
    const double speedup = kReferenceRate / w.calibration;
    const double scaled_s = w.seconds / speedup;
    cycles.push_back(w.cycles / scaled_s);
    points.push_back(w.points / scaled_s);
    reqs.push_back(w.requests / scaled_s);
    const double hit_speedup =
        w.hit_calibration > 0.0 ? kReferenceRate / w.hit_calibration : speedup;
    for (const double ms : w.hit_ms) hit.push_back(ms / hit_speedup);
    if (!w.hit_ms.empty()) hit_window_p50.push_back(median(w.hit_ms) / hit_speedup);
    for (const double ms : w.miss_ms) miss.push_back(ms / speedup);
  }
  result.add("sim_cycles_per_s", median(cycles), "cycles/s");
  result.add("points_per_s", median(points), "points/s");
  result.add("req_per_s", median(reqs), "1/s");
  // A window's hits all sit in one of two modes (on the tiled workload
  // about 28 and 48 us, by host phase, not by processor): the median of all
  // samples jumps between them as the share of slow windows crosses half,
  // while the mean of the windows' medians moves with that share.
  add_latency(result, "hit_latency_ms", hit, mean(hit_window_p50));
  add_latency(result, "miss_latency_ms", miss, median(miss));
  result.add("setup_s", median(s.setup_s), "s");
  std::fprintf(stderr, "perfbench: %zu windows, %zu set-up repetitions\n", s.windows.size(),
               s.setup_s.size());
}

CpuRotation::CpuRotation(unsigned width) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) all_.push_back(c);
  }
  if (width == 0 || width >= all_.size()) return;
  std::vector<int> current;
  subsets(all_, width, 0, current, sets_);
}

void CpuRotation::restore() {
  if (!sets_.empty()) pin_process(all_);
}

void CpuRotation::next() {
  if (sets_.empty()) return;
  pin_process(sets_[turn_++ % sets_.size()]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
