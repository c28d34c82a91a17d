// Shared vocabulary of the benchmark: options, the result every workload
// fills in, and the helpers that turn samples into metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "calib.hpp"
#include "engine/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// The six paper kernels in Fig. 2 order.
inline constexpr std::string_view kPaperKernels[] = {
    "pi_xoshiro128p", "poly_xoshiro128p", "pi_lcg", "poly_lcg", "log", "exp",
};

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace-event JSON written at exit (traced runs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operations attempted and failed (by name), whether
/// the outputs of the operations that did not fail were correct, and metrics.
class Result {
 public:
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count one failed operation under `op`, keeping the first message.
  void fail(const std::string& op, const std::string& why);
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  void write_failures(std::ostream& os) const;

 private:
  std::map<std::string, std::pair<std::uint64_t, std::string>> failures_;
  std::vector<Metric> metrics_;
};

/// A stretch of the run the host-time metrics are estimated from: one timed
/// pass (engine workloads) or one batch of rounds (serve).
struct Window {
  double calibration = 0.0;      // calibration_rate() the window is scaled by; 0 = none
  double hit_calibration = 0.0;  // taken just before the hits; scales hit_ms when set
  double seconds = 0.0;
  double cycles = 0.0;    // simulated cycles finished in it
  double points = 0.0;    // grid points answered in it
  double requests = 0.0;  // requests answered in it
  std::vector<double> hit_ms;   // latency of requests answered from cache
  std::vector<double> miss_ms;  // latency of requests that simulated
};

struct Samples {
  std::vector<double> setup_s;  // one per set-up repetition
  std::vector<Window> windows;
};

/// Moves the whole process over the host's processors, one window at a
/// time. On the host this benchmark was built on, each processor has its own
/// slow phases of seconds, uncorrelated with the others' (measured
/// correlation about 0), that slow the simulator by up to half. A workload
/// that keeps `width` threads busy visits every set of `width` processors in
/// turn, so a run's windows sample every processor's phases instead of one
/// processor's. With width >= the processor count it does nothing.
class CpuRotation {
 public:
  explicit CpuRotation(unsigned width);
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Move every thread of this process to the next set of processors.
  void next();
  /// Give every thread back the processors the process started with.
  void restore();

 private:
  std::vector<std::vector<int>> sets_;
  std::vector<int> all_;
  std::size_t turn_ = 0;
};

/// Set-up repetitions per run: setup_s is their median.
inline constexpr unsigned kSetupRepeats = 21;

/// Run `setup` kSetupRepeats times, each on the next processors of `cpus`,
/// recording each duration, scaled to the reference host speed
/// (calib.hpp), in `samples.setup_s`; returns the last result.
template <class F>
auto repeated_setup(Samples& samples, CpuRotation& cpus, F setup) {
  decltype(setup()) out;
  for (unsigned k = 0; k < kSetupRepeats; ++k) {
    cpus.next();
    const double scale = calibration_rate() / kReferenceRate;
    const auto t0 = Clock::now();
    out = setup();
    samples.setup_s.push_back(seconds_since(t0) * scale);
  }
  return out;
}

/// Every end-to-end metric except the model errors and peak RSS.
void add_host_metrics(Result& result, const Samples& samples);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// The four workloads.
Result run_paper_fig2(const Options& opt);
Result run_sweep_small(const Options& opt);
Result run_tiled_dram_4hart(const Options& opt);
Result run_serve_mixed(const Options& opt);

/// A derived 32-bit seed that is never 0 (some PRNG kernels need a nonzero
/// state): stream `k` of the run seed.
std::uint32_t derive_seed(std::uint32_t seed, std::uint32_t k);

/// Engine threads for the parallel workloads: at most the host's processors.
unsigned engine_threads();

}  // namespace perfbench
