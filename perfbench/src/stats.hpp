// The benchmark's own arithmetic: summary statistics of timing samples and
// the accuracy formulas against the paper's published constants. Header-only
// so the self-tests exercise exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// The paper's published headline numbers (Fig. 2 and Sec. V).
inline constexpr double kPaperSpeedup = 1.47;
inline constexpr double kPaperEnergyGain = 1.37;
inline constexpr double kPaperIpcPeak = 1.75;

/// Median (mean of the two middle samples for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Arithmetic mean; 0 when empty.
inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// A tail estimate and the percentile it actually reports.
struct Tail {
  double value = 0.0;
  double percentile = 0.5;  // 0.5 = the median was reported
  std::size_t samples = 0;
};

/// The tail rule: below 40 samples a percentile would be no tail, so the
/// median is reported. Otherwise the highest nearest-rank percentile, at
/// most `target`, that leaves at least ten samples beyond it: p99 from 1,000
/// samples up, p = (n - 10) / n below that.
inline Tail tail(std::vector<double> v, double target = 0.99) {
  Tail t;
  t.samples = v.size();
  if (v.size() < 40) {
    t.value = median(std::move(v));
    return t;
  }
  const double n = static_cast<double>(v.size());
  t.percentile = std::min(target, (n - 10.0) / n);
  // Nearest rank: the smallest sample with at least p of the samples at or
  // below it. The epsilon keeps p * n = 990.0000000001 from rounding up.
  const auto rank = static_cast<std::size_t>(std::ceil(t.percentile * n - 1e-9));
  std::sort(v.begin(), v.end());
  t.value = v[rank - 1];
  return t;
}

/// Geometric mean; 0 when empty or when a value is not positive.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// |measured - reference| / reference, in percent.
inline double error_pct(double measured, double reference) {
  return std::fabs(measured - reference) / reference * 100.0;
}

}  // namespace perfbench
