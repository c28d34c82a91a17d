// Self-tests of the benchmark's own arithmetic and checks:
//   python3 perfbench/run.py --selftest
// Exits 0 when every check holds, 1 otherwise.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/error.hpp"
#include "layers.hpp"
#include "model.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;
using copift::workload::Variant;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b, double tol = 1e-9) { return std::fabs(a - b) <= tol; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted
  return v;
}

void test_tail_rule() {
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5, "median of odd and even counts");
  const Tail few = tail(ramp(39));
  check(few.percentile == 0.5 && few.value == 20 && few.samples == 39,
        "under 40 samples the tail reports the median");
  const Tail forty = tail(ramp(40));
  check(near(forty.percentile, 0.75) && forty.value == 30, "40 samples: p75, ten beyond it");
  const Tail hundred = tail(ramp(100));
  check(near(hundred.percentile, 0.90) && hundred.value == 90, "100 samples: p90");
  const Tail thousand = tail(ramp(1000));
  check(near(thousand.percentile, 0.99) && thousand.value == 990, "1,000 samples: p99");
  const Tail many = tail(ramp(5000));
  check(near(many.percentile, 0.99) && many.value == 4950, "5,000 samples: still p99");
  bool always_ten = true;
  for (std::size_t n = 40; n <= 3000; ++n) {
    const Tail t = tail(ramp(n));
    const auto beyond = static_cast<std::size_t>(n - t.value);
    // At least ten beyond, and either p99 or exactly ten (the highest such).
    always_ten = always_ten && beyond >= 10 && (near(t.percentile, 0.99) || beyond == 10);
  }
  check(always_ten, "40..3000 samples: highest percentile with at least ten beyond it");
}

void test_formulas() {
  check(near(geomean({1.5, 1.2, 2.0}), 1.5326188647871062), "geomean(1.5, 1.2, 2.0)");
  check(geomean({}) == 0.0 && geomean({1.0, 0.0}) == 0.0, "geomean of nothing or a zero is 0");
  check(near(error_pct(1.50, kPaperSpeedup), 2.0408163265306145), "speedup 1.50x vs 1.47x");
  check(near(error_pct(1.42, kPaperEnergyGain), 3.6496350364963499), "energy 1.42x vs 1.37x");
  check(near(error_pct(1.645, kPaperIpcPeak), 6.0), "IPC 1.645 vs 1.75");
}

copift::engine::ResultRow steady_row(const char* kernel, Variant v, double cycles_per_item,
                                     double energy_per_item, double ipc) {
  copift::engine::ResultRow row;
  row.point.workload = copift::workload::WorkloadRegistry::instance().at(kernel);
  row.point.variant = v;
  row.steady = true;
  row.metrics.cycles_per_item = cycles_per_item;
  row.metrics.energy_pj_per_item = energy_per_item;
  row.metrics.ipc = ipc;
  return row;
}

void test_model_tally() {
  // exp: 20/10 = 2.0x faster, 30/20 = 1.5x less energy; log: 15/10 = 1.5x,
  // 24/20 = 1.2x. Geomeans: sqrt(3) and sqrt(1.8); peak COPIFT IPC 1.6.
  ModelTally tally;
  tally.add(steady_row("exp", Variant::kBaseline, 20, 30, 0.9));
  tally.add(steady_row("exp", Variant::kCopift, 10, 20, 1.6));
  tally.add(steady_row("log", Variant::kBaseline, 15, 24, 0.9));
  tally.add(steady_row("log", Variant::kCopift, 10, 20, 1.5));
  tally.add(steady_row("axpy", Variant::kCopift, 1, 1, 1.9));  // not a paper kernel
  check(near(tally.speedup(), std::sqrt(3.0)), "model speedup is the geomean over kernels");
  check(near(tally.energy_gain(), std::sqrt(1.8)), "model energy gain is the geomean");
  check(near(tally.ipc_peak(), 1.6), "peak IPC ignores non-paper kernels");
  Result r;
  tally.add_errors(r);
  check(r.metrics().size() == 3 && r.metrics()[0].name == "model.speedup_err_pct" &&
            near(r.metrics()[0].value, 17.82658554890321) &&
            near(r.metrics()[1].value, 2.0700155839508225) &&  // below the paper: |.|
            near(r.metrics()[2].value, 8.571428571428566),
        "error metrics against 1.47, 1.37 and 1.75");
}

copift::engine::GridPoint exp_point() {
  copift::engine::GridPoint point;
  point.workload = copift::workload::WorkloadRegistry::instance().at("exp");
  point.variant = Variant::kCopift;
  point.config.n = 256;
  point.config.block = 32;
  return point;
}

/// Run one exp/copift point through the traced run's layer calls, optionally
/// flipping one bit of one output element between the run and the check,
/// and count it the way the workloads count operations.
Result run_exp_point(bool corrupt) {
  const auto point = exp_point();
  Result result;
  ++result.attempted;
  try {
    const Prepared prepared = prepare(point, 0);
    const auto cluster = run_cluster(prepared, point.params, 0);
    if (corrupt) {
      const std::uint32_t addr = cluster->program().symbol("yarr") + 3 * 8;
      cluster->memory().store64(addr, cluster->memory().load64(addr) ^ 1U);
    }
    verify(prepared, *cluster, 0);
  } catch (const std::exception& e) {
    result.fail("exp/copift n=256", e.what());
  }
  return result;
}

void test_corrupted_output() {
  const Result clean = run_exp_point(false);
  check(clean.attempted == 1 && clean.failed == 0, "an intact output passes");
  const Result bad = run_exp_point(true);
  check(bad.attempted == 1 && bad.failed == 1 && bad.correct,
        "one corrupted output element is one failed operation, named on stderr");
  bad.write_failures(std::cerr);
}

void test_traced_split() {
  // The traced run's one-call-at-a-time path and kernels::run_kernel, which
  // the timed loops use, must simulate the same point identically.
  const auto point = exp_point();
  const Prepared prepared = prepare(point, 0);
  const auto run = simulate(prepared, point.params);
  check(check_run(run).empty() && trace_run(prepared, point.params, 0) == run.result.cycles,
        "traced layer calls and run_kernel agree on the cycle count");
}

}  // namespace

int main() {
  test_tail_rule();
  test_formulas();
  test_model_tally();
  test_corrupted_output();
  test_traced_split();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
