// Reproduces paper Table I: characteristics of the evaluated kernels.
//
// Static integer/FP instruction counts come from the generated steady-state
// loop bodies (normalized per baseline unroll group: 4 elements for exp/log,
// 8 samples for the Monte Carlo kernels); the load/store deltas compare the
// COPIFT body with the baseline; buffer counts and maximum block sizes
// reflect the kernels' actual TCDM arenas; I', S'' and S' are the paper's
// analytical estimates (Eq. 1-3). The marginal counters come straight from
// one steady-mode engine experiment (12 grid points, run in parallel).
#include <cstdio>

#include "bench_util.hpp"
#include "core/model.hpp"

namespace {

using namespace copift;
using core::InstrMix;
using workload::Variant;

struct BodyCounts {
  InstrMix mix;
  unsigned int_ldst = 0;
  unsigned fp_ldst = 0;
};

/// Dynamic per-unroll-group instruction counts from a steady-state row
/// (marginal between two problem sizes, so prologue/setup cancel out).
BodyCounts body_counts(const engine::ResultRow& row, std::string_view name, std::uint32_t n1,
                       std::uint32_t n2) {
  const double group = kernels::is_transcendental(name) ? 4.0 : 8.0;
  const double groups = (n2 - n1) / group;
  const auto& delta = row.steady_region;
  BodyCounts out;
  const auto per_group = [groups](std::uint64_t d) {
    return static_cast<std::uint64_t>(d / groups + 0.5);
  };
  out.mix.n_int = per_group(delta.int_retired);
  out.mix.n_fp = per_group(delta.fp_retired);
  out.int_ldst = static_cast<unsigned>(per_group(delta.int_load + delta.int_store));
  out.fp_ldst = static_cast<unsigned>(per_group(delta.fp_load + delta.fp_store));
  return out;
}

/// TCDM bytes per element of block buffering in the COPIFT variants
/// (from the kernels' arena layouts) and buffer/replica counts.
struct BufferInfo {
  unsigned logical_buffers;   // distinct spill buffers (paper "#Buff." step 4)
  unsigned replicas_total;    // buffers after multi-buffering (steps 5-6)
  unsigned bytes_per_element; // arena + in/out bytes per element
};

BufferInfo buffer_info(std::string_view name) {
  if (name == "exp") {
    // arena: [ki | w | t] x 3 slots (8 B each) + x,y blocks resident.
    return {3, 9, 3 * 3 * 8 + 16};
  }
  if (name == "log") {
    // izk cells (16 B/elem) + idx (8 B/elem), double-buffered; x,y blocks.
    return {2, 4, 2 * (16 + 8) + 12};
  }
  // MC: raw (x, y) pair cells, double-buffered; no in/out arrays.
  return {1, 2, 2 * 16};
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::uint32_t kBlock = 96;
  constexpr std::uint32_t kN1 = 10 * kBlock;
  constexpr std::uint32_t kN2 = 20 * kBlock;

  try {
  copift::engine::SimEngine pool(copift::bench::parse_threads(argc, argv));
  copift::bench::SteadyConfig sc{kN1, kN2, kBlock,
                                 copift::bench::parse_cores(argc, argv)};
  const auto table = copift::bench::steady_table(pool, sc);

  for (const std::uint32_t cores : sc.cores) {
    if (sc.cores.size() > 1) std::printf("=== cores=%u ===\n", cores);
    // The paper reports counts per baseline unroll group. The marginal
    // counters aggregate every hart, so the per-group numbers stay put as
    // the work spreads across the cluster (and drifts flag imbalance).
    std::printf("Table I: characteristics of the evaluated kernels (paper Table I)\n");
    std::printf("Counts per unroll group (exp/log: 4 elements, MC: 8 samples)\n\n");
    std::printf(
        "%-18s | %5s %5s %5s | %7s %6s | %7s %6s | %6s | %5s %5s | %5s %5s %5s\n",
        "Kernel", "#Int", "#FP", "TI", "IntL/S", "#Buff", "FPL/S", "#Repl", "MaxBlk",
        "c#Int", "c#FP", "I'", "S''", "S'");
    for (const auto name : copift::bench::kPaperOrder) {
      const auto base = body_counts(
          copift::bench::row_of(table, name, Variant::kBaseline, cores), name, kN1, kN2);
      const auto cop = body_counts(
          copift::bench::row_of(table, name, Variant::kCopift, cores), name, kN1, kN2);
      core::SpeedupModel model;
      model.base = base.mix;
      model.copift = cop.mix;
      const BufferInfo buf = buffer_info(name);
      const std::uint64_t max_block = (96 * 1024ull) / buf.bytes_per_element / cores;
      std::printf(
          "%-18s | %5llu %5llu %5.2f | %+7d %6u | %+7d %6u | %6llu | %5llu %5llu |"
          " %5.2f %5.2f %5.2f\n",
          std::string(name).c_str(), (unsigned long long)base.mix.n_int,
          (unsigned long long)base.mix.n_fp, base.mix.thread_imbalance(),
          static_cast<int>(cop.int_ldst) - static_cast<int>(base.int_ldst),
          buf.logical_buffers,
          static_cast<int>(cop.fp_ldst) - static_cast<int>(base.fp_ldst),
          buf.replicas_total, (unsigned long long)max_block,
          (unsigned long long)cop.mix.n_int, (unsigned long long)cop.mix.n_fp,
          model.i_prime(), model.s_double_prime(), model.s_prime());
    }
    std::printf(
        "\nPaper Table I reference rows: expf 43/52 TI 0.83 ... pi_xoshiro128p 172/56 "
        "TI 0.33.\n");
    if (sc.cores.size() > 1) std::printf("\n");
  }
  return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
