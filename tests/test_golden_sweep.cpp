// Golden differential test for the cycle loop.
//
// Runs every registry workload x variant x cores {1, and 4 where the variant
// is multi-hart capable} x tile {0, and 1024 where it is tiled-capable} x
// DRAM timing {off, on}, skipping the points Workload::validate rejects, and
// renders one CSV row per (point, scope) with every ActivityCounters field
// (the stall columns of the sweep tables included) and the energy breakdown.
// The CSV must match tests/golden/cycle_loop_sweep.csv byte for byte, so any
// change to simulated timing, stall attribution or energy fails here, not
// only a change in the few pinned cycle counts.
//
// When a change is meant to move the model, the test writes the CSV it
// produced to golden_cycle_loop_sweep.actual.csv in its working directory;
// review the difference and copy that file over the golden one.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "energy/energy.hpp"
#include "kernels/runner.hpp"
#include "sim/counters.hpp"
#include "sim/params.hpp"
#include "workload/workload.hpp"

#ifndef COPIFT_TESTS_DIR
#error "COPIFT_TESTS_DIR must name the tests/ source directory"
#endif

namespace copift {
namespace {

using sim::ActivityCounters;
using workload::Variant;

struct Field {
  const char* name;
  std::uint64_t ActivityCounters::* member;
};

#define COPIFT_FIELD(f) Field{#f, &ActivityCounters::f}
constexpr Field kFields[] = {
    COPIFT_FIELD(cycles),          COPIFT_FIELD(int_retired),       COPIFT_FIELD(fp_retired),
    COPIFT_FIELD(frep_replays),    COPIFT_FIELD(int_offloads),      COPIFT_FIELD(int_halt_cycles),
    COPIFT_FIELD(fpss_cfg_cycles), COPIFT_FIELD(int_alu),           COPIFT_FIELD(int_mul),
    COPIFT_FIELD(int_div),         COPIFT_FIELD(int_load),          COPIFT_FIELD(int_store),
    COPIFT_FIELD(branches),        COPIFT_FIELD(branches_taken),    COPIFT_FIELD(jumps),
    COPIFT_FIELD(csr_ops),         COPIFT_FIELD(dma_cmds),          COPIFT_FIELD(ssr_cfg),
    COPIFT_FIELD(frep_cfg),        COPIFT_FIELD(barriers),          COPIFT_FIELD(fp_add),
    COPIFT_FIELD(fp_mul),          COPIFT_FIELD(fp_fma),            COPIFT_FIELD(fp_divsqrt),
    COPIFT_FIELD(fp_cmp),          COPIFT_FIELD(fp_cvt),            COPIFT_FIELD(fp_move),
    COPIFT_FIELD(fp_minmax),       COPIFT_FIELD(fp_class),          COPIFT_FIELD(fp_load),
    COPIFT_FIELD(fp_store),        COPIFT_FIELD(tcdm_reads),        COPIFT_FIELD(tcdm_writes),
    COPIFT_FIELD(tcdm_conflicts),  COPIFT_FIELD(ssr_elements),      COPIFT_FIELD(issr_indices),
    COPIFT_FIELD(l0_hits),         COPIFT_FIELD(l0_refills),        COPIFT_FIELD(dma_busy_cycles),
    COPIFT_FIELD(dma_bytes),       COPIFT_FIELD(dram_row_hits),     COPIFT_FIELD(dram_row_misses),
    COPIFT_FIELD(stall_raw),       COPIFT_FIELD(stall_wb_port),     COPIFT_FIELD(stall_offload_full),
    COPIFT_FIELD(stall_icache),    COPIFT_FIELD(stall_tcdm),        COPIFT_FIELD(stall_barrier),
    COPIFT_FIELD(stall_hw_barrier), COPIFT_FIELD(stall_branch),     COPIFT_FIELD(stall_div_busy),
    COPIFT_FIELD(stall_mem_order), COPIFT_FIELD(stall_dma_wait),    COPIFT_FIELD(stall_dma_dram),
    COPIFT_FIELD(fpss_stall_ssr),  COPIFT_FIELD(fpss_stall_raw),    COPIFT_FIELD(fpss_stall_struct),
    COPIFT_FIELD(fpss_stall_tcdm), COPIFT_FIELD(fpss_idle),
};
#undef COPIFT_FIELD
// Every counter is a uint64_t; a new field must be added to the table above.
static_assert(sizeof(ActivityCounters) == std::size(kFields) * sizeof(std::uint64_t));

void write_double(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

void write_scope(std::ostream& os, const std::string& point, const char* scope,
                 const ActivityCounters& c, const energy::EnergyReport& e) {
  os << point << ',' << scope;
  for (const Field& f : kFields) os << ',' << c.*f.member;
  os << ',' << c.int_issue_cycles() << ',' << c.int_stall_cycles() << ','
     << c.fpss_issue_cycles() << ',' << c.fpss_stall_cycles();
  for (const double v : {e.total_pj, e.constant_pj, e.int_core_pj, e.fpss_pj, e.memory_pj,
                         e.icache_pj, e.dma_pj}) {
    os << ',';
    write_double(os, v);
  }
  os << ',' << e.cycles << '\n';
}

/// The grid's points for one workload/variant, in a fixed order.
std::vector<std::pair<workload::WorkloadConfig, bool>> points_of(const workload::Workload& w,
                                                                 Variant v) {
  std::vector<std::pair<workload::WorkloadConfig, bool>> out;
  std::vector<std::uint32_t> cores{1};
  if (w.multi_hart_capable(v)) cores.push_back(4);
  std::vector<std::uint32_t> tiles{0};
  if (w.tiled_capable(v)) tiles.push_back(1024);
  for (const std::uint32_t c : cores) {
    for (const std::uint32_t t : tiles) {
      for (const bool dram : {false, true}) {
        workload::WorkloadConfig cfg = w.default_config();
        cfg.cores = c;
        cfg.tile = t;
        if (t > 0) {
          // Four DRAM-resident tiles behind the double buffer, with a block
          // that divides the tile (as the tiled sweeps in CI use).
          cfg.n = 4 * t;
          cfg.block = 64;
        }
        out.emplace_back(cfg, dram);
      }
    }
  }
  return out;
}

std::string golden_sweep_csv() {
  std::ostringstream os;
  os << "kernel,variant,n,block,seed,cores,tile,dram,verified,exit_code,scope";
  for (const Field& f : kFields) os << ',' << f.name;
  os << ",int_issue_cycles,int_stall_cycles,fpss_issue_cycles,fpss_stall_cycles"
        ",total_pj,constant_pj,int_core_pj,fpss_pj,memory_pj,icache_pj,dma_pj,energy_cycles\n";
  const energy::EnergyModel model;
  auto& registry = workload::WorkloadRegistry::instance();
  for (const std::string& name : registry.names()) {
    const auto w = registry.at(name);
    for (const Variant v : w->variants()) {
      for (const auto& [cfg, dram] : points_of(*w, v)) {
        try {
          w->validate(v, cfg);
        } catch (const workload::ConfigError&) {
          continue;
        }
        sim::SimParams params;
        params.num_cores = cfg.cores;
        params.dram_enabled = dram;
        const kernels::KernelRun run =
            kernels::run_kernel(w->instantiate(v, cfg), params, /*verify=*/true);
        std::ostringstream point;
        point << name << ',' << workload::variant_name(v) << ',' << cfg.n << ',' << cfg.block
              << ',' << cfg.seed << ',' << cfg.cores << ',' << cfg.tile << ',' << (dram ? 1 : 0)
              << ',' << (run.verified ? 1 : 0) << ',' << run.result.exit_code;
        write_scope(os, point.str(), "total", run.total, model.evaluate(run.total));
        write_scope(os, point.str(), "region", run.region, run.region_energy);
        for (std::size_t h = 0; h < run.hart_region.size(); ++h) {
          const std::string scope = "hart" + std::to_string(h);
          write_scope(os, point.str(), scope.c_str(), run.hart_region[h], run.hart_energy[h]);
        }
      }
    }
  }
  return os.str();
}

TEST(GoldenSweep, CycleLoopIsByteIdenticalToGolden) {
  const std::string golden_path = std::string(COPIFT_TESTS_DIR) + "/golden/cycle_loop_sweep.csv";
  std::ifstream in(golden_path, std::ios::binary);
  std::string golden;
  if (in) {
    std::stringstream ss;
    ss << in.rdbuf();
    golden = ss.str();
  }
  const std::string actual = golden_sweep_csv();
  if (actual == golden) return;

  const char* actual_path = "golden_cycle_loop_sweep.actual.csv";
  std::ofstream(actual_path, std::ios::binary) << actual;
  ASSERT_TRUE(in.is_open()) << "cannot read " << golden_path << "; the sweep was written to "
                            << actual_path;
  std::istringstream a(actual);
  std::istringstream g(golden);
  std::string la;
  std::string lg;
  for (unsigned line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_g = static_cast<bool>(std::getline(g, lg));
    if (!more_a && !more_g) break;
    ASSERT_EQ(la, lg) << "first difference at line " << line << " of " << golden_path
                      << "; the full sweep was written to " << actual_path;
  }
  FAIL() << "sweep differs from " << golden_path << " in its line endings";
}

}  // namespace
}  // namespace copift
