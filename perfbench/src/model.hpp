// Checks on simulated runs and the modelled-hardware metrics drawn from
// result rows: the paper's speedup, energy gain and peak IPC with their
// errors against the published constants, per-kernel IPC, stall shares and
// memory-system shares.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "engine/experiment.hpp"

namespace perfbench {

/// The properties every simulated run must have, whatever the workload:
/// golden verification ran, and for each hart the integer core and the FPSS
/// each account every cycle of the region exactly once (issue + stall +
/// idle == cycles) with an IPC of at most 2. Returns an empty string when
/// all hold, else the first violation.
std::string check_run(const copift::kernels::KernelRun& run);

/// Stall columns of a row as ResultTable::json() names and computes them.
std::vector<std::pair<std::string, std::uint64_t>> stall_columns(
    const copift::engine::ResultRow& row);

class ModelTally {
 public:
  /// Fold one result row in. Steady rows contribute their marginal
  /// per-item figures, other rows their region figures per item.
  void add(const copift::engine::ResultRow& row);

  /// Geomean over paper kernels of baseline/COPIFT cycles per item, paired
  /// on (kernel, n, block, seed, cores, tile); 0 when no pair exists.
  [[nodiscard]] double speedup() const;
  [[nodiscard]] double energy_gain() const;
  /// Highest per-hart COPIFT IPC among the paper kernels' rows.
  [[nodiscard]] double ipc_peak() const;

  /// model.speedup_err_pct, model.energy_err_pct, model.ipc_peak_err_pct.
  void add_errors(Result& result) const;
  /// model.ipc.<kernel>.<variant>, model.speedup.<kernel>,
  /// model.energy_gain.<kernel>, model.stall.<column>_share and mem.*.
  void add_layers(Result& result) const;

 private:
  struct Point {
    std::string kernel;
    int variant = 0;
    std::uint32_t n = 0, block = 0, seed = 0, cores = 0, tile = 0;
    double cycles_per_item = 0.0;
    double energy_per_item = 0.0;
    double ipc_per_hart = 0.0;
  };
  [[nodiscard]] std::vector<double> kernel_ratios(std::string_view kernel, bool energy) const;

  std::vector<Point> points_;
  std::vector<std::pair<std::string, std::uint64_t>> stalls_;
  std::uint64_t slot_cycles_ = 0;  // hart-cycles of the stall windows
  std::uint64_t cycles_ = 0;
  std::uint64_t dma_busy_ = 0;
  std::uint64_t row_hits_ = 0;
  std::uint64_t row_misses_ = 0;
};

}  // namespace perfbench
