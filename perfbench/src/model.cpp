#include "model.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "serve/protocol.hpp"
#include "stats.hpp"

namespace perfbench {

using copift::engine::ResultRow;
using copift::kernels::KernelRun;
using copift::sim::ActivityCounters;
using copift::workload::Variant;

namespace {

std::string check_counters(const ActivityCounters& c, unsigned hart) {
  const auto int_slots = c.int_issue_cycles() + c.int_stall_cycles() + c.int_halt_cycles;
  const auto fp_slots = c.fpss_issue_cycles() + c.fpss_stall_cycles() + c.fpss_idle;
  const std::string where = " on hart " + std::to_string(hart);
  if (int_slots != c.cycles) {
    return "int issue+stall+halt " + std::to_string(int_slots) + " != cycles " +
           std::to_string(c.cycles) + where;
  }
  if (fp_slots != c.cycles) {
    return "fpss issue+stall+idle " + std::to_string(fp_slots) + " != cycles " +
           std::to_string(c.cycles) + where;
  }
  if (c.ipc() > 2.0) return "IPC " + std::to_string(c.ipc()) + " > 2" + where;
  return {};
}

}  // namespace

std::string check_run(const KernelRun& run) {
  if (!run.verified) return "outputs were not verified";
  if (run.hart_region.empty()) return check_counters(run.region, 0);
  for (unsigned h = 0; h < run.hart_region.size(); ++h) {
    if (auto why = check_counters(run.hart_region[h], h); !why.empty()) return why;
  }
  return {};
}

std::vector<std::pair<std::string, std::uint64_t>> stall_columns(const ResultRow& row) {
  const std::vector<ResultRow> one{row};
  const auto doc = copift::serve::Json::parse(copift::engine::ResultTable(one).json());
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : doc.as_array().at(0).at("stalls").as_object()) {
    out.emplace_back(name, value.as_u64());
  }
  return out;
}

void ModelTally::add(const ResultRow& row) {
  Point p;
  p.kernel = row.point.name();
  p.variant = static_cast<int>(row.point.variant);
  const auto& cfg = row.point.config;
  p.n = cfg.n;
  p.block = cfg.block;
  p.seed = cfg.seed;
  p.cores = cfg.cores;
  p.tile = cfg.tile;
  if (row.steady) {
    p.cycles_per_item = row.metrics.cycles_per_item;
    p.energy_per_item = row.metrics.energy_pj_per_item;
    p.ipc_per_hart = row.metrics.ipc / cfg.cores;
  } else {
    const auto items = static_cast<double>(row.point.workload->items(cfg));
    p.cycles_per_item = static_cast<double>(row.run.region.cycles) / items;
    p.energy_per_item = row.run.region_energy.total_pj / items;
    p.ipc_per_hart = row.run.region.ipc() / cfg.cores;
  }
  points_.push_back(std::move(p));

  const auto columns = stall_columns(row);
  if (stalls_.empty()) {
    for (const auto& [name, value] : columns) stalls_.emplace_back(name, 0);
  }
  for (std::size_t i = 0; i < columns.size() && i < stalls_.size(); ++i) {
    stalls_[i].second += columns[i].second;
  }
  const ActivityCounters& window = row.steady ? row.steady_region : row.run.region;
  slot_cycles_ += window.int_issue_cycles() + window.int_stall_cycles() + window.int_halt_cycles;
  const ActivityCounters& total = row.run.total;
  cycles_ += total.cycles;
  dma_busy_ += total.dma_busy_cycles;
  row_hits_ += total.dram_row_hits;
  row_misses_ += total.dram_row_misses;
}

std::vector<double> ModelTally::kernel_ratios(std::string_view kernel, bool energy) const {
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t>;
  const auto key = [](const Point& p) { return Key{p.n, p.block, p.seed, p.cores, p.tile}; };
  const int base = static_cast<int>(Variant::kBaseline);
  std::map<Key, const Point*> copift;
  for (const auto& p : points_) {
    if (p.kernel == kernel && p.variant != base) copift.emplace(key(p), &p);
  }
  std::vector<double> ratios;
  for (const auto& b : points_) {
    if (b.kernel != kernel || b.variant != base) continue;
    const auto it = copift.find(key(b));
    if (it == copift.end()) continue;
    const Point& c = *it->second;
    ratios.push_back(energy ? b.energy_per_item / c.energy_per_item
                            : b.cycles_per_item / c.cycles_per_item);
  }
  return ratios;
}

double ModelTally::speedup() const {
  std::vector<double> per_kernel;
  for (const auto k : kPaperKernels) {
    if (const auto r = kernel_ratios(k, false); !r.empty()) per_kernel.push_back(geomean(r));
  }
  return geomean(per_kernel);
}

double ModelTally::energy_gain() const {
  std::vector<double> per_kernel;
  for (const auto k : kPaperKernels) {
    if (const auto r = kernel_ratios(k, true); !r.empty()) per_kernel.push_back(geomean(r));
  }
  return geomean(per_kernel);
}

double ModelTally::ipc_peak() const {
  const int copift = static_cast<int>(Variant::kCopift);
  double peak = 0.0;
  for (const auto& p : points_) {
    const bool paper = std::find(std::begin(kPaperKernels), std::end(kPaperKernels), p.kernel) !=
                       std::end(kPaperKernels);
    if (paper && p.variant == copift) peak = std::max(peak, p.ipc_per_hart);
  }
  return peak;
}

void ModelTally::add_errors(Result& result) const {
  result.add("model.speedup_err_pct", error_pct(speedup(), kPaperSpeedup), "%");
  result.add("model.energy_err_pct", error_pct(energy_gain(), kPaperEnergyGain), "%");
  result.add("model.ipc_peak_err_pct", error_pct(ipc_peak(), kPaperIpcPeak), "%");
}

void ModelTally::add_layers(Result& result) const {
  for (const auto k : kPaperKernels) {
    const std::string kernel(k);
    for (const auto v : {Variant::kBaseline, Variant::kCopift}) {
      std::vector<double> ipcs;
      for (const auto& p : points_) {
        if (p.kernel == kernel && p.variant == static_cast<int>(v)) ipcs.push_back(p.ipc_per_hart);
      }
      double mean = 0.0;
      for (const double x : ipcs) mean += x / static_cast<double>(ipcs.size());
      result.add("model.ipc." + kernel + "." + copift::workload::variant_name(v), mean, "1");
    }
  }
  for (const auto k : kPaperKernels) {
    result.add("model.speedup." + std::string(k), geomean(kernel_ratios(k, false)), "x");
  }
  for (const auto k : kPaperKernels) {
    result.add("model.energy_gain." + std::string(k), geomean(kernel_ratios(k, true)), "x");
  }
  const auto share = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
  };
  for (const auto& [name, sum] : stalls_) {
    result.add("model.stall." + name + "_share", share(sum, slot_cycles_), "1");
  }
  result.add("mem.dma_busy_share", share(dma_busy_, cycles_), "1");
  result.add("mem.dram_row_hit_share", share(row_hits_, row_hits_ + row_misses_), "1");
}

}  // namespace perfbench
