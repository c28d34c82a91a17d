// Activity-based energy/power model.
//
// Substitution for the paper's post-layout PrimeTime power flow (GF12LP+,
// 1 GHz, 0.8 V, 25 C). Total energy is a constant per-cycle term (clock tree,
// leakage, idle logic — the paper notes power is "dominated by constant
// components") plus per-event energies for every counted activity. Power in
// mW falls out directly because 1 cycle == 1 ns: P[mW] = E[pJ] / cycles.
//
// The per-event energies in EnergyParams are calibrated so that the six
// baseline kernels land in the paper's 37-42 mW band and the COPIFT variants
// show the paper's <= 1.17x power increase; tools/calib.cpp dumps the
// per-kernel activity rates the fit uses.
#pragma once

#include <span>
#include <vector>

#include "sim/counters.hpp"

namespace copift::energy {

/// Per-event energies in picojoules, plus constant per-cycle power.
struct EnergyParams {
  // Constant components (pJ per cycle == mW): clock network, leakage,
  // always-on control. Split so configurations without a DMA could drop it.
  // `base` covers the cluster infrastructure plus the first core complex;
  // each additional complex of a multi-hart topology adds `complex` (its
  // clock leaves, register files and sequencer are clocked even when idle).
  double base_pj_per_cycle = 30.0;
  double complex_pj_per_cycle = 6.0;
  double dma_idle_pj_per_cycle = 2.0;

  // Integer core events.
  double int_issue_pj = 1.1;    // any issued integer instruction (fetch+decode+RF)
  double int_alu_pj = 0.6;
  double int_mul_pj = 1.8;
  double int_div_pj_per_cycle = 0.9;  // iterative divider activity
  double branch_pj = 0.5;

  // FPSS events (64-bit datapath).
  double fp_issue_pj = 1.0;     // sequencer/offload handling per FP issue
  double fp_add_pj = 3.4;
  double fp_mul_pj = 4.6;
  double fp_fma_pj = 6.8;
  double fp_divsqrt_pj = 18.0;
  double fp_cmp_pj = 1.2;
  double fp_cvt_pj = 2.2;
  double fp_move_pj = 0.8;

  // Memory events.
  double tcdm_access_pj = 7.0;  // one 64-bit bank access
  double l0_hit_pj = 0.4;
  double l0_refill_pj = 28.0;   // one line (8 instrs) from L1 I$ + L0 fill
  double ssr_element_pj = 0.7;  // address generation + FIFO movement
  double dma_active_pj_per_cycle = 6.5;
  double dma_byte_pj = 0.25;

  // Offload FIFO push (core -> FPSS handshake).
  double offload_pj = 0.4;
};

/// Energy/power report for a counters delta.
struct EnergyReport {
  double total_pj = 0.0;
  double constant_pj = 0.0;
  double int_core_pj = 0.0;
  double fpss_pj = 0.0;
  double memory_pj = 0.0;
  double icache_pj = 0.0;
  double dma_pj = 0.0;
  std::uint64_t cycles = 0;

  /// Average power in mW at 1 GHz (1 cycle = 1 ns).
  [[nodiscard]] double power_mw() const noexcept {
    return cycles == 0 ? 0.0 : total_pj / static_cast<double>(cycles);
  }
  /// Energy in nanojoules.
  [[nodiscard]] double energy_nj() const noexcept { return total_pj / 1000.0; }
};

class EnergyModel {
 public:
  explicit EnergyModel(EnergyParams params = {}) : params_(params) {}

  /// Compute the energy for a span of execution described by a counters
  /// delta (use ActivityCounters::minus for regions). The delta is treated
  /// as a whole single-complex cluster: the constant terms are charged once.
  [[nodiscard]] EnergyReport evaluate(const sim::ActivityCounters& delta) const;

  /// Per-complex attribution for a multi-hart cluster: element h of the
  /// input is hart h's counters delta, element h of the output its energy.
  /// Hart 0 carries the cluster-constant terms (base + DMA idle, plus the
  /// shared DMA's activity, which the cluster attributes to hart 0); every
  /// other hart carries its complex-constant term plus its own events.
  [[nodiscard]] std::vector<EnergyReport> evaluate_harts(
      std::span<const sim::ActivityCounters> per_hart) const;

  [[nodiscard]] const EnergyParams& params() const noexcept { return params_; }

 private:
  [[nodiscard]] EnergyReport evaluate_events(const sim::ActivityCounters& delta,
                                             double constant_pj_per_cycle) const;

  EnergyParams params_;
};

/// Component-wise sum of per-hart reports into one cluster report. `cycles`
/// takes the max (the harts share the cluster clock).
[[nodiscard]] EnergyReport sum_reports(std::span<const EnergyReport> reports);

}  // namespace copift::energy
