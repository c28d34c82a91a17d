#include "sim/cluster.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/error.hpp"

namespace copift::sim {

namespace {
std::shared_ptr<const rvasm::Program> require(std::shared_ptr<const rvasm::Program> p) {
  if (!p) throw Error("Cluster requires a non-null program");
  return p;
}
}  // namespace

Cluster::Cluster(std::shared_ptr<const rvasm::Program> program, ClusterTopology topology)
    : program_(require(std::move(program))),
      decoded_(DecodedProgram::get(program_)),
      topo_((topology.validate(), std::move(topology))),
      arbiter_(topo_.shared().num_tcdm_banks, topo_.num_cores()),
      dma_(memory_, topo_.shared().dma_bytes_per_cycle),
      barrier_(topo_.num_cores()) {
  const SimParams& shared = topo_.shared();
  if (shared.dram_enabled) {
    mem::DramTiming timing;
    timing.t_row_hit = shared.dram_t_row_hit;
    timing.t_row_miss = shared.dram_t_row_miss;
    timing.row_bytes = shared.dram_row_bytes;
    timing.bytes_per_cycle = shared.dram_bytes_per_cycle;
    timing.channels = shared.dram_channels;
    timing.max_inflight = shared.dram_max_inflight;
    dram_ = std::make_unique<mem::DramModel>(timing);
    dma_.attach_dram(*dram_, shared.dram_burst_bytes);
  }
  complexes_.reserve(topo_.num_cores());
  for (unsigned h = 0; h < topo_.num_cores(); ++h) {
    complexes_.push_back(std::make_unique<CoreComplex>(h, topo_.num_cores(), topo_.complex(h),
                                                       *decoded_, memory_, dma_, barrier_));
  }
  memory_.write_block(program_->data_base, program_->data);
  memory_.write_block(program_->dram_base, program_->dram);
}

Cluster::Cluster(std::shared_ptr<const rvasm::Program> program, SimParams params)
    : Cluster(std::move(program), ClusterTopology(params)) {}

Cluster::Cluster(rvasm::Program program, SimParams params)
    : Cluster(std::make_shared<const rvasm::Program>(std::move(program)), params) {}

Cluster::Cluster(rvasm::Program program, ClusterTopology topology)
    : Cluster(std::make_shared<const rvasm::Program>(std::move(program)),
              std::move(topology)) {}

bool Cluster::halted() const noexcept {
  for (const auto& cx : complexes_) {
    if (!cx->core().halted()) return false;
  }
  return true;
}

bool Cluster::all_fpss_idle() const noexcept {
  for (const auto& cx : complexes_) {
    if (!cx->fpss().idle()) return false;
  }
  return true;
}

const ActivityCounters& Cluster::counters() const noexcept {
  if (complexes_.size() == 1) return complexes_.front()->counters();
  agg_ = ActivityCounters{};
  agg_.cycles = cycle_;
  for (const auto& cx : complexes_) agg_ = agg_.plus(cx->counters());
  return agg_;
}

void Cluster::set_tracing(bool enabled) {
  for (auto& cx : complexes_) cx->tracer().set_enabled(enabled);
}

void Cluster::sync_shared_counters() {
  // The DMA is cluster-shared; its activity is attributed to hart 0 (and
  // thereby to the aggregate view).
  ActivityCounters& c = complexes_.front()->counters();
  c.dma_busy_cycles = dma_.busy_cycles();
  c.dma_bytes = dma_.bytes_moved();
  if (dram_) {
    c.dram_row_hits = dram_->row_hits();
    c.dram_row_misses = dram_->row_misses();
  }
}

void Cluster::tick() {
  // counters().cycles needs no refresh here: the end of the previous tick
  // left it at cycle_, and mcycle/region reads stamp `now` themselves.
  for (auto& cx : complexes_) cx->fpss().begin_cycle(cycle_);
  // An idle DMA engine changes no state and no counter this cycle.
  const bool dma_busy = dma_.pending() > 0;
  if (dma_busy) dma_.tick();

  // Phase 1: every agent of every hart decides what it wants from the TCDM
  // this cycle. Each request carries its hart; its port names the agent
  // (integer LSU, FP LSU, or an SSR lane / the ISSR index port, whose lane
  // ssr_tags_ records).
  unsigned n = 0;
  // Per-hart flags: which agents presented a request (commit must still run
  // for them on denial so the tcdm stall is attributed) and which were
  // granted.
  enum : std::uint8_t {
    kCorePending = 1,
    kCoreGranted = 2,
    kFpssPending = 4,
    kFpssGranted = 8,
    kSsrGranted = 16,
  };
  std::array<std::uint8_t, kMaxHarts> flags{};

  for (unsigned h = 0; h < complexes_.size(); ++h) {
    CoreComplex& cx = *complexes_[h];
    if (const auto core_req = cx.core().prepare(cycle_)) {
      requests_[n] = *core_req;
      requests_[n++].hart = h;
      flags[h] |= kCorePending;
    }
    if (const auto fpss_req = cx.fpss().prepare(cycle_)) {
      requests_[n] = *fpss_req;
      requests_[n++].hart = h;
      flags[h] |= kFpssPending;
    }
    n += cx.ssr().collect_requests(h, std::span(requests_).subspan(n),
                                   std::span(ssr_tags_).subspan(n));
  }

  // Phase 2: bank arbitration over the shared TCDM (most cycles of a
  // compute-bound kernel present no request and skip the call).
  const std::uint64_t grants = n == 0 ? 0 : arbiter_.arbitrate(std::span(requests_.data(), n));

  // Phase 3: commit, attributing every grant/denial to the owning hart.
  for (unsigned i = 0; i < n; ++i) {
    const bool granted = (grants >> i) & 1;
    const unsigned h = requests_[i].hart;
    CoreComplex& cx = *complexes_[h];
    if (!granted) ++cx.counters().tcdm_conflicts;
    switch (requests_[i].port) {
      case mem::TcdmPort::kIntLsu:
        if (granted) flags[h] |= kCoreGranted;
        break;
      case mem::TcdmPort::kFpLsu:
        if (granted) flags[h] |= kFpssGranted;
        break;
      default:
        if (granted) {
          const ssr::SsrUnit::RequestTag& tag = ssr_tags_[i];
          ActivityCounters& c = cx.counters();
          cx.ssr().apply_grant(tag);
          flags[h] |= kSsrGranted;
          ++c.ssr_elements;
          if (tag.index) {
            ++c.issr_indices;
            ++c.tcdm_reads;
          } else if (cx.ssr().lane(tag.lane).is_write_stream()) {
            ++c.tcdm_writes;
          } else {
            ++c.tcdm_reads;
          }
        }
        break;
    }
  }
  for (unsigned h = 0; h < complexes_.size(); ++h) {
    const std::uint8_t f = flags[h];
    if (f == 0) continue;
    CoreComplex& cx = *complexes_[h];
    if (f & kCorePending) cx.core().commit(cycle_, (f & kCoreGranted) != 0);
    if (f & kFpssPending) cx.fpss().commit(cycle_, (f & kFpssGranted) != 0);
    if (f & kSsrGranted) cx.ssr().commit_cycle();
  }

  if (dma_busy) sync_shared_counters();
  ++cycle_;
  for (auto& cx : complexes_) cx->counters().cycles = cycle_;
}

bool Cluster::try_skip() {
  // A clock jump is legal only when no agent can change architectural state
  // this cycle and at least one knows its wake-up time. SSR stream traffic
  // (a lane wanting a data/index access) always counts as progress, so any
  // active stream pins the cluster to per-cycle execution.
  std::array<WakeInfo, kMaxHarts> core_wake;
  std::array<WakeInfo, kMaxHarts> fpss_wake;
  std::uint64_t window = ~std::uint64_t{0};
  bool has_sleeper = false;
  for (unsigned h = 0; h < complexes_.size(); ++h) {
    const CoreComplex& cx = *complexes_[h];
    if (cx.ssr().wants_any_access()) return false;
    fpss_wake[h] = cx.fpss().probe(cycle_);
    if (fpss_wake[h].kind == WakeInfo::Kind::kProgress) return false;
    core_wake[h] = cx.core().probe(cycle_);
    if (core_wake[h].kind == WakeInfo::Kind::kProgress) return false;
    for (const WakeInfo& w : {core_wake[h], fpss_wake[h]}) {
      if (w.kind == WakeInfo::Kind::kSleep) {
        has_sleeper = true;
        window = std::min(window, w.wake);
      }
    }
  }
  // Every hart blocked on another agent with no provable wake (e.g. a
  // program deadlock): fall back to ticking so max_cycles still fires.
  if (!has_sleeper) return false;
  // Never jump past the cycle budget, so the timeout path counts the same
  // number of cycles as per-cycle execution.
  window = std::min(window, topo_.shared().max_cycles);
  // Jump: cycles [cycle_, window) are pure stalls; attribute them in bulk.
  const std::uint64_t n = window - cycle_;
  for (unsigned h = 0; h < complexes_.size(); ++h) {
    CoreComplex& cx = *complexes_[h];
    cx.core().skip_stall(cycle_, n, core_wake[h].cause);
    cx.fpss().skip_stall(cycle_, n, fpss_wake[h].cause);
  }
  dma_.advance(n);
  sync_shared_counters();
  cycle_ = window;
  for (auto& cx : complexes_) cx->counters().cycles = cycle_;
  ++skip_jumps_;
  skipped_cycles_ += n;
  return true;
}

void Cluster::step_fast() {
  if (cycle_ >= next_probe_) {
    if (try_skip()) {
      probe_backoff_ = 0;
      return;
    }
    // Failed probe: suppress probing for exponentially more ticks so the
    // overhead vanishes while the cluster is busy issuing.
    probe_backoff_ = std::min<std::uint64_t>(probe_backoff_ == 0 ? 1 : probe_backoff_ * 2, 16);
    next_probe_ = cycle_ + probe_backoff_;
  }
  tick();
}

RunResult Cluster::run() {
  const std::uint64_t max_cycles = topo_.shared().max_cycles;
  const bool fast = topo_.shared().skip_ahead;
  while (!halted() && cycle_ < max_cycles) {
    fast ? step_fast() : tick();
  }
  // Drain in-flight FP work so memory state is final at halt.
  while (halted() && !all_fpss_idle() && cycle_ < max_cycles) {
    fast ? step_fast() : tick();
  }
  RunResult result;
  result.halted = halted();
  result.cycles = cycle_;
  result.exit_code = complexes_.front()->core().exit_code();
  if (!result.halted) {
    throw SimError("simulation exceeded max_cycles (" + std::to_string(max_cycles) + ")");
  }
  return result;
}

}  // namespace copift::sim
