// The three engine workloads: paper_fig2, sweep_small and tiled_dram_4hart.
//
// Each runs whole passes over a fixed grid until the run length is up. One
// pass is one request, the whole grid a user asks the engine for: the
// Fig. 2 grid, the sweep, or the tiled grid. Every request
// simulates, so its latency is a miss latency; the same request repeated is
// then answered from a serve::ResultCache, which gives the hit latency.
#include <cstdio>

#include "common/error.hpp"
#include "layers.hpp"
#include "model.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace copift;
using workload::Variant;

namespace {

constexpr Variant kVariants[] = {Variant::kBaseline, Variant::kCopift};

engine::GridPoint make_point(std::string_view name, Variant variant,
                             const workload::WorkloadConfig& config,
                             const sim::SimParams& params, std::string label = "default") {
  engine::GridPoint p;
  p.workload = workload::WorkloadRegistry::instance().at(name);
  p.variant = variant;
  p.config = config;
  p.params_label = std::move(label);
  p.params = params;
  p.params.num_cores = config.cores;
  return p;
}

std::string point_name(const engine::GridPoint& p) {
  return p.name() + "/" + workload::variant_name(p.variant) + " n=" + std::to_string(p.config.n) +
         " block=" + std::to_string(p.config.block) + " cores=" +
         std::to_string(p.config.cores) + " tile=" + std::to_string(p.config.tile);
}

/// Compare the rows a workload built point by point with Experiment::run
/// over the same grid; a difference means the benchmark's own layer calls and
/// the engine disagree, so the run's outputs cannot be trusted.
void cross_check(Result& result, const std::vector<engine::ResultRow>& rows,
                 const engine::Experiment& experiment) {
  try {
    engine::SimEngine pool(engine_threads());
    if (experiment.run(pool).json() != engine::ResultTable(rows).json()) {
      result.correct = false;
      std::fprintf(stderr, "perfbench: rows differ from Experiment::run over the same grid\n");
    }
  } catch (const std::exception& e) {
    result.correct = false;
    std::fprintf(stderr, "perfbench: Experiment::run cross-check failed: %s\n", e.what());
  }
}

// --- paper_fig2 ---------------------------------------------------------------

constexpr std::uint32_t kFig2N1 = 1920;
constexpr std::uint32_t kFig2N2 = 3840;
constexpr std::uint32_t kFig2Block = 96;

}  // namespace

Result run_paper_fig2(const Options& opt) {
  Result result;
  Samples samples;
  const std::uint32_t seed = derive_seed(opt.seed, 0);
  const sim::SimParams params{};

  // A request is the whole figure: one steady-state point per kernel and
  // variant, each the n1 and n2 programs, prepared once and simulated again
  // on every pass.
  struct Steady {
    engine::GridPoint point;  // at n2, as Experiment's steady rows carry it
    Prepared runs[2];
  };
  CpuRotation cpus(1);
  const auto points = repeated_setup(samples, cpus, [&] {
    std::vector<Steady> out;
    for (const auto kernel : kPaperKernels) {
      for (const auto variant : kVariants) {
        Steady s;
        workload::WorkloadConfig cfg;
        cfg.block = kFig2Block;
        cfg.seed = seed;
        cfg.n = kFig2N1;
        s.runs[0] = prepare(make_point(kernel, variant, cfg, params), 2 * out.size());
        cfg.n = kFig2N2;
        s.point = make_point(kernel, variant, cfg, params);
        s.point.index = out.size();
        s.runs[1] = prepare(s.point, 2 * out.size() + 1);
        out.push_back(std::move(s));
      }
    }
    return out;
  });

  // One pass simulates the whole figure. Untraced, every run goes through
  // simulate() and the pass leaves the figure's steady rows in `rows`;
  // traced, every run goes through trace_run() and `rows` is left alone.
  // Returns whether every run passed.
  std::vector<std::uint64_t> first_cycles(2 * points.size(), 0);
  std::uint64_t pass = 0;
  const auto run_pass = [&](bool traced, Result& out, Window& window,
                            std::vector<engine::ResultRow>& rows) {
    const auto failed_before = out.failed;
    if (!traced) rows.clear();
    for (std::size_t j = 0; j < points.size(); ++j) {
      const Steady& pt = points[j];
      kernels::KernelRun runs[2];
      bool ok = true;
      for (unsigned s = 0; s < 2; ++s) {
        ++out.attempted;
        const std::uint64_t op = pass * 100 + 2 * j + s;
        try {
          Span span("point", op);
          std::uint64_t cycles = 0;
          if (traced) {
            cycles = trace_run(pt.runs[s], params, op);
          } else {
            runs[s] = simulate(pt.runs[s], params);
            if (auto why = check_run(runs[s]); !why.empty()) throw Error(why);
            cycles = runs[s].result.cycles;
          }
          auto& first = first_cycles[2 * j + s];
          if (first == 0) first = cycles;
          if (cycles != first) throw Error("cycle count changed between passes");
          window.cycles += static_cast<double>(cycles);
          window.points += 1.0;
        } catch (const std::exception& e) {
          const auto& kernel = pt.runs[s].kernel;
          out.fail(kernel.name() + " n=" + std::to_string(kernel.config.n), e.what());
          ok = false;
        }
      }
      if (!ok || traced) continue;
      engine::ResultRow row;
      row.point = pt.point;
      row.steady = true;
      const auto& small = pt.runs[0].kernel;
      row.metrics = kernels::steady_from_runs(runs[0], runs[1],
                                              small.workload->items(small.config),
                                              pt.point.workload->items(pt.point.config));
      row.steady_region = runs[1].region.minus(runs[0].region);
      row.run = std::move(runs[1]);
      rows.push_back(std::move(row));
    }
    ++pass;
    return out.failed == failed_before;
  };

  // A traced run first takes the rows from one untraced pass, uncounted: its
  // passes check their cycle counts against them and answer them from the
  // cache, and the same runs are counted in every traced pass.
  std::vector<engine::ResultRow> rows;
  if (opt.trace) {
    Result uncounted;
    Window unused;
    run_pass(false, uncounted, unused, rows);
  }
  const auto t_start = Clock::now();
  do {
    cpus.next();
    Window window;
    window.calibration = calibration_rate();
    const auto t_pass = Clock::now();
    const bool complete = run_pass(opt.trace, result, window, rows);
    // The window covers the request's own work, not the cached answers.
    window.seconds = seconds_since(t_pass);
    ++result.attempted;  // the figure answered again from the cache
    if (complete && rows.size() == points.size()) {
      window.miss_ms.push_back(window.seconds * 1e3);
      window.requests = 1.0;
      try {
        window.hit_calibration = calibration_rate();
        serve::ResultCache cache(points.size());
        answer_repeats(cache, rows, window.hit_ms);
      } catch (const std::exception& e) {
        result.fail("cached Fig. 2", e.what());
      }
    } else {
      result.fail("cached Fig. 2", "the figure had failed points");
    }
    samples.windows.push_back(std::move(window));
  } while (seconds_since(t_start) < opt.seconds);
  cpus.restore();

  ModelTally tally;
  for (const auto& row : rows) tally.add(row);
  engine::Experiment steady;
  steady.over(std::span<const std::string_view>(kPaperKernels))
      .over(std::span<const Variant>(kVariants))
      .block(kFig2Block)
      .seed(seed)
      .steady(kFig2N1, kFig2N2);
  if (rows.size() == points.size()) cross_check(result, rows, steady);

  HostLayers layers;
  if (opt.trace) {
    layers.engine = measure_engine({steady});
    std::vector<engine::Experiment> requests;
    for (const auto& pt : points) {
      engine::Experiment e;
      e.over(pt.point.name()).over(pt.point.variant).sweep_n({kFig2N1, kFig2N2});
      e.block(kFig2Block).seed(seed);
      requests.push_back(std::move(e));
    }
    layers.serve = serve_probe(requests);
  }
  finish(result, opt, samples, tally, layers);
  return result;
}

// --- tiled_dram_4hart -------------------------------------------------------------

namespace {

constexpr std::uint32_t kTiledN = 65536;
constexpr std::uint32_t kTile = 1024;
constexpr std::uint32_t kTiledCores = 4;
constexpr std::uint32_t kTiledBlock = 32;

sim::SimParams dram_params() {
  sim::SimParams p;
  p.dram_enabled = true;
  return p;
}

/// Bytes the DMA engine must move for one tiled run: every element of every
/// array the kernel streams in or out, once.
std::uint64_t expected_dma_bytes(const std::string& kernel, std::uint32_t n) {
  const std::uint64_t arrays = kernel == "axpy" ? 3 : 2;  // axpy: x in, y in, y out
  return arrays * n * sizeof(double);
}

}  // namespace

Result run_tiled_dram_4hart(const Options& opt) {
  Result result;
  Samples samples;
  const std::uint32_t seed = derive_seed(opt.seed, 0);
  const sim::SimParams params = dram_params();
  constexpr std::string_view kKernels[] = {"axpy", "exp"};

  struct Tiled {
    engine::GridPoint point;
    Prepared prepared;
  };
  CpuRotation cpus(1);
  const auto points = repeated_setup(samples, cpus, [&] {
    std::vector<Tiled> out;
    for (const auto kernel : kKernels) {
      for (const auto variant : kVariants) {
        workload::WorkloadConfig cfg;
        cfg.n = kTiledN;
        cfg.block = kTiledBlock;
        cfg.seed = seed;
        cfg.cores = kTiledCores;
        cfg.tile = kTile;
        Tiled t;
        t.point = make_point(kernel, variant, cfg, params, "dram");
        t.point.index = out.size();
        t.prepared = prepare(t.point, out.size());
        out.push_back(std::move(t));
      }
    }
    return out;
  });

  // One pass simulates the whole grid, as run_paper_fig2's passes do.
  std::vector<std::uint64_t> first_cycles(points.size(), 0);
  std::uint64_t pass = 0;
  const auto run_pass = [&](bool traced, Result& out, Window& window,
                            std::vector<engine::ResultRow>& rows) {
    const auto failed_before = out.failed;
    if (!traced) rows.clear();
    for (std::size_t j = 0; j < points.size(); ++j) {
      const Tiled& pt = points[j];
      const std::uint64_t op = pass * 100 + j;
      ++out.attempted;
      engine::ResultRow row;
      row.point = pt.point;
      try {
        Span span("point", op);
        std::uint64_t cycles = 0;
        if (traced) {
          cycles = trace_run(pt.prepared, params, op);
        } else {
          row.run = simulate(pt.prepared, params);
          if (auto why = check_run(row.run); !why.empty()) throw Error(why);
          const auto want = expected_dma_bytes(pt.point.name(), kTiledN);
          if (row.run.total.dma_bytes != want) {
            throw Error("dma_bytes " + std::to_string(row.run.total.dma_bytes) + " != " +
                        std::to_string(want));
          }
          cycles = row.run.result.cycles;
        }
        auto& first = first_cycles[j];
        if (first == 0) first = cycles;
        if (cycles != first) throw Error("cycle count changed between passes");
        window.cycles += static_cast<double>(cycles);
        window.points += 1.0;
      } catch (const std::exception& e) {
        out.fail(point_name(pt.point), e.what());
        continue;
      }
      if (!traced) rows.push_back(std::move(row));
    }
    ++pass;
    return out.failed == failed_before;
  };

  std::vector<engine::ResultRow> rows;
  if (opt.trace) {
    Result uncounted;
    Window unused;
    run_pass(false, uncounted, unused, rows);
  }
  const auto t_start = Clock::now();
  do {
    cpus.next();
    Window window;
    window.calibration = calibration_rate();
    const auto t_pass = Clock::now();
    const bool complete = run_pass(opt.trace, result, window, rows);
    window.seconds = seconds_since(t_pass);  // the request's work only
    ++result.attempted;  // the grid answered again from the cache
    if (complete && rows.size() == points.size()) {
      window.miss_ms.push_back(window.seconds * 1e3);
      window.requests = 1.0;
      try {
        window.hit_calibration = calibration_rate();
        serve::ResultCache cache(points.size());
        answer_repeats(cache, rows, window.hit_ms);
      } catch (const std::exception& e) {
        result.fail("cached tiled grid", e.what());
      }
    } else {
      result.fail("cached tiled grid", "the grid had failed points");
    }
    samples.windows.push_back(std::move(window));
  } while (seconds_since(t_start) < opt.seconds);
  cpus.restore();

  ModelTally tally;
  for (const auto& row : rows) tally.add(row);
  engine::Experiment grid;
  grid.over(std::span<const std::string_view>(kKernels))
      .over(std::span<const Variant>(kVariants))
      .n(kTiledN)
      .block(kTiledBlock)
      .seed(seed)
      .cores(kTiledCores)
      .tile(kTile)
      .with_params("dram", params);
  if (rows.size() == points.size()) cross_check(result, rows, grid);

  HostLayers layers;
  if (opt.trace) {
    layers.engine = measure_engine({grid});
    std::vector<engine::Experiment> requests;
    for (const auto& pt : points) {
      engine::Experiment e;
      e.over(pt.point.name()).over(pt.point.variant).n(kTiledN).block(kTiledBlock);
      e.seed(seed).cores(kTiledCores).tile(kTile);
      requests.push_back(std::move(e));
    }
    layers.serve = serve_probe(requests);
  }
  finish(result, opt, samples, tally, layers);
  return result;
}

// --- sweep_small --------------------------------------------------------------

namespace {

constexpr std::uint32_t kSweepNs[] = {256, 384};
constexpr std::uint32_t kSweepBlocks[] = {32, 64};
constexpr unsigned kSweepSeeds = 2;

bool valid(const workload::Workload& wl, Variant v, const workload::WorkloadConfig& cfg) {
  try {
    wl.validate(v, cfg);
    return true;
  } catch (const workload::ConfigError&) {
    return false;
  }
}

/// Every registry workload with every variant it offers, at cores 1 and 2
/// where it is multi-hart, over small n, two blocks and two seeds. One
/// Experiment per (workload, variant, cores); where some (n, block) pairs
/// fail Workload::validate, one Experiment per n over the blocks valid there
/// instead, so every grid holds only points the workload accepts.
std::vector<engine::Experiment> sweep_grids(std::uint32_t seed) {
  std::vector<std::uint32_t> seeds;
  for (unsigned k = 0; k < kSweepSeeds; ++k) seeds.push_back(derive_seed(seed, 10 + k));
  std::vector<engine::Experiment> out;
  const auto& registry = workload::WorkloadRegistry::instance();
  for (const auto& name : registry.names()) {
    const auto wl = registry.at(name);
    for (const auto variant : wl->variants()) {
      std::vector<std::uint32_t> cores{1};
      if (wl->multi_hart_capable(variant)) cores.push_back(2);
      for (const auto c : cores) {
        std::vector<std::vector<std::uint32_t>> blocks_at;  // valid blocks per n
        bool all = true;
        for (const auto n : kSweepNs) {
          blocks_at.emplace_back();
          for (const auto b : kSweepBlocks) {
            workload::WorkloadConfig cfg;
            cfg.n = n;
            cfg.block = b;
            cfg.cores = c;
            if (valid(*wl, variant, cfg)) blocks_at.back().push_back(b);
          }
          all = all && blocks_at.back().size() == std::size(kSweepBlocks);
        }
        const auto add = [&](std::span<const std::uint32_t> ns,
                             std::span<const std::uint32_t> blocks) {
          engine::Experiment e;
          e.over(name).over(variant).sweep_n(ns).sweep(blocks).cores(c).sweep_seeds(seeds);
          out.push_back(std::move(e));
        };
        if (all) {
          add(kSweepNs, kSweepBlocks);
          continue;
        }
        for (std::size_t i = 0; i < std::size(kSweepNs); ++i) {
          if (!blocks_at[i].empty()) add(std::span(&kSweepNs[i], 1), blocks_at[i]);
        }
      }
    }
  }
  return out;
}

/// The points of a grid whose Experiment::run threw, one Experiment each, so
/// every failing point is counted and named and the rest keep their rows.
std::vector<engine::ResultRow> run_points(const engine::Experiment& experiment,
                                          engine::SimEngine& pool, Result& result) {
  std::vector<engine::ResultRow> rows;
  const auto& grid = experiment.grid();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto p = grid.point(i);
    try {
      engine::Experiment one;
      one.over(p.name()).over(p.variant).n(p.config.n).block(p.config.block)
          .cores(p.config.cores).tile(p.config.tile).seed(p.config.seed);
      auto row = one.run(pool).at(0);
      row.point.index = i;
      rows.push_back(std::move(row));
    } catch (const std::exception& e) {
      result.fail(point_name(p), e.what());
    }
  }
  return rows;
}

}  // namespace

Result run_sweep_small(const Options& opt) {
  Result result;
  Samples samples;
  struct Setup {
    std::vector<engine::Experiment> grids;
    std::unique_ptr<engine::SimEngine> pool;
  };
  CpuRotation cpus(engine_threads());
  auto setup = repeated_setup(samples, cpus, [&] {
    Setup s;
    s.grids = sweep_grids(opt.seed);
    s.pool = std::make_unique<engine::SimEngine>(engine_threads());
    return s;
  });
  const auto& grids = setup.grids;

  // One pass runs the whole sweep. Untraced, each grid goes through
  // Experiment::run on the pool and the pass leaves the rows in `rows`;
  // traced, each point goes through prepare() and trace_run() one call at a
  // time on this thread and `rows` is left alone. The window holds only the
  // grids in which every point passed: a grid whose Experiment::run throws
  // is run again point by point to name its failures, and neither run is
  // timed, so a failing point shows in `failed` and not as a slower sweep.
  std::uint64_t cache_hits = 0;
  std::uint64_t pass = 0;
  const auto run_pass = [&](bool traced, Result& out, Window& window,
                            std::vector<engine::ResultRow>& rows) {
    engine::ProgramCache programs;  // traced passes prepare through it
    if (!traced) rows.clear();
    for (std::size_t r = 0; r < grids.size(); ++r) {
      const auto& grid = grids[r].grid();
      out.attempted += grid.size();
      const auto failed_before = out.failed;
      const auto t_grid = Clock::now();
      std::vector<engine::ResultRow> grid_rows;
      double cycles = 0.0;
      bool timed = true;
      if (traced) {
        for (std::size_t i = 0; i < grid.size(); ++i) {
          const auto p = grid.point(i);
          const std::uint64_t op = (pass * grids.size() + r) * 100 + i;
          try {
            Span span("point", op);
            cycles += static_cast<double>(trace_run(prepare(p, op, &programs), p.params, op));
          } catch (const std::exception& e) {
            out.fail(point_name(p), e.what());
          }
        }
      } else {
        try {
          grid_rows = grids[r].run(*setup.pool).rows();
        } catch (const std::exception&) {
          timed = false;
          grid_rows = run_points(grids[r], *setup.pool, out);
        }
        for (auto& row : grid_rows) {
          if (auto why = check_run(row.run); !why.empty()) {
            out.fail(point_name(row.point), why);
            continue;
          }
          cycles += static_cast<double>(row.run.result.cycles);
          rows.push_back(std::move(row));
        }
      }
      if (timed && out.failed == failed_before) {
        window.seconds += seconds_since(t_grid);
        window.points += static_cast<double>(grid.size());
        window.cycles += cycles;
      }
    }
    cache_hits += programs.hits();
    ++pass;
  };

  // As on paper_fig2, a traced run answers the rows of one uncounted
  // untraced pass from the cache.
  std::vector<engine::ResultRow> rows;
  if (opt.trace) {
    Result uncounted;
    Window unused;
    run_pass(false, uncounted, unused, rows);
    cache_hits = 0;
  }
  const std::uint64_t first_pass = pass;
  const auto t_start = Clock::now();
  do {
    cpus.next();
    Window window;
    window.calibration = calibration_rate();
    run_pass(opt.trace, result, window, rows);
    // The sweep is the request; its latency covers the grids the window holds.
    window.miss_ms.push_back(window.seconds * 1e3);
    window.requests = 1.0;
    ++result.attempted;  // the sweep answered again from the cache
    try {
      window.hit_calibration = calibration_rate();
      serve::ResultCache cache(rows.size());
      answer_repeats(cache, rows, window.hit_ms);
    } catch (const std::exception& e) {
      result.fail("cached sweep", e.what());
    }
    samples.windows.push_back(std::move(window));
  } while (seconds_since(t_start) < opt.seconds);
  cpus.restore();
  std::fprintf(stderr, "perfbench: sweep_small: %zu grids, %zu points per pass\n",
               grids.size(), rows.size());

  ModelTally tally;
  for (const auto& row : rows) tally.add(row);
  HostLayers layers;
  if (opt.trace) {
    layers.program_cache_hits =
        static_cast<double>(cache_hits) / static_cast<double>(pass - first_pass);
    layers.engine = measure_engine(grids);
    layers.serve = serve_probe(grids);
  }
  finish(result, opt, samples, tally, layers);
  return result;
}

}  // namespace perfbench
