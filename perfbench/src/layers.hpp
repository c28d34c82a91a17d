// The calls the benchmark makes into each layer: kernels::run_kernel for a
// point in the timed loops, and with tracing on the same work one call at a
// time, with a span around each: generate, assemble, lint, decode, cluster
// setup, run and verify for a grid point; Experiment::run and ResultTable::json for a grid;
// serve::parse_request and a loopback round trip for a request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/experiment.hpp"
#include "serve/cache.hpp"
#include "sim/cluster.hpp"

namespace perfbench {

/// A generated and assembled program with the kernel it came from.
struct Prepared {
  copift::kernels::GeneratedKernel kernel;
  std::shared_ptr<const copift::rvasm::Program> program;
};

/// Generate and assemble one point. Traced runs also lint the program
/// explicitly (the pipeline lint is off in release builds) and fetch the
/// program through `programs` when given.
Prepared prepare(const copift::engine::GridPoint& point, std::uint64_t op,
                 copift::engine::ProgramCache* programs = nullptr);

/// One prepared point simulated and verified by kernels::run_kernel, the
/// path Experiment::run and serve take. Throws copift::Error on any failure.
copift::kernels::KernelRun simulate(const Prepared& prepared, const copift::sim::SimParams& params);

/// Traced runs drive a point through the same work as simulate(), one public
/// call at a time, each in its own span. run_cluster() decodes the program,
/// builds the cluster, populates its inputs and runs it; verify() checks the
/// outputs the cluster holds against the workload's golden reference
/// (throwing copift::Error on a mismatch) and returns the cycles simulated.
std::unique_ptr<copift::sim::Cluster> run_cluster(const Prepared& prepared,
                                                  const copift::sim::SimParams& params,
                                                  std::uint64_t op);
std::uint64_t verify(const Prepared& prepared, copift::sim::Cluster& cluster, std::uint64_t op);

/// run_cluster() then verify(): the point's simulated cycles.
std::uint64_t trace_run(const Prepared& prepared, const copift::sim::SimParams& params,
                        std::uint64_t op);

/// The serve run-request line for `grid` (default SimParams only; serve has
/// no params axis), without progress events.
std::string serve_line(const copift::engine::ParamGrid& grid, std::uint64_t id);

/// Repeats of each request answered from the cache. Every workload reports
/// every end-to-end metric, so the engine workloads, which see no cache hit
/// of their own, time serve's hit path without the socket and scheduler:
/// enough samples per run for a steady p99.
inline constexpr unsigned kCachedRepeats = 16;

/// Publish `rows` into `cache` as the answer to a request, then answer the
/// same request from the cache once untimed and kCachedRepeats more times
/// timed, as serve does for a repeat. Appends each timed repeat's latency in
/// ms to `hit_ms`; throws
/// copift::Error when a repeat is not a hit or its JSON differs from the
/// first answer.
void answer_repeats(copift::serve::ResultCache& cache,
                    const std::vector<copift::engine::ResultRow>& rows,
                    std::vector<double>& hit_ms);

/// Throughput of the same grids through Experiment::run on a 1-thread
/// engine and on an engine_threads() engine (traced runs only).
struct EngineScaling {
  double points_per_s_t1 = 0.0;
  double scaling_eff = 0.0;
};
EngineScaling measure_engine(const std::vector<copift::engine::Experiment>& grids);

/// Host-time figures the serve layers report; filled by serve_probe() and
/// by the serve_mixed workload.
struct ServeLayers {
  double cache_hit_share = 0.0;
  double points_simulated = 0.0;
  double server_elapsed_ms_p50 = 0.0;
  double health_rtt_ms_p50 = 0.0;
  double client_overhead_ms_p50 = 0.0;
};

/// Send each grid as a run request to an in-process copift_serve twice (a
/// miss, then a hit) with a health probe after each, on one connection. A
/// grid that fails is skipped (the workload counts it); a server that cannot be
/// reached leaves the figures at 0, with the reason on stderr.
ServeLayers serve_probe(const std::vector<copift::engine::Experiment>& grids);

/// Every per-layer host metric: span self times plus the given figures.
struct HostLayers {
  double program_cache_hits = 0.0;
  EngineScaling engine;
  ServeLayers serve;
};
void add_host_layers(Result& result, const HostLayers& layers);

class ModelTally;
/// Add the metrics a run prints: the end-to-end ones, or with tracing on the
/// per-layer ones (and the traced run's own end-to-end figures on stderr,
/// which against an untraced run give the tracing overhead).
void finish(Result& result, const Options& opt, const Samples& samples, const ModelTally& tally,
            const HostLayers& layers);

}  // namespace perfbench
