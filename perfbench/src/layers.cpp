#include "layers.hpp"

#include <algorithm>
#include <thread>

#include "common/error.hpp"
#include "lint/lint.hpp"
#include "model.hpp"
#include "rvasm/assembler.hpp"
#include "serve/protocol.hpp"
#include "sim/decode.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace copift;

namespace {

/// Cycles simulated through trace_run() and how many skip-ahead covered.
struct SimTotals {
  std::uint64_t cycles = 0;
  std::uint64_t skipped = 0;
};
SimTotals& sim_totals() {
  static SimTotals totals;
  return totals;
}

void append_axis(std::string& out, const char* key, const std::vector<std::uint32_t>& values) {
  out += ",\"";
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
}

}  // namespace

std::uint32_t derive_seed(std::uint32_t seed, std::uint32_t k) {
  // splitmix64 finalizer over (seed, k); forced odd so it is never 0.
  std::uint64_t z = (static_cast<std::uint64_t>(seed) << 32 | k) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z) | 1U;
}

unsigned engine_threads() {
  // Half the processors, at most two: sweep_small keeps this many threads
  // busy and moves them over the host's processors (CpuRotation), which
  // needs processors to spare.
  const unsigned n = std::max(1U, std::thread::hardware_concurrency());
  return std::clamp(n / 2, 1U, 2U);
}

Prepared prepare(const engine::GridPoint& point, std::uint64_t op, engine::ProgramCache* programs) {
  Prepared p;
  {
    Span span("workload.generate", op);
    p.kernel = point.workload->instantiate(point.variant, point.config);
  }
  if (!SpanLog::instance().enabled()) {
    p.program = kernels::assemble_kernel(p.kernel);
    return p;
  }
  {
    Span span("rvasm.assemble", op);
    p.program = programs != nullptr
                    ? programs->get(p.kernel)
                    : std::make_shared<const rvasm::Program>(rvasm::assemble(p.kernel.source));
  }
  Span span("lint.lint", op);
  const auto report = lint::lint_program(*p.program, p.kernel.config.cores);
  if (!report.clean()) throw Error("lint: " + report.summary());
  return p;
}

kernels::KernelRun simulate(const Prepared& prepared, const sim::SimParams& params) {
  return kernels::run_kernel(prepared.kernel, prepared.program, params, /*verify=*/true);
}

std::unique_ptr<sim::Cluster> run_cluster(const Prepared& prepared, const sim::SimParams& params,
                                          std::uint64_t op) {
  sim::SimParams run_params = params;
  run_params.num_cores = prepared.kernel.config.cores;
  // Decode ahead of the cluster and hold the table, so the cluster's own
  // DecodedProgram::get finds it and the setup span excludes decode.
  std::shared_ptr<const sim::DecodedProgram> decoded;
  {
    Span span("sim.decode", op);
    decoded = sim::DecodedProgram::get(prepared.program);
  }
  std::unique_ptr<sim::Cluster> cluster;
  {
    Span span("sim.setup", op);
    cluster = std::make_unique<sim::Cluster>(prepared.program, run_params);
    kernels::populate_inputs(*cluster, prepared.kernel);
  }
  Span span("sim.run", op);
  cluster->run();
  return cluster;
}

std::uint64_t verify(const Prepared& prepared, sim::Cluster& cluster, std::uint64_t op) {
  {
    Span span("workload.verify", op);
    kernels::verify_outputs(cluster, prepared.kernel);
  }
  const std::uint64_t cycles = cluster.cycles();
  sim_totals().cycles += cycles;
  sim_totals().skipped += cluster.skipped_cycles();
  return cycles;
}

std::uint64_t trace_run(const Prepared& prepared, const sim::SimParams& params, std::uint64_t op) {
  return verify(prepared, *run_cluster(prepared, params, op), op);
}

std::string serve_line(const engine::ParamGrid& grid, std::uint64_t id) {
  std::string out = "{\"id\":" + std::to_string(id) + ",\"type\":\"run\",\"workloads\":[";
  for (std::size_t i = 0; i < grid.workloads.size(); ++i) {
    if (i > 0) out += ',';
    serve::Json::append_quoted(out, grid.workloads[i]);
  }
  out += "],\"variants\":[";
  for (std::size_t i = 0; i < grid.variants.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + std::string(workload::variant_name(grid.variants[i])) + "\"";
  }
  out += ']';
  append_axis(out, "n", grid.ns);
  append_axis(out, "block", grid.blocks);
  append_axis(out, "cores", grid.cores);
  append_axis(out, "tile", grid.tiles);
  append_axis(out, "seeds", grid.seeds);
  out += ",\"progress\":false}";
  return out;
}

void answer_repeats(serve::ResultCache& cache, const std::vector<engine::ResultRow>& rows,
                    std::vector<double>& hit_ms) {
  std::vector<serve::ResultKey> keys;
  keys.reserve(rows.size());
  for (const auto& row : rows) {
    serve::ResultKey key;
    key.workload = row.point.name();
    key.variant = static_cast<int>(row.point.variant);
    key.n = row.point.config.n;
    key.block = row.point.config.block;
    key.seed = row.point.config.seed;
    key.cores = row.point.config.cores;
    key.tile = row.point.config.tile;
    key.params_fingerprint = serve::params_fingerprint(row.point.params);
    key.verify = row.run.verified;
    serve::ResultCache::EntryPtr entry;
    if (cache.lookup_or_claim(key, entry) != serve::ResultCache::Claim::kOwned) {
      throw Error("repeat: point was cached before it was simulated");
    }
    cache.publish(entry, row);
    keys.push_back(std::move(key));
  }
  const std::string first = serve::single_line(engine::ResultTable(rows).json());
  // One untimed repeat first: the simulation before it leaves the host's
  // caches cold, and how cold depends on the kernel and on the processor.
  for (unsigned k = 0; k <= kCachedRepeats; ++k) {
    const auto t0 = Clock::now();
    std::vector<engine::ResultRow> answer;
    answer.reserve(keys.size());
    for (const auto& key : keys) {
      serve::ResultCache::EntryPtr entry;
      if (cache.lookup_or_claim(key, entry) != serve::ResultCache::Claim::kHit) {
        throw Error("repeat: cached point was not a hit");
      }
      std::lock_guard lock(entry->mutex);
      answer.push_back(entry->row);
    }
    const std::string json = serve::single_line(engine::ResultTable(std::move(answer)).json());
    if (k > 0) hit_ms.push_back(ms_since(t0));
    if (json != first) throw Error("repeat: cached answer differs from the simulated one");
  }
}

EngineScaling measure_engine(const std::vector<engine::Experiment>& grids) {
  // Points per second over the grids that complete; a grid holding a
  // failing point is left out at both thread counts.
  struct Timed {
    double points = 0.0;
    double seconds = 0.0;
  };
  std::vector<bool> ok(grids.size(), true);
  const auto timed = [&](unsigned threads) {
    engine::SimEngine pool(threads);
    Timed out;
    for (std::size_t i = 0; i < grids.size(); ++i) {
      if (!ok[i]) continue;
      const auto t0 = Clock::now();
      try {
        engine::ResultTable table;
        {
          Span span("engine.experiment", i);
          table = grids[i].run(pool);
        }
        Span span("engine.table_json", i);
        if (table.json().empty()) throw Error("empty table");
      } catch (const std::exception&) {
        ok[i] = false;
        continue;
      }
      out.seconds += seconds_since(t0);
      out.points += static_cast<double>(grids[i].grid().size());
    }
    return out;
  };
  timed(1);  // finds the failing grids, so both timed passes run the same ones
  const Timed t1 = timed(1);
  const Timed tn = timed(engine_threads());
  EngineScaling out;
  if (t1.seconds > 0.0 && tn.seconds > 0.0) {
    out.points_per_s_t1 = t1.points / t1.seconds;
    out.scaling_eff = (tn.points / tn.seconds) / (engine_threads() * out.points_per_s_t1);
  }
  return out;
}

void add_host_layers(Result& result, const HostLayers& layers) {
  const auto& log = SpanLog::instance();
  const auto all = log.layers();
  const auto self_total = [&](const char* name) {
    const auto it = all.find(name);
    return it == all.end() ? 0.0 : it->second.self_ms;
  };
  const double cycles = static_cast<double>(sim_totals().cycles);
  result.add("workload.generate_ms", log.self_ms_per_call("workload.generate"), "ms");
  result.add("rvasm.assemble_ms", log.self_ms_per_call("rvasm.assemble"), "ms");
  result.add("lint.lint_ms", log.self_ms_per_call("lint.lint"), "ms");
  result.add("sim.decode_ms", log.self_ms_per_call("sim.decode"), "ms");
  result.add("sim.setup_ms", log.self_ms_per_call("sim.setup"), "ms");
  result.add("sim.run_ms", log.self_ms_per_call("sim.run"), "ms");
  result.add("sim.host_ns_per_cycle", cycles > 0 ? self_total("sim.run") * 1e6 / cycles : 0.0,
             "ns/cycle");
  result.add("sim.skipped_cycle_share",
             cycles > 0 ? static_cast<double>(sim_totals().skipped) / cycles : 0.0, "1");
  result.add("workload.verify_ms", log.self_ms_per_call("workload.verify"), "ms");
  result.add("engine.points_per_s.t1", layers.engine.points_per_s_t1, "points/s");
  result.add("engine.scaling_eff", layers.engine.scaling_eff, "1");
  result.add("engine.program_cache_hits", layers.program_cache_hits, "count");
  result.add("engine.table_json_ms", log.self_ms_per_call("engine.table_json"), "ms");
  result.add("serve.parse_us", log.self_ms_per_call("serve.parse_request") * 1e3, "us");
  result.add("serve.cache_hit_share", layers.serve.cache_hit_share, "1");
  result.add("serve.points_simulated", layers.serve.points_simulated, "count");
  result.add("serve.server_elapsed_ms.p50", layers.serve.server_elapsed_ms_p50, "ms");
  result.add("serve.health_rtt_ms.p50", layers.serve.health_rtt_ms_p50, "ms");
  result.add("serve.client_overhead_ms.p50", layers.serve.client_overhead_ms_p50, "ms");
}

void finish(Result& result, const Options& opt, const Samples& samples, const ModelTally& tally,
            const HostLayers& layers) {
  if (opt.trace) {
    tally.add_layers(result);
    add_host_layers(result, layers);
    // The traced run's own end-to-end figures, for the tracing overhead.
    Result traced;
    add_host_metrics(traced, samples);
    for (const auto& m : traced.metrics()) {
      std::fprintf(stderr, "perfbench: traced %s = %.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
    }
  } else {
    add_host_metrics(result, samples);
    tally.add_errors(result);
  }
}

}  // namespace perfbench
