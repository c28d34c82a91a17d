// perfbench: one workload, one process, one JSON line.
//
//   perfbench --workload paper_fig2 --seed 1 --seconds 10 --trace 0
//
// Runs the named workload for the given number of seconds (whole passes or
// rounds, so every run attempts the same operations in the same shares),
// checks its outputs, and prints as the last line of stdout
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// with the end-to-end metrics, or with --trace 1 the per-layer metrics. A
// traced run also writes its host spans as Chrome trace-event JSON to
// --trace-out and prints a self-time table per layer on stderr. Failed
// operations are named on stderr. perfbench/run.py builds and drives this.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "common/error.hpp"
#include "serve/protocol.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\nworkloads: paper_fig2 sweep_small "
               "tiled_dram_4hart serve_mixed\n",
               why.c_str());
  std::exit(2);
}

unsigned long parse_number(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      const auto seed = parse_number(flag, value);
      if (seed > 0xFFFFFFFFUL) usage("--seed must fit in 32 bits");
      opt.seed = static_cast<std::uint32_t>(seed);
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_number(flag, value));
      if (opt.seconds < 1 || opt.seconds > 120) usage("--seconds must be 1..120");
    } else if (flag == "--trace") {
      const auto t = parse_number(flag, value);
      if (t > 1) usage("--trace must be 0 or 1");
      opt.trace = t == 1;
    } else if (flag == "--trace-out") {
      opt.trace_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

void print_result(const Result& result) {
  std::string out = "{\"correct\":";
  out += result.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  char buf[64];
  for (std::size_t i = 0; i < result.metrics().size(); ++i) {
    const Metric& m = result.metrics()[i];
    if (i > 0) out += ',';
    copift::serve::Json::append_quoted(out, m.name);
    std::snprintf(buf, sizeof(buf), ":{\"value\":%.17g,\"unit\":", m.value);
    out += buf;
    copift::serve::Json::append_quoted(out, m.unit);
    out += '}';
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.trace) SpanLog::instance().enable();
  Result result;
  try {
    if (opt.workload == "paper_fig2") {
      result = run_paper_fig2(opt);
    } else if (opt.workload == "sweep_small") {
      result = run_sweep_small(opt);
    } else if (opt.workload == "tiled_dram_4hart") {
      result = run_tiled_dram_4hart(opt);
    } else if (opt.workload == "serve_mixed") {
      result = run_serve_mixed(opt);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    // A failure outside any counted operation (set-up, the server) leaves
    // nothing to report: no result line, non-zero exit.
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  if (!opt.trace) result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  result.write_failures(std::cerr);
  if (opt.trace) {
    SpanLog::instance().write_table(std::cerr);
    if (!opt.trace_path.empty()) {
      std::ofstream out(opt.trace_path);
      SpanLog::instance().write_chrome_trace(out);
      if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_path.c_str());
    }
  }
  print_result(result);
  return 0;
}
