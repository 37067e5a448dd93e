// perfbench — the layered end-to-end benchmark of the HEALERS toolkit.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--report FILE] [--spans FILE] [--scratch DIR]
//
// Runs one workload, checks its outputs, and prints one JSON object as the
// last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and write the span file. A run
// whose correctness gate fails prints correct=false with no metrics and
// exits 1. perfbench/run.py builds this program and is the usual way to
// run it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

using namespace perfbench;

namespace {

struct WorkloadInfo {
  const char* name;
  RunResult (*run)(const Options&, Tracer&);
  std::uint64_t held_out_seed;
  const char* why;
};

// The held-out seed of each workload is reserved for confirming a later
// claim; do not tune against it.
constexpr WorkloadInfo kWorkloads[] = {
    {"derive-cold", run_derive_cold, 90001,
     "Whole-catalog cold derives put nearly all the work in parser, linker, memmodel, simlib, "
     "typelattice and injector, so campaign-engine changes show here and nowhere else."},
    {"app-hardened", run_app_hardened, 90002,
     "The paper's low-overhead-in-normal-operation path: hardened app runs exercise linker "
     "dispatch, wrappers, simlib, memmodel and incident with the injector out of the loop."},
    {"serve-warm", run_serve_warm, 90003,
     "A restarted derivation server under open-loop Zipf traffic stresses the server codecs, "
     "dedup, response cache, gen and xml while executing zero probes."},
    {"fleet-sim", run_fleet_sim, 90004,
     "A virtual-time fleet drives the sim engine, fleet wire decode, collector fold and server "
     "admission, with the injector and wrappers idle."},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <derive-cold|app-hardened|serve-warm|fleet-sim> "
               "--seed N --seconds S --trace 0|1 [--report FILE] [--spans FILE] "
               "[--scratch DIR]\n");
  return 2;
}

void write_report(const Options& options, const WorkloadInfo& info, const RunResult& result) {
  if (options.report_path.empty()) return;
  std::FILE* out = std::fopen(options.report_path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"held_out_seed\": %llu,\n",
               info.name, static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(info.held_out_seed));
  std::fprintf(out, "  \"why\": \"%s\",\n  \"trace\": %d,\n  \"seconds\": %.17g,\n",
               json_escape(info.why).c_str(), options.trace ? 1 : 0, options.seconds);
  std::fprintf(out, "  \"pool_threads\": %u,\n", kPoolThreads);
  std::fprintf(out, "  \"correct\": %s,\n  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               result.gate_failures.empty() ? "true" : "false",
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed));
  std::fprintf(out, "  \"gate_failures\": [");
  for (std::size_t i = 0; i < result.gate_failures.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i ? ", " : "", json_escape(result.gate_failures[i]).c_str());
  }
  std::fprintf(out, "],\n  \"metrics\": {");
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::fprintf(out, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ",",
                 name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
  std::fprintf(out, "\n  },\n  \"percentiles\": [");
  for (std::size_t i = 0; i < result.percentiles.size(); ++i) {
    const Percentile& p = result.percentiles[i];
    std::fprintf(out,
                 "%s\n    {\"metric\": \"%s\", \"q\": %.17g, \"samples\": %zu, \"chunks\": %zu, "
                 "\"per_chunk\": %zu, \"min_beyond_per_chunk\": %zu, \"chunk_values\": [",
                 i ? "," : "", p.metric.c_str(), p.q, p.samples, p.chunked.chunks,
                 p.chunked.per_chunk, p.chunked.min_beyond);
    for (std::size_t c = 0; c < p.chunked.values.size(); ++c) {
      std::fprintf(out, "%s%.17g", c ? ", " : "", p.chunked.values[c]);
    }
    std::fprintf(out, "]}");
  }
  std::fprintf(out, "\n  ],\n  \"rates\": [");
  for (std::size_t i = 0; i < result.rates.size(); ++i) {
    const Rate& r = result.rates[i];
    std::fprintf(out,
                 "%s\n    {\"name\": \"%s\", \"work\": %.17g, \"wall_s\": %.17g, "
                 "\"cpu_s\": %.17g, \"threads\": %u, \"value\": %.17g}",
                 i ? "," : "", r.name.c_str(), r.work, r.wall_s, r.cpu_s, r.threads, r.value());
  }
  std::fprintf(out, "\n  ],\n  \"info\": {");
  first = true;
  for (const auto& [name, value] : result.info) {
    std::fprintf(out, "%s\n    \"%s\": %.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::fprintf(out, "\n  }\n}\n");
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0)) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else if (arg == "--report") {
      options.report_path = value;
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else if (arg == "--scratch") {
      options.scratch_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads) {
    if (options.workload == w.name) info = &w;
  }
  if (info == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return usage();
  }
  if (options.scratch_dir.empty()) options.scratch_dir = ".";

  RunResult result;
  Tracer tracer(options.trace);
  try {
    result = info->run(options, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", info->name, e.what());
    return 1;
  }
  if (!options.trace) result.set("peak_rss_mb", peak_rss_mb(), "MB");
  result.info["peak_rss_mb"] = peak_rss_mb();
  if (options.trace && !options.spans_path.empty() && !tracer.write_chrome(options.spans_path)) {
    result.fail("cannot write span file " + options.spans_path);
  }
  write_report(options, *info, result);

  for (const std::string& why : result.gate_failures) {
    std::fprintf(stderr, "perfbench: %s gate failed: %s\n", info->name, why.c_str());
  }
  for (const Percentile& p : result.percentiles) {
    std::fprintf(stderr,
                 "perfbench: %s = median over %zu chunks of p%g; %zu samples, >= %zu per chunk, "
                 ">= %zu beyond it per chunk\n",
                 p.metric.c_str(), p.chunked.chunks, p.q * 100, p.samples, p.chunked.per_chunk,
                 p.chunked.min_beyond);
  }
  const bool correct = result.gate_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  if (correct) {
    bool first = true;
    for (const auto& [name, metric] : result.metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                  name.c_str(), metric.value, metric.unit.c_str());
      first = false;
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
