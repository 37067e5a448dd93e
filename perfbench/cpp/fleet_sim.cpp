// fleet-sim: one sim::FleetSim::run() per sample, virtual-time batch loop.
//
// Each sample simulates H hosts for T virtual seconds with mixed traffic and
// debloat on, under a sim seed drawn from the workload seed. The seed-21 campaigns the hosts' derive
// requests ask for are derived in setup, as a warm fleet would have them.
//
// The traced run replays public sim::step over the same hosts and horizon,
// and decodes and ingests a document stream of the same mix built with the
// public fleet encoders.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/toolkit.hpp"
#include "debloat/surface.hpp"
#include "fleet/collector.hpp"
#include "fleet/wire.hpp"
#include "incident/dossier.hpp"
#include "profile/report.hpp"
#include "sim/fleet_sim.hpp"

using namespace healers;

namespace perfbench {
namespace {

constexpr const char* kLibs[] = {"libsimc.so.1", "libsimio.so.1", "libsimm.so.1"};
constexpr std::uint32_t kHosts = 2000;
constexpr std::uint64_t kVirtualSeconds = 30;
constexpr double kTailQ = 0.95;
constexpr std::size_t kPerChunk = 230;  // > 10 samples beyond p95 in every chunk
constexpr std::size_t kMinSamples = 3 * kPerChunk;
constexpr std::size_t kMaxSamples = 20'000;
constexpr std::size_t kDigestChecks = 3;  // samples re-run to compare summary digests
constexpr std::size_t kReplayEvery = 4;   // traced: replays on every 4th sample
constexpr std::size_t kReplayDocs = 2048;
// The simulator, collector and server pools run one thread each here, not
// kPoolThreads: on a shared 4-vCPU host the 2-thread pools spent most of
// each lookahead window handing work between threads (process CPU / wall
// 0.64-1.26) and a run took 14-36 ms against a steady 12-13 ms with one.
constexpr unsigned kFleetThreads = 1;

sim::SimConfig sim_config(std::uint64_t seed) {
  sim::SimConfig config;
  config.hosts = kHosts;
  config.virtual_seconds = kVirtualSeconds;
  config.seed = seed;
  config.traffic = sim::TrafficModel::kMixed;
  config.debloat = true;
  config.jobs = kFleetThreads;
  config.collector.workers = kFleetThreads;
  config.server.workers = kFleetThreads;
  return config;
}

std::uint64_t sample_seed(std::uint64_t run_seed, std::size_t sample) {
  return mix(run_seed, sample) % 1'000'000'007ULL;
}

std::unique_ptr<core::Toolkit> make_toolkit() {
  auto toolkit = std::make_unique<core::Toolkit>();
  for (const char* lib : kLibs) {
    injector::InjectorConfig config;
    config.seed = 21;
    config.variants = 1;
    config.jobs = static_cast<int>(kFleetThreads);
    if (!toolkit->derive_robust_api(lib, config).ok()) {
      throw std::runtime_error(std::string("cannot derive ") + lib);
    }
  }
  return toolkit;
}

struct SampleOut {
  sim::SimStats stats;
  std::uint64_t ingested = 0, dropped = 0, malformed = 0, shed = 0, cache_hits = 0, submitted = 0;
  std::uint64_t digest = 0;
};

SampleOut run_sim(const core::Toolkit& toolkit, std::uint64_t seed, Tracer& tracer,
                  std::size_t sample) {
  SampleOut out;
  Span root(tracer, "fleet-sim.sample", sample);
  std::unique_ptr<sim::FleetSim> fleet;
  {
    Span span(tracer, "sim.construct");
    fleet = std::make_unique<sim::FleetSim>(toolkit, sim_config(seed));
  }
  {
    Span span(tracer, "sim.run");
    out.stats = fleet->run();
  }
  {
    Span span(tracer, "sim.summary");
    out.digest = fleet::fnv1a(fleet->render_global_summary());
  }
  out.ingested = fleet->collector().aggregated();
  out.dropped = fleet->collector().dropped();
  out.malformed = fleet->collector().malformed();
  const server::ServerStats server = fleet->server().stats();
  out.shed = server.shed;
  out.cache_hits = server.cache_hits;
  out.submitted = server.submitted;
  return out;
}

// Traced only: every host's state machine stepped to the horizon through
// the public sim::step, one event at a time.
void replay_steps(std::uint64_t seed, Tracer& tracer, std::uint64_t& steps) {
  const sim::VirtualTime horizon = kVirtualSeconds * sim::kMicrosPerVirtualSecond;
  std::vector<sim::HostTask> hosts;
  hosts.reserve(kHosts);
  sim::EventQueue queue;
  queue.reserve(kHosts);
  for (std::uint32_t h = 0; h < kHosts; ++h) {
    hosts.emplace_back(seed, h, sim::TrafficModel::kMixed);
    hosts.back().debloat = true;
    queue.push(sim::Event{sim::initial_delay(hosts.back()), h});
  }
  Span span(tracer, "sim.host_step");
  while (!queue.empty() && queue.top().at < horizon) {
    const sim::Event event = queue.pop();
    const sim::StepPlan plan = sim::step(hosts[event.host], event.at);
    ++steps;
    const sim::VirtualTime next = event.at + std::max<sim::VirtualTime>(plan.next_delay, 1);
    if (next < horizon) queue.push(sim::Event{next, event.host});
  }
}

// A document stream in the sample's profile : dossier : surface mix, built
// with the public fleet encoders.
std::vector<std::string> make_documents(const sim::SimStats& stats, std::uint64_t seed) {
  const double total =
      static_cast<double>(stats.profile_docs + stats.dossier_docs + stats.surface_docs);
  std::vector<std::string> docs;
  for (std::size_t i = 0; i < kReplayDocs; ++i) {
    const double u = static_cast<double>(mix(seed, i) % 1'000'000) / 1e6 * total;
    char host[16];
    std::snprintf(host, sizeof host, "h%07zu", i);
    if (u < static_cast<double>(stats.profile_docs)) {
      profile::ProfileReport report;
      report.process = host;
      report.wrapper = "sim-wrapper";
      for (const char* symbol : {"memcpy", "strcpy", "strlen"}) {
        profile::FunctionProfile fn;
        fn.symbol = symbol;
        fn.calls = 1 + i % 64;
        fn.cycles = fn.calls * 40;
        report.functions.push_back(fn);
      }
      docs.push_back(fleet::encode_binary(report));
    } else if (u < static_cast<double>(stats.profile_docs + stats.dossier_docs)) {
      incident::Dossier dossier;
      dossier.process = host;
      dossier.detector = simlib::DetectionKind::kHeapSmash;
      dossier.symbol = "memcpy";
      dossier.detail = "heap canary mismatch";
      dossier.seq = 1 + i % 512;
      docs.push_back(fleet::encode_dossier_binary(dossier));
    } else {
      debloat::SurfaceProfile surface;
      surface.host = host;
      surface.executable = "netd";
      surface.exported = 90;
      surface.reachable = 6;
      surface.reachable_symbols = {"free", "malloc", "memcpy", "puts", "strcpy", "strlen"};
      surface.touched = 3;
      surface.touched_symbols = {"free", "malloc", "memcpy"};
      surface.resident_pages = 3;
      surface.total_pages = 90;
      docs.push_back(fleet::encode_surface_binary(surface));
    }
  }
  return docs;
}

void replay_documents(const std::vector<std::string>& docs, Tracer& tracer,
                      std::uint64_t& decoded, std::uint64_t& decode_errors) {
  {
    Span span(tracer, "fleet.decode");
    for (const std::string& doc : docs) {
      const bool ok = fleet::is_dossier_binary(doc)   ? fleet::decode_dossier(doc).ok()
                      : fleet::is_surface_binary(doc) ? fleet::decode_surface(doc).ok()
                                                      : fleet::decode_document(doc).ok();
      ++decoded;
      if (!ok) ++decode_errors;
    }
  }
  fleet::CollectorConfig config = sim_config(0).collector;
  fleet::FleetCollector collector(config);
  Span span(tracer, "fleet.ingest");
  for (const std::string& doc : docs) collector.submit(doc);
  collector.flush();
  if (collector.aggregated() != docs.size()) ++decode_errors;
}

}  // namespace

RunResult run_fleet_sim(const Options& options, Tracer& tracer) {
  RunResult result;
  std::unique_ptr<core::Toolkit> toolkit;
  const double setup_s = median_setup_seconds(5, [&] { toolkit = make_toolkit(); });

  // A traced run follows each untraced sample with the same sample traced,
  // so both see the same machine conditions.
  Tracer off(false);
  std::vector<double> run_s;
  std::vector<SampleOut> outs, traced_outs;
  std::vector<Interval> intervals;
  std::uint64_t steps = 0, decoded = 0, decode_errors = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMaxSamples; ++i) {
    if (i >= kMinSamples && seconds_between(start, Clock::now()) >= options.seconds) break;
    const std::uint64_t seed = sample_seed(options.seed, i);
    const IntervalTimer timer;
    outs.push_back(run_sim(*toolkit, seed, off, i));
    intervals.push_back(timer.stop(kHosts));
    run_s.push_back(intervals.back().wall_s);
    if (options.trace) {
      traced_outs.push_back(run_sim(*toolkit, seed, tracer, i));
      if (i % kReplayEvery == 0) {
        Span root(tracer, "replay", i);
        replay_steps(seed, tracer, steps);
        replay_documents(make_documents(traced_outs.back().stats, seed), tracer, decoded,
                         decode_errors);
      }
    }
  }
  const std::size_t n = run_s.size();

  // Gates: both accounting identities on every run; summary digests repeat
  // for re-runs of sampled seeds (and for the traced re-run of every seed).
  std::uint64_t emitted_total = 0, derive_total = 0;
  for (const auto* set : {&outs, &traced_outs}) {
    for (const SampleOut& o : *set) {
      const sim::SimStats& s = o.stats;
      const std::uint64_t emitted = s.profile_docs + s.dossier_docs + s.surface_docs;
      emitted_total += emitted;
      derive_total += s.derive_requests;
      if (o.dropped + o.ingested != emitted || o.malformed != 0) {
        result.fail("dropped + ingested != emitted");
      }
      if (s.responses_ok + s.responses_error + s.responses_shed != s.derive_requests) {
        result.fail("responses_ok + error + shed != derive_requests");
      }
      result.failed += o.malformed + s.responses_error;
    }
  }
  for (std::size_t i = 0; i < traced_outs.size(); ++i) {
    if (traced_outs[i].digest != outs[i].digest) {
      result.fail("traced re-run of sample " + std::to_string(i) + " changed the summary");
    }
  }
  for (std::size_t c = 0; c < kDigestChecks; ++c) {
    const std::size_t i = c * (n / kDigestChecks);
    if (run_sim(*toolkit, sample_seed(options.seed, i), off, i).digest != outs[i].digest) {
      result.fail("re-run of sample " + std::to_string(i) + " changed the summary digest");
    }
  }
  if (decode_errors != 0) result.fail("replayed fleet documents failed to decode or ingest");
  result.attempted = emitted_total + derive_total;

  std::uint64_t events = 0, ingested = 0, dropped = 0, shed = 0, hits = 0, submitted = 0;
  for (const SampleOut& o : options.trace ? traced_outs : outs) {
    events += o.stats.events;
    ingested += o.ingested;
    dropped += o.dropped;
    shed += o.shed;
    hits += o.cache_hits;
    submitted += o.submitted;
  }
  result.info["samples"] = static_cast<double>(n);
  result.info["hosts"] = kHosts;
  result.info["virtual_seconds"] = kVirtualSeconds;
  result.info["events_per_run"] = static_cast<double>(events) / n;

  if (!options.trace) {
    std::vector<double> us;
    for (const double s : run_s) us.push_back(s * 1e6);
    const std::size_t chunks = chunk_count(us.size(), kPerChunk);
    result.set_end_to_end(setup_s, us, kTailQ, chunks,
                          chunk_rates("sim_hosts_per_s", kFleetThreads, intervals, chunks));
    return result;
  }

  const auto total_s = [&](const char* name) {
    const auto it = tracer.totals().find(name);
    return it == tracer.totals().end() ? 0.0 : it->second.total_s;
  };
  double untraced_s = 0;
  for (const double s : run_s) untraced_s += s;
  const double runs = static_cast<double>(n);
  result.set("sim.host_step_ns", steps ? total_s("sim.host_step") / steps * 1e9 : 0, "ns");
  result.set("fleet.decode_ns", decoded ? total_s("fleet.decode") / decoded * 1e9 : 0, "ns");
  result.set("fleet.ingest_ns", decoded ? total_s("fleet.ingest") / decoded * 1e9 : 0, "ns");
  result.set("sim.events", static_cast<double>(events) / runs, "count");
  result.set("fleet.ingested", static_cast<double>(ingested) / runs, "count");
  result.set("fleet.dropped", static_cast<double>(dropped) / runs, "count");
  result.set("server.shed", static_cast<double>(shed) / runs, "count");
  result.set("server.cache_hit_ratio",
             submitted ? static_cast<double>(hits) / static_cast<double>(submitted) : 0, "ratio");
  result.set("coverage", tracer.coverage("fleet-sim"), "ratio");
  result.set("trace_overhead", tracer.sample_total_s("fleet-sim") / untraced_s, "ratio");
  return result;
}

}  // namespace perfbench
