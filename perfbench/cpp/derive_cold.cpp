// derive-cold: whole-catalog cold derives, as `healers derive -o` runs them.
//
// One sample = a fresh core::Toolkit deriving libsimc, libsimio and libsimm at
// jobs=1 with one seed drawn from the workload seed, each campaign serialized
// to XML. Batch loop: samples run back to back for the measured window.
//
// The traced run derives the same catalogs through the public calls of each
// layer (Toolkit construction, TestbedState::build, FaultInjector campaigns,
// XML encode) and replays parse_manpage and COW fork/reset on the side.
#include <memory>
#include <optional>
#include <string>

#include "common.hpp"
#include "core/toolkit.hpp"
#include "injector/injector.hpp"
#include "linker/testbed.hpp"
#include "parser/manpage.hpp"
#include "xml/xml.hpp"

using namespace healers;

namespace perfbench {
namespace {

constexpr const char* kLibs[] = {"libsimc.so.1", "libsimio.so.1", "libsimm.so.1"};
constexpr std::size_t kLibCount = 3;
constexpr double kTailQ = 0.95;
constexpr std::size_t kPerChunk = 230;  // > 10 samples beyond p95 in every chunk
constexpr std::size_t kMinSamples = 3 * kPerChunk;
constexpr std::size_t kMaxSamples = 4000;
constexpr std::size_t kGateEvery = 16;     // jobs=2 byte-compare on every 16th sample
constexpr std::size_t kGateSamples = 3;
constexpr std::size_t kReplayEvery = 4;    // traced: layer replays on every 4th sample
constexpr int kResetsPerReplay = 256;
constexpr std::uint64_t kWarmupSeed = 12345;
// Campaign worker threads. One, not kPoolThreads: on a shared 4-vCPU host,
// jobs=2 derives ran at 11-15 ms but their per-run p95 spread 0.27 over ten
// runs (thread hand-offs stall with the host's scheduling), against p95/p50
// of about 1.15 at jobs=1. Documents are byte-identical for any jobs value.
constexpr int kJobs = 1;

struct CatalogDerive {
  std::string docs[kLibCount];
  std::uint64_t executed[kLibCount] = {};
  std::uint64_t implied[kLibCount] = {};
  std::uint64_t derives_failed = 0;
  std::string error;
};

std::uint64_t sample_seed(std::uint64_t run_seed, std::size_t sample) {
  return mix(run_seed, sample) % 1'000'000'007ULL;
}

injector::InjectorConfig campaign_config(std::uint64_t seed, int jobs) {
  injector::InjectorConfig config;
  config.seed = seed;
  config.jobs = jobs;
  return config;
}

// What `healers derive <lib> -o` does, once per stock library.
CatalogDerive derive_catalog(std::uint64_t seed, int jobs) {
  CatalogDerive out;
  core::Toolkit toolkit;
  for (std::size_t l = 0; l < kLibCount; ++l) {
    const std::uint64_t executed = toolkit.probes_executed();
    const std::uint64_t implied = toolkit.probes_implied();
    auto campaign = toolkit.derive_robust_api(kLibs[l], campaign_config(seed, jobs));
    if (!campaign.ok()) {
      ++out.derives_failed;
      out.error = campaign.error().message;
      continue;
    }
    out.executed[l] = toolkit.probes_executed() - executed;
    out.implied[l] = toolkit.probes_implied() - implied;
    out.docs[l] = xml::serialize(campaign.value().to_xml());
  }
  return out;
}

// The same derive split at layer boundaries: the pristine testbed the
// toolkit would build lazily is built explicitly and handed to every
// campaign, exactly as Toolkit::derive_robust_api shares its cached state.
CatalogDerive derive_catalog_traced(std::uint64_t seed, Tracer& tracer, std::size_t sample) {
  CatalogDerive out;
  Span root(tracer, "derive-cold.sample", sample);
  std::unique_ptr<core::Toolkit> toolkit;
  {
    Span span(tracer, "core.toolkit_construct");
    toolkit = std::make_unique<core::Toolkit>();
  }
  const injector::InjectorConfig config = campaign_config(seed, kJobs);
  std::shared_ptr<const linker::TestbedState> state;
  {
    Span span(tracer, "linker.testbed_build");
    mem::MachineConfig machine;
    machine.heap_size = config.testbed_heap;
    machine.stack_size = config.testbed_stack;
    machine.step_budget = config.probe_step_budget;
    state = linker::TestbedState::build(toolkit->catalog(), machine,
                                        injector::FaultInjector::probe_stdin());
  }
  for (std::size_t l = 0; l < kLibCount; ++l) {
    std::optional<injector::CampaignResult> campaign;
    {
      Span span(tracer, "injector.campaign");
      injector::FaultInjector injector(toolkit->catalog(), config);
      injector.set_profile_store(toolkit->implication_profiles());
      injector.set_testbed_state(state);
      auto result = injector.run_campaign(*toolkit->library(kLibs[l]));
      out.executed[l] = injector.probes_executed();
      out.implied[l] = injector.probes_implied();
      if (!result.ok()) {
        ++out.derives_failed;
        out.error = result.error().message;
        continue;
      }
      campaign = std::move(result).take();
    }
    Span span(tracer, "xml.campaign_encode");
    out.docs[l] = xml::serialize(campaign->to_xml());
  }
  return out;
}

// Layer replays kept out of the sample's end-to-end time: every man page of
// the catalog through parser::parse_manpage, and COW privatize + reset of a
// shell forked from the pristine testbed (what each probe pays).
void replay_layers(Tracer& tracer, std::size_t sample) {
  Span root(tracer, "replay", sample);
  core::Toolkit toolkit;
  for (const char* soname : kLibs) {
    const simlib::SharedLibrary* lib = toolkit.library(soname);
    for (const std::string& name : lib->names()) {
      Span span(tracer, "parser.manpage_parse");
      (void)parser::parse_manpage(lib->find(name)->manpage);
    }
  }
  const injector::InjectorConfig config = campaign_config(1, 1);
  mem::MachineConfig machine;
  machine.heap_size = config.testbed_heap;
  machine.stack_size = config.testbed_stack;
  machine.step_budget = config.probe_step_budget;
  const auto state = linker::TestbedState::build(toolkit.catalog(), machine,
                                                 injector::FaultInjector::probe_stdin());
  auto shell = state->fork("replay");
  const mem::Addr heap = shell->machine().heap().arena_base();
  Span span(tracer, "memmodel.fork_reset");
  for (int k = 0; k < kResetsPerReplay; ++k) {
    shell->machine().mem().store64(heap + 8 * static_cast<mem::Addr>(k % 64), k);
    state->reset(*shell);
  }
}

struct Measured {
  std::vector<double> sample_s;
  std::vector<CatalogDerive> gated;     // kept docs of the byte-compared samples
  std::vector<std::size_t> gated_index;
  std::uint64_t executed = 0, implied = 0;
  std::uint64_t derives = 0, derives_failed = 0;
  std::uint64_t catalogs_cold_violations = 0;
  std::string error;
};

void record(Measured& m, std::size_t sample, CatalogDerive&& derive) {
  m.derives += kLibCount;
  m.derives_failed += derive.derives_failed;
  if (!derive.error.empty()) m.error = derive.error;
  for (std::size_t l = 0; l < kLibCount; ++l) {
    m.executed += derive.executed[l];
    m.implied += derive.implied[l];
    if (derive.executed[l] == 0) ++m.catalogs_cold_violations;
  }
  if (sample % kGateEvery == 0 && m.gated.size() < kGateSamples) {
    m.gated.push_back(std::move(derive));
    m.gated_index.push_back(sample);
  }
}

}  // namespace

RunResult run_derive_cold(const Options& options, Tracer& tracer) {
  RunResult result;
  const double setup_s = median_setup_seconds(5, [] { (void)derive_catalog(kWarmupSeed, kJobs); });

  // A traced run follows each untraced sample with the same sample traced,
  // so both see the same machine conditions.
  Measured plain, traced;
  std::vector<Interval> intervals;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kMaxSamples; ++i) {
    if (i >= kMinSamples && seconds_between(start, Clock::now()) >= options.seconds) break;
    const std::uint64_t seed = sample_seed(options.seed, i);
    const IntervalTimer timer;
    CatalogDerive derive = derive_catalog(seed, kJobs);
    intervals.push_back(timer.stop(1));
    plain.sample_s.push_back(intervals.back().wall_s);
    record(plain, i, std::move(derive));
    if (options.trace) {
      record(traced, i, derive_catalog_traced(seed, tracer, i));
      if (i % kReplayEvery == 0) replay_layers(tracer, i);
    }
  }
  const std::size_t n = plain.sample_s.size();

  // Gates: every catalog ran cold; sampled documents are byte-identical to a
  // jobs=2 derive of the same seed.
  const Measured& checked = options.trace ? traced : plain;
  result.attempted = plain.derives + traced.derives;
  result.failed = plain.derives_failed + traced.derives_failed;
  if (result.failed != 0) result.fail("derive failed: " + plain.error + traced.error);
  if (plain.catalogs_cold_violations + traced.catalogs_cold_violations != 0) {
    result.fail("a catalog derive executed zero probes (not cold)");
  }
  for (std::size_t g = 0; g < checked.gated.size(); ++g) {
    const CatalogDerive reference =
        derive_catalog(sample_seed(options.seed, checked.gated_index[g]),
                       static_cast<int>(kPoolThreads));
    result.attempted += kLibCount;
    result.failed += reference.derives_failed;
    for (std::size_t l = 0; l < kLibCount; ++l) {
      if (reference.docs[l] != checked.gated[g].docs[l]) {
        result.fail(std::string("document for ") + kLibs[l] + " of sample " +
                    std::to_string(checked.gated_index[g]) + " differs from the jobs=2 derive");
      }
    }
  }
  if (checked.gated.empty()) result.fail("no sample was byte-compared");

  result.info["samples"] = static_cast<double>(n);
  result.info["probes_executed_per_catalog"] = static_cast<double>(plain.executed) / n;
  result.info["probes_implied_per_catalog"] = static_cast<double>(plain.implied) / n;

  if (!options.trace) {
    std::vector<double> us;
    for (const double s : plain.sample_s) us.push_back(s * 1e6);
    const std::size_t chunks = chunk_count(us.size(), kPerChunk);
    result.set_end_to_end(setup_s, us, kTailQ, chunks,
                          chunk_rates("catalog_derives_per_s", kJobs, intervals, chunks));
    return result;
  }

  const double campaign_s = tracer.totals().count("injector.campaign")
                                ? tracer.totals().at("injector.campaign").total_s
                                : 0;
  double untraced_s = 0;
  for (const double s : plain.sample_s) untraced_s += s;
  const double catalogs = static_cast<double>(n);
  result.set("core.toolkit_construct_us", tracer.mean_s("core.toolkit_construct") * 1e6, "us");
  result.set("parser.manpage_parse_us", tracer.mean_s("parser.manpage_parse") * 1e6, "us");
  result.set("linker.testbed_build_us", tracer.mean_s("linker.testbed_build") * 1e6, "us");
  result.set("injector.campaign_ms", tracer.mean_s("injector.campaign") * 1e3, "ms");
  result.set("xml.campaign_encode_us", tracer.mean_s("xml.campaign_encode") * 1e6, "us");
  result.set("memmodel.fork_reset_ns",
             tracer.mean_s("memmodel.fork_reset") / kResetsPerReplay * 1e9, "ns");
  result.set("injector.probe_us",
             traced.executed ? campaign_s / static_cast<double>(traced.executed) * 1e6 : 0, "us");
  result.set("injector.probes_executed", static_cast<double>(traced.executed) / catalogs, "count");
  result.set("injector.probes_implied", static_cast<double>(traced.implied) / catalogs, "count");
  result.set("typelattice.implied_ratio",
             static_cast<double>(traced.implied) /
                 static_cast<double>(traced.executed + traced.implied),
             "ratio");
  result.set("coverage", tracer.coverage("derive-cold"), "ratio");
  result.set("trace_overhead", tracer.sample_total_s("derive-cold") / untraced_s, "ratio");
  return result;
}

}  // namespace perfbench
