// Tests for the parallel snapshot-based campaign engine: the determinism
// guarantee (bit-identical specs for every jobs value and either testbed
// reset mode), the snapshot/restore machinery it is built on, the kNotRun
// probe outcome, the toolkit's campaign cache, and concurrent first use of
// a library's parsed-page table.
#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "core/toolkit.hpp"
#include "injector/injector.hpp"
#include "testbed.hpp"
#include "xml/xml.hpp"

namespace healers::injector {
namespace {

struct ParallelCampaignFixture : ::testing::Test {
  linker::LibraryCatalog catalog;

  ParallelCampaignFixture() {
    catalog.install(&testbed::libsimc());
    catalog.install(&testbed::libsimio());
    catalog.install(&testbed::libsimm());
  }

  std::string campaign_xml(const simlib::SharedLibrary& lib, const InjectorConfig& config) {
    FaultInjector injector(catalog, config);
    auto campaign = injector.run_campaign(lib);
    EXPECT_TRUE(campaign.ok()) << (campaign.ok() ? "" : campaign.error().message);
    EXPECT_GT(injector.probes_executed(), 0u);
    return xml::serialize(campaign.value().to_xml());
  }
};

// The core guarantee: the serialized RobustSpec XML is byte-identical no
// matter how many workers probed — scheduling cannot leak into results.
TEST_F(ParallelCampaignFixture, CampaignXmlByteIdenticalAcrossJobCounts) {
  InjectorConfig config;
  config.seed = 7;
  config.variants = 2;

  config.jobs = 1;
  const std::string one = campaign_xml(testbed::libsimio(), config);
  config.jobs = 2;
  const std::string two = campaign_xml(testbed::libsimio(), config);
  config.jobs = 8;
  const std::string eight = campaign_xml(testbed::libsimio(), config);

  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

// Rewinding a worker's testbed to its post-load snapshot must be
// indistinguishable from building a fresh process for every probe — the
// restore also rewinds the address-space allocation cursor, so even the
// simulated addresses embedded in failure details match byte for byte.
TEST_F(ParallelCampaignFixture, SnapshotResetMatchesFreshProcessByteForByte) {
  InjectorConfig config;
  config.seed = 7;
  config.variants = 2;

  config.snapshot_reset = true;
  const std::string snapshot = campaign_xml(testbed::libsimio(), config);
  config.snapshot_reset = false;
  const std::string fresh = campaign_xml(testbed::libsimio(), config);
  EXPECT_EQ(snapshot, fresh);

  // Both knobs at once: parallel workers over fresh processes.
  config.jobs = 8;
  const std::string parallel_fresh = campaign_xml(testbed::libsimio(), config);
  EXPECT_EQ(snapshot, parallel_fresh);
}

TEST_F(ParallelCampaignFixture, ProbeFunctionIdenticalAcrossJobCounts) {
  InjectorConfig config;
  config.seed = 11;
  FaultInjector sequential(catalog, config);
  config.jobs = 4;
  FaultInjector parallel(catalog, config);

  auto a = sequential.probe_function(testbed::libsimc(), "strcpy");
  auto b = parallel.probe_function(testbed::libsimc(), "strcpy");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(xml::serialize(a.value().to_xml()), xml::serialize(b.value().to_xml()));
}

TEST_F(ParallelCampaignFixture, NotRunOutcomeIsNotARobustnessFailure) {
  linker::CallOutcome outcome;
  outcome.kind = linker::CallOutcome::Kind::kNotRun;
  outcome.detail = "no test case 9";
  EXPECT_FALSE(outcome.robustness_failure());
  EXPECT_EQ(outcome.to_string(), "not run: no test case 9");
}

// --- the snapshot/restore machinery the engine rests on ---------------------

TEST(MachineSnapshot, RoundTripRestoresHeapStackErrnoAndCounters) {
  mem::Machine machine;
  const mem::Addr before = machine.heap().malloc(64);
  ASSERT_NE(before, 0u);
  machine.heap().free(before);
  machine.set_err(7);
  machine.tick(100);

  const mem::Machine::Snapshot snap = machine.snapshot();
  const mem::HeapStats stats_at_snap = machine.heap().stats();
  const std::uint64_t steps_at_snap = machine.steps();

  // Disturb everything the snapshot covers.
  const mem::Addr noise = machine.heap().malloc(1024);
  machine.mem().store64(noise, 0xdeadbeef);
  machine.stack().push("victim", 32, 0x4000);
  machine.set_err(99);
  machine.tick(5000);
  machine.intern_string("post-snapshot literal");

  machine.restore(snap);

  EXPECT_EQ(machine.err(), 7);
  EXPECT_EQ(machine.steps(), steps_at_snap);
  EXPECT_EQ(machine.stack().depth(), 0u);
  EXPECT_EQ(machine.heap().stats().allocations, stats_at_snap.allocations);
  EXPECT_EQ(machine.heap().stats().chunks_in_use, stats_at_snap.chunks_in_use);
  EXPECT_EQ(machine.heap().stats().bytes_in_use, stats_at_snap.bytes_in_use);
  // The decisive property: allocation replays bit-identically after restore.
  EXPECT_EQ(machine.heap().malloc(64), before);
}

TEST(ProcessSnapshot, RoundTripRestoresStdioErrnoAndAddressLayout) {
  auto process = testbed::make_process();
  process->state().stdin_content = "hello\n";

  const linker::Process::Snapshot snap = process->snapshot();
  const mem::Addr probe_addr = process->alloc_cstring("probe");
  process->restore(snap);

  // Disturb heap, stdio state, errno, and the call counter.
  (void)process->alloc_cstring("leaked allocation");
  process->state().stdout_capture += "noise";
  process->state().stdin_pos = 3;
  process->state().fs.put("/tmp/scratch", "contents");
  process->machine().set_err(42);
  const auto outcome = process->supervised_call(
      "puts", {testbed::P(process->rodata_cstring("shout"))});
  EXPECT_EQ(outcome.kind, linker::CallOutcome::Kind::kReturned);

  process->restore(snap);

  EXPECT_EQ(process->machine().err(), 0);
  EXPECT_TRUE(process->state().stdout_capture.empty());
  EXPECT_EQ(process->state().stdin_content, "hello\n");
  EXPECT_EQ(process->state().stdin_pos, 0u);
  EXPECT_FALSE(process->state().fs.exists("/tmp/scratch"));
  EXPECT_EQ(process->calls_dispatched(), snap.calls_dispatched);
  // Identical address layout after restore: the same allocation lands at
  // the same simulated address it got the first time around.
  EXPECT_EQ(process->alloc_cstring("probe"), probe_addr);
}

TEST(ProcessSnapshot, RestoreRejectsShrunkenLoadSet) {
  linker::Process process("snapshot-guard");
  process.load_library(&testbed::libsimc());
  process.load_library(&testbed::libsimm());
  const auto snap = process.snapshot();
  linker::Process smaller("snapshot-guard-2");
  smaller.load_library(&testbed::libsimc());
  EXPECT_THROW(smaller.restore(snap), std::logic_error);
}

// --- the toolkit's campaign cache -------------------------------------------

TEST(ToolkitCampaignCache, SecondDeriveRunsZeroProbes) {
  core::Toolkit toolkit;
  InjectorConfig config;
  config.seed = 5;

  auto first = toolkit.derive_robust_api("libsimm.so.1", config);
  ASSERT_TRUE(first.ok()) << first.error().message;
  const std::uint64_t probes_after_first = toolkit.probes_executed();
  EXPECT_GT(probes_after_first, 0u);

  auto second = toolkit.derive_robust_api("libsimm.so.1", config);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(toolkit.probes_executed(), probes_after_first);  // pure cache hit
  EXPECT_EQ(xml::serialize(first.value().to_xml()), xml::serialize(second.value().to_xml()));
}

TEST(ToolkitCampaignCache, ResultAffectingConfigChangesMiss) {
  core::Toolkit toolkit;
  InjectorConfig config;
  config.seed = 5;

  ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", config).ok());
  const std::uint64_t after_first = toolkit.probes_executed();

  config.seed = 6;  // different seed: different campaign, must re-probe
  ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", config).ok());
  const std::uint64_t after_seed_change = toolkit.probes_executed();
  EXPECT_GT(after_seed_change, after_first);

  config.variants = 4;  // more fuzz variants: more probes, must re-probe
  ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", config).ok());
  EXPECT_GT(toolkit.probes_executed(), after_seed_change);
}

TEST(ToolkitCampaignCache, SchedulingKnobsShareOneCacheSlot) {
  core::Toolkit toolkit;
  InjectorConfig config;
  config.seed = 5;
  config.jobs = 1;

  ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", config).ok());
  const std::uint64_t after_first = toolkit.probes_executed();

  // jobs and snapshot_reset cannot change results (enforced by the
  // determinism tests above), so they are not part of the cache key.
  config.jobs = 8;
  config.snapshot_reset = false;
  ASSERT_TRUE(toolkit.derive_robust_api("libsimm.so.1", config).ok());
  EXPECT_EQ(toolkit.probes_executed(), after_first);
}

// --- concurrent first use of the parsed-page table ---------------------------

// Four threads make the first page() calls on a fresh library at once: the
// library is parsed once and every thread reads the same entries.
TEST(PageTableConcurrency, FirstUseFromFourThreadsSharesOneTable) {
  const simlib::SharedLibrary lib = simlib::build_libsimc();
  const std::vector<std::string> names = lib.names();
  std::vector<std::vector<const parser::ManPage*>> seen(4);
  std::vector<std::thread> threads;
  for (auto& pages : seen) {
    threads.emplace_back([&lib, &names, &pages] {
      for (const std::string& name : names) pages.push_back(&lib.page(name).value());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(seen[0][i]->name, names[i]);
    for (const auto& pages : seen) EXPECT_EQ(pages[i], seen[0][i]) << names[i];
  }
}

// A jobs=4 campaign and three wrapper builds race on a fresh toolkit's
// first use of libsimio's pages; the campaign document matches a jobs=1
// derive on another fresh toolkit byte for byte.
TEST(PageTableConcurrency, CampaignAndWrapperBuildsShareFirstUse) {
  InjectorConfig config;
  config.seed = 9;
  config.jobs = 4;
  core::Toolkit toolkit;
  std::optional<Result<CampaignResult>> campaign;
  std::vector<std::size_t> wrapped(3, 0);
  std::vector<std::thread> threads;
  threads.emplace_back([&] { campaign = toolkit.derive_robust_api("libsimio.so.1", config); });
  for (std::size_t& count : wrapped) {
    threads.emplace_back([&toolkit, &count] {
      auto wrapper = toolkit.profiling_wrapper("libsimio.so.1");
      if (wrapper.ok()) count = wrapper.value()->wrapped_count();
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(campaign.has_value() && campaign->ok());
  for (const std::size_t count : wrapped) {
    EXPECT_EQ(count, toolkit.library("libsimio.so.1")->size());
  }

  config.jobs = 1;
  const auto sequential = core::Toolkit().derive_robust_api("libsimio.so.1", config);
  ASSERT_TRUE(sequential.ok());
  EXPECT_EQ(xml::serialize(campaign->value().to_xml()),
            xml::serialize(sequential.value().to_xml()));
}

}  // namespace
}  // namespace healers::injector
