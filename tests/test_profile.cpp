// Tests for the profiling pipeline: stats -> report -> XML -> collector ->
// aggregation -> Fig 5 rendering. The collector's own contracts (rejects,
// additive totals, empty rendering) are tested in test_fleet.
#include <gtest/gtest.h>

#include "fleet/collector.hpp"
#include "profile/report.hpp"
#include "testbed.hpp"
#include "wrappers/wrappers.hpp"

namespace healers::profile {
namespace {

using testbed::I;
using testbed::P;

// Runs a small workload under a profiling wrapper and returns the report.
struct ProfileFixture : ::testing::Test {
  std::unique_ptr<linker::Process> proc = testbed::make_process();
  std::shared_ptr<gen::ComposedWrapper> wrapper =
      wrappers::make_profiling_wrapper(testbed::libsimc(), /*include_trace=*/true).value();

  void SetUp() override {
    proc->preload(wrapper);
    const mem::Addr s = proc->alloc_cstring("workload");
    for (int i = 0; i < 10; ++i) proc->call("strlen", {P(s)});
    for (int i = 0; i < 5; ++i) proc->call("atoi", {P(proc->alloc_cstring("42"))});
    // Two errno-setting calls. Fig 3's histograms record errno *changes*
    // (`if (err != errno)`), so reset errno between the two failures, as an
    // application inspecting errno would.
    proc->call("wctrans", {P(proc->alloc_cstring("bogus"))});
    proc->machine().set_err(0);
    proc->call("wctrans", {P(proc->alloc_cstring("bogus2"))});
  }

  ProfileReport report() { return build_report("workload-app", wrapper->name(), *wrapper->stats()); }
};

TEST_F(ProfileFixture, ReportCountsCallsPerFunction) {
  const ProfileReport rep = report();
  ASSERT_NE(rep.function("strlen"), nullptr);
  EXPECT_EQ(rep.function("strlen")->calls, 10u);
  EXPECT_EQ(rep.function("atoi")->calls, 5u);
  EXPECT_EQ(rep.total_calls(), 17u);
}

TEST_F(ProfileFixture, UncalledFunctionsAreOmitted) {
  EXPECT_EQ(report().function("strcat"), nullptr);
}

TEST_F(ProfileFixture, CyclesAttributedToFunctions) {
  const ProfileReport rep = report();
  EXPECT_GT(rep.function("strlen")->cycles, 0u);
  EXPECT_GT(rep.total_cycles(), 0u);
}

TEST_F(ProfileFixture, ErrnoDistributionRecorded) {
  const ProfileReport rep = report();
  ASSERT_NE(rep.function("wctrans"), nullptr);
  EXPECT_EQ(rep.function("wctrans")->errors(), 2u);
  EXPECT_EQ(rep.function("wctrans")->errno_counts.at(simlib::kEINVAL), 2u);
  EXPECT_EQ(rep.global_errnos.at(simlib::kEINVAL), 2u);
  EXPECT_EQ(rep.total_errors(), 2u);
}

TEST_F(ProfileFixture, XmlDocumentIsSelfDescribing) {
  const xml::Node doc = to_xml(report());
  EXPECT_EQ(doc.name(), "profile");
  EXPECT_EQ(*doc.attr("process"), "workload-app");
  EXPECT_EQ(*doc.attr("wrapper"), "profiling-wrapper");
  bool found_strlen = false;
  for (const xml::Node* fn : doc.children_named("function")) {
    if (*fn->attr("name") == "strlen") {
      found_strlen = true;
      EXPECT_EQ(*fn->attr("calls"), "10");
    }
  }
  EXPECT_TRUE(found_strlen);
}

TEST_F(ProfileFixture, XmlRoundTripPreservesReport) {
  const ProfileReport rep = report();
  auto back = from_xml(xml::parse(xml::serialize(to_xml(rep))).value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().total_calls(), rep.total_calls());
  EXPECT_EQ(back.value().total_cycles(), rep.total_cycles());
  EXPECT_EQ(back.value().total_errors(), rep.total_errors());
  EXPECT_EQ(back.value().function("strlen")->calls, 10u);
  EXPECT_EQ(back.value().global_errnos.at(simlib::kEINVAL), 2u);
}

TEST_F(ProfileFixture, RenderShowsFrequenciesTimeSharesAndErrnos) {
  const std::string text = render(report());
  EXPECT_NE(text.find("workload-app"), std::string::npos);
  EXPECT_NE(text.find("strlen"), std::string::npos);
  EXPECT_NE(text.find("%"), std::string::npos);
  EXPECT_NE(text.find("EINVAL"), std::string::npos);
  EXPECT_NE(text.find("Invalid argument"), std::string::npos);
}

TEST_F(ProfileFixture, TraceRecordsWorkload) {
  EXPECT_EQ(wrapper->stats()->trace().size(), 17u);
  EXPECT_EQ(wrapper->stats()->trace()[0].symbol, "strlen");
}

TEST_F(ProfileFixture, CollectorIngestsAndAggregates) {
  fleet::FleetCollector server;
  server.submit(xml::serialize(to_xml(report())));
  // A second process's document.
  auto proc2 = testbed::make_process("p2");
  auto wrapper2 = wrappers::make_profiling_wrapper(testbed::libsimc()).value();
  proc2->preload(wrapper2);
  proc2->call("strlen", {P(proc2->alloc_cstring("abc"))});
  server.submit(
      xml::serialize(to_xml(build_report("p2", "profiling-wrapper", *wrapper2->stats()))));
  server.flush();
  EXPECT_EQ(server.aggregated(), 2u);
  EXPECT_EQ(server.malformed(), 0u);
  const auto agg = server.snapshot().functions;
  EXPECT_EQ(agg.at("strlen").calls, 11u);  // 10 + 1 across processes
  EXPECT_EQ(agg.at("strlen").symbol, "strlen");
  const std::string summary = server.render_summary();
  EXPECT_NE(summary.find("2 aggregated"), std::string::npos);
  EXPECT_NE(summary.find("strlen"), std::string::npos);
}

TEST(ProfileReportEmpty, RendersWithoutErrors) {
  gen::WrapperStats stats;
  const ProfileReport rep = build_report("idle", "w", stats);
  EXPECT_EQ(rep.total_calls(), 0u);
  const std::string text = render(rep);
  EXPECT_NE(text.find("no errors recorded"), std::string::npos);
}

TEST_F(ProfileFixture, ChartRendersProportionalBars) {
  const std::string chart = render_chart(report(), ChartMetric::kCalls, 20);
  EXPECT_NE(chart.find("strlen"), std::string::npos);
  EXPECT_NE(chart.find("atoi"), std::string::npos);
  // strlen (10 calls) gets the full-width bar; atoi (5) roughly half.
  const std::string full_bar(20, '#');
  EXPECT_NE(chart.find(full_bar + " 10"), std::string::npos);
  EXPECT_NE(chart.find(std::string(10, '#') + " 5"), std::string::npos);
}

TEST_F(ProfileFixture, ChartByErrorsShowsOnlyFailingFunctions) {
  const std::string chart = render_chart(report(), ChartMetric::kErrors, 20);
  EXPECT_NE(chart.find("wctrans"), std::string::npos);
  EXPECT_EQ(chart.find("strlen"), std::string::npos);  // zero errors: omitted
}

TEST(ProfileChart, EmptyReportChartsNothing) {
  gen::WrapperStats stats;
  const std::string chart = render_chart(build_report("idle", "w", stats),
                                         ChartMetric::kCycles);
  EXPECT_NE(chart.find("nothing to chart"), std::string::npos);
}

TEST(ProfileContained, ContainedCountSurvivesRoundTrip) {
  gen::WrapperStats stats;
  stats.register_function(1, "strcpy");
  stats.function(1).calls = 4;
  stats.function(1).contained = 2;
  const ProfileReport rep = build_report("p", "w", stats);
  auto back = from_xml(xml::parse(xml::serialize(to_xml(rep))).value());
  EXPECT_EQ(back.value().function("strcpy")->contained, 2u);
}

}  // namespace
}  // namespace healers::profile
