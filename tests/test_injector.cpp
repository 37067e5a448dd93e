// Unit tests for the fault-injection engine: per-function probing, the
// derived checks, campaign aggregation and determinism, table rendering,
// and the robust-spec XML round trip.
#include <gtest/gtest.h>

#include "injector/injector.hpp"
#include "testbed.hpp"

namespace healers::injector {
namespace {

struct InjectorFixture : ::testing::Test {
  linker::LibraryCatalog catalog;
  InjectorConfig config;

  InjectorFixture() {
    catalog.install(&testbed::libsimc());
    catalog.install(&testbed::libsimio());
    catalog.install(&testbed::libsimm());
    config.seed = 11;
    config.variants = 1;
  }

  RobustSpec probe(const std::string& name, const simlib::SharedLibrary& lib) {
    FaultInjector injector(catalog, config);
    auto spec = injector.probe_function(lib, name);
    EXPECT_TRUE(spec.ok()) << name << ": " << (spec.ok() ? "" : spec.error().message);
    return std::move(spec).take();
  }
};

TEST_F(InjectorFixture, StrlenRequiresValidTerminatedString) {
  const RobustSpec spec = probe("strlen", testbed::libsimc());
  ASSERT_EQ(spec.args.size(), 1u);
  const DerivedChecks& checks = spec.args[0].checks;
  EXPECT_TRUE(checks.require_nonnull);
  EXPECT_TRUE(checks.require_mapped);
  EXPECT_TRUE(checks.require_terminated);
  EXPECT_FALSE(checks.require_writable);  // strlen reads; rodata passed
  EXPECT_GT(spec.total_failures, 0u);
  EXPECT_GT(spec.crashes, 0u);
}

TEST_F(InjectorFixture, StrcpyDestRequiresWritableSizeCheckedBuffer) {
  const RobustSpec spec = probe("strcpy", testbed::libsimc());
  const DerivedChecks& dest = spec.args[0].checks;
  EXPECT_TRUE(dest.require_nonnull);
  EXPECT_TRUE(dest.require_writable);   // rodata destination crashed
  EXPECT_TRUE(dest.require_size_check); // tiny destination crashed
  const DerivedChecks& src = spec.args[1].checks;
  EXPECT_TRUE(src.require_nonnull);
  EXPECT_TRUE(src.require_terminated);  // unterminated source crashed
}

TEST_F(InjectorFixture, MathFunctionsDeriveNoPreconditions) {
  const RobustSpec spec = probe("sin", testbed::libsimm());
  EXPECT_EQ(spec.total_failures, 0u);
  ASSERT_EQ(spec.args.size(), 1u);
  EXPECT_FALSE(spec.args[0].checks.any());
  EXPECT_EQ(spec.args[0].safe_type_name(), "any double");
}

TEST_F(InjectorFixture, CtypeDerivesRangeFromAnnotation) {
  const RobustSpec spec = probe("isalpha", testbed::libsimc());
  ASSERT_EQ(spec.args.size(), 1u);
  ASSERT_TRUE(spec.args[0].checks.range.has_value());
  EXPECT_EQ(spec.args[0].checks.range->first, -128);
  EXPECT_EQ(spec.args[0].checks.range->second, 255);
  EXPECT_GT(spec.total_failures, 0u);
}

TEST_F(InjectorFixture, FreeDerivesHeapPointerRole) {
  const RobustSpec spec = probe("free", testbed::libsimc());
  EXPECT_TRUE(spec.args[0].checks.require_heap_pointer);
  EXPECT_GT(spec.aborts, 0u);  // garbage frees abort
}

TEST_F(InjectorFixture, FcloseDerivesFileRole) {
  const RobustSpec spec = probe("fclose", testbed::libsimio());
  EXPECT_TRUE(spec.args[0].checks.require_file);
  EXPECT_GT(spec.total_failures, 0u);
}

TEST_F(InjectorFixture, NoreturnFunctionsAreSkipped) {
  const RobustSpec spec = probe("exit", testbed::libsimc());
  EXPECT_TRUE(spec.skipped_noreturn);
  EXPECT_EQ(spec.total_probes, 0u);
}

TEST_F(InjectorFixture, ZeroArgFunctionsProduceEmptySpec) {
  const RobustSpec spec = probe("rand", testbed::libsimc());
  EXPECT_TRUE(spec.args.empty());
  EXPECT_EQ(spec.total_failures, 0u);
}

TEST_F(InjectorFixture, UnknownFunctionFails) {
  FaultInjector injector(catalog, config);
  EXPECT_FALSE(injector.probe_function(testbed::libsimc(), "gethostbyname").ok());
}

TEST_F(InjectorFixture, VerdictsPartitionOutcomesByKind) {
  const RobustSpec spec = probe("strcpy", testbed::libsimc());
  for (const ArgSpec& arg : spec.args) {
    for (const TypeVerdict& v : arg.verdicts) {
      EXPECT_EQ(v.failures, v.crashes + v.hangs + v.aborts) << lattice::to_string(v.id);
      EXPECT_LE(v.failures, v.probes);
      if (v.failed()) {
        EXPECT_FALSE(v.first_failure.empty());
      }
    }
  }
  std::uint64_t probes = 0;
  for (const ArgSpec& arg : spec.args) {
    for (const TypeVerdict& v : arg.verdicts) probes += static_cast<std::uint64_t>(v.probes);
  }
  EXPECT_EQ(probes, spec.total_probes);
}

TEST_F(InjectorFixture, ProbesExecutedCounterAdvances) {
  FaultInjector injector(catalog, config);
  (void)injector.probe_function(testbed::libsimc(), "strlen");
  const std::uint64_t after_one = injector.probes_executed();
  EXPECT_GT(after_one, 0u);
  (void)injector.probe_function(testbed::libsimc(), "strcmp");
  EXPECT_GT(injector.probes_executed(), after_one);
}

TEST_F(InjectorFixture, CampaignCoversEveryFunctionAndIsDeterministic) {
  FaultInjector a(catalog, config);
  FaultInjector b(catalog, config);
  const auto ra = a.run_campaign(testbed::libsimm());
  const auto rb = b.run_campaign(testbed::libsimm());
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra.value().specs.size(), testbed::libsimm().size());
  EXPECT_EQ(ra.value().total_probes(), rb.value().total_probes());
  EXPECT_EQ(ra.value().total_failures(), rb.value().total_failures());
}

TEST_F(InjectorFixture, CampaignProgressCallbackFires) {
  FaultInjector injector(catalog, config);
  std::vector<std::string> seen;
  (void)injector.run_campaign(testbed::libsimm(),
                              [&seen](const std::string& name) { seen.push_back(name); });
  EXPECT_EQ(seen.size(), testbed::libsimm().size());
}

TEST_F(InjectorFixture, CampaignTableMentionsEveryFunction) {
  FaultInjector injector(catalog, config);
  const auto result = injector.run_campaign(testbed::libsimm());
  const std::string table = result.value().to_table();
  for (const std::string& name : testbed::libsimm().names()) {
    EXPECT_NE(table.find(name), std::string::npos) << name;
  }
  EXPECT_NE(table.find("totals:"), std::string::npos);
}

TEST_F(InjectorFixture, SpecXmlRoundTrip) {
  const RobustSpec spec = probe("strcpy", testbed::libsimc());
  const std::string doc = xml::serialize(spec.to_xml());
  auto reparsed = RobustSpec::from_xml(xml::parse(doc).value());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
  const RobustSpec& back = reparsed.value();
  EXPECT_EQ(back.function, spec.function);
  EXPECT_EQ(back.library, spec.library);
  EXPECT_EQ(back.declaration, spec.declaration);
  EXPECT_EQ(back.total_probes, spec.total_probes);
  EXPECT_EQ(back.total_failures, spec.total_failures);
  ASSERT_EQ(back.args.size(), spec.args.size());
  for (std::size_t i = 0; i < back.args.size(); ++i) {
    EXPECT_EQ(back.args[i].checks.require_nonnull, spec.args[i].checks.require_nonnull);
    EXPECT_EQ(back.args[i].checks.require_writable, spec.args[i].checks.require_writable);
    EXPECT_EQ(back.args[i].checks.require_terminated, spec.args[i].checks.require_terminated);
    EXPECT_EQ(back.args[i].safe_type_name(), spec.args[i].safe_type_name());
    ASSERT_EQ(back.args[i].verdicts.size(), spec.args[i].verdicts.size());
  }
  // Second-generation serialization is byte-stable.
  EXPECT_EQ(xml::serialize(back.to_xml()), doc);
}

TEST_F(InjectorFixture, CampaignXmlRoundTrip) {
  FaultInjector injector(catalog, config);
  const auto result = injector.run_campaign(testbed::libsimm());
  const std::string doc = xml::serialize(result.value().to_xml());
  auto back = CampaignResult::from_xml(xml::parse(doc).value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().library, "libsimm.so.1");
  EXPECT_EQ(back.value().specs.size(), result.value().specs.size());
  EXPECT_EQ(back.value().total_probes(), result.value().total_probes());
}

TEST_F(InjectorFixture, FromXmlRejectsWrongDocuments) {
  EXPECT_FALSE(RobustSpec::from_xml(xml::parse("<other/>").value()).ok());
  EXPECT_FALSE(RobustSpec::from_xml(xml::parse("<robust-spec/>").value()).ok());
  EXPECT_FALSE(CampaignResult::from_xml(xml::parse("<nope/>").value()).ok());
  // Numbers, class names and check flags are strict: none of these reads as
  // a wrapped, truncated or defaulted value.
  const std::pair<const char*, const char*> bad[] = {
      {R"(<campaign seed="-1"/>)", "campaign: malformed seed"},
      {R"(<campaign><robust-spec function="f" probes="abc"/></campaign>)",
       "campaign: malformed probes"},
      {R"(<campaign><robust-spec function="f"><arg index="1"><verdict type="null" )"
       R"(probes="4294967297"/></arg></robust-spec></campaign>)",
       "campaign: malformed probes"},
      {R"(<campaign><robust-spec function="f"><arg index="1" class="bogus"/></robust-spec>)"
       R"(</campaign>)",
       "campaign: unknown class 'bogus'"},
      {R"(<campaign><robust-spec function="f"><arg index="1"><checks nonnull="7"/></arg>)"
       R"(</robust-spec></campaign>)",
       "campaign: malformed nonnull"},
  };
  for (const auto& [doc, error] : bad) {
    const auto result = CampaignResult::from_xml(xml::parse(doc).value());
    ASSERT_FALSE(result.ok()) << doc;
    EXPECT_EQ(result.error().message, error) << doc;
  }
}

TEST(DeriveChecks, PointerRulesFollowVerdicts) {
  ArgSpec arg;
  arg.cls = parser::TypeClass::kPointer;
  auto verdict = [](lattice::TestTypeId id, int failures) {
    TypeVerdict v;
    v.id = id;
    v.probes = 1;
    v.failures = failures;
    return v;
  };
  arg.verdicts.push_back(verdict(lattice::TestTypeId::kNull, 1));
  arg.verdicts.push_back(verdict(lattice::TestTypeId::kWildPtr, 1));
  arg.verdicts.push_back(verdict(lattice::TestTypeId::kReadOnlyCString, 0));
  arg.verdicts.push_back(verdict(lattice::TestTypeId::kUntermBuf, 1));
  const DerivedChecks checks = derive_checks(arg, nullptr);
  EXPECT_TRUE(checks.require_nonnull);
  EXPECT_TRUE(checks.require_mapped);
  EXPECT_FALSE(checks.require_writable);
  EXPECT_TRUE(checks.require_terminated);
}

TEST(DeriveChecks, IntegralRangeFallsBackToPassingValues) {
  ArgSpec arg;
  arg.cls = parser::TypeClass::kIntegral;
  TypeVerdict bad;
  bad.id = lattice::TestTypeId::kIntMax;
  bad.probes = 1;
  bad.failures = 1;
  arg.verdicts.push_back(bad);
  arg.passing_int_values = {-3, 0, 200};
  const DerivedChecks checks = derive_checks(arg, nullptr);
  ASSERT_TRUE(checks.range.has_value());
  EXPECT_EQ(checks.range->first, -3);
  EXPECT_EQ(checks.range->second, 200);
}

TEST(DeriveChecks, IntegralWithNoFailuresDerivesNothing) {
  ArgSpec arg;
  arg.cls = parser::TypeClass::kIntegral;
  TypeVerdict ok;
  ok.id = lattice::TestTypeId::kIntMax;
  ok.probes = 2;
  arg.verdicts.push_back(ok);
  EXPECT_FALSE(derive_checks(arg, nullptr).any());
}

}  // namespace
}  // namespace healers::injector
