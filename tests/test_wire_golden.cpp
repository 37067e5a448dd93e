// Byte-locks every binary wire format (tests/wire_goldens.hpp) and every
// XML document (tests/xml_goldens.hpp): the fixed inputs must encode to the
// checked-in golden bytes, every binary golden must decode and re-encode to
// itself, and every decoder must judge its seeded mutant corpus (binary:
// truncations, bit flips, inflated counts; XML: deleted, duplicated and
// renamed elements, deleted and garbled attributes) exactly as the
// checked-in verdicts record. On a mismatch the fresh fixture text is
// written to the working directory (wire_verdicts.actual, xml_goldens.actual,
// xml_verdicts.actual) for diffing.
#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "wire_goldens.hpp"
#include "xml_goldens.hpp"

namespace healers::wiretest {
namespace {

const std::vector<FixtureGolden>& fixture_goldens() {
  static const std::vector<FixtureGolden> goldens = load_goldens();
  return goldens;
}

TEST(WireGoldens, FixedInputsEncodeToTheGoldenBytes) {
  std::map<std::string, std::string> built;
  for (Golden& golden : build_goldens()) built.emplace(golden.name, std::move(golden.bytes));
  ASSERT_EQ(built.size(), fixture_goldens().size());
  for (const FixtureGolden& golden : fixture_goldens()) {
    ASSERT_EQ(built.count(golden.name), 1u) << golden.name;
    EXPECT_EQ(to_hex(built[golden.name]), to_hex(golden.bytes)) << golden.name;
  }
}

TEST(WireGoldens, EveryGoldenRoundTripsToItself) {
  for (const FixtureGolden& golden : fixture_goldens()) {
    const std::optional<std::string> reencoded = format_of(golden.name).round_trip(golden.bytes);
    ASSERT_TRUE(reencoded.has_value()) << golden.name;
    EXPECT_EQ(to_hex(*reencoded), to_hex(golden.bytes)) << golden.name;
  }
}

// Compares fresh output with a checked-in fixture, naming the first
// differing line; a mismatch also leaves the fresh output in
// `<fixture stem>.actual`.
void expect_recorded(const std::string& actual, const std::string& fixture) {
  const std::string expected = read_fixture(fixture);
  if (actual == expected) return;
  std::ofstream(fixture.substr(0, fixture.find('.')) + ".actual", std::ios::binary) << actual;
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  while (std::getline(want, want_line)) {
    std::getline(got, got_line);
    if (want_line != got_line) {
      FAIL() << "first differing line of " << fixture << ":\n  recorded: "
             << want_line.substr(0, 200) << "\n  actual:   " << got_line.substr(0, 200);
    }
  }
  FAIL() << fixture << " differs in length (see the .actual file)";
}

TEST(WireGoldens, MutantVerdictsMatchTheRecordedOnes) {
  std::string actual;
  for (const FixtureGolden& golden : fixture_goldens()) actual += mutant_verdicts(golden);
  expect_recorded(actual, "wire_verdicts.txt");
}

const std::vector<Golden>& xml_fixture_goldens() {
  static const std::vector<Golden> goldens = load_xml_goldens();
  return goldens;
}

TEST(XmlGoldens, FixedInputsWriteTheGoldenDocuments) {
  expect_recorded(write_xml_goldens(build_xml_goldens()), "xml_goldens.txt");
}

TEST(XmlGoldens, MutantVerdictsMatchTheRecordedOnes) {
  std::string actual;
  for (const Golden& golden : xml_fixture_goldens()) actual += xml_mutant_verdicts(golden);
  expect_recorded(actual, "xml_verdicts.txt");
}

// The re-encode property: whatever a reader accepts, it writes back as a
// document that reads again to the same bytes.
TEST(XmlGoldens, AcceptedMutantsReencodeToAFixedPoint) {
  for (const Golden& golden : xml_fixture_goldens()) {
    const XmlRoundTrip round_trip = xml_root_of(golden.name).round_trip;
    for_each_xml_mutant(golden, [&](const std::string& path,
                                    const std::vector<std::string>& mutants) {
      for (const std::string& mutant : mutants) {
        const std::optional<std::string> once = round_trip(mutant);
        if (!once) continue;
        const std::optional<std::string> twice = round_trip(*once);
        ASSERT_TRUE(twice.has_value()) << golden.name << ' ' << path << '\n' << *once;
        EXPECT_EQ(*twice, *once) << golden.name << ' ' << path;
      }
    });
  }
}

}  // namespace
}  // namespace healers::wiretest
