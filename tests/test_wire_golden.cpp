// Byte-locks every binary wire format (tests/wire_goldens.hpp): the fixed
// inputs must encode to the checked-in golden bytes, every golden must
// decode and re-encode to itself, and every decoder must judge the seeded
// mutant corpus (truncations, bit flips, inflated counts) exactly as the
// checked-in verdicts record. On a mismatch the fresh verdicts are written
// to wire_verdicts.actual in the working directory for diffing.
#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "wire_goldens.hpp"

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

TEST(WireGoldens, MutantVerdictsMatchTheRecordedOnes) {
  std::string actual;
  for (const FixtureGolden& golden : fixture_goldens()) actual += mutant_verdicts(golden);
  const std::string expected = read_fixture("wire_verdicts.txt");
  if (actual != expected) {
    std::ofstream("wire_verdicts.actual", std::ios::binary) << actual;
    std::istringstream want(expected);
    std::istringstream got(actual);
    std::string want_line;
    std::string got_line;
    while (std::getline(want, want_line)) {
      std::getline(got, got_line);
      if (want_line != got_line) {
        FAIL() << "first differing verdict line:\n  recorded: " << want_line.substr(0, 200)
               << "\n  actual:   " << got_line.substr(0, 200);
      }
    }
    FAIL() << "verdict corpus differs in length (see wire_verdicts.actual)";
  }
}

}  // namespace
}  // namespace healers::wiretest
