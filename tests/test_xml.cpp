// Unit tests for the XML infrastructure: node operations, escaping,
// serialization shape, strict parsing, serialize/parse round trips, and the
// document archives of xml/archive.hpp.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "xml/archive.hpp"
#include "xml/xml.hpp"

namespace healers::xml {
namespace {

TEST(XmlNode, AttributesPreserveInsertionOrderAndOverwrite) {
  Node node("n");
  node.set_attr("b", "2");
  node.set_attr("a", "1");
  node.set_attr("b", "3");  // overwrite keeps position
  ASSERT_EQ(node.attrs().size(), 2u);
  EXPECT_EQ(node.attrs()[0].first, "b");
  EXPECT_EQ(node.attrs()[0].second, "3");
  EXPECT_EQ(node.attrs()[1].first, "a");
}

TEST(XmlNode, AttrLookupReturnsNullWhenMissing) {
  Node node("n");
  EXPECT_EQ(node.attr("missing"), nullptr);
  node.set_attr("k", "v");
  ASSERT_NE(node.attr("k"), nullptr);
  EXPECT_EQ(*node.attr("k"), "v");
}

TEST(XmlNode, ChildLookupByName) {
  Node node("root");
  node.add_child("a");
  node.add_child("b");
  node.add_child("a");
  EXPECT_NE(node.child("a"), nullptr);
  EXPECT_EQ(node.child("zzz"), nullptr);
  EXPECT_EQ(node.children_named("a").size(), 2u);
  EXPECT_EQ(node.children_named("b").size(), 1u);
}

TEST(XmlEscape, EscapesAllFiveEntities) {
  EXPECT_EQ(escape("a&b<c>d\"e'f"), "a&amp;b&lt;c&gt;d&quot;e&apos;f");
  EXPECT_EQ(escape("plain"), "plain");
}

TEST(XmlSerialize, EmptyElementSelfCloses) {
  Node node("empty");
  node.set_attr("k", "v");
  EXPECT_EQ(serialize_fragment(node), "<empty k=\"v\"/>\n");
}

TEST(XmlSerialize, TextOnlyElementStaysOneLine) {
  Node node("t");
  node.set_text("hello");
  EXPECT_EQ(serialize_fragment(node), "<t>hello</t>\n");
}

TEST(XmlSerialize, NestedIndentation) {
  Node root("a");
  root.add_child("b").add_text_child("c", "x");
  const std::string out = serialize_fragment(root);
  EXPECT_EQ(out, "<a>\n  <b>\n    <c>x</c>\n  </b>\n</a>\n");
}

TEST(XmlSerialize, DocumentHasDeclarationHeader) {
  Node root("doc");
  EXPECT_EQ(serialize(root).rfind("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n", 0), 0u);
}

TEST(XmlParse, SimpleDocument) {
  auto result = parse("<root a=\"1\"><child>text</child></root>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().name(), "root");
  EXPECT_EQ(*result.value().attr("a"), "1");
  ASSERT_NE(result.value().child("child"), nullptr);
  EXPECT_EQ(result.value().child("child")->text(), "text");
}

TEST(XmlParse, SelfClosingAndSingleQuotes) {
  auto result = parse("<r><leaf k='v'/></r>");
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.value().child("leaf"), nullptr);
  EXPECT_EQ(*result.value().child("leaf")->attr("k"), "v");
}

TEST(XmlParse, SkipsPrologAndComments) {
  auto result = parse("<?xml version=\"1.0\"?>\n<!-- hi -->\n<r><!-- inner -->ok</r>\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().text(), "ok");
}

TEST(XmlParse, DecodesEntitiesInTextAndAttributes) {
  auto result = parse("<r k=\"&lt;&amp;&gt;\">&quot;x&apos;</r>");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result.value().attr("k"), "<&>");
  EXPECT_EQ(result.value().text(), "\"x'");
}

TEST(XmlParse, RejectsMismatchedCloseTag) {
  auto result = parse("<a><b></a></b>");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("mismatched"), std::string::npos);
}

TEST(XmlParse, RejectsUnterminatedDocument) {
  EXPECT_FALSE(parse("<a><b>").ok());
  EXPECT_FALSE(parse("<a attr=\"x").ok());
}

TEST(XmlParse, RejectsTrailingContent) {
  EXPECT_FALSE(parse("<a/><b/>").ok());
}

TEST(XmlParse, RejectsUnknownEntity) {
  EXPECT_FALSE(parse("<a>&bogus;</a>").ok());
}

TEST(XmlParse, ErrorsCarryLinePosition) {
  auto result = parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("line 3"), std::string::npos);
}

TEST(XmlRoundTrip, SerializedTreeParsesBackIdentically) {
  Node root("campaign");
  root.set_attr("library", "libsimc.so.1");
  root.set_attr("note", "a<b & c>\"d\"");
  Node& spec = root.add_child("robust-spec");
  spec.set_attr("function", "strcpy");
  spec.add_text_child("prototype", "char *strcpy(char *dest, const char *src);");
  spec.add_child("arg").set_attr("index", "1");

  const std::string doc = serialize(root);
  auto reparsed = parse(doc);
  ASSERT_TRUE(reparsed.ok());
  // Round trip is byte-stable at the second generation.
  EXPECT_EQ(serialize(reparsed.value()), doc);
  EXPECT_EQ(*reparsed.value().attr("note"), "a<b & c>\"d\"");
}

TEST(XmlRoundTrip, DeepNesting) {
  Node root("l0");
  Node* cur = &root;
  for (int i = 1; i < 20; ++i) cur = &cur->add_child("l" + std::to_string(i));
  cur->set_text("bottom");
  auto reparsed = parse(serialize(root));
  ASSERT_TRUE(reparsed.ok());
  const Node* walk = &reparsed.value();
  for (int i = 1; i < 20; ++i) {
    walk = walk->child("l" + std::to_string(i));
    ASSERT_NE(walk, nullptr) << "level " << i;
  }
  EXPECT_EQ(walk->text(), "bottom");
}

TEST(XmlParse, RejectsNestingBeyondTheDepthCap) {
  std::string deep;
  for (int i = 0; i < kMaxDepth; ++i) deep += "<a>";
  for (int i = 0; i < kMaxDepth; ++i) deep += "</a>";
  EXPECT_TRUE(parse(deep).ok());
  const auto too_deep = parse("<a>" + deep + "</a>");
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.error().message, "line 1:193: elements nested deeper than 64");
  // 1 MiB of open tags: an error, not one stack frame per element.
  std::string bomb;
  while (bomb.size() < (1u << 20)) bomb += "<a>";
  EXPECT_FALSE(parse(bomb).ok());
}

TEST(XmlResult, BadAccessThrows) {
  Result<Node> bad = Error("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_THROW((void)bad.value(), BadResultAccess);
  Result<Node> good = Node("n");
  EXPECT_THROW((void)good.error(), BadResultAccess);
}

// --- archives ----------------------------------------------------------------

enum class Color : std::uint8_t { kRed, kGreen };
std::string_view to_string(Color color) { return color == Color::kRed ? "red" : "green"; }

struct Sample {
  std::string name;
  std::uint64_t count = 7;
  std::uint8_t small = 0;
  std::int64_t delta = 0;
  std::uint64_t addr = 0;
  bool on = false;
  Color color = Color::kRed;
  std::string note;
  std::vector<std::string> tags;
  std::map<int, std::uint64_t> tallies;
};

template <class Ar>
void xml_fields(Ar& ar, Sample& sample) {
  ar.required("name", sample.name);
  ar.attr("count", sample.count);
  ar.attr("small", sample.small);
  ar.attr("delta", sample.delta);
  ar.attr("addr", Hex{sample.addr});
  ar.attr_if(sample.on, "on", sample.on);
  ar.attr("color", Named{sample.color, Color::kGreen});
  ar.derived("tag-count", [&] { return std::to_string(sample.tags.size()); });
  ar.text("note", sample.note);
  ar.required_child("tags", [&](auto& ar) {
    ar.each("tag", sample.tags, [](auto& ar, std::string& tag) { ar.required("name", tag); });
  });
  ar.each("tally", sample.tallies, [](auto& ar, int& key, std::uint64_t& n) {
    ar.attr("key", key);
    ar.attr("n", n);
  });
}

Result<Sample> read_sample(std::string_view text) {
  auto parsed = parse(text);
  if (!parsed.ok()) return parsed.error();
  return read<Sample>(parsed.value(), "sample");
}

// The sample document with one attribute of the root replaced.
std::string sample_with(const std::string& key, const std::string& value) {
  Sample sample;
  sample.name = "s";
  Node root = write("sample", sample);
  root.set_attr(key, value);
  return serialize(root);
}

TEST(XmlArchive, WritesInDescriptionOrderAndReadsBack) {
  Sample sample{.name = "s", .count = 3, .small = 255, .delta = -9, .addr = 0x1f,
                .on = true, .color = Color::kGreen, .note = "n", .tags = {"a", "b"},
                .tallies = {{22, 4}}};
  const std::string doc = serialize(write("sample", sample));
  EXPECT_EQ(doc,
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
            "<sample name=\"s\" count=\"3\" small=\"255\" delta=\"-9\" addr=\"0x1f\" on=\"1\" "
            "color=\"green\" tag-count=\"2\">\n"
            "  <note>n</note>\n"
            "  <tags>\n    <tag name=\"a\"/>\n    <tag name=\"b\"/>\n  </tags>\n"
            "  <tally key=\"22\" n=\"4\"/>\n"
            "</sample>\n");
  const auto back = read_sample(doc);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(serialize(write("sample", back.value())), doc);
}

TEST(XmlArchive, AbsentAttributesKeepDefaultsAndRequiredOnesAreErrors) {
  const auto minimal = read_sample(R"(<sample name="s"><tags/></sample>)");
  ASSERT_TRUE(minimal.ok()) << minimal.error().message;
  EXPECT_EQ(minimal.value().count, 7u);
  EXPECT_FALSE(minimal.value().on);
  EXPECT_EQ(minimal.value().color, Color::kRed);
  EXPECT_EQ(read_sample("<sample><tags/></sample>").error().message, "<sample> missing name");
  EXPECT_EQ(read_sample(R"(<sample name="s"/>)").error().message, "<sample> missing <tags>");
  EXPECT_EQ(read_sample(R"(<sample name="s"><tags><tag/></tags></sample>)").error().message,
            "<tag> missing name");
  EXPECT_EQ(read_sample("<other/>").error().message, "expected <sample>");
}

TEST(XmlArchive, NumbersAreWholeDigitsInTheFieldsRange) {
  for (const char* bad : {"-5", "+5", " 5", "5 ", "abc", "", "18446744073709551616", "0x10"}) {
    const auto value = read_sample(sample_with("count", bad));
    ASSERT_FALSE(value.ok()) << bad;
    EXPECT_EQ(value.error().message, "sample: malformed count") << bad;
  }
  EXPECT_EQ(read_sample(sample_with("count", "18446744073709551615")).value().count,
            18446744073709551615ULL);
  EXPECT_FALSE(read_sample(sample_with("small", "256")).ok());
  EXPECT_EQ(read_sample(sample_with("delta", "-9223372036854775808")).value().delta,
            INT64_MIN);
  EXPECT_FALSE(read_sample(sample_with("delta", "+1")).ok());
}

TEST(XmlArchive, HexNamesAndBoolsAreStrict) {
  EXPECT_EQ(read_sample(sample_with("addr", "0x1F")).value().addr, 31u);
  EXPECT_EQ(read_sample(sample_with("addr", "31")).value().addr, 31u);
  for (const char* bad : {"0x", "0x-1", "-0x1", "0x1g"}) {
    EXPECT_EQ(read_sample(sample_with("addr", bad)).error().message, "sample: malformed addr")
        << bad;
  }
  EXPECT_EQ(read_sample(sample_with("color", "blue")).error().message,
            "sample: unknown color 'blue'");
  EXPECT_TRUE(read_sample(sample_with("on", "1")).value().on);
  EXPECT_FALSE(read_sample(sample_with("on", "0")).value().on);
  for (const char* bad : {"yes", "7", "", "-1"}) {
    EXPECT_EQ(read_sample(sample_with("on", bad)).error().message, "sample: malformed on") << bad;
  }
}

TEST(XmlArchive, RepeatedMapKeysSum) {
  const auto sample = read_sample(
      R"(<sample name="s"><tags/><tally key="22" n="4"/><tally key="22" n="1"/></sample>)");
  ASSERT_TRUE(sample.ok()) << sample.error().message;
  EXPECT_EQ(sample.value().tallies.at(22), 5u);
}

}  // namespace
}  // namespace healers::xml
