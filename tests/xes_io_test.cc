// Tests for the XML pull parser and the XES event-log reader/writer.

#include "log/xes_io.h"
#include "log/xml_parser.h"

#include <sstream>

#include <gtest/gtest.h>

namespace hematch {
namespace {

// ------------------------- XmlParser ---------------------------------

// Tokens view the parser's decoded values, so the parser travels with
// them.
struct Drained {
  XmlParser parser;
  std::vector<XmlParser::Token> tokens;
  const XmlParser::Token& operator[](std::size_t i) const { return tokens[i]; }
  std::size_t size() const { return tokens.size(); }
};

Drained Drain(std::string_view doc) {
  Drained drained{XmlParser(doc), {}};
  XmlParser::Token token;
  for (;;) {
    const Status next = drained.parser.Next(&token);
    EXPECT_TRUE(next.ok()) << next;
    if (!next.ok() || token.kind == XmlParser::TokenKind::kEnd) {
      break;
    }
    drained.tokens.push_back(token);
  }
  return drained;
}

TEST(XmlParserTest, ElementsAndAttributes) {
  const auto tokens =
      Drain(R"(<a x="1" y='two'><b/>text</a>)");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, XmlParser::TokenKind::kStartElement);
  EXPECT_EQ(tokens[0].name, "a");
  EXPECT_EQ(tokens[0].Attribute("x"), "1");
  EXPECT_EQ(tokens[0].Attribute("y"), "two");
  EXPECT_EQ(tokens[0].Attribute("missing"), "");
  EXPECT_EQ(tokens[1].kind, XmlParser::TokenKind::kStartElement);
  EXPECT_EQ(tokens[2].kind, XmlParser::TokenKind::kEndElement);
  EXPECT_EQ(tokens[2].name, "b");  // Synthesized from <b/>.
  EXPECT_EQ(tokens[3].kind, XmlParser::TokenKind::kText);
  EXPECT_EQ(tokens[3].name, "text");
  EXPECT_EQ(tokens[4].kind, XmlParser::TokenKind::kEndElement);
}

TEST(XmlParserTest, SkipsDeclarationCommentsAndDoctype) {
  const auto tokens = Drain(
      "<?xml version=\"1.0\"?><!-- hi --><!DOCTYPE log><root></root>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].name, "root");
}

TEST(XmlParserTest, DecodesEntities) {
  const auto tokens =
      Drain(R"(<a v="&lt;&amp;&gt;&quot;&apos;&#65;">x &amp; y</a>)");
  EXPECT_EQ(tokens[0].Attribute("v"), "<&>\"'A");
  EXPECT_EQ(tokens[1].name, "x & y");
}

TEST(XmlParserTest, WhitespaceOnlyTextIsSkipped) {
  const auto tokens = Drain("<a>\n   \t </a>");
  ASSERT_EQ(tokens.size(), 2u);
}

TEST(XmlParserTest, NamesWithColonsAndDots) {
  const auto tokens = Drain(R"(<ns:el k.1="v"/>)");
  EXPECT_EQ(tokens[0].name, "ns:el");
  EXPECT_EQ(tokens[0].Attribute("k.1"), "v");
}

TEST(XmlParserTest, Errors) {
  for (const char* bad :
       {"<a", "<a b></a>", "<a b=></a>", "<a b=\"x></a>", "</>",
        "<a>&bogus;</a>", "<a v=\"&#x110000;\"/>"}) {
    XmlParser parser(bad);
    XmlParser::Token token;
    bool failed = false;
    for (int i = 0; i < 10 && !failed; ++i) {
      const Status next = parser.Next(&token);
      if (!next.ok()) {
        failed = true;
        EXPECT_EQ(next.code(), StatusCode::kParseError);
      } else if (token.kind == XmlParser::TokenKind::kEnd) {
        break;
      }
    }
    EXPECT_TRUE(failed) << bad;
  }
}

TEST(XmlParserTest, NumericReferencesDecodeToUtf8) {
  const auto tokens = Drain(
      R"(<a v="caf&#233;" w="&#x20AC;&#x1F600;&#65;&#x41;">&#x4e2d;</a>)");
  EXPECT_EQ(tokens[0].Attribute("v"), "caf\xC3\xA9");
  EXPECT_EQ(tokens[0].Attribute("w"), "\xE2\x82\xAC\xF0\x9F\x98\x80" "AA");
  EXPECT_EQ(tokens[1].name, "\xE4\xB8\xAD");
}

TEST(XmlParserTest, NumericReferencesMustBeWholeScalarValues) {
  for (const char* bad :
       {"&#65zz;", "&# 65;", "&#;", "&#x;", "&#-65;", "&#+65;", "&#0;",
        "&#x0;", "&#xD800;", "&#57343;", "&#x110000;", "&#99999999999;",
        "&#X41;", "&#x 41;"}) {
    const std::string doc = "<a v=\"" + std::string(bad) + "\"/>";
    XmlParser parser(doc);
    XmlParser::Token token;
    const Status next = parser.Next(&token);
    ASSERT_FALSE(next.ok()) << bad;
    EXPECT_EQ(next.code(), StatusCode::kParseError) << bad;
  }
}

// --------------------------- XES -------------------------------------

constexpr const char* kXes = R"(<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <extension name="Concept" prefix="concept"
             uri="http://www.xes-standard.org/concept.xesext"/>
  <global scope="event"><string key="concept:name" value="UNKNOWN"/></global>
  <trace>
    <string key="concept:name" value="order-1"/>
    <event>
      <string key="concept:name" value="receive"/>
      <date key="time:timestamp" value="2014-01-01T10:00:00"/>
    </event>
    <event>
      <string key="concept:name" value="ship"/>
      <date key="time:timestamp" value="2014-01-02T10:00:00"/>
    </event>
  </trace>
  <trace>
    <event><string key="concept:name" value="receive"/></event>
    <event><string key="concept:name" value="cancel"/></event>
  </trace>
</log>)";

TEST(XesIoTest, ParsesTracesAndEventNames) {
  std::istringstream in(kXes);
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log->num_traces(), 2u);
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "receive ship");
  EXPECT_EQ(log->TraceToString(log->traces()[1]), "receive cancel");
  EXPECT_EQ(log->num_events(), 3u);
}

TEST(XesIoTest, TimestampsReorderEvents) {
  const char* doc = R"(<log><trace>
    <event><string key="concept:name" value="B"/>
           <date key="time:timestamp" value="2014-02-02"/></event>
    <event><string key="concept:name" value="A"/>
           <date key="time:timestamp" value="2014-01-01"/></event>
  </trace></log>)";
  std::istringstream in(doc);
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "A B");
}

TEST(XesIoTest, PartialTimestampsKeepDocumentOrder) {
  const char* doc = R"(<log><trace>
    <event><string key="concept:name" value="B"/>
           <date key="time:timestamp" value="2014-02-02"/></event>
    <event><string key="concept:name" value="A"/></event>
  </trace></log>)";
  std::istringstream in(doc);
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "B A");
}

TEST(XesIoTest, UnnamedEventsAreSkipped) {
  const char* doc = R"(<log><trace>
    <event><string key="concept:name" value="A"/></event>
    <event><string key="lifecycle:transition" value="complete"/></event>
  </trace></log>)";
  std::istringstream in(doc);
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "A");
}

TEST(XesIoTest, NestedContainerAttributesIgnored) {
  // A list attribute inside an event must not hijack concept:name.
  const char* doc = R"(<log><trace><event>
    <string key="concept:name" value="A"/>
    <list key="listKey">
      <string key="concept:name" value="NOT-THE-NAME"/>
    </list>
  </event></trace></log>)";
  std::istringstream in(doc);
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "A");
}

TEST(XesIoTest, RejectsNonXes) {
  std::istringstream in("<notalog/>");
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kParseError);
}

TEST(XesIoTest, RejectsEventOutsideTrace) {
  std::istringstream in(
      "<log><event><string key=\"concept:name\" value=\"A\"/></event></log>");
  ASSERT_FALSE(ReadXesLog(in).ok());
}

TEST(XesIoTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadXesLogFile("/no/such/file.xes").status().code(),
            StatusCode::kNotFound);
}

TEST(XesIoTest, WriteThenReadRoundTrips) {
  EventLog original;
  original.AddTraceByNames({"receive <order>", "pay & check", "ship"});
  original.AddTraceByNames({"receive <order>", "cancel"});
  std::ostringstream out;
  ASSERT_TRUE(WriteXesLog(original, out).ok());
  std::istringstream in(out.str());
  Result<EventLog> parsed = ReadXesLog(in);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->num_traces(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(parsed->TraceToString(parsed->traces()[i]),
              original.TraceToString(original.traces()[i]));
  }
}

}  // namespace
}  // namespace hematch
