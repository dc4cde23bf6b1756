// Tests for event-log serialization: trace-per-line and CSV formats,
// plus ingestion hardening against the malformed-XES corpus in
// data/corrupt/ (strict vs lenient modes).

#include "log/log_io.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "log/xes_io.h"

namespace hematch {
namespace {

std::string CorruptPath(const std::string& name) {
  return std::string(HEMATCH_DATA_DIR) + "/corrupt/" + name;
}

TEST(TraceLogTest, ParsesTracesAndComments) {
  std::istringstream in(
      "# a comment\n"
      "A B C\n"
      "\n"
      "  A C B  \n");
  Result<EventLog> log = ReadTraceLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->num_traces(), 2u);
  EXPECT_EQ(log->num_events(), 3u);
  EXPECT_EQ(log->TraceToString(log->traces()[1]), "A C B");
}

TEST(TraceLogTest, RoundTrips) {
  EventLog original;
  original.AddTraceByNames({"receive", "pay", "ship"});
  original.AddTraceByNames({"receive", "ship"});
  std::ostringstream out;
  ASSERT_TRUE(WriteTraceLog(original, out).ok());
  std::istringstream in(out.str());
  Result<EventLog> parsed = ReadTraceLog(in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_traces(), original.num_traces());
  for (std::size_t i = 0; i < original.num_traces(); ++i) {
    EXPECT_EQ(parsed->TraceToString(parsed->traces()[i]),
              original.TraceToString(original.traces()[i]));
  }
}

TEST(TraceLogTest, MissingFileIsNotFound) {
  Result<EventLog> log = ReadTraceLogFile("/nonexistent/path/log.tr");
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kNotFound);
}

TEST(CsvLogTest, GroupsByCaseAndSortsByTimestamp) {
  std::istringstream in(
      "case,event,timestamp\n"
      "t1,A,3\n"
      "t2,X,1\n"
      "t1,B,10\n"   // Numeric ordering: 10 after 3.
      "t1,C,7\n"
      "t2,Y,2\n");
  Result<EventLog> log = ReadCsvLog(in);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->num_traces(), 2u);
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "A C B");
  EXPECT_EQ(log->TraceToString(log->traces()[1]), "X Y");
}

TEST(CsvLogTest, IsoTimestampsSortLexicographically) {
  std::istringstream in(
      "case,event,timestamp\n"
      "o1,ship,2014-02-01T10:00:00\n"
      "o1,receive,2014-01-31T09:00:00\n");
  Result<EventLog> log = ReadCsvLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "receive ship");
}

TEST(CsvLogTest, WithoutTimestampKeepsFileOrder) {
  std::istringstream in(
      "case,event\n"
      "o1,B\n"
      "o1,A\n");
  Result<EventLog> log = ReadCsvLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "B A");
}

TEST(CsvLogTest, AcceptsHeaderAliases) {
  std::istringstream in(
      "trace_id,activity,ts\n"
      "o1,A,1\n");
  Result<EventLog> log = ReadCsvLog(in);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->num_events(), 1u);
}

TEST(CsvLogTest, RejectsMissingColumns) {
  std::istringstream in("foo,bar\nx,y\n");
  Result<EventLog> log = ReadCsvLog(in);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kParseError);
}

TEST(CsvLogTest, LenientSkipsShortRowsAndCountsThem) {
  std::istringstream in(
      "case,event,timestamp\n"
      "t1\n"
      "t1,A,1\n");
  CsvReadStats stats;
  Result<EventLog> log = ReadCsvLog(in, {}, &stats);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(log->num_traces(), 1u);
  EXPECT_EQ(stats.salvaged_rows, 1u);
}

TEST(CsvLogTest, StrictRejectsShortRows) {
  std::istringstream in(
      "case,event,timestamp\n"
      "t1\n");
  CsvReadOptions strict;
  strict.strict = true;
  Result<EventLog> log = ReadCsvLog(in, strict);
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kParseError);
}

TEST(CsvLogTest, RaggedRowKeepsCaseAndEventWithoutTimestamp) {
  // The row lost only its timestamp cell: salvage keeps it (ordered as
  // an empty timestamp) instead of dropping the event.
  std::istringstream in(
      "case,event,timestamp\n"
      "t1,B\n"
      "t1,A,1\n");
  CsvReadStats stats;
  Result<EventLog> log = ReadCsvLog(in, {}, &stats);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log->num_traces(), 1u);
  EXPECT_EQ(log->traces()[0].size(), 2u);
  EXPECT_EQ(stats.salvaged_rows, 1u);
}

TEST(CsvLogTest, LenientSkipsEmptyFields) {
  std::istringstream in(
      "case,event\n"
      "t1,\n"
      ",A\n"
      "t2,B\n");
  CsvReadStats stats;
  Result<EventLog> log = ReadCsvLog(in, {}, &stats);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(log->num_traces(), 1u);
  EXPECT_EQ(stats.salvaged_rows, 2u);
}

TEST(CsvLogTest, StrictRejectsEmptyFields) {
  std::istringstream in(
      "case,event\n"
      "t1,\n");
  CsvReadOptions strict;
  strict.strict = true;
  ASSERT_FALSE(ReadCsvLog(in, strict).ok());
}

TEST(CsvLogTest, BomAndCrlfAreToleratedInBothModes) {
  const std::string text =
      "\xEF\xBB\xBF"
      "case,event,timestamp\r\n"
      "t1,A,1\r\n"
      "t1,B,2\r\n";
  for (const bool strict : {false, true}) {
    std::istringstream in(text);
    CsvReadOptions options;
    options.strict = strict;
    CsvReadStats stats;
    Result<EventLog> log = ReadCsvLog(in, options, &stats);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_EQ(log->num_traces(), 1u);
    EXPECT_EQ(log->traces()[0].size(), 2u);
    EXPECT_EQ(log->dictionary().Name(log->traces()[0][0]), "A");
    EXPECT_EQ(stats.salvaged_rows, 0u);
  }
}

// Orders one case's rows and returns its events in trace order.
std::string OrderedCase(const std::string& rows) {
  std::istringstream in("case,event,timestamp\n" + rows);
  Result<EventLog> log = ReadCsvLog(in);
  EXPECT_TRUE(log.ok()) << log.status();
  return log.ok() ? log->TraceToString(log->traces()[0]) : "";
}

TEST(CsvLogTest, MixedTimestampsSortAsTextWhateverTheRowOrder) {
  // Comparing integers by value and the rest as text is not an order
  // here (9 < 10, 10 < 1a, 1a < 9); a case with any non-integer
  // timestamp sorts all of them as text instead.
  EXPECT_EQ(OrderedCase("x,A,9\nx,B,10\nx,C,1a\n"), "B C A");
  EXPECT_EQ(OrderedCase("x,C,1a\nx,A,9\nx,B,10\n"), "B C A");
}

TEST(CsvLogTest, IntegerTimestampsIgnoreLeadingZeros) {
  EXPECT_EQ(OrderedCase("x,A,10\nx,B,007\n"), "B A");
  EXPECT_EQ(OrderedCase("x,A,0010\nx,B,9\nx,C,0\nx,D,000\n"), "C D B A");
}

TEST(CsvLogTest, EmptyTimestampsSortFirst) {
  EXPECT_EQ(OrderedCase("x,A,2\nx,B,\nx,C,1\n"), "B C A");
  EXPECT_EQ(OrderedCase("x,A,b\nx,B,\nx,C,a\n"), "B C A");
}

TEST(CsvLogTest, RejectsEmptyInput) {
  std::istringstream in("");
  ASSERT_FALSE(ReadCsvLog(in).ok());
}

TEST(CsvLogTest, WriteThenReadRoundTrips) {
  EventLog original;
  original.AddTraceByNames({"A", "B"});
  original.AddTraceByNames({"B", "A", "A"});
  std::ostringstream out;
  ASSERT_TRUE(WriteCsvLog(original, out).ok());
  std::istringstream in(out.str());
  Result<EventLog> parsed = ReadCsvLog(in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_traces(), 2u);
  EXPECT_EQ(parsed->TraceToString(parsed->traces()[1]), "B A A");
}

// ------------------- malformed-XES corpus (data/corrupt) -------------
//
// Lenient mode must never error on truncation/junk once a <log> element
// was seen: it salvages the traces completed before the defect. Strict
// mode must reject every file in the corpus with a ParseError.

struct CorruptCase {
  const char* file;
  std::size_t lenient_traces;  // Traces salvaged in lenient mode.
};

// Without this, gtest prints the case as raw bytes, which include the
// run-time address of `file`; ctest's discovered names would then change
// on every build.
void PrintTo(const CorruptCase& c, std::ostream* os) { *os << c.file; }

class CorruptXesTest : public ::testing::TestWithParam<CorruptCase> {};

TEST_P(CorruptXesTest, LenientSalvages) {
  Result<EventLog> log = ReadXesLogFile(CorruptPath(GetParam().file));
  ASSERT_TRUE(log.ok()) << GetParam().file << ": " << log.status();
  EXPECT_EQ(log->num_traces(), GetParam().lenient_traces)
      << GetParam().file;
}

TEST_P(CorruptXesTest, StrictRejects) {
  XesReadOptions strict;
  strict.strict = true;
  Result<EventLog> log =
      ReadXesLogFile(CorruptPath(GetParam().file), strict);
  ASSERT_FALSE(log.ok()) << GetParam().file;
  EXPECT_EQ(log.status().code(), StatusCode::kParseError)
      << GetParam().file;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorruptXesTest,
    ::testing::Values(
        // Document ends mid-trace: the complete first trace survives.
        CorruptCase{"truncated_trace.xes", 1},
        // Document ends mid-attribute-tag: complete first trace survives.
        CorruptCase{"truncated_event.xes", 1},
        // Unterminated quoted value swallows the rest of the document.
        CorruptCase{"unclosed_attr.xes", 1},
        // </trace> closes while <event> is open; salvage closes both.
        CorruptCase{"mismatched_tags.xes", 2},
        // 100-deep attribute nesting trips the depth ceiling (64).
        CorruptCase{"deep_nesting.xes", 0},
        // Inner <trace> is treated as an opaque container in lenient
        // mode, so both events land in the outer trace.
        CorruptCase{"nested_trace.xes", 1},
        // Entity error mid-document: the first trace survives.
        CorruptCase{"bad_entity.xes", 1},
        // Unnamed / valueless events are skipped; the named one stays.
        CorruptCase{"missing_concept_name.xes", 1}),
    [](const ::testing::TestParamInfo<CorruptCase>& info) {
      std::string name = info.param.file;
      for (char& c : name) {
        if (c == '.' || c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(CorruptXesTest, BinaryJunkErrorsInBothModes) {
  // No <log> element can be salvaged from non-XML bytes, so even the
  // lenient reader reports a ParseError (and, critically, no crash).
  Result<EventLog> lenient = ReadXesLogFile(CorruptPath("not_xml.bin"));
  ASSERT_FALSE(lenient.ok());
  EXPECT_EQ(lenient.status().code(), StatusCode::kParseError);
  XesReadOptions strict_options;
  strict_options.strict = true;
  Result<EventLog> strict =
      ReadXesLogFile(CorruptPath("not_xml.bin"), strict_options);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kParseError);
}

TEST(CorruptXesTest, EventOutsideTraceErrorsInBothModes) {
  // Structural misuse (not truncation) stays an error even leniently.
  for (bool strict : {false, true}) {
    XesReadOptions options;
    options.strict = strict;
    Result<EventLog> log =
        ReadXesLogFile(CorruptPath("event_outside_trace.xes"), options);
    ASSERT_FALSE(log.ok()) << "strict=" << strict;
    EXPECT_EQ(log.status().code(), StatusCode::kParseError);
  }
}

TEST(CorruptXesTest, SalvagedContentIsTheCompletedPrefix) {
  Result<EventLog> log =
      ReadXesLogFile(CorruptPath("truncated_trace.xes"));
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log->num_traces(), 1u);
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "register ship");
}

TEST(CorruptXesTest, DepthCeilingIsConfigurable) {
  XesReadOptions deep;
  deep.max_depth = 256;  // Enough for the 100-deep corpus file.
  Result<EventLog> log =
      ReadXesLogFile(CorruptPath("deep_nesting.xes"), deep);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log->num_traces(), 1u);
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "deep");
}

TEST(XesCharacterReferenceTest, NonAsciiNamesKeepEveryTrace) {
  // A reference above 127 once failed the parse, and a lenient read then
  // silently dropped every later trace.
  std::istringstream in(
      "<log><trace><event><string key=\"concept:name\" value=\"caf&#233;\"/>"
      "</event></trace><trace><event><string key=\"concept:name\" "
      "value=\"&#x1F69A; bus\"/></event></trace></log>");
  Result<EventLog> log = ReadXesLog(in);
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log->num_traces(), 2u);
  EXPECT_EQ(log->TraceToString(log->traces()[0]), "caf\xC3\xA9");
  EXPECT_EQ(log->TraceToString(log->traces()[1]), "\xF0\x9F\x9A\x9A bus");
}

TEST(XesCharacterReferenceTest, MalformedReferencesAreDefects) {
  // Only the first trace is complete before the defect.
  for (const char* ref : {"&#65zz;", "&# 65;", "&#xD800;", "&#0;"}) {
    const std::string doc =
        "<log><trace><event><string key=\"concept:name\" value=\"ok\"/>"
        "</event></trace><trace><event><string key=\"concept:name\" "
        "value=\"" + std::string(ref) + "\"/></event></trace></log>";
    std::istringstream lenient_in(doc);
    Result<EventLog> lenient = ReadXesLog(lenient_in);
    ASSERT_TRUE(lenient.ok()) << ref << ": " << lenient.status();
    EXPECT_EQ(lenient->num_traces(), 1u) << ref;
    XesReadOptions strict;
    strict.strict = true;
    std::istringstream strict_in(doc);
    EXPECT_EQ(ReadXesLog(strict_in, strict).status().code(),
              StatusCode::kParseError)
        << ref;
  }
}

// ------------------- malformed-CSV corpus (data/corrupt) -------------
//
// Lenient mode salvages what each defective row still carries and
// counts it; strict mode rejects every file with defects, but both
// modes accept pure encoding artifacts (BOM, CRLF).

TEST(CorruptCsvTest, BomCrlfFixtureParsesCleanlyInBothModes) {
  for (const bool strict : {false, true}) {
    CsvReadOptions options;
    options.strict = strict;
    CsvReadStats stats;
    Result<EventLog> log =
        ReadCsvLogFile(CorruptPath("bom_crlf.csv"), options, &stats);
    ASSERT_TRUE(log.ok()) << log.status();
    EXPECT_EQ(log->num_traces(), 2u);
    EXPECT_EQ(stats.salvaged_rows, 0u);
  }
}

TEST(CorruptCsvTest, RaggedFixtureSalvagesLenientlyAndRejectsStrictly) {
  CsvReadStats stats;
  Result<EventLog> log =
      ReadCsvLogFile(CorruptPath("ragged.csv"), {}, &stats);
  ASSERT_TRUE(log.ok()) << log.status();
  // Kept: t1 {A, B (timestamp lost)}, t2 {A}; skipped: bare "t1", empty
  // case, empty event.
  ASSERT_EQ(log->num_traces(), 2u);
  EXPECT_EQ(log->traces()[0].size(), 2u);
  EXPECT_EQ(log->traces()[1].size(), 1u);
  EXPECT_EQ(stats.salvaged_rows, 4u);

  CsvReadOptions strict;
  strict.strict = true;
  Result<EventLog> rejected =
      ReadCsvLogFile(CorruptPath("ragged.csv"), strict);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kParseError);
}

TEST(CorruptCsvTest, EmptyCaseFixtureSkipsAnonymousRows) {
  CsvReadStats stats;
  Result<EventLog> log =
      ReadCsvLogFile(CorruptPath("empty_case.csv"), {}, &stats);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(log->num_traces(), 2u);
  EXPECT_EQ(stats.salvaged_rows, 2u);

  CsvReadOptions strict;
  strict.strict = true;
  ASSERT_FALSE(ReadCsvLogFile(CorruptPath("empty_case.csv"), strict).ok());
}

}  // namespace
}  // namespace hematch
