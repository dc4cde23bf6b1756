// Pins what the three log readers produce: the vocabulary in id order and
// every trace, for generated bus logs written in each format and read
// back, and for hand-written files with the defects real exports carry.
//
// The id order is part of the contract, not an accident: the experiment
// harness projects a log onto "ids < x", so a reader that interned the
// same names in another order would silently change every projected run.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/bus_process.h"
#include "log/log_io.h"
#include "log/xes_io.h"

namespace hematch {
namespace {

// A parsed log as plain data: names in id order, traces as id lists.
struct Parsed {
  std::vector<std::string> names;
  std::vector<Trace> traces;
};

bool operator==(const Parsed& a, const Parsed& b) {
  return a.names == b.names && a.traces == b.traces;
}

void PrintTo(const Parsed& p, std::ostream* os) {
  *os << "names:";
  for (const std::string& name : p.names) *os << " [" << name << "]";
  *os << " traces:";
  for (const Trace& trace : p.traces) {
    *os << " (";
    for (EventId id : trace) *os << ' ' << id;
    *os << " )";
  }
}

Parsed Of(const EventLog& log) {
  return {log.dictionary().names(), log.traces()};
}

// What any reader must return for a file written from `log`: the same
// traces, with names interned in the order they first occur in them.
Parsed FirstSeen(const EventLog& log) {
  EventLog expected;
  for (const Trace& trace : log.traces()) {
    Trace renamed;
    for (EventId id : trace) {
      renamed.push_back(expected.InternEvent(log.dictionary().Name(id)));
    }
    expected.AddTrace(std::move(renamed));
  }
  return Of(expected);
}

// ctest runs each test in its own process, in parallel: the file name
// carries the test's name so that no two tests share one.
std::string TempFile(const std::string& name, const std::string& content) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = ::testing::TempDir() + "/" + test->test_suite_name() +
                     "." + test->name() + "." + name;
  std::replace(path.begin() + ::testing::TempDir().size() + 1, path.end(),
               '/', '_');
  std::ofstream(path, std::ios::binary | std::ios::trunc) << content;
  return path;
}

// Reads `text` through both entry points of one format, the stream one
// and the file one, and checks they agree before returning the result.
template <typename StreamRead, typename FileRead>
Parsed ReadBoth(const std::string& text, const std::string& file_name,
                StreamRead from_stream, FileRead from_file) {
  std::istringstream in(text);
  Result<EventLog> streamed = from_stream(in);
  Result<EventLog> filed = from_file(TempFile(file_name, text));
  EXPECT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_TRUE(filed.ok()) << filed.status();
  if (!streamed.ok() || !filed.ok()) return {};
  EXPECT_EQ(Of(*streamed), Of(*filed));
  return Of(*streamed);
}

Parsed ReadCsvBoth(const std::string& text) {
  return ReadBoth(
      text, "pin.csv", [](std::istream& in) { return ReadCsvLog(in); },
      [](const std::string& path) { return ReadCsvLogFile(path); });
}

Parsed ReadXesBoth(const std::string& text) {
  return ReadBoth(
      text, "pin.xes", [](std::istream& in) { return ReadXesLog(in); },
      [](const std::string& path) { return ReadXesLogFile(path); });
}

Parsed ReadTraceBoth(const std::string& text) {
  return ReadBoth(
      text, "pin.tr", [](std::istream& in) { return ReadTraceLog(in); },
      [](const std::string& path) { return ReadTraceLogFile(path); });
}

// ----------------------- generated bus logs ---------------------------

class BusRoundTripPin : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  std::vector<EventLog> Logs() const {
    BusProcessOptions options;
    options.seed = GetParam();
    options.num_traces = 150 + 50 * (GetParam() % 3);
    MatchingTask task = MakeBusManufacturerTask(options);
    return {std::move(task.log1), std::move(task.log2)};
  }
};

TEST_P(BusRoundTripPin, Csv) {
  for (const EventLog& log : Logs()) {
    std::ostringstream out;
    ASSERT_TRUE(WriteCsvLog(log, out).ok());
    EXPECT_EQ(ReadCsvBoth(out.str()), FirstSeen(log));
  }
}

TEST_P(BusRoundTripPin, Xes) {
  for (const EventLog& log : Logs()) {
    std::ostringstream out;
    ASSERT_TRUE(WriteXesLog(log, out).ok());
    EXPECT_EQ(ReadXesBoth(out.str()), FirstSeen(log));
  }
}

TEST_P(BusRoundTripPin, TracePerLine) {
  for (const EventLog& log : Logs()) {
    std::ostringstream out;
    ASSERT_TRUE(WriteTraceLog(log, out).ok());
    EXPECT_EQ(ReadTraceBoth(out.str()), FirstSeen(log));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BusRoundTripPin,
                         ::testing::Values(1u, 2u, 3u, 42u));

// -------------------------- hand-written CSV --------------------------

TEST(CsvParsePin, InterleavedCasesSortByTimestampWithinEachCase) {
  // Cases keep first-appearance order; ids follow the sorted traces, not
  // the file rows (A is row 2 but first in the first sorted trace).
  EXPECT_EQ(ReadCsvBoth("case,event,timestamp\n"
                        "c2,B,5\n"
                        "c1,A,2\n"
                        "c2,A,1\n"
                        "c1,C,1\n"
                        "c3,D,\n"
                        "c2,E,30\n"
                        "c1,B,4\n"),
            (Parsed{{"A", "B", "E", "C", "D"}, {{0, 1, 2}, {3, 0, 1}, {4}}}));
}

TEST(CsvParsePin, TimestampTiesKeepFileOrder) {
  EXPECT_EQ(ReadCsvBoth("case,event,timestamp\n"
                        "t,X,5\n"
                        "t,Y,5\n"
                        "t,Z,3\n"
                        "t,W,5\n"
                        "u,P,2014-01-01\n"
                        "u,Q,2014-01-01\n"),
            (Parsed{{"Z", "X", "Y", "W", "P", "Q"}, {{0, 1, 2, 3}, {4, 5}}}));
}

TEST(CsvParsePin, BomCrlfAndWhitespaceAroundCells) {
  EXPECT_EQ(ReadCsvBoth("\xEF\xBB\xBF Case , Activity ,TS\r\n"
                        " t1 , receive order , 2 \r\n"
                        "\r\n"
                        "   \r\n"
                        "t1,\tpay\t,1\r\n"
                        " t2 ,receive order,7\r\n"),
            (Parsed{{"pay", "receive order"}, {{0, 1}, {1}}}));
}

TEST(CsvParsePin, ColumnsInAnyOrderWithoutTimestampKeepFileOrder) {
  EXPECT_EQ(ReadCsvBoth("activity,extra,trace_id\n"
                        "B,x,k1\n"
                        "A,y,k2\n"
                        "C,z,k1\n"
                        "A,w,k1"),  // No final newline.
            (Parsed{{"B", "C", "A"}, {{0, 1, 2}, {2}}}));
}

TEST(CsvParsePin, RaggedAndEmptyCellRowsAreSalvaged) {
  const std::string text =
      "case,event,timestamp\n"
      "t1,A,1\n"
      "t1\n"      // Too short to reach the event column: skipped.
      "t2,B\n"    // Ragged, keeps case and event: kept, no timestamp.
      ",C,3\n"    // Empty case: skipped.
      "t2,,4\n"   // Empty event: skipped.
      "t1,D,0\n"
      "t2,E,2,extra\n";
  EXPECT_EQ(ReadCsvBoth(text),
            (Parsed{{"D", "A", "B", "E"}, {{0, 1}, {2, 3}}}));
  CsvReadStats stats;
  std::istringstream in(text);
  ASSERT_TRUE(ReadCsvLog(in, {}, &stats).ok());
  EXPECT_EQ(stats.salvaged_rows, 4u);
  CsvReadOptions strict;
  strict.strict = true;
  std::istringstream strict_in(text);
  EXPECT_EQ(ReadCsvLog(strict_in, strict).status().code(),
            StatusCode::kParseError);
}

// -------------------------- hand-written XES --------------------------

TEST(XesParsePin, CommentsEntitiesListsAndTimestamps) {
  const std::string text = R"(<?xml version="1.0" encoding="UTF-8"?>
<!-- exported by hand -->
<!DOCTYPE log>
<log xes.version="1.0">
  <?app some processing instruction?>
  <extension name="Concept" prefix="concept" uri="http://x/concept.xesext"/>
  <global scope="event"><string key="concept:name" value="UNKNOWN"/></global>
  <trace>
    <string key="concept:name" value="all timestamped"/>
    <event>
      <date key="time:timestamp" value="2014-01-02T00:00:00"/>
      <string key="concept:name" value="pay &amp; check"/>
    </event>
    <event>
      <list key="inputs">
        <string key="concept:name" value="shadow"/>
      </list>
      <string key="concept:name" value="receive &lt;order&gt;"/>
      <date key="time:timestamp" value="2014-01-01T00:00:00"/>
      <list key="after"><string key="concept:name" value="shadow"/></list>
    </event>
  </trace>
  <trace>
    <string key="concept:name" value="partly timestamped"/>
    <event>
      <string key="concept:name" value="ship"/>
      <date key="time:timestamp" value="2014-01-05T00:00:00"/>
    </event>
    <event>
      <!-- no timestamp on this one -->
      <string key="concept:name" value='receive &lt;order&gt;'/>
    </event>
    <event><string key="concept:name" value="&#x41;&#66;&quot;&apos;"/></event>
  </trace>
  <trace/>
  <trace><event><string key="org:resource" value="nobody"/></event></trace>
  <trace>
    <event><string key="concept:name" value="ship"/></event>
    <event/>
  </trace>
</log>
)";
  EXPECT_EQ(ReadXesBoth(text),
            (Parsed{{"receive <order>", "pay & check", "ship", "AB\"'"},
                    {{0, 1}, {2, 0, 3}, {2}}}));
  XesReadOptions strict;
  strict.strict = true;
  std::istringstream in(text);
  EXPECT_EQ(ReadXesLog(in, strict).status().code(), StatusCode::kParseError);
}

TEST(XesParsePin, StrictAcceptsACleanDocument) {
  const std::string text =
      "<log><trace><event><string key=\"concept:name\" value=\"b\"/>"
      "<date key=\"time:timestamp\" value=\"2\"/></event>"
      "<event><string key=\"concept:name\" value=\"a\"/>"
      "<date key=\"time:timestamp\" value=\"1\"/></event></trace></log>";
  XesReadOptions strict;
  strict.strict = true;
  std::istringstream in(text);
  Result<EventLog> log = ReadXesLog(in, strict);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(Of(*log), (Parsed{{"a", "b"}, {{0, 1}}}));
}

// ----------------------- hand-written trace log -----------------------

TEST(TraceParsePin, CommentsBlankLinesTabsAndCrlf) {
  EXPECT_EQ(ReadTraceBoth("# header comment\r\n"
                          "A\tB  C\r\n"
                          "\r\n"
                          "   # indented comment\n"
                          "  C #A\tB\n"
                          "\n"
                          "B"),
            (Parsed{{"A", "B", "C", "#A"}, {{0, 1, 2}, {2, 3, 1}, {1}}}));
}

}  // namespace
}  // namespace hematch
