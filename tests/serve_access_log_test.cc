// Tests for serve/access_log.h (the hematch.access.v1 schema
// round-trip external consumers rely on) and the size-rotated JSONL
// file underneath it (obs/logfile.h).

#include "serve/access_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/logfile.h"

namespace hematch::serve {
namespace {

AccessLogEntry FullEntry() {
  AccessLogEntry entry;
  entry.ts_ms = 1234.5625;
  entry.request_id = 987654321;
  entry.correlation_id = "tenant-7/run \"42\"\\x";  // Needs escaping.
  entry.op = "match";
  entry.tenant = "tenant-7";
  entry.method = "exact";
  entry.admission = "admitted";
  entry.shed_level = 2;
  entry.queue_ms = 3.25;
  entry.run_ms = 17.75;
  entry.total_ms = 22.125;
  entry.termination = "deadline";
  entry.ok = true;
  entry.error_code = "";
  entry.objective = 29.5;
  entry.lower_bound = 28.0;
  entry.upper_bound = 31.0;
  entry.bytes_in = 147;
  entry.bytes_out = 715;
  entry.sampled = true;
  entry.trace_file = "/tmp/traces/req-00000000000000000042.json";
  return entry;
}

TEST(AccessLogSchemaTest, RoundTripsEveryField) {
  const AccessLogEntry entry = FullEntry();
  const std::string line = FormatAccessLogEntry(entry);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  Result<AccessLogEntry> parsed = ParseAccessLogLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_DOUBLE_EQ(parsed->ts_ms, entry.ts_ms);
  EXPECT_EQ(parsed->request_id, entry.request_id);
  EXPECT_EQ(parsed->correlation_id, entry.correlation_id);
  EXPECT_EQ(parsed->op, entry.op);
  EXPECT_EQ(parsed->tenant, entry.tenant);
  EXPECT_EQ(parsed->method, entry.method);
  EXPECT_EQ(parsed->admission, entry.admission);
  EXPECT_EQ(parsed->shed_level, entry.shed_level);
  EXPECT_DOUBLE_EQ(parsed->queue_ms, entry.queue_ms);
  EXPECT_DOUBLE_EQ(parsed->run_ms, entry.run_ms);
  EXPECT_DOUBLE_EQ(parsed->total_ms, entry.total_ms);
  EXPECT_EQ(parsed->termination, entry.termination);
  EXPECT_EQ(parsed->ok, entry.ok);
  EXPECT_EQ(parsed->error_code, entry.error_code);
  EXPECT_DOUBLE_EQ(parsed->objective, entry.objective);
  EXPECT_DOUBLE_EQ(parsed->lower_bound, entry.lower_bound);
  EXPECT_DOUBLE_EQ(parsed->upper_bound, entry.upper_bound);
  EXPECT_EQ(parsed->bytes_in, entry.bytes_in);
  EXPECT_EQ(parsed->bytes_out, entry.bytes_out);
  EXPECT_EQ(parsed->sampled, entry.sampled);
  EXPECT_EQ(parsed->trace_file, entry.trace_file);
}

TEST(AccessLogSchemaTest, DefaultEntryRoundTrips) {
  Result<AccessLogEntry> parsed =
      ParseAccessLogLine(FormatAccessLogEntry(AccessLogEntry{}));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->request_id, 0u);
  EXPECT_EQ(parsed->admission, "inline");
  EXPECT_FALSE(parsed->ok);
  EXPECT_FALSE(parsed->sampled);
}

TEST(AccessLogSchemaTest, RejectsWrongSchemaAndGarbage) {
  EXPECT_FALSE(ParseAccessLogLine("{\"schema\":\"hematch.other.v1\"}").ok());
  EXPECT_FALSE(ParseAccessLogLine("not json at all").ok());
  EXPECT_FALSE(ParseAccessLogLine("").ok());
}

TEST(AccessLogSchemaTest, RejectsIntegerFieldsThatAreNotExactIntegers) {
  const std::string head = "{\"schema\":\"hematch.access.v1\",";
  EXPECT_FALSE(ParseAccessLogLine(head + "\"request_id\":1e300}").ok());
  EXPECT_FALSE(ParseAccessLogLine(head + "\"shed_level\":4294967296}").ok());
  EXPECT_FALSE(ParseAccessLogLine(head + "\"bytes_in\":-1}").ok());
  EXPECT_FALSE(ParseAccessLogLine(head + "\"bytes_out\":2.5}").ok());

  AccessLogEntry entry;
  entry.request_id = 9007199254740993u;  // 2^53 + 1.
  Result<AccessLogEntry> parsed =
      ParseAccessLogLine(FormatAccessLogEntry(entry));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->request_id, entry.request_id);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(AccessLogFileTest, AppendsParseableLinesAndRotates) {
  const std::string path =
      ::testing::TempDir() + "access_log_test_rotation.jsonl";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  // Each formatted line is a few hundred bytes; a 1 KiB cap forces
  // rotation within a handful of writes.
  AccessLog log(path, 1024);
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 20; ++i) {
    AccessLogEntry entry = FullEntry();
    entry.request_id = static_cast<std::uint64_t>(i + 1);
    ASSERT_TRUE(log.Write(entry).ok());
  }

  const std::vector<std::string> current = ReadLines(path);
  const std::vector<std::string> rotated = ReadLines(path + ".1");
  ASSERT_FALSE(current.empty());
  ASSERT_FALSE(rotated.empty()) << "1 KiB cap never rotated in 20 writes";
  for (const std::string& line : current) {
    EXPECT_TRUE(ParseAccessLogLine(line).ok()) << line;
  }
  for (const std::string& line : rotated) {
    EXPECT_TRUE(ParseAccessLogLine(line).ok()) << line;
  }
  // Rotation bounds the pair of files to roughly 2x the cap.
  std::size_t bytes = 0;
  for (const auto& lines : {current, rotated}) {
    for (const std::string& line : lines) {
      bytes += line.size() + 1;
    }
  }
  EXPECT_LE(bytes, 2u * 1024u + 512u);

  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(RotatingLineFileTest, ResumesByteAccountingOnReopen) {
  const std::string path = ::testing::TempDir() + "rotating_line_resume.log";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  const std::string line(100, 'x');
  {
    obs::RotatingLineFile file(path, 250);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.WriteLine(line).ok());
  }
  {
    // Reopen: the existing ~101 bytes must count toward the cap, so
    // the second writer rotates on its second line, not its third.
    obs::RotatingLineFile file(path, 250);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.WriteLine(line).ok());
    ASSERT_TRUE(file.WriteLine(line).ok());
  }
  EXPECT_EQ(ReadLines(path).size(), 1u);
  EXPECT_EQ(ReadLines(path + ".1").size(), 2u);

  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

}  // namespace
}  // namespace hematch::serve
