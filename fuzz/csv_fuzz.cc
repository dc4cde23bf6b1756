// libFuzzer entry point for the CSV log reader: arbitrary bytes must
// produce either a log or a ParseError — never a crash or hang — in both
// modes, and a file strict mode accepts must need no salvage in lenient
// mode. Build with -DHEMATCH_BUILD_FUZZERS=ON (requires clang's
// libFuzzer).

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "log/log_io.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace hematch;
  const std::string text(reinterpret_cast<const char*>(data), size);
  CsvReadStats stats;
  std::istringstream lenient_in(text);
  const Result<EventLog> lenient = ReadCsvLog(lenient_in, {}, &stats);

  CsvReadOptions strict;
  strict.strict = true;
  std::istringstream strict_in(text);
  const Result<EventLog> strict_log = ReadCsvLog(strict_in, strict);
  if (strict_log.ok() &&
      (!lenient.ok() || stats.salvaged_rows != 0 ||
       lenient->num_traces() != strict_log->num_traces() ||
       lenient->TotalLength() != strict_log->TotalLength())) {
    __builtin_trap();
  }
  return 0;
}
