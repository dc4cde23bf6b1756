// libFuzzer entry point for the serve wire readers: a request line or an
// access-log line arrives from outside, so arbitrary bytes must yield a
// parse or an error — never a crash, a hang or a float-to-int overflow —
// and whatever parses must survive rebuild -> reparse unchanged.
// Build with -DHEMATCH_BUILD_FUZZERS=ON (requires clang's libFuzzer).

#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/access_log.h"
#include "serve/protocol.h"

namespace {

using namespace hematch::serve;

std::string Rebuild(const ServeRequest& req) {
  switch (req.op) {
    case RequestOp::kPing:
      return BuildPingRequest(req.id, req.correlation_id);
    case RequestOp::kRegisterLog:
      return BuildRegisterLogRequest(req.id, req.register_log,
                                     req.correlation_id);
    case RequestOp::kMatch:
      return BuildMatchRequest(req.id, req.match, req.correlation_id);
    case RequestOp::kStats:
      return BuildStatsRequest(req.id, req.correlation_id);
    case RequestOp::kDrain:
      return BuildDrainRequest(req.id, req.correlation_id);
    case RequestOp::kMetrics:
      return BuildMetricsRequest(req.id, req.correlation_id);
  }
  return {};
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  if (hematch::Result<ServeRequest> req = ParseRequest(text); req.ok()) {
    // The builders' output must parse, and be a fixpoint from then on.
    const std::string once = Rebuild(*req);
    hematch::Result<ServeRequest> again = ParseRequest(once);
    if (!again.ok() || Rebuild(*again) != once) {
      __builtin_trap();
    }
  }
  if (hematch::Result<AccessLogEntry> entry = ParseAccessLogLine(text);
      entry.ok()) {
    const std::string once = FormatAccessLogEntry(*entry);
    hematch::Result<AccessLogEntry> again = ParseAccessLogLine(once);
    if (!again.ok() || FormatAccessLogEntry(*again) != once) {
      __builtin_trap();
    }
  }
  return 0;
}
