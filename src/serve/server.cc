#include "serve/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "log/log_io.h"
#include "obs/prometheus.h"

namespace hematch::serve {

namespace {

double MsSince(std::chrono::steady_clock::time_point then) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - then)
      .count();
}

/// Latency buckets sized for millisecond-scale request deadlines.
std::vector<double> LatencyBounds() {
  return {1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000};
}

ErrorCode ErrorCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kUnimplemented:
      return ErrorCode::kBadRequest;
    case StatusCode::kNotFound:
      return ErrorCode::kNotFound;
    case StatusCode::kResourceExhausted:
      return ErrorCode::kRejectedOverload;
    default:
      return ErrorCode::kInternal;
  }
}

/// splitmix64 finalizer → uniform double in [0, 1). Deterministic in
/// the request id, so "sample 25% of requests" picks the same requests
/// on every identical run — reproducible and testable.
double UniformFromId(std::uint64_t id) {
  std::uint64_t z = id + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace

MatchServer::MatchServer(ServerOptions options)
    : options_(std::move(options)),
      metrics_(std::make_unique<obs::MetricsRegistry>(options_.telemetry)),
      logs_(options_.max_logs),
      contexts_(options_.max_contexts, metrics_.get()),
      queue_(AdmissionOptions{options_.max_queue_depth,
                              options_.max_backlog_ms, options_.aging_ms}),
      accepted_(metrics_->GetCounter("serve.accepted")),
      rejected_overload_(metrics_->GetCounter("serve.rejected_overload")),
      rejected_draining_(metrics_->GetCounter("serve.rejected_draining")),
      bad_requests_(metrics_->GetCounter("serve.bad_requests")),
      not_found_(metrics_->GetCounter("serve.not_found")),
      completed_(metrics_->GetCounter("serve.completed")),
      failed_(metrics_->GetCounter("serve.failed")),
      cancelled_drain_(metrics_->GetCounter("serve.cancelled_by_drain")),
      shed_soft_(metrics_->GetCounter("serve.shed_soft")),
      shed_hard_(metrics_->GetCounter("serve.shed_hard")),
      connections_(metrics_->GetCounter("serve.connections")),
      connections_rejected_(
          metrics_->GetCounter("serve.connections_rejected")),
      queue_depth_gauge_(metrics_->GetGauge("serve.queue_depth")),
      backlog_gauge_(metrics_->GetGauge("serve.backlog_ms")),
      in_flight_gauge_(metrics_->GetGauge("serve.in_flight")),
      draining_gauge_(metrics_->GetGauge("serve.draining")),
      drain_ms_gauge_(metrics_->GetGauge("serve.drain_ms")),
      queue_wait_ms_(
          metrics_->GetHistogram("serve.queue_wait_ms", LatencyBounds())),
      latency_ms_(metrics_->GetHistogram("serve.latency_ms", LatencyBounds())),
      win_queue_wait_ms_(LatencyBounds()),
      win_latency_ms_(LatencyBounds()) {
  options_.trace_sample_rate =
      std::min(1.0, std::max(0.0, options_.trace_sample_rate));
  if (!options_.access_log_path.empty()) {
    access_log_ = std::make_unique<AccessLog>(options_.access_log_path,
                                              options_.access_log_max_bytes);
  }
  if (!options_.trace_dir.empty()) {
    trace_ring_ = std::make_unique<TraceRing>(options_.trace_dir,
                                              options_.trace_ring_files);
  }
  if (options_.workers <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options_.workers = hw > 0 ? static_cast<int>(hw) : 2;
  }
  if (options_.shed_depth == 0) {
    options_.shed_depth = static_cast<std::size_t>(options_.workers) * 2;
  }
  if (options_.shed_hard_depth == 0) {
    options_.shed_hard_depth = static_cast<std::size_t>(options_.workers) * 4;
  }
}

MatchServer::~MatchServer() {
  if (!stopped_.load(std::memory_order_acquire) && listen_fd_ >= 0) {
    RequestDrain();
    Wait();
  }
}

Status MatchServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind() failed: " +
                            std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed: " +
                            std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  if (::pipe(wake_pipe_) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("pipe() failed: " +
                            std::string(std::strerror(errno)));
  }

  if (options_.metrics_port >= 0) {
    const Status metrics_status = StartMetricsEndpoint();
    if (!metrics_status.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      for (int i = 0; i < 2; ++i) {
        if (wake_pipe_[i] >= 0) {
          ::close(wake_pipe_[i]);
          wake_pipe_[i] = -1;
        }
      }
      return metrics_status;
    }
  }

  started_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void MatchServer::AcceptLoop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 ||
        draining_.load(std::memory_order_acquire)) {
      break;  // Drain: stop accepting.
    }
    if ((fds[0].revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    std::size_t live = 0;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      // Reap finished sessions so the connection cap tracks live ones.
      // A session with open == false is on (or past) its exit path, so
      // the join below is brief.
      for (auto& s : sessions_) {
        if (!s->open.load(std::memory_order_acquire) && s->thread.joinable()) {
          s->thread.join();
        }
      }
      sessions_.erase(
          std::remove_if(sessions_.begin(), sessions_.end(),
                         [](const std::shared_ptr<Session>& s) {
                           return !s->open.load(std::memory_order_acquire) &&
                                  !s->thread.joinable();
                         }),
          sessions_.end());
      for (const auto& s : sessions_) {
        if (s->open.load(std::memory_order_acquire)) {
          ++live;
        }
      }
    }
    if (live >= static_cast<std::size_t>(options_.max_connections)) {
      connections_rejected_->Increment();
      const std::string line =
          BuildErrorResponse(0, RequestOp::kPing, ErrorCode::kRejectedOverload,
                             "too many connections") +
          "\n";
      (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }
    connections_->Increment();
    if (options_.send_timeout_ms > 0.0) {
      // A client that stops reading must time a worker out of send, not
      // block it forever while it holds the session write mutex.
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(options_.send_timeout_ms / 1000.0);
      tv.tv_usec = static_cast<suseconds_t>(
          std::fmod(options_.send_timeout_ms, 1000.0) * 1000.0);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    auto session = std::make_shared<Session>();
    session->fd = fd;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      sessions_.push_back(session);
    }
    session->thread = std::thread([this, session] { SessionLoop(session); });
  }
}

void MatchServer::SessionLoop(const std::shared_ptr<Session>& session) {
  obs::ScopedSpan span(options_.trace_recorder, "serve.session", "serve");
  session->span_id = span.id();
  std::string buffer;
  char chunk[4096];
  std::uint64_t lines = 0;
  while (session->open.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(session->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      break;  // EOF, error, or shutdown() from Wait.
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) {
        break;
      }
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      if (!line.empty()) {
        ++lines;
        HandleLine(session, line);
      }
    }
    buffer.erase(0, start);
    if (options_.max_request_bytes > 0 &&
        buffer.size() > options_.max_request_bytes) {
      // A line this long without a newline is a broken or hostile
      // client; reject and hang up — framing past this point is
      // unrecoverable, and the buffer must stay bounded.
      bad_requests_->Increment();
      Send(*session,
           BuildErrorResponse(0, RequestOp::kPing, ErrorCode::kBadRequest,
                              "request line exceeds max_request_bytes"));
      break;
    }
  }
  session->open.store(false, std::memory_order_release);
  {
    // Close under the write lock: a worker mid-Send finishes first, and
    // no Send can ever touch a reused descriptor number.
    std::lock_guard<std::mutex> lock(session->write_mu);
    ::close(session->fd);
    session->fd = -1;
  }
  span.AddArg("requests", static_cast<double>(lines));
}

std::size_t MatchServer::Send(Session& session, const std::string& line) {
  std::lock_guard<std::mutex> lock(session.write_mu);
  if (!session.open.load(std::memory_order_acquire) || session.fd < 0) {
    return 0;  // Client went away; the work was still accounted.
  }
  std::string out = line;
  out += '\n';
  // SO_SNDTIMEO bounds each ::send; the overall deadline bounds a
  // client trickle-reading one byte per timeout, so a response write
  // can never hold write_mu for more than ~2× send_timeout_ms.
  const bool bounded = options_.send_timeout_ms > 0.0;
  const auto give_up =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(options_.send_timeout_ms));
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(session.fd, out.data() + sent, out.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;  // Error, or SO_SNDTIMEO expired (EAGAIN): dead client.
    }
    sent += static_cast<std::size_t>(n);
    if (bounded && std::chrono::steady_clock::now() >= give_up) {
      break;
    }
  }
  if (sent < out.size()) {
    // Treat the stalled/broken client as gone: drop the response, and
    // shutdown() so the session's blocked recv unblocks and the reader
    // thread exits (it owns the close).
    session.open.store(false, std::memory_order_release);
    ::shutdown(session.fd, SHUT_RDWR);
  }
  return sent;
}

std::size_t MatchServer::SendError(const std::shared_ptr<Session>& session,
                                   std::uint64_t id, RequestOp op,
                                   const Status& status,
                                   const RequestContext& ctx) {
  const ErrorCode code = ErrorCodeForStatus(status);
  if (code == ErrorCode::kNotFound) {
    not_found_->Increment();
  } else if (code == ErrorCode::kBadRequest) {
    bad_requests_->Increment();
  }
  return Send(*session, BuildErrorResponse(id, op, code, status.message(),
                                           /*retry_after_ms=*/0.0, ctx));
}

void MatchServer::HandleLine(const std::shared_ptr<Session>& session,
                             const std::string& line) {
  const auto received = std::chrono::steady_clock::now();
  Result<ServeRequest> parsed = ParseRequest(line);
  if (!parsed.ok()) {
    bad_requests_->Increment();
    const std::size_t bytes_out =
        Send(*session,
             BuildErrorResponse(RequestIdOf(line), RequestOp::kPing,
                                ErrorCode::kBadRequest,
                                parsed.status().message()));
    AccessLogEntry entry;
    entry.op = "invalid";
    entry.error_code = ErrorCodeToString(ErrorCode::kBadRequest);
    entry.bytes_in = line.size();
    entry.bytes_out = bytes_out;
    entry.total_ms = MsSince(received);
    LogAccess(std::move(entry));
    return;
  }
  ServeRequest req = std::move(parsed).value();
  RequestContext ctx;
  ctx.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  ctx.correlation_id = req.correlation_id;

  // Inline ops: answered on the session thread, logged as such.
  auto log_inline = [&](const char* op, std::size_t bytes_out) {
    AccessLogEntry entry;
    entry.request_id = ctx.request_id;
    entry.correlation_id = ctx.correlation_id;
    entry.op = op;
    entry.ok = true;
    entry.bytes_in = line.size();
    entry.bytes_out = bytes_out;
    entry.total_ms = MsSince(received);
    LogAccess(std::move(entry));
  };

  switch (req.op) {
    case RequestOp::kPing:
      log_inline("ping", Send(*session, BuildPingResponse(req.id, ctx)));
      return;
    case RequestOp::kStats: {
      const obs::TelemetrySnapshot windowed = WindowedSnapshot();
      log_inline("stats",
                 Send(*session,
                      BuildStatsResponse(req.id, SnapshotTelemetry(),
                                         MsSince(started_), ctx, &windowed)));
      return;
    }
    case RequestOp::kMetrics:
      log_inline("metrics",
                 Send(*session,
                      BuildMetricsResponse(req.id, PrometheusText(), ctx)));
      return;
    case RequestOp::kDrain:
      RequestDrain();
      log_inline("drain",
                 Send(*session, BuildDrainResponse(req.id, in_flight_.load(),
                                                   queue_.depth(), ctx)));
      return;
    case RequestOp::kRegisterLog:
      HandleRegisterLog(session, req, ctx, line.size());
      return;
    case RequestOp::kMatch:
      HandleMatch(session, std::move(req), ctx, line.size());
      return;
  }
}

void MatchServer::HandleRegisterLog(const std::shared_ptr<Session>& session,
                                    const ServeRequest& req,
                                    const RequestContext& ctx,
                                    std::size_t bytes_in) {
  const auto received = std::chrono::steady_clock::now();
  AccessLogEntry access;
  access.request_id = ctx.request_id;
  access.correlation_id = ctx.correlation_id;
  access.op = "register_log";
  access.bytes_in = bytes_in;
  auto log_failure = [&](const Status& status, std::size_t bytes_out) {
    access.error_code = ErrorCodeToString(ErrorCodeForStatus(status));
    access.bytes_out = bytes_out;
    access.total_ms = MsSince(received);
    LogAccess(std::move(access));
  };

  if (draining_.load(std::memory_order_acquire)) {
    rejected_draining_->Increment();
    const std::size_t bytes_out =
        Send(*session, BuildErrorResponse(req.id, RequestOp::kRegisterLog,
                                          ErrorCode::kRejectedDraining,
                                          "server is draining",
                                          /*retry_after_ms=*/0.0, ctx));
    access.error_code = ErrorCodeToString(ErrorCode::kRejectedDraining);
    access.admission = "draining";
    access.bytes_out = bytes_out;
    access.total_ms = MsSince(received);
    LogAccess(std::move(access));
    return;
  }
  std::istringstream input(req.register_log.content);
  Result<EventLog> log = req.register_log.format == "csv"
                             ? ReadCsvLog(input)
                             : ReadTraceLog(input);
  if (!log.ok()) {
    log_failure(log.status(), SendError(session, req.id,
                                        RequestOp::kRegisterLog, log.status(),
                                        ctx));
    return;
  }
  if (log->empty() || log->num_events() == 0) {
    const Status status =
        Status::InvalidArgument("log has no traces/events");
    log_failure(status, SendError(session, req.id, RequestOp::kRegisterLog,
                                  status, ctx));
    return;
  }
  Result<RegisteredLog> entry =
      logs_.Register(req.register_log.name, std::move(log).value());
  if (!entry.ok()) {
    if (entry.status().code() == StatusCode::kResourceExhausted) {
      rejected_overload_->Increment();
    }
    log_failure(entry.status(),
                SendError(session, req.id, RequestOp::kRegisterLog,
                          entry.status(), ctx));
    return;
  }
  access.ok = true;
  access.bytes_out = Send(
      *session,
      BuildRegisterLogResponse(req.id, entry->name, entry->fingerprint_hex,
                               entry->log->num_traces(),
                               entry->log->num_events(), ctx));
  access.total_ms = MsSince(received);
  LogAccess(std::move(access));
}

void MatchServer::UpdateQueueGauges() {
  queue_depth_gauge_->Set(static_cast<double>(queue_.depth()));
  backlog_gauge_->Set(queue_.backlog_ms());
}

void MatchServer::HandleMatch(const std::shared_ptr<Session>& session,
                              ServeRequest req, const RequestContext& ctx,
                              std::size_t bytes_in) {
  const std::uint64_t id = req.id;
  const double deadline_ms = EffectiveDeadlineMs(req.match, options_.service);

  AccessLogEntry access;
  access.request_id = ctx.request_id;
  access.correlation_id = ctx.correlation_id;
  access.op = "match";
  access.tenant = req.match.tenant;
  access.method = req.match.method;
  access.bytes_in = bytes_in;

  AdmissionQueue::Item item;
  item.tenant = req.match.tenant;
  item.deadline_ms = deadline_ms;
  // The closure owns the request and a shared_ptr to the session, so a
  // connection closing while the item waits in the queue cannot dangle.
  const auto enqueued = std::chrono::steady_clock::now();
  auto owned = std::make_shared<ServeRequest>(std::move(req));
  item.work = [this, session, owned, ctx, bytes_in, enqueued] {
    RunMatch(session, *owned, ctx, bytes_in, enqueued);
  };

  const AdmissionQueue::PushResult verdict = queue_.Push(std::move(item));
  UpdateQueueGauges();
  switch (verdict) {
    case AdmissionQueue::PushResult::kAdmitted:
      accepted_->Increment();
      // The admitted request's access entry is written by RunMatch.
      return;
    case AdmissionQueue::PushResult::kOverloadDepth:
    case AdmissionQueue::PushResult::kOverloadBacklog: {
      rejected_overload_->Increment();
      win_rejected_overload_.Add(1);
      // Retry hint: roughly one queue's worth of work per worker, and
      // never less than one request deadline.
      const double retry_ms = std::max(
          deadline_ms,
          queue_.backlog_ms() / std::max(options_.workers, 1));
      access.admission =
          verdict == AdmissionQueue::PushResult::kOverloadDepth
              ? "rejected_depth"
              : "rejected_backlog";
      access.error_code = ErrorCodeToString(ErrorCode::kRejectedOverload);
      access.bytes_out = Send(
          *session,
          BuildErrorResponse(id, RequestOp::kMatch,
                             ErrorCode::kRejectedOverload,
                             std::string("admission rejected: ") +
                                 PushResultToString(verdict),
                             retry_ms, ctx));
      access.total_ms = MsSince(enqueued);
      LogAccess(std::move(access));
      return;
    }
    case AdmissionQueue::PushResult::kDraining:
      rejected_draining_->Increment();
      access.admission = "draining";
      access.error_code = ErrorCodeToString(ErrorCode::kRejectedDraining);
      access.bytes_out =
          Send(*session,
               BuildErrorResponse(id, RequestOp::kMatch,
                                  ErrorCode::kRejectedDraining,
                                  "server is draining",
                                  /*retry_after_ms=*/0.0, ctx));
      access.total_ms = MsSince(enqueued);
      LogAccess(std::move(access));
      return;
  }
}

int MatchServer::CurrentShedLevel() {
  const std::size_t depth = queue_.depth();
  if (depth >= options_.shed_hard_depth) {
    return 2;
  }
  if (depth >= options_.shed_depth) {
    return 1;
  }
  return 0;
}

void MatchServer::RunMatch(const std::shared_ptr<Session>& session,
                           const ServeRequest& req, const RequestContext& ctx,
                           std::size_t bytes_in,
                           std::chrono::steady_clock::time_point enqueued) {
  const double queue_ms = MsSince(enqueued);
  queue_wait_ms_->Observe(queue_ms);
  win_queue_wait_ms_.Observe(queue_ms);
  const MatchRequestSpec& spec = req.match;

  AccessLogEntry access;
  access.request_id = ctx.request_id;
  access.correlation_id = ctx.correlation_id;
  access.op = "match";
  access.tenant = spec.tenant;
  access.method = spec.method;
  access.admission = "admitted";
  access.queue_ms = queue_ms;
  access.bytes_in = bytes_in;

  // Per-request recorder: a private, small-buffered timeline holding
  // this request's spans only. The decision to *keep* it comes after
  // the run (sampling and force-capture need the outcome); recording
  // unconditionally costs little next to an actual match.
  std::unique_ptr<obs::TraceRecorder> req_recorder;
  std::unique_ptr<obs::ScopedSpan> req_root;
  if (trace_ring_ != nullptr && trace_ring_->ok()) {
    obs::TraceRecorderOptions topts;
    topts.per_thread_capacity = 4096;
    req_recorder = std::make_unique<obs::TraceRecorder>(topts);
    req_root = std::make_unique<obs::ScopedSpan>(req_recorder.get(),
                                                 "serve.request", "serve");
    req_root->AddArg("request_id", static_cast<double>(ctx.request_id));
    req_root->AddArg("queue_ms", queue_ms);
  }

  // Request span, explicitly parented to its session's span even though
  // it runs on a worker thread.
  obs::ScopedSpan span(options_.trace_recorder, "serve.request", "serve",
                       session->span_id != 0 ? session->span_id
                                             : obs::kAutoParent);
  span.AddArg("request_id", static_cast<double>(ctx.request_id));
  span.AddArg("queue_ms", queue_ms);

  bool ok = false;
  int shed_level = 0;
  Status error = Status::OK();
  MatchOutcome outcome;
  do {
    Result<RegisteredLog> r1 = logs_.Lookup(spec.log1);
    if (!r1.ok()) {
      error = r1.status();
      break;
    }
    Result<RegisteredLog> r2 = logs_.Lookup(spec.log2);
    if (!r2.ok()) {
      error = r2.status();
      break;
    }

    // Orientation: matchers require |V1| <= |V2| unless partial
    // mappings price the overflow as explicit nulls (the CLI applies
    // the same rule). Patterns are interpreted over the oriented
    // source log.
    const bool partial = std::isfinite(spec.partial_penalty);
    RegisteredLog log1 = std::move(r1).value();
    RegisteredLog log2 = std::move(r2).value();
    bool swapped = false;
    if (!partial && log1.log->num_events() > log2.log->num_events()) {
      std::swap(log1, log2);
      swapped = true;
    }

    bool warm_hit = false;
    Result<std::shared_ptr<WarmContext>> warm =
        contexts_.Acquire(log1, log2, spec.patterns, &warm_hit);
    if (!warm.ok()) {
      error = warm.status();
      break;
    }

    shed_level = CurrentShedLevel();
    if (shed_level >= 2) {
      shed_hard_->Increment();
    } else if (shed_level == 1 && spec.method != "heuristic") {
      shed_soft_->Increment();
    }

    exec::CancelToken token;
    {
      std::lock_guard<std::mutex> lock(tokens_mu_);
      active_tokens_.insert(&token);
      // Checked only *after* the insert, under tokens_mu_: either this
      // load sees drain_hard_ and pre-cancels, or the phase-2 sweep
      // (which sets drain_hard_ before taking tokens_mu_) finds the
      // token in the set — the request can't slip between the two.
      if (drain_hard_.load(std::memory_order_acquire)) {
        // Past the drain grace: the request still runs, but
        // pre-cancelled, so it resolves instantly through the anytime
        // path with whatever bounds are certifiable from zero work.
        token.Cancel();
        cancelled_drain_->Increment();
      }
    }
    outcome = ExecuteMatch(*warm.value(), swapped, spec, shed_level,
                           queue_ms, warm_hit, options_.service, token,
                           req_recorder.get());
    {
      std::lock_guard<std::mutex> lock(tokens_mu_);
      active_tokens_.erase(&token);
    }
    if (!outcome.ok) {
      error = outcome.error;
      break;
    }
    ok = true;
  } while (false);

  // Record latency and windowed telemetry *before* the response goes
  // out: a client that has seen its reply must find the request in the
  // very next stats or metrics read. The socket write is excluded from
  // the latency figure, which on loopback is sub-millisecond.
  const double total_ms = MsSince(enqueued);
  latency_ms_->Observe(total_ms);
  const auto now = std::chrono::steady_clock::now();
  win_latency_ms_.Observe(total_ms, now);
  win_matches_.Add(1, now);
  if (ok) {
    completed_->Increment();
    win_completed_.Add(1, now);
  } else {
    failed_->Increment();
    win_failed_.Add(1, now);
  }
  if (shed_level > 0) {
    win_shed_.Add(1, now);
  }
  if (ok) {
    access.ok = true;
    access.termination = outcome.reply.termination;
    access.run_ms = outcome.reply.elapsed_ms;
    access.objective = outcome.reply.objective;
    access.lower_bound = outcome.reply.lower_bound;
    access.upper_bound = outcome.reply.upper_bound;
    access.bytes_out =
        Send(*session, BuildMatchResponse(req.id, outcome.reply, ctx));
  } else {
    access.error_code = ErrorCodeToString(ErrorCodeForStatus(error));
    access.bytes_out =
        SendError(session, req.id, RequestOp::kMatch, error, ctx);
  }
  span.AddArg("total_ms", total_ms);
  span.AddArg("shed_level", shed_level);
  access.shed_level = shed_level;
  access.total_ms = total_ms;

  if (req_recorder != nullptr) {
    // Keep the trace when the sampler picked this id, when the request
    // was slow, or when it ended degraded (non-"completed" termination
    // covers deadline/cancelled overload endings) or failed outright.
    const bool degraded = !ok || access.termination != "completed";
    const bool slow = options_.trace_slow_ms > 0.0 &&
                      total_ms >= options_.trace_slow_ms;
    if (degraded || slow || SampledByRate(ctx.request_id)) {
      req_root->AddArg("total_ms", total_ms);
      req_root->AddArg("shed_level", shed_level);
      req_root.reset();  // Close the root span before serializing.
      Result<std::string> path =
          trace_ring_->WriteRequestTrace(ctx.request_id, *req_recorder);
      if (path.ok()) {
        access.sampled = true;
        access.trace_file = std::move(path).value();
      }
    }
  }
  LogAccess(std::move(access));
}

void MatchServer::WorkerLoop() {
  while (std::optional<AdmissionQueue::Item> item = queue_.Pop()) {
    in_flight_gauge_->Set(
        static_cast<double>(in_flight_.fetch_add(1) + 1));
    UpdateQueueGauges();
    item->work();
    // MarkDone before the gauge update: the queue's executing count is
    // what DrainCoordinator trusts, and it must never undercount.
    queue_.MarkDone();
    in_flight_gauge_->Set(
        static_cast<double>(in_flight_.fetch_sub(1) - 1));
  }
}

void MatchServer::RequestDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    return;  // Already draining.
  }
  drain_started_ = std::chrono::steady_clock::now();
  draining_gauge_->Set(1.0);
  queue_.Close();
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    (void)!::write(wake_pipe_[1], &byte, 1);
  }
  if (metrics_wake_[1] >= 0) {
    const char byte = 1;
    (void)!::write(metrics_wake_[1], &byte, 1);
  }
  drain_thread_ = std::thread([this] { DrainCoordinator(); });
}

void MatchServer::DrainCoordinator() {
  // Phase 1: give admitted work the grace period to finish on its own
  // budgets. Idle() observes depth and executing under one lock, and a
  // popped item counts as executing until MarkDone, so a request in
  // the window between Pop and its first instruction cannot make the
  // queue look drained and skip the phase-2 cancel backstop.
  while (MsSince(drain_started_) < options_.drain_grace_ms) {
    if (queue_.Idle()) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Phase 2: budget out the stragglers. Every active request token is
  // cancelled (its match returns anytime bounds), the warm contexts'
  // evaluator drain tokens stop long frequency scans, and requests
  // still queued start pre-cancelled (see RunMatch).
  drain_hard_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(tokens_mu_);
    for (exec::CancelToken* token : active_tokens_) {
      if (!token->cancelled()) {  // Pre-cancelled ones already counted.
        token->Cancel();
        cancelled_drain_->Increment();
      }
    }
  }
  contexts_.CancelAll();
}

void MatchServer::Wait() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  if (drain_thread_.joinable()) {
    drain_thread_.join();
  }
  if (metrics_thread_.joinable()) {
    metrics_thread_.join();
  }
  if (metrics_fd_ >= 0) {
    ::close(metrics_fd_);
    metrics_fd_ = -1;
  }
  for (int i = 0; i < 2; ++i) {
    if (metrics_wake_[i] >= 0) {
      ::close(metrics_wake_[i]);
      metrics_wake_[i] = -1;
    }
  }
  // All responses are out; unblock and join the session readers.
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions = sessions_;
  }
  for (const auto& session : sessions) {
    std::lock_guard<std::mutex> lock(session->write_mu);
    if (session->fd >= 0) {
      ::shutdown(session->fd, SHUT_RDWR);
    }
  }
  for (const auto& session : sessions) {
    if (session->thread.joinable()) {
      session->thread.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) {
      ::close(wake_pipe_[i]);
      wake_pipe_[i] = -1;
    }
  }
  if (drain_started_ != std::chrono::steady_clock::time_point{}) {
    drain_ms_gauge_->Set(MsSince(drain_started_));
  }
  draining_gauge_->Set(2.0);  // 0 = serving, 1 = draining, 2 = stopped.
  in_flight_gauge_->Set(0.0);
  UpdateQueueGauges();
}

obs::TelemetrySnapshot MatchServer::SnapshotTelemetry() const {
  return obs::CaptureSnapshot(*metrics_);
}

obs::TelemetrySnapshot MatchServer::WindowedSnapshot() const {
  const auto now = std::chrono::steady_clock::now();
  obs::TelemetrySnapshot snap;
  const std::uint64_t matches = win_matches_.WindowTotal(now);
  const std::uint64_t completed = win_completed_.WindowTotal(now);
  const std::uint64_t failed = win_failed_.WindowTotal(now);
  const std::uint64_t rejected = win_rejected_overload_.WindowTotal(now);
  const std::uint64_t shed = win_shed_.WindowTotal(now);
  snap.counters["serve.matches"] = matches;
  snap.counters["serve.completed"] = completed;
  snap.counters["serve.failed"] = failed;
  snap.counters["serve.rejected_overload"] = rejected;
  snap.counters["serve.shed"] = shed;
  snap.histograms["serve.queue_wait_ms"] =
      win_queue_wait_ms_.WindowSnapshot(now);
  snap.histograms["serve.latency_ms"] = win_latency_ms_.WindowSnapshot(now);
  // Goodput: completed requests per second over the window. Shed rate:
  // of everything that asked for a match, the fraction the server
  // degraded or turned away.
  snap.gauges["serve.goodput_rps"] = win_completed_.WindowRatePerSec(now);
  const std::uint64_t offered = matches + rejected;
  snap.gauges["serve.shed_rate"] =
      offered > 0
          ? static_cast<double>(shed + rejected) /
                static_cast<double>(offered)
          : 0.0;
  return snap;
}

std::string MatchServer::PrometheusText() const {
  const obs::TelemetrySnapshot windowed = WindowedSnapshot();
  return obs::TelemetryToPrometheusText(SnapshotTelemetry(), &windowed);
}

void MatchServer::LogAccess(AccessLogEntry entry) {
  if (access_log_ == nullptr) {
    return;
  }
  entry.ts_ms = MsSince(started_);
  // A full disk or yanked log file must never fail a request; the
  // entry is simply lost.
  (void)access_log_->Write(entry);
}

bool MatchServer::SampledByRate(std::uint64_t request_id) const {
  if (options_.trace_sample_rate <= 0.0) {
    return false;
  }
  if (options_.trace_sample_rate >= 1.0) {
    return true;
  }
  return UniformFromId(request_id) < options_.trace_sample_rate;
}

Status MatchServer::StartMetricsEndpoint() {
  metrics_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (metrics_fd_ < 0) {
    return Status::Internal("metrics socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(metrics_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.metrics_port));
  if (::bind(metrics_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(metrics_fd_);
    metrics_fd_ = -1;
    return Status::Internal("metrics bind() failed: " +
                            std::string(std::strerror(errno)));
  }
  if (::listen(metrics_fd_, 16) < 0) {
    ::close(metrics_fd_);
    metrics_fd_ = -1;
    return Status::Internal("metrics listen() failed: " +
                            std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(metrics_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    metrics_port_ = ntohs(addr.sin_port);
  }
  if (::pipe(metrics_wake_) < 0) {
    ::close(metrics_fd_);
    metrics_fd_ = -1;
    return Status::Internal("metrics pipe() failed: " +
                            std::string(std::strerror(errno)));
  }
  metrics_thread_ = std::thread([this] { MetricsLoop(); });
  return Status::OK();
}

void MatchServer::MetricsLoop() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {metrics_fd_, POLLIN, 0};
    fds[1] = {metrics_wake_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 ||
        draining_.load(std::memory_order_acquire)) {
      break;  // Drain: the endpoint goes down with the server.
    }
    if ((fds[0].revents & POLLIN) == 0) {
      continue;
    }
    const int fd = ::accept(metrics_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    ServeMetricsConnection(fd);
  }
}

void MatchServer::ServeMetricsConnection(int fd) {
  // One scrape per connection, HTTP/1.0 close semantics: read until the
  // header terminator (scrapers send tiny GETs), answer, hang up. The
  // read is bounded by SO_RCVTIMEO so a silent client cannot wedge the
  // metrics thread.
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string request;
  char chunk[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      break;
    }
    request.append(chunk, static_cast<std::size_t>(n));
  }
  const std::string body = PrometheusText();
  std::string response =
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
      "Content-Length: " +
      std::to_string(body.size()) +
      "\r\n"
      "Connection: close\r\n\r\n" +
      body;
  std::size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = ::send(fd, response.data() + sent,
                             response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

}  // namespace hematch::serve
