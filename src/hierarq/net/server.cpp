#include "hierarq/net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <sstream>
#include <utility>

#include "hierarq/algebra/prob_monoid.h"
#include "hierarq/algebra/resilience_monoid.h"
#include "hierarq/algebra/semirings.h"
#include "hierarq/core/expectation.h"
#include "hierarq/incremental/delta_text.h"
#include "hierarq/obs/explain.h"
#include "hierarq/obs/metrics.h"
#include "hierarq/obs/query_stats.h"
#include "hierarq/obs/trace.h"
#include "hierarq/persist/persistor.h"
#include "hierarq/query/elimination.h"
#include "hierarq/query/parser.h"
#include "hierarq/service/batch_solvers.h"

namespace hierarq::net {

namespace {

std::string RenderFact(const Fact& fact, const Dictionary& dict) {
  std::string out = fact.relation + "(";
  for (size_t i = 0; i < fact.tuple.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += dict.Render(fact.tuple[i]);
  }
  return out + ")";
}

}  // namespace

HierarqServer::Connection::~Connection() {
  if (fd >= 0) {
    ::close(fd);
  }
}

void HierarqServer::Connection::Send(FrameType type, uint64_t request_id,
                                     std::string_view payload,
                                     uint16_t flags, WireFormat format) {
  std::lock_guard<std::mutex> lock(write_mutex);
  (void)WriteFrame(fd, type, format, flags, request_id, payload);
}

HierarqServer::HierarqServer(Options options, VersionedDatabase db,
                             Database endogenous, Dictionary* dict)
    : options_(options),
      db_(std::move(db)),
      endogenous_(std::move(endogenous)),
      dict_(dict),
      async_(options.async) {
  frames_query_ = server_registry_.GetCounter("server.frames.query");
  frames_delta_ = server_registry_.GetCounter("server.frames.delta");
  frames_metrics_ = server_registry_.GetCounter("server.frames.metrics");
  frames_status_ = server_registry_.GetCounter("server.frames.status");
  frames_ping_ = server_registry_.GetCounter("server.frames.ping");
  frames_shutdown_ = server_registry_.GetCounter("server.frames.shutdown");
  error_frames_ = server_registry_.GetCounter("server.error_frames");
  connections_rejected_ =
      server_registry_.GetCounter("server.connections_rejected");
  query_ns_ = server_registry_.GetHistogram("server.query_ns");
}

void HierarqServer::RecordError(const Status& status) {
  error_frames_->Add();
  errors_total_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(errors_mutex_);
    recent_errors_.push_back(status.ToString());
    // Last-N ring: old errors age out, the window stays bounded.
    constexpr size_t kMaxRecentErrors = 16;
    while (recent_errors_.size() > kMaxRecentErrors) {
      recent_errors_.pop_front();
    }
  }
  logger().Warn("error_frame", {{"status", status.ToString()}});
}

void HierarqServer::SendError(Connection& connection, uint64_t request_id,
                              const Status& status) {
  RecordError(status);
  connection.Send(FrameType::kErrorFrame, request_id, EncodeError(status));
}

HierarqServer::~HierarqServer() { Stop(); }

Status HierarqServer::Start() {
  // A peer that disappears mid-write must surface as EPIPE, not kill the
  // process.
  std::signal(SIGPIPE, SIG_IGN);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status =
        Status::Internal(std::string("bind 127.0.0.1:") +
                         std::to_string(options_.port) + ": " +
                         std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    const Status status =
        Status::Internal(std::string("getsockname: ") +
                         std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  port_ = ntohs(bound.sin_port);
  start_ns_ = obs::Tracer::NowNs();
  accept_thread_ = std::jthread([this] { AcceptLoop(); });
  return Status::OK();
}

void HierarqServer::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void HierarqServer::Wait() {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_ || stopped_; });
}

void HierarqServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  // Unblock accept(2), join the acceptor, THEN close the fd — closing
  // first would race a concurrent accept against fd-number reuse.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  accept_thread_ = std::jthread();  // Join.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Unblock every connection reader; their threads then exit. The fds
  // stay OPEN (shutdown, not close) until the last shared_ptr drops, so
  // in-flight async jobs still write into a dead-but-valid socket
  // instead of a recycled descriptor.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const std::weak_ptr<Connection>& weak : connections_) {
      if (const std::shared_ptr<Connection> connection = weak.lock()) {
        ::shutdown(connection->fd, SHUT_RDWR);
      }
    }
  }
  std::vector<std::jthread> threads;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    threads.swap(connection_threads_);
  }
  threads.clear();  // Join.
  // Cancel + drain queued evaluations; completions fire into the
  // shut-down sockets harmlessly.
  async_.Shutdown();
}

void HierarqServer::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // Listen socket shut down (Stop) or fatal.
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // The connection cap: accept-then-reject. Accepting first (instead
    // of letting the peer rot in the listen backlog) lets us answer with
    // a decodable error frame, so a client can distinguish "server full,
    // retry later" from a dead server. Request id 0 marks the error as
    // connection-scoped (wire.h) — the peer has not sent a request yet.
    // The count is claimed HERE, not in ServeConnection, so a burst of
    // accepts cannot overshoot the cap before the threads start.
    if (options_.max_connections > 0 &&
        active_connections_.load(std::memory_order_relaxed) >=
            options_.max_connections) {
      connections_rejected_->Add();
      const Status status = Status::ResourceExhausted(
          "connection limit reached (" +
          std::to_string(options_.max_connections) + " active)");
      logger().Warn("connection_rejected",
                    {{"max_connections",
                      std::to_string(options_.max_connections)}});
      (void)WriteFrame(fd, FrameType::kErrorFrame, WireFormat::kNative, 0,
                       /*request_id=*/0, EncodeError(status));
      ::close(fd);
      continue;
    }
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    auto connection = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(connection);
    connection_threads_.emplace_back(
        [this, connection = std::move(connection)]() mutable {
          ServeConnection(std::move(connection));
        });
  }
}

void HierarqServer::ServeConnection(std::shared_ptr<Connection> connection) {
  // The count was claimed in AcceptLoop (against the connection cap).
  // Decrement on EVERY exit path; the count feeds kStatus.
  struct ConnectionGuard {
    std::atomic<uint64_t>* count;
    ~ConnectionGuard() { count->fetch_sub(1, std::memory_order_relaxed); }
  } guard{&active_connections_};

  while (true) {
    Result<Frame> frame = ReadFrame(connection->fd);
    if (!frame.ok()) {
      if (!frame.status().Is(StatusCode::kNotFound)) {
        // Protocol violation: answer once, then close — a desynchronized
        // length-prefixed stream cannot be re-synchronized.
        SendError(*connection, /*request_id=*/0, frame.status());
      }
      return;
    }
    frames_total_.fetch_add(1, std::memory_order_relaxed);
    const FrameHeader& header = frame->header;
    // JSON is a rendering of metrics and status only. Refuse it anywhere
    // else before decoding or locking anything: a JSON delta would
    // otherwise be applied (its payload is the same text either way) and
    // acked in a format the client cannot read. The frame was read
    // whole, so the stream is still in sync and the connection stays.
    if (header.format == WireFormat::kJson &&
        header.type != FrameType::kMetricsRequest &&
        header.type != FrameType::kStatusRequest) {
      SendError(*connection, header.request_id,
                Status::InvalidArgument(
                    "frame type " +
                    std::to_string(static_cast<int>(header.type)) +
                    ": json payloads are served only for metrics and "
                    "status requests"));
      continue;
    }
    switch (header.type) {
      case FrameType::kQueryRequest:
        frames_query_->Add();
        HandleQuery(connection, *frame);
        break;
      case FrameType::kDeltaBatch:
        frames_delta_->Add();
        HandleDelta(connection, *frame);
        break;
      case FrameType::kMetricsRequest:
        frames_metrics_->Add();
        HandleMetrics(connection, *frame);
        break;
      case FrameType::kStatusRequest:
        frames_status_->Add();
        HandleStatus(connection, *frame);
        break;
      case FrameType::kPing:
        frames_ping_->Add();
        connection->Send(FrameType::kPong, header.request_id, "");
        break;
      case FrameType::kShutdown:
        frames_shutdown_->Add();
        // Ack before flagging: the client's round-trip completes, then
        // the owning thread (blocked in Wait) runs Stop.
        connection->Send(FrameType::kShutdown, header.request_id, "");
        RequestShutdown();
        return;
      default:
        SendError(*connection, header.request_id,
                  Status::InvalidArgument(
                      "unexpected frame type " +
                      std::to_string(static_cast<int>(header.type)) +
                      " for a server"));
        return;
    }
  }
}

void HierarqServer::HandleQuery(
    const std::shared_ptr<Connection>& connection, const Frame& frame) {
  const FrameHeader header = frame.header;
  Result<QueryRequest> request =
      DecodeQueryRequest(frame.payload, WireFormat::kNative);
  if (!request.ok()) {
    SendError(*connection, header.request_id, request.status());
    return;
  }
  Result<ConjunctiveQuery> parsed = ParseQuery(request->query);
  if (!parsed.ok()) {
    SendError(*connection, header.request_id, parsed.status());
    return;
  }
  const SolverKind solver = request->solver;
  const bool want_trace = (header.flags & kFlagTrace) != 0;
  const bool want_stats = (header.flags & kFlagStats) != 0;
  const std::string trace_id = request->trace_id;
  const std::string query_text = request->query;
  auto query =
      std::make_shared<ConjunctiveQuery>(std::move(parsed).ValueOrDie());

  // Captures by VALUE: the job runs on a submitter thread after this
  // HandleQuery has returned. `this` stays valid there: Stop() drains the
  // async service before the server is torn down.
  const Status admitted = async_.Submit(
      [this, connection, query, header, solver, want_trace, want_stats,
       trace_id, query_text](EvalService& service,
                             const CancelToken& cancel) {
        QueryResult result;
        result.solver = solver;
        // Accounting is collected when the client asked for it OR the
        // slow-query log might need it — disabled cost stays one
        // thread_local load per step in the runners.
        const bool collect_stats =
            want_stats || options_.slow_query_ms >= 0;
        obs::QueryStats* const stats =
            collect_stats ? &result.stats : nullptr;
        if (stats != nullptr) {
          stats->queue_wait_ns = AsyncEvalService::CurrentJobQueueWaitNs();
        }
        const uint64_t eval_start_ns = obs::Tracer::NowNs();
        std::vector<obs::TraceEvent> trace_events;
        Status status;
        if (want_trace) {
          // Traced requests run exclusive: the tracer is process-global
          // (two traced requests would blend rings), and the unique db
          // lock quiesces other evaluations so the captured trace covers
          // exactly this request's steps — what check_trace.py verifies.
          std::lock_guard<std::mutex> trace_lock(trace_mutex_);
          std::unique_lock<std::shared_mutex> db_lock(db_mutex_);
          obs::Tracer tracer;
          tracer.Install();
          status = EvaluateSolver(service, *query, solver, cancel, &result,
                                  stats);
          if (Result<EliminationPlan> plan = EliminationPlan::Build(*query);
              plan.ok()) {
            tracer.EmitInstant("plan", "steps",
                               static_cast<double>(plan->steps().size()));
          }
          tracer.Uninstall();
          std::ostringstream trace;
          // The client stitches this into its own timeline; the envelope's
          // trace_id ties the file to both sides' log lines.
          tracer.WriteChromeTrace(trace, /*pid=*/1, trace_id);
          result.trace_json = std::move(trace).str();
          trace_events = tracer.Snapshot();
        } else {
          std::shared_lock<std::shared_mutex> db_lock(db_mutex_);
          status = EvaluateSolver(service, *query, solver, cancel, &result,
                                  stats);
        }
        const uint64_t eval_ns = obs::Tracer::NowNs() - eval_start_ns;
        query_ns_->Observe(eval_ns);

        // Slow-query log: threshold 0 logs everything (how CI forces a
        // line), errors included — a query that burned its deadline is
        // exactly the one the operator wants to see.
        if (options_.slow_query_ms >= 0 &&
            eval_ns >= SatMulU64(static_cast<uint64_t>(options_.slow_query_ms),
                                 1'000'000)) {
          std::string explain;
          if (Result<EliminationPlan> plan = EliminationPlan::Build(*query);
              plan.ok()) {
            explain = obs::RenderExplainAnalyze(*plan, query->variables(),
                                                trace_events);
          }
          logger().Warn(
              "slow_query",
              {{"solver", SolverKindName(solver)},
               {"query", query_text},
               {"trace_id", trace_id},
               {"status", status.ok() ? "ok" : status.ToString()},
               {"eval_ns", std::to_string(eval_ns)},
               {"stats", result.stats.Render()},
               {"explain", explain}});
        }

        if (!status.ok()) {
          SendError(*connection, header.request_id, status);
          return;
        }
        const uint16_t flags =
            static_cast<uint16_t>((want_trace ? kFlagTrace : 0) |
                                  (want_stats ? kFlagStats : 0));
        connection->Send(FrameType::kResultFrame, header.request_id,
                         EncodeQueryResult(result, WireFormat::kNative,
                                           want_stats, want_trace),
                         flags);
      },
      request->deadline_ms);
  if (!admitted.ok()) {
    // Load shed at the door: the rejection is this request's answer.
    SendError(*connection, header.request_id, admitted);
  }
}

Status HierarqServer::EvaluateSolver(EvalService& service,
                                     const ConjunctiveQuery& query,
                                     SolverKind solver,
                                     const CancelToken& cancel,
                                     QueryResult* out,
                                     obs::QueryStats* stats) {
  const std::vector<const ConjunctiveQuery*> one{&query};
  switch (solver) {
    case SolverKind::kCount: {
      const CountMonoid monoid;
      auto values = service.EvaluateMany<CountMonoid>(
          monoid, one, db_, [](const Fact&) -> uint64_t { return 1; },
          "server.count", &cancel, stats);
      if (!values.front().ok()) {
        return values.front().status();
      }
      out->count = *values.front();
      return Status::OK();
    }
    case SolverKind::kPqe:
    case SolverKind::kExpect: {
      // Weights are probabilities, clamped exactly as TidDatabase clamps
      // file-loaded facts, so a fact answers the same through either
      // front door.
      const auto annotator = [this](const Fact& fact) {
        return std::clamp(db_.WeightOf(fact), 0.0, 1.0);
      };
      if (solver == SolverKind::kPqe) {
        const ProbMonoid monoid;
        auto values = service.EvaluateMany<ProbMonoid>(
            monoid, one, db_, annotator, "server.pqe", &cancel, stats);
        if (!values.front().ok()) {
          return values.front().status();
        }
        out->number = *values.front();
      } else {
        const ExpectationMonoid monoid;
        auto values = service.EvaluateMany<ExpectationMonoid>(
            monoid, one, db_, annotator, "server.expect", &cancel, stats);
        if (!values.front().ok()) {
          return values.front().status();
        }
        out->number = *values.front();
      }
      return Status::OK();
    }
    case SolverKind::kResilience: {
      auto values = ComputeResilienceBatch(service, one, db_.facts(),
                                           endogenous_, &cancel, stats);
      if (!values.front().ok()) {
        return values.front().status();
      }
      out->count = *values.front();
      return Status::OK();
    }
    case SolverKind::kShapley: {
      auto values = AllShapleyValues(service, query, db_.facts(), endogenous_,
                                     &cancel, stats);
      if (!values.ok()) {
        return values.status();
      }
      out->shapley.reserve(values->size());
      for (const auto& [fact, fraction] : *values) {
        out->shapley.push_back(ShapleyEntry{RenderFact(fact, *dict_),
                                            fraction.ToString(),
                                            fraction.ToDouble()});
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown solver");
}

void HierarqServer::HandleDelta(const std::shared_ptr<Connection>& connection,
                                const Frame& frame) {
  DeltaAck ack;
  {
    // Unique from PARSE, not just apply: ParseDeltaLine interns new
    // constants into the shared dictionary, which query jobs read
    // concurrently (Shapley fact rendering).
    std::unique_lock<std::shared_mutex> lock(db_mutex_);
    Result<DeltaBatch> batch =
        ParseDeltaLine(frame.payload, dict_, db_, /*query=*/nullptr);
    if (!batch.ok()) {
      // The whole line was rejected before anything was applied — the
      // generation is unchanged, exactly the CLI update-mode contract.
      lock.unlock();
      SendError(*connection, frame.header.request_id, batch.status());
      return;
    }
    if (options_.persist != nullptr) {
      // Durability point, still under the unique lock: the WAL append
      // and the Apply are atomic together, so the on-disk log never
      // disagrees with the state it claims to describe (the
      // single-writer CHECK in VersionedDatabase::Apply backstops the
      // lock). Only after the fsynced append may we apply and ack —
      // ack implies durable. The line is stored in canonical rendered
      // form, so recovery replays exactly the batch applied here.
      const Status appended = options_.persist->Append(
          db_.generation() + 1, RenderDeltaLine(*batch, *dict_));
      if (!appended.ok()) {
        // Not applied, not acked — the client sees the failure, and a
        // crash now recovers to the pre-batch generation. Consistent
        // either way.
        lock.unlock();
        SendError(*connection, frame.header.request_id, appended);
        return;
      }
    }
    db_.Apply(*batch);
    // The applied log entry is acked below and this server is the only
    // reader, so retention can be zero (the CLI's update loop does the
    // same).
    db_.TruncateLog(db_.generation());
    ack.generation = db_.generation();
    ack.num_facts = db_.NumFacts();
    if (options_.persist != nullptr && options_.persist->ShouldSnapshot()) {
      // Still under the lock: the snapshot sees exactly the acked
      // state. Failure is logged, not fatal — the WAL already holds
      // every acked batch, so durability is intact; only replay time
      // suffers until a snapshot succeeds.
      const Status snapshot = options_.persist->WriteSnapshot(db_, *dict_);
      if (!snapshot.ok()) {
        logger().Error("persist.snapshot_failed",
                       {{"status", snapshot.ToString()}});
      }
    }
  }
  connection->Send(FrameType::kDeltaAck, frame.header.request_id,
                   EncodeDeltaAck(ack));
}

void HierarqServer::HandleMetrics(
    const std::shared_ptr<Connection>& connection, const Frame& frame) {
  // The frame's format picks the rendering: native = text, json = JSON —
  // same catalog either way (global + eval service + async layer).
  std::string payload;
  if (frame.header.format == WireFormat::kJson) {
    payload = "{\"global\": " + obs::MetricsRegistry::Global().RenderJson() +
              ", \"service\": " + async_.service().metrics().RenderJson() +
              ", \"async\": " + async_.metrics().RenderJson() +
              ", \"server\": " + server_registry_.RenderJson() + "}";
  } else {
    payload = "# global\n" + obs::MetricsRegistry::Global().RenderText() +
              "# service\n" + async_.service().metrics().RenderText() +
              "# async\n" + async_.metrics().RenderText() +
              "# server\n" + server_registry_.RenderText();
  }
  connection->Send(FrameType::kMetricsResponse, frame.header.request_id,
                   payload, 0, frame.header.format);
}

void HierarqServer::HandleStatus(
    const std::shared_ptr<Connection>& connection, const Frame& frame) {
  StatusPayload status;
  status.uptime_ns = obs::Tracer::NowNs() - start_ns_;
  status.queue_depth = async_.queue_depth();
  status.oldest_job_age_ns = async_.oldest_job_age_ns();
  status.active_connections =
      active_connections_.load(std::memory_order_relaxed);
  status.requests_total = frames_total_.load(std::memory_order_relaxed);
  status.errors_total = errors_total_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(errors_mutex_);
    status.recent_errors.assign(recent_errors_.begin(),
                                recent_errors_.end());
  }
  connection->Send(FrameType::kStatusResponse, frame.header.request_id,
                   EncodeStatusPayload(status, frame.header.format), 0,
                   frame.header.format);
}

}  // namespace hierarq::net
