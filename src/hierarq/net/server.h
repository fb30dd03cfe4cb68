#ifndef HIERARQ_NET_SERVER_H_
#define HIERARQ_NET_SERVER_H_

/// \file server.h
/// \brief `HierarqServer` — the TCP front door over `AsyncEvalService`.
///
/// One server owns one `VersionedDatabase` (the query/update target), an
/// optional endogenous database (for resilience/Shapley splits), and an
/// `AsyncEvalService`. It listens on loopback, speaks the wire protocol
/// (net/wire.h), and maps frames to the engine:
///
///   kQueryRequest  -> async submit; the evaluation runs on a submitter
///                     thread with the request's deadline armed and the
///                     response frame is written on completion, so the
///                     connection thread keeps reading (pipelining).
///                     Queue-full rejections answer immediately with
///                     kErrorFrame/resource-exhausted.
///   kDeltaBatch    -> the textual update grammar, parsed WHOLE
///                     (delta_text.h) then applied atomically under the
///                     write lock; kDeltaAck carries the new generation.
///   kMetricsRequest-> MetricsRegistry render (global + service + async),
///                     text or JSON per the frame's format.
///   kStatusRequest -> kStatusResponse, native or JSON per the format.
///   kPing          -> kPong. kShutdown -> ack, then the server stops.
///
/// Every response is native except the JSON metrics and status
/// renderings. A kJson frame of any other type is answered with one
/// kInvalidArgument error frame before its payload is decoded; the
/// frame was read whole, so the connection stays open.
///
/// Concurrency: queries take the database lock SHARED (they only read;
/// EvalService's annotation cache keys on the generation), delta applies
/// take it UNIQUE (VersionedDatabase is single-writer and must not race
/// its readers), and a traced request takes it UNIQUE too — the process
/// tracer is a global, so an exclusive window is what guarantees the
/// captured trace covers exactly this request's plan (check_trace.py's
/// step-coverage invariant). Responses are serialized per connection by
/// a write mutex shared between the connection thread (errors, acks)
/// and submitter threads (results).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "hierarq/data/database.h"
#include "hierarq/data/loader.h"
#include "hierarq/incremental/versioned_database.h"
#include "hierarq/net/async_service.h"
#include "hierarq/net/wire.h"
#include "hierarq/obs/log.h"
#include "hierarq/obs/metrics.h"

namespace hierarq::persist {
class Persistor;
}  // namespace hierarq::persist

namespace hierarq::net {

class HierarqServer {
 public:
  struct Options {
    /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back
    /// from `port()` — how tests and the bench avoid collisions).
    uint16_t port = 0;
    AsyncEvalService::Options async;
    /// Slow-query log threshold: a query whose evaluation wall time
    /// reaches this many milliseconds is logged (query text, QueryStats,
    /// EXPLAIN ANALYZE) through `logger`. 0 logs EVERY query (CI uses
    /// this to force a line); negative disables the log.
    int64_t slow_query_ms = -1;
    /// Structured event sink for the slow-query log and protocol errors.
    /// nullptr = obs::Logger::Global() (stderr).
    obs::Logger* logger = nullptr;
    /// Durability (persist/persistor.h): when set (non-owning; must be
    /// Boot()ed with the database this server is constructed with, and
    /// outlive the server), every delta batch is WAL-appended and
    /// fsynced BEFORE it is applied and acked — an ack therefore
    /// guarantees the batch survives any crash — and a snapshot is
    /// written every `Persistor::Options::snapshot_every` acks, under
    /// the same exclusive lock as the applies. nullptr = in-memory only.
    persist::Persistor* persist = nullptr;
    /// Accepted-connection cap (0 = unlimited). The connection past the
    /// cap is accepted, answered with one resource-exhausted error frame
    /// (request id 0 — connection-scoped, see wire.h), and closed; the
    /// listen backlog is not consumed by a stuck peer.
    size_t max_connections = 0;
  };

  /// `db` is the primary database (count/pqe/expect queries, delta
  /// batches); `endogenous` is the endogenous split for resilience and
  /// Shapley (empty = those solvers answer invalid-argument). `dict`
  /// must be the dictionary the databases were loaded with (facts in
  /// Shapley results and delta ops render/parse through it) and must
  /// outlive the server.
  HierarqServer(Options options, VersionedDatabase db, Database endogenous,
                Dictionary* dict);
  ~HierarqServer();

  HierarqServer(const HierarqServer&) = delete;
  HierarqServer& operator=(const HierarqServer&) = delete;

  /// Binds, listens and starts the accept thread. Fails (kInternal) if
  /// the socket cannot be bound.
  Status Start();

  /// The bound port (valid after Start; resolves ephemeral binds).
  uint16_t port() const { return port_; }

  /// Stops accepting, closes the listen socket, joins connection
  /// threads, and drains the async service. Idempotent; run by the
  /// destructor. Must not be called from a connection thread — a
  /// kShutdown frame instead flags `Wait()` awake so the OWNING thread
  /// runs the teardown.
  void Stop();

  /// Blocks until shutdown is requested (Stop() from another thread, or
  /// a kShutdown frame). The typical owner loop is Start(); Wait();
  /// Stop().
  void Wait();

  /// The served database. Safe to read only before `Start()` or after
  /// `Stop()`: while serving, connection threads apply deltas to it
  /// under a lock this accessor does not take.
  const VersionedDatabase& database() const { return db_; }
  AsyncEvalService& async() { return async_; }

  /// The server's own metrics registry (the one the kMetrics scrape
  /// frame renders) — per-instance so tests running several servers in
  /// one process read unpolluted counters.
  obs::MetricsRegistry& metrics() { return server_registry_; }

 private:
  /// One live connection; shared with in-flight jobs so a response can
  /// still be written (or fail harmlessly) after the reader exited. The
  /// fd closes when the last owner drops, never while a job might write.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    /// Writes one response frame under `write_mutex`, so frames from the
    /// connection thread and from submitter threads never interleave.
    /// Only the metrics and status responses pass a `format`.
    void Send(FrameType type, uint64_t request_id, std::string_view payload,
              uint16_t flags = 0, WireFormat format = WireFormat::kNative);
    int fd;
    std::mutex write_mutex;
  };

  void AcceptLoop();
  void ServeConnection(std::shared_ptr<Connection> connection);
  /// Handles one query frame: decode, parse, async-submit. Immediate
  /// failures (parse error, queue full) answer inline.
  void HandleQuery(const std::shared_ptr<Connection>& connection,
                   const Frame& frame);
  void HandleDelta(const std::shared_ptr<Connection>& connection,
                   const Frame& frame);
  void HandleMetrics(const std::shared_ptr<Connection>& connection,
                     const Frame& frame);
  void HandleStatus(const std::shared_ptr<Connection>& connection,
                    const Frame& frame);
  /// Runs one solver synchronously (called from a submitter thread with
  /// the db lock already held) and fills `out` on success. A non-null
  /// `stats` collects per-query accounting where the solver path
  /// supports it (count/pqe/expect; the multi-evaluation resilience and
  /// Shapley solvers report queue/exec time only).
  Status EvaluateSolver(EvalService& service, const ConjunctiveQuery& query,
                        SolverKind solver, const CancelToken& cancel,
                        QueryResult* out, obs::QueryStats* stats);
  /// Records an outgoing error frame in the last-N ring, the error
  /// counter, and the structured log.
  void RecordError(const Status& status);
  /// RecordError, then answers `request_id` with a native error frame.
  void SendError(Connection& connection, uint64_t request_id,
                 const Status& status);
  obs::Logger& logger() {
    return options_.logger != nullptr ? *options_.logger
                                      : obs::Logger::Global();
  }
  /// Flags Wait() awake without tearing down (safe from any thread).
  void RequestShutdown();

  Options options_;
  VersionedDatabase db_;
  Database endogenous_;
  Dictionary* dict_;
  AsyncEvalService async_;
  /// Readers (queries) shared, writers (delta apply, traced requests)
  /// unique — see the file comment.
  std::shared_mutex db_mutex_;
  /// Serializes traced requests against each other (the tracer is
  /// process-global state).
  std::mutex trace_mutex_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  /// NowNs at Start() — the kStatus uptime origin.
  uint64_t start_ns_ = 0;
  std::atomic<uint64_t> active_connections_{0};
  /// Per-frame-type request counters (plus error responses), rendered as
  /// the "server" section of kMetricsResponse; `frames_total_` mirrors
  /// their sum for the cheap kStatus read.
  obs::MetricsRegistry server_registry_;
  obs::Counter* frames_query_ = nullptr;
  obs::Counter* frames_delta_ = nullptr;
  obs::Counter* frames_metrics_ = nullptr;
  obs::Counter* frames_status_ = nullptr;
  obs::Counter* frames_ping_ = nullptr;
  obs::Counter* frames_shutdown_ = nullptr;
  obs::Counter* error_frames_ = nullptr;
  obs::Counter* connections_rejected_ = nullptr;
  /// Evaluation wall time per query — the fleet view's p50/p90/p99.
  obs::Histogram* query_ns_ = nullptr;
  std::atomic<uint64_t> frames_total_{0};
  std::atomic<uint64_t> errors_total_{0};
  /// Last-N outgoing error messages, oldest first (kStatus reports them).
  std::mutex errors_mutex_;
  std::deque<std::string> recent_errors_;
  std::mutex lifecycle_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
  std::mutex connections_mutex_;
  /// Weak: a connection dies with its thread; Stop() only needs to
  /// shutdown(2) the fds of the ones still alive to unblock their reads.
  std::vector<std::weak_ptr<Connection>> connections_;
  std::vector<std::jthread> connection_threads_;
  std::jthread accept_thread_;
};

}  // namespace hierarq::net

#endif  // HIERARQ_NET_SERVER_H_
