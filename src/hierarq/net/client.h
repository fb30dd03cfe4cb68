#ifndef HIERARQ_NET_CLIENT_H_
#define HIERARQ_NET_CLIENT_H_

/// \file client.h
/// \brief `HierarqClient` — a synchronous connection to a hierarq server.
///
/// One client owns one socket and speaks the wire protocol (net/wire.h)
/// request-by-request: each call writes a frame with a fresh request id,
/// reads frames until the echoed id matches (a client that pipelines via
/// multiple threads should use one HierarqClient per thread — this class
/// is not thread-safe), converts kErrorFrame answers into their carried
/// `Status`, and returns the decoded payload. Every frame is native;
/// `Metrics` alone takes a format, which picks the server's RENDERING
/// (native = text, JSON = machine-readable) per call.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "hierarq/net/wire.h"
#include "hierarq/util/random.h"
#include "hierarq/util/result.h"

namespace hierarq::net {

/// Splits "host:port" (or bare ":port" / "port" for loopback). Fails on
/// missing or non-numeric ports.
Result<std::pair<std::string, uint16_t>> ParseHostPort(
    std::string_view host_port);

class HierarqClient {
 public:
  struct Options {
    /// Opt-in retry for TRANSIENT query rejections: a `Query` answered
    /// with a complete kResourceExhausted error frame (the server's
    /// admission queue is full) is retried up to this many times with
    /// capped jittered exponential backoff. 0 (the default) never
    /// retries. Only fully-decoded error frames retry — a transport
    /// error or torn read never does, so a request whose response was
    /// partially received is never silently re-sent.
    uint32_t max_retries = 0;
    /// First backoff delay; attempt k waits min(cap, initial << k),
    /// jittered uniformly into [delay/2, delay] so a herd of rejected
    /// clients does not re-arrive in lockstep.
    uint64_t backoff_initial_ms = 5;
    uint64_t backoff_cap_ms = 250;
    /// Seeds the jitter (deterministic for tests).
    uint64_t retry_jitter_seed = 0x9e3779b97f4a7c15ULL;
  };

  HierarqClient() : HierarqClient(Options{}) {}
  explicit HierarqClient(Options options)
      : options_(options), rng_(options.retry_jitter_seed) {}
  ~HierarqClient() { Close(); }

  HierarqClient(const HierarqClient&) = delete;
  HierarqClient& operator=(const HierarqClient&) = delete;
  HierarqClient(HierarqClient&& other) noexcept { *this = std::move(other); }
  HierarqClient& operator=(HierarqClient&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
      options_ = other.options_;
      next_request_id_ = other.next_request_id_;
      retries_ = other.retries_;
    }
    return *this;
  }

  /// Connects to `host`:`port` (numeric IPv4 or "localhost").
  Status Connect(const std::string& host, uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  const Options& options() const { return options_; }

  /// Total retries performed by `Query` over this client's lifetime.
  uint64_t retries() const { return retries_; }

  /// Evaluates `query` with `solver` server-side. `deadline_ms` 0 uses
  /// the server default; with `capture_trace` the result carries the
  /// request's Chrome trace JSON in `QueryResult::trace_json`; with
  /// `capture_stats` it carries the server's per-query accounting in
  /// `QueryResult::stats` (old servers ignore the bit and answer without
  /// the section — check the response's kFlagStats before trusting it).
  /// A non-empty `trace_id` rides the request so the server tags its
  /// side of the work with it (see MintTraceId).
  Result<QueryResult> Query(SolverKind solver, const std::string& query,
                            uint64_t deadline_ms = 0,
                            bool capture_trace = false,
                            bool capture_stats = false,
                            const std::string& trace_id = "");

  /// Whether the last Query's response announced a stats section (the
  /// server understood kFlagStats).
  bool last_response_had_stats() const { return last_response_had_stats_; }

  /// Fetches the server's health snapshot (uptime, queue, connections,
  /// recent errors) — the kStatus round-trip.
  Result<StatusPayload> ServerStatus();

  /// Mints a fresh 16-hex-char trace id for cross-process correlation.
  static std::string MintTraceId();

  /// Applies one atomic delta line (the update grammar of
  /// incremental/delta_text.h) to the server's database. On a parse
  /// error NOTHING was applied and the server's generation is unchanged.
  Result<DeltaAck> ApplyDelta(std::string_view line);

  /// Scrapes the server's metrics catalog, rendered as text
  /// (kNative) or JSON (kJson).
  Result<std::string> Metrics(WireFormat rendering);

  Status Ping();

  /// Asks the server to stop; returns once the server acked (its owner
  /// thread then tears it down).
  Status Shutdown();

 private:
  /// Writes one request, reads until the response with the same id,
  /// converts error frames to their Status. `expected` is the success
  /// frame type; anything else is a protocol error. Only `Metrics`
  /// passes a `format` other than native.
  Result<Frame> RoundTrip(FrameType type, uint16_t flags,
                          std::string_view payload, FrameType expected,
                          WireFormat format = WireFormat::kNative);

  int fd_ = -1;
  Options options_;
  Rng rng_;
  uint64_t next_request_id_ = 1;
  uint64_t retries_ = 0;
  bool last_response_had_stats_ = false;
};

}  // namespace hierarq::net

#endif  // HIERARQ_NET_CLIENT_H_
