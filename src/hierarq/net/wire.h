#ifndef HIERARQ_NET_WIRE_H_
#define HIERARQ_NET_WIRE_H_

/// \file wire.h
/// \brief The hierarq wire protocol: length-prefixed binary frames.
///
/// Everything that crosses a hierarq socket is one frame:
///
///     ┌────────────┬──────┬────────┬─────────┬──────────────┬─────────┐
///     │ u32 length │ u8   │ u8     │ u16     │ u64          │ payload │
///     │ of payload │ type │ format │ flags   │ request id   │ bytes   │
///     └────────────┴──────┴────────┴─────────┴──────────────┴─────────┘
///       little-endian, 16-byte header, payload length ≤ 16 MiB
///
/// The request id is chosen by the client and echoed verbatim on every
/// response frame, so a client may pipeline requests and match answers
/// out of order. Payloads are the native binary layouts below. `format`
/// matters on two request types only: on kMetricsRequest it picks a
/// text or JSON rendering, and on kStatusRequest a native or JSON
/// payload (what `tools/hierarq_top.py` reads). A server answers a kJson
/// frame of any other type with one native kInvalidArgument error frame
/// and keeps the connection open. `flags` bit 0 requests (on a query) /
/// announces (on a result) per-request trace capture; bit 1 does the
/// same for per-request resource accounting (QueryStats).
///
/// Native payload layouts (all integers little-endian, doubles as their
/// IEEE-754 bit pattern in a u64):
///
///   kQueryRequest    u8 solver | u64 deadline_ms | u32 n | n query bytes
///                      [| str trace_id]  (optional trailing section: the
///                      client-minted trace context, 1–64 bytes of
///                      [0-9A-Za-z_-]; absent on old-style frames, which
///                      decode identically)
///   kResultFrame     u8 solver | value... [| stats][| u32 n | n trace bytes]
///                      count/resilience: u64
///                      pqe/expect:       f64
///                      shapley:          u32 k | k × (str fact,
///                                        str fraction, f64 value)
///                      (str = u32 length + bytes; the trailing stats
///                       section — 10 × u64 | u8 plan_cache_hit (0 or 1),
///                       field order of obs::QueryStats — is present iff
///                       flags bit 1 is set; the trace section iff bit 0
///                       is set; stats precede trace)
///   kErrorFrame      u32 status code | str message
///   kDeltaBatch      the textual update grammar, verbatim
///                    (incremental/delta_text.h — one line, ops ';'-split,
///                    applied atomically server-side)
///   kDeltaAck        u64 generation | u64 num_facts
///   kMetricsRequest  empty (format picks text vs JSON rendering)
///   kMetricsResponse rendered registry dump, verbatim
///   kPing/kPong      empty
///   kShutdown        empty (server stops accepting and exits its loop)
///   kStatusRequest   empty (format picks a native vs JSON response)
///   kStatusResponse  u64 uptime_ns | u64 queue_depth |
///                    u64 oldest_job_age_ns | u64 active_connections |
///                    u64 requests_total | u64 errors_total |
///                    u32 n | n × str recent error (oldest first);
///                    as JSON, a flat object of the same fields with
///                    every u64 a decimal string (doubles round past 2^53)
///
/// Robustness contract: a reader REJECTS rather than trusts — oversized
/// lengths, unknown frame types, and truncated payloads all produce a
/// clean `Status` (the server answers with kErrorFrame and closes the
/// connection, since a desynchronized length-prefixed stream cannot be
/// re-synchronized). Nothing in this layer aborts on malformed input.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hierarq/obs/query_stats.h"
#include "hierarq/util/result.h"
#include "hierarq/util/status.h"

namespace hierarq::net {

enum class FrameType : uint8_t {
  kQueryRequest = 1,
  kResultFrame = 2,
  kErrorFrame = 3,
  kDeltaBatch = 4,
  kDeltaAck = 5,
  kMetricsRequest = 6,
  kMetricsResponse = 7,
  kPing = 8,
  kPong = 9,
  kShutdown = 10,
  kStatusRequest = 11,   ///< Fleet view: "how is this server doing".
  kStatusResponse = 12,  ///< StatusPayload in the request's format.
};

enum class WireFormat : uint8_t {
  kNative = 0,  ///< The binary layouts of this file.
  kJson = 1,    ///< JSON rendering, for metrics and status only.
};

enum class SolverKind : uint8_t {
  kCount = 0,
  kPqe = 1,
  kExpect = 2,
  kResilience = 3,
  kShapley = 4,
};

/// Returns the CLI-facing solver name ("count", "pqe", ...).
const char* SolverKindName(SolverKind solver);
/// Inverse of SolverKindName; fails on unknown names.
Result<SolverKind> ParseSolverKind(std::string_view name);

/// Frame flags (bitmask in the header's u16).
inline constexpr uint16_t kFlagTrace = 1u << 0;
/// On a query: "account this request"; on a result: "a QueryStats
/// section follows the value". Old clients never set the bit and old
/// decoders never see the section — compatibility both ways.
inline constexpr uint16_t kFlagStats = 1u << 1;

inline constexpr size_t kFrameHeaderSize = 16;
/// Upper bound a reader enforces BEFORE allocating: a garbage or hostile
/// length prefix must not become a 4 GiB allocation.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

struct FrameHeader {
  uint32_t payload_len = 0;
  FrameType type = FrameType::kPing;
  WireFormat format = WireFormat::kNative;
  uint16_t flags = 0;
  /// Echoed request correlator. Clients allocate ids from 1 upward;
  /// id 0 is reserved for CONNECTION-scoped server messages — an error
  /// frame with request_id 0 concerns the connection itself (e.g. the
  /// server's connection cap rejected it before any request existed)
  /// and clients must surface it rather than skip it as "not mine".
  uint64_t request_id = 0;
};

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Serializes `header` into exactly kFrameHeaderSize bytes.
void EncodeFrameHeader(const FrameHeader& header,
                       char out[kFrameHeaderSize]);
/// Parses a header, validating the type tag and the payload bound.
Result<FrameHeader> DecodeFrameHeader(const char in[kFrameHeaderSize]);

// -- Logical payloads -------------------------------------------------

struct QueryRequest {
  SolverKind solver = SolverKind::kCount;
  /// 0 = use the server's default deadline.
  uint64_t deadline_ms = 0;
  std::string query;
  /// Client-minted trace context, e.g. "c3a9f2d41b0e6c77" — the server
  /// tags its spans and log lines with it so client and server sides of
  /// one request stitch into one trace. Empty = none. Rides the payload
  /// as an optional trailing section: old-style frames without it decode
  /// to an empty id, old decoders given a frame WITH it reject cleanly
  /// (trailing bytes) rather than misparse. A present id must be 1–64
  /// bytes of [0-9A-Za-z_-]: it lands unescaped in the trace JSON.
  std::string trace_id;
};

struct ShapleyEntry {
  std::string fact;      ///< Rendered fact, e.g. "R(1,2)".
  std::string fraction;  ///< Exact value, e.g. "1/3".
  double value = 0.0;    ///< The fraction as a double, for display.
};

struct QueryResult {
  SolverKind solver = SolverKind::kCount;
  uint64_t count = 0;   ///< count / resilience (exact).
  double number = 0.0;  ///< pqe / expect.
  std::vector<ShapleyEntry> shapley;
  /// Per-request resource accounting; meaningful iff the result frame's
  /// kFlagStats is set (the section rides the wire only then).
  obs::QueryStats stats;
  /// Chrome trace-event JSON captured for this request; non-empty iff
  /// the result frame's kFlagTrace is set.
  std::string trace_json;
};

struct ErrorPayload {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

struct DeltaAck {
  uint64_t generation = 0;
  uint64_t num_facts = 0;
};

/// The kStatusResponse payload — one server's health at a glance, cheap
/// enough to poll every second (`tools/hierarq_top.py` does).
struct StatusPayload {
  uint64_t uptime_ns = 0;           ///< Since the server started serving.
  uint64_t queue_depth = 0;         ///< Admission queue: jobs waiting.
  uint64_t oldest_job_age_ns = 0;   ///< Head-of-queue wait; 0 when empty.
  uint64_t active_connections = 0;  ///< Connection threads alive now.
  uint64_t requests_total = 0;      ///< Frames served since start.
  uint64_t errors_total = 0;        ///< Error frames sent since start.
  /// Last-N error messages, oldest first (the server keeps a small ring;
  /// N is the server's choice, readers take what they get).
  std::vector<std::string> recent_errors;
};

// -- Payload codecs ----------------------------------------------------
// Encode never fails; Decode returns a Status on truncated, trailing or
// malformed bytes — the reject-don't-trust half of the contract. A value
// that decodes re-encodes to exactly the bytes it was decoded from.
//
// The query request and result codecs still take a `format`, which must
// be kNative: the encoders CHECK it and the decoders reject kJson with
// kInvalidArgument.

std::string EncodeQueryRequest(const QueryRequest& request,
                               WireFormat format);
Result<QueryRequest> DecodeQueryRequest(std::string_view payload,
                                        WireFormat format);

/// `with_stats` / `with_trace` mirror the frame's kFlagStats/kFlagTrace
/// bits: they govern whether the optional trailing sections are written
/// (encode) or expected (decode). Callers pass the bits they put in (or
/// read from) the header, so frame and payload can never disagree.
std::string EncodeQueryResult(const QueryResult& result, WireFormat format,
                              bool with_stats, bool with_trace);
Result<QueryResult> DecodeQueryResult(std::string_view payload,
                                      WireFormat format, bool with_stats,
                                      bool with_trace);

std::string EncodeError(const Status& status);
Result<ErrorPayload> DecodeError(std::string_view payload);

std::string EncodeDeltaAck(const DeltaAck& ack);
Result<DeltaAck> DecodeDeltaAck(std::string_view payload);

/// kJson renders the JSON object `tools/hierarq_top.py` reads; there is
/// no JSON decoder.
std::string EncodeStatusPayload(const StatusPayload& status,
                                WireFormat format);
Result<StatusPayload> DecodeStatusPayload(std::string_view payload);

// -- Framed socket I/O -------------------------------------------------

/// Writes one frame (payload_len taken from `payload`) to `fd`, looping
/// over partial writes.
Status WriteFrame(int fd, FrameType type, WireFormat format, uint16_t flags,
                  uint64_t request_id, std::string_view payload);

/// Reads one frame. kNotFound signals clean EOF at a frame boundary
/// (peer closed); any other error is a protocol violation or I/O
/// failure, after which the stream must be closed (the reader cannot
/// re-synchronize a length-prefixed stream).
Result<Frame> ReadFrame(int fd);

}  // namespace hierarq::net

#endif  // HIERARQ_NET_WIRE_H_
