#include "hierarq/net/wire.h"

#include <errno.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "hierarq/obs/log.h"
#include "hierarq/util/logging.h"

namespace hierarq::net {

namespace {

// -- Little-endian byte cursors ---------------------------------------
// Append-to-string writers and a bounds-checked reader; every Decode
// routine funnels through these, so truncation is caught in one place.

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(buf, 8);
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutStr(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Sequential reader over a payload; any out-of-bounds read trips
/// `ok_` and every later read no-ops, so decoders check once at the end.
class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(data_[pos_ + i]);
    }
    pos_ += 4;
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(data_[pos_ + i]);
    }
    pos_ += 8;
    return v;
  }

  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string Str() {
    const uint32_t n = U32();
    if (!Need(n)) return {};
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  /// Decode epilogue: truncated or trailing bytes both reject.
  Status Finish(const char* what) const {
    if (!ok_) {
      return Status::InvalidArgument(std::string(what) +
                                     ": truncated payload");
    }
    if (!AtEnd()) {
      return Status::InvalidArgument(std::string(what) +
                                     ": trailing bytes after payload");
    }
    return Status::OK();
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// -- QueryStats section ------------------------------------------------
// The flag-gated trailing block of kResultFrame. Field order is the
// declaration order in obs/query_stats.h; both sides hardcode it, so a
// new field means a new flag bit (or a versioned section), never a
// silent layout change.

void PutStatsNative(std::string* out, const obs::QueryStats& stats) {
  PutU64(out, stats.rule1_rows_scanned);
  PutU64(out, stats.rule1_rows_emitted);
  PutU64(out, stats.rule2_rows_scanned);
  PutU64(out, stats.rule2_rows_emitted);
  PutU64(out, stats.steps_total);
  PutU64(out, stats.steps_serial);
  PutU64(out, stats.steps_parallel);
  PutU64(out, stats.cancel_checkpoints);
  PutU64(out, stats.queue_wait_ns);
  PutU64(out, stats.exec_ns);
  *out += static_cast<char>(stats.plan_cache_hit ? 1 : 0);
}

/// Rejects a plan_cache_hit byte other than 0 or 1: it would decode to
/// `true` and re-encode as 1, so the bytes would not round-trip.
Status ReadStatsNative(Cursor* cursor, obs::QueryStats* stats) {
  stats->rule1_rows_scanned = cursor->U64();
  stats->rule1_rows_emitted = cursor->U64();
  stats->rule2_rows_scanned = cursor->U64();
  stats->rule2_rows_emitted = cursor->U64();
  stats->steps_total = cursor->U64();
  stats->steps_serial = cursor->U64();
  stats->steps_parallel = cursor->U64();
  stats->cancel_checkpoints = cursor->U64();
  stats->queue_wait_ns = cursor->U64();
  stats->exec_ns = cursor->U64();
  const uint8_t plan_cache_hit = cursor->U8();
  if (plan_cache_hit > 1) {
    return Status::InvalidArgument("result: plan_cache_hit byte " +
                                   std::to_string(plan_cache_hit) +
                                   " is not 0 or 1");
  }
  stats->plan_cache_hit = plan_cache_hit == 1;
  return Status::OK();
}

/// A present trace-id section must be 1–64 bytes of [0-9A-Za-z_-]: the
/// server writes the id into its trace JSON unescaped, and an empty
/// section would decode as "absent" and re-encode 4 bytes shorter.
bool IsValidTraceId(std::string_view id) {
  if (id.empty() || id.size() > 64) {
    return false;
  }
  for (const char c : id) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
                    (c >= 'a' && c <= 'z') || c == '_' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

/// The query codecs keep a `format` argument for their existing callers;
/// only kNative is an encoding.
Status RequireNative(WireFormat format, const char* what) {
  if (format != WireFormat::kNative) {
    return Status::InvalidArgument(std::string(what) +
                                   ": only the native payload format is "
                                   "supported");
  }
  return Status::OK();
}

}  // namespace

const char* SolverKindName(SolverKind solver) {
  switch (solver) {
    case SolverKind::kCount:
      return "count";
    case SolverKind::kPqe:
      return "pqe";
    case SolverKind::kExpect:
      return "expect";
    case SolverKind::kResilience:
      return "resilience";
    case SolverKind::kShapley:
      return "shapley";
  }
  return "unknown";
}

Result<SolverKind> ParseSolverKind(std::string_view name) {
  if (name == "count") return SolverKind::kCount;
  if (name == "pqe") return SolverKind::kPqe;
  if (name == "expect") return SolverKind::kExpect;
  if (name == "resilience") return SolverKind::kResilience;
  if (name == "shapley") return SolverKind::kShapley;
  return Status::InvalidArgument("unknown solver '" + std::string(name) +
                                 "' (expected count, pqe, expect, "
                                 "resilience or shapley)");
}

void EncodeFrameHeader(const FrameHeader& header,
                       char out[kFrameHeaderSize]) {
  std::string buf;
  buf.reserve(kFrameHeaderSize);
  PutU32(&buf, header.payload_len);
  buf += static_cast<char>(header.type);
  buf += static_cast<char>(header.format);
  buf += static_cast<char>(header.flags & 0xff);
  buf += static_cast<char>((header.flags >> 8) & 0xff);
  PutU64(&buf, header.request_id);
  std::memcpy(out, buf.data(), kFrameHeaderSize);
}

Result<FrameHeader> DecodeFrameHeader(const char in[kFrameHeaderSize]) {
  Cursor cursor(std::string_view(in, kFrameHeaderSize));
  FrameHeader header;
  header.payload_len = cursor.U32();
  const uint8_t type = cursor.U8();
  const uint8_t format = cursor.U8();
  const uint8_t flags_lo = cursor.U8();
  const uint8_t flags_hi = cursor.U8();
  header.flags = static_cast<uint16_t>(flags_lo | (flags_hi << 8));
  header.request_id = cursor.U64();
  // A garbage header is the first line of defense: validate every
  // enum-ish field and the length bound BEFORE anyone allocates or
  // dispatches on it.
  if (type < static_cast<uint8_t>(FrameType::kQueryRequest) ||
      type > static_cast<uint8_t>(FrameType::kStatusResponse)) {
    return Status::InvalidArgument("bad frame: unknown type " +
                                   std::to_string(type));
  }
  if (format > static_cast<uint8_t>(WireFormat::kJson)) {
    return Status::InvalidArgument("bad frame: unknown format " +
                                   std::to_string(format));
  }
  if (header.payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "bad frame: payload length " + std::to_string(header.payload_len) +
        " exceeds the " + std::to_string(kMaxPayloadBytes) + "-byte cap");
  }
  header.type = static_cast<FrameType>(type);
  header.format = static_cast<WireFormat>(format);
  return header;
}

std::string EncodeQueryRequest(const QueryRequest& request,
                               WireFormat format) {
  HIERARQ_CHECK(format == WireFormat::kNative);
  std::string out;
  out += static_cast<char>(request.solver);
  PutU64(&out, request.deadline_ms);
  PutStr(&out, request.query);
  // Trailing optional section, written only when present so a request
  // without trace context is byte-identical to the old layout.
  if (!request.trace_id.empty()) {
    PutStr(&out, request.trace_id);
  }
  return out;
}

Result<QueryRequest> DecodeQueryRequest(std::string_view payload,
                                        WireFormat format) {
  HIERARQ_RETURN_NOT_OK(RequireNative(format, "query request"));
  QueryRequest request;
  Cursor cursor(payload);
  const uint8_t solver = cursor.U8();
  request.deadline_ms = cursor.U64();
  request.query = cursor.Str();
  // Old-style frames end here; new-style ones carry trace context.
  const bool has_trace_id = cursor.ok() && !cursor.AtEnd();
  if (has_trace_id) {
    request.trace_id = cursor.Str();
  }
  HIERARQ_RETURN_NOT_OK(cursor.Finish("query request"));
  if (solver > static_cast<uint8_t>(SolverKind::kShapley)) {
    return Status::InvalidArgument("query request: unknown solver tag " +
                                   std::to_string(solver));
  }
  if (has_trace_id && !IsValidTraceId(request.trace_id)) {
    return Status::InvalidArgument(
        "query request: trace id must be 1-64 bytes of [0-9A-Za-z_-]");
  }
  request.solver = static_cast<SolverKind>(solver);
  return request;
}

std::string EncodeQueryResult(const QueryResult& result, WireFormat format,
                              bool with_stats, bool with_trace) {
  HIERARQ_CHECK(format == WireFormat::kNative);
  std::string out;
  out += static_cast<char>(result.solver);
  switch (result.solver) {
    case SolverKind::kCount:
    case SolverKind::kResilience:
      PutU64(&out, result.count);
      break;
    case SolverKind::kPqe:
    case SolverKind::kExpect:
      PutF64(&out, result.number);
      break;
    case SolverKind::kShapley:
      PutU32(&out, static_cast<uint32_t>(result.shapley.size()));
      for (const ShapleyEntry& entry : result.shapley) {
        PutStr(&out, entry.fact);
        PutStr(&out, entry.fraction);
        PutF64(&out, entry.value);
      }
      break;
  }
  if (with_stats) {
    PutStatsNative(&out, result.stats);
  }
  if (with_trace) {
    PutStr(&out, result.trace_json);
  }
  return out;
}

Result<QueryResult> DecodeQueryResult(std::string_view payload,
                                      WireFormat format, bool with_stats,
                                      bool with_trace) {
  HIERARQ_RETURN_NOT_OK(RequireNative(format, "result"));
  QueryResult result;
  Cursor cursor(payload);
  const uint8_t solver = cursor.U8();
  if (solver > static_cast<uint8_t>(SolverKind::kShapley)) {
    return Status::InvalidArgument("result: unknown solver tag " +
                                   std::to_string(solver));
  }
  result.solver = static_cast<SolverKind>(solver);
  switch (result.solver) {
    case SolverKind::kCount:
    case SolverKind::kResilience:
      result.count = cursor.U64();
      break;
    case SolverKind::kPqe:
    case SolverKind::kExpect:
      result.number = cursor.F64();
      break;
    case SolverKind::kShapley: {
      const uint32_t n = cursor.U32();
      // The count is attacker-controlled until Finish() validates the
      // stream; reserve nothing and let truncation trip the cursor.
      for (uint32_t i = 0; i < n && cursor.ok(); ++i) {
        ShapleyEntry entry;
        entry.fact = cursor.Str();
        entry.fraction = cursor.Str();
        entry.value = cursor.F64();
        result.shapley.push_back(std::move(entry));
      }
      break;
    }
  }
  if (with_stats) {
    HIERARQ_RETURN_NOT_OK(ReadStatsNative(&cursor, &result.stats));
  }
  if (with_trace) {
    result.trace_json = cursor.Str();
  }
  HIERARQ_RETURN_NOT_OK(cursor.Finish("result"));
  return result;
}

std::string EncodeError(const Status& status) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(status.code()));
  PutStr(&out, status.message());
  return out;
}

Result<ErrorPayload> DecodeError(std::string_view payload) {
  ErrorPayload error;
  Cursor cursor(payload);
  const uint32_t code = cursor.U32();
  error.message = cursor.Str();
  HIERARQ_RETURN_NOT_OK(cursor.Finish("error frame"));
  if (code > static_cast<uint32_t>(StatusCode::kResourceExhausted)) {
    return Status::InvalidArgument("error frame: unknown status code " +
                                   std::to_string(code));
  }
  error.code = static_cast<StatusCode>(code);
  return error;
}

std::string EncodeDeltaAck(const DeltaAck& ack) {
  std::string out;
  PutU64(&out, ack.generation);
  PutU64(&out, ack.num_facts);
  return out;
}

Result<DeltaAck> DecodeDeltaAck(std::string_view payload) {
  DeltaAck ack;
  Cursor cursor(payload);
  ack.generation = cursor.U64();
  ack.num_facts = cursor.U64();
  HIERARQ_RETURN_NOT_OK(cursor.Finish("delta ack"));
  return ack;
}

std::string EncodeStatusPayload(const StatusPayload& status,
                                WireFormat format) {
  std::string out;
  if (format == WireFormat::kNative) {
    PutU64(&out, status.uptime_ns);
    PutU64(&out, status.queue_depth);
    PutU64(&out, status.oldest_job_age_ns);
    PutU64(&out, status.active_connections);
    PutU64(&out, status.requests_total);
    PutU64(&out, status.errors_total);
    PutU32(&out, static_cast<uint32_t>(status.recent_errors.size()));
    for (const std::string& error : status.recent_errors) {
      PutStr(&out, error);
    }
    return out;
  }
  // u64s as decimal strings: a JSON number reads as a double and loses
  // integers past 2^53.
  out += "{\"uptime_ns\":\"" + std::to_string(status.uptime_ns) + "\"";
  out += ",\"queue_depth\":\"" + std::to_string(status.queue_depth) + "\"";
  out += ",\"oldest_job_age_ns\":\"" +
         std::to_string(status.oldest_job_age_ns) + "\"";
  out += ",\"active_connections\":\"" +
         std::to_string(status.active_connections) + "\"";
  out += ",\"requests_total\":\"" + std::to_string(status.requests_total) +
         "\"";
  out += ",\"errors_total\":\"" + std::to_string(status.errors_total) + "\"";
  out += ",\"recent_errors\":[";
  for (size_t i = 0; i < status.recent_errors.size(); ++i) {
    out += i > 0 ? ",\"" : "\"";
    obs::AppendJsonEscaped(&out, status.recent_errors[i]);
    out += '"';
  }
  out += "]}";
  return out;
}

Result<StatusPayload> DecodeStatusPayload(std::string_view payload) {
  StatusPayload status;
  Cursor cursor(payload);
  status.uptime_ns = cursor.U64();
  status.queue_depth = cursor.U64();
  status.oldest_job_age_ns = cursor.U64();
  status.active_connections = cursor.U64();
  status.requests_total = cursor.U64();
  status.errors_total = cursor.U64();
  const uint32_t n = cursor.U32();
  // Attacker-controlled count: no reserve, truncation trips the cursor.
  for (uint32_t i = 0; i < n && cursor.ok(); ++i) {
    status.recent_errors.push_back(cursor.Str());
  }
  HIERARQ_RETURN_NOT_OK(cursor.Finish("status"));
  return status;
}

namespace {

Status WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t written = ::write(fd, data, n);
    if (written < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Internal(std::string("socket write failed: ") +
                              std::strerror(errno));
    }
    data += written;
    n -= static_cast<size_t>(written);
  }
  return Status::OK();
}

/// Reads exactly `n` bytes. `eof_ok` distinguishes "peer closed at a
/// frame boundary" (clean, kNotFound) from "closed mid-frame"
/// (truncation, kInvalidArgument).
Status ReadAll(int fd, char* data, size_t n, bool eof_ok) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Internal(std::string("socket read failed: ") +
                              std::strerror(errno));
    }
    if (r == 0) {
      if (eof_ok && got == 0) {
        return Status::NotFound("connection closed");
      }
      return Status::InvalidArgument("connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, FrameType type, WireFormat format, uint16_t flags,
                  uint64_t request_id, std::string_view payload) {
  // One buffered write per frame: header+payload coalesce into a single
  // syscall for small frames, which is most of the protocol.
  const FrameHeader header{static_cast<uint32_t>(payload.size()), type,
                           format, flags, request_id};
  std::string buf(kFrameHeaderSize, '\0');
  EncodeFrameHeader(header, buf.data());
  buf.append(payload);
  return WriteAll(fd, buf.data(), buf.size());
}

Result<Frame> ReadFrame(int fd) {
  char raw[kFrameHeaderSize];
  HIERARQ_RETURN_NOT_OK(ReadAll(fd, raw, kFrameHeaderSize, /*eof_ok=*/true));
  Frame frame;
  HIERARQ_ASSIGN_OR_RETURN(frame.header, DecodeFrameHeader(raw));
  frame.payload.resize(frame.header.payload_len);
  if (frame.header.payload_len > 0) {
    HIERARQ_RETURN_NOT_OK(ReadAll(fd, frame.payload.data(),
                                  frame.header.payload_len,
                                  /*eof_ok=*/false));
  }
  return frame;
}

}  // namespace hierarq::net
