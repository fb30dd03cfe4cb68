#include "hierarq/net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

namespace hierarq::net {

Result<std::pair<std::string, uint16_t>> ParseHostPort(
    std::string_view host_port) {
  std::string host = "127.0.0.1";
  std::string_view port_text = host_port;
  const size_t colon = host_port.rfind(':');
  if (colon != std::string_view::npos) {
    if (colon > 0) {
      host = std::string(host_port.substr(0, colon));
    }
    port_text = host_port.substr(colon + 1);
  }
  if (port_text.empty()) {
    return Status::InvalidArgument("missing port in '" +
                                   std::string(host_port) + "'");
  }
  uint32_t port = 0;
  for (const char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad port in '" +
                                     std::string(host_port) + "'");
    }
    port = port * 10 + static_cast<uint32_t>(c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("port out of range in '" +
                                     std::string(host_port) + "'");
    }
  }
  if (port == 0) {
    return Status::InvalidArgument("port 0 in '" + std::string(host_port) +
                                   "'");
  }
  return std::make_pair(std::move(host), static_cast<uint16_t>(port));
}

Status HierarqClient::Connect(const std::string& host, uint16_t port) {
  std::signal(SIGPIPE, SIG_IGN);
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string node = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, node.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const Status status = Status::Internal("connect " + host + ":" +
                                           std::to_string(port) + ": " +
                                           std::strerror(errno));
    Close();
    return status;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

void HierarqClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Frame> HierarqClient::RoundTrip(FrameType type, uint16_t flags,
                                       std::string_view payload,
                                       FrameType expected,
                                       WireFormat format) {
  if (fd_ < 0) {
    return Status::Internal("client is not connected");
  }
  const uint64_t request_id = next_request_id_++;
  HIERARQ_RETURN_NOT_OK(
      WriteFrame(fd_, type, format, flags, request_id, payload));
  while (true) {
    Result<Frame> frame = ReadFrame(fd_);
    if (!frame.ok()) {
      if (frame.status().Is(StatusCode::kNotFound)) {
        return Status::Internal("server closed the connection mid-request");
      }
      return frame.status();
    }
    // Request id 0 is the CONNECTION-scoped error convention (wire.h):
    // the server rejected the connection itself (e.g. the connection cap)
    // before any request existed. Client ids start at 1, so this can
    // never collide with a response of ours — surface it instead of
    // skipping and hanging on a socket that will never answer.
    const bool connection_error =
        frame->header.request_id == 0 &&
        frame->header.type == FrameType::kErrorFrame;
    if (!connection_error && frame->header.request_id != request_id) {
      // Not ours (e.g. a stale response after a timeout); skip it — ids
      // are strictly increasing per connection, so ours is still ahead.
      continue;
    }
    if (frame->header.type == FrameType::kErrorFrame) {
      Result<ErrorPayload> error = DecodeError(frame->payload);
      if (!error.ok()) {
        return error.status();
      }
      return Status(error->code, error->message);
    }
    if (frame->header.type != expected) {
      return Status::Internal(
          "unexpected response frame type " +
          std::to_string(static_cast<int>(frame->header.type)));
    }
    return frame;
  }
}

Result<QueryResult> HierarqClient::Query(SolverKind solver,
                                         const std::string& query,
                                         uint64_t deadline_ms,
                                         bool capture_trace,
                                         bool capture_stats,
                                         const std::string& trace_id) {
  QueryRequest request;
  request.solver = solver;
  request.deadline_ms = deadline_ms;
  request.query = query;
  request.trace_id = trace_id;
  const uint16_t flags =
      static_cast<uint16_t>((capture_trace ? kFlagTrace : 0) |
                            (capture_stats ? kFlagStats : 0));
  const std::string encoded =
      EncodeQueryRequest(request, WireFormat::kNative);
  Result<Frame> frame = RoundTrip(FrameType::kQueryRequest, flags, encoded,
                                  FrameType::kResultFrame);
  // The retry loop (opt-in, Options::max_retries). ONLY a decoded
  // kResourceExhausted error frame retries: the server answered
  // completely ("queue full, come back later") and applied nothing, so
  // re-sending is safe. Transport failures — including a torn read
  // after a partial response — return immediately: re-sending there
  // could double-evaluate against a desynchronized stream.
  for (uint32_t attempt = 0;
       !frame.ok() && frame.status().Is(StatusCode::kResourceExhausted) &&
       attempt < options_.max_retries;
       ++attempt) {
    const uint64_t shift = attempt < 20 ? attempt : 20;
    const uint64_t delay_ms =
        std::min(options_.backoff_cap_ms, options_.backoff_initial_ms
                                              << shift);
    // Jitter into [delay/2, delay] so rejected clients spread out.
    const uint64_t jittered_ms =
        delay_ms == 0 ? 0
                      : static_cast<uint64_t>(rng_.UniformInt(
                            static_cast<int64_t>(delay_ms / 2),
                            static_cast<int64_t>(delay_ms)));
    std::this_thread::sleep_for(std::chrono::milliseconds(jittered_ms));
    ++retries_;
    frame = RoundTrip(FrameType::kQueryRequest, flags, encoded,
                      FrameType::kResultFrame);
  }
  if (!frame.ok()) {
    return frame.status();
  }
  // Decode by what the RESPONSE announces, not what was asked: an old
  // server ignores unknown flag bits and answers without the sections.
  last_response_had_stats_ = (frame->header.flags & kFlagStats) != 0;
  return DecodeQueryResult(frame->payload, WireFormat::kNative,
                           last_response_had_stats_,
                           (frame->header.flags & kFlagTrace) != 0);
}

Result<StatusPayload> HierarqClient::ServerStatus() {
  Result<Frame> frame =
      RoundTrip(FrameType::kStatusRequest, 0, "", FrameType::kStatusResponse);
  if (!frame.ok()) {
    return frame.status();
  }
  return DecodeStatusPayload(frame->payload);
}

std::string HierarqClient::MintTraceId() {
  // random_device per call: trace ids need uniqueness across processes
  // started in the same tick, not cryptographic strength.
  std::random_device rd;
  const uint64_t id = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

Result<DeltaAck> HierarqClient::ApplyDelta(std::string_view line) {
  Result<Frame> frame =
      RoundTrip(FrameType::kDeltaBatch, 0, line, FrameType::kDeltaAck);
  if (!frame.ok()) {
    return frame.status();
  }
  return DecodeDeltaAck(frame->payload);
}

Result<std::string> HierarqClient::Metrics(WireFormat rendering) {
  Result<Frame> frame = RoundTrip(FrameType::kMetricsRequest, 0, "",
                                  FrameType::kMetricsResponse, rendering);
  if (!frame.ok()) {
    return frame.status();
  }
  return std::move(frame->payload);
}

Status HierarqClient::Ping() {
  return RoundTrip(FrameType::kPing, 0, "", FrameType::kPong).status();
}

Status HierarqClient::Shutdown() {
  return RoundTrip(FrameType::kShutdown, 0, "", FrameType::kShutdown)
      .status();
}

}  // namespace hierarq::net
