// Tests for the net layer (src/hierarq/net/): native wire codec
// round-trips, reject-don't-trust decoding of truncated/oversized/
// garbage bytes and a seeded mutation sweep over every native decoder,
// the async submission layer's admission control and deadline handling,
// the shared delta-text grammar's line atomicity (the partial-apply
// regression), and a live loopback server answering concurrent clients
// bit-identically to the single-threaded Evaluator and refusing JSON
// data frames.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hierarq/algebra/semirings.h"
#include "hierarq/core/evaluator.h"
#include "hierarq/data/loader.h"
#include "hierarq/incremental/delta_text.h"
#include "hierarq/incremental/versioned_database.h"
#include "hierarq/net/async_service.h"
#include "hierarq/net/client.h"
#include "hierarq/net/server.h"
#include "hierarq/net/wire.h"
#include "hierarq/obs/metrics.h"
#include "hierarq/obs/trace.h"
#include "hierarq/query/parser.h"
#include "hierarq/util/random.h"
#include "hierarq/workload/data_gen.h"

namespace hierarq::net {
namespace {

ConjunctiveQuery MustParse(const std::string& text) {
  auto query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status();
  return std::move(query).ValueOrDie();
}

// ------------------------------------------------------------ wire codec --

constexpr WireFormat kNative = WireFormat::kNative;
constexpr const char* kSmallDb = "R(1,2)\nR(1,3)\nR(2,4)\nS(1,5)\nS(2,6)\n";
constexpr const char* kSmallQuery = "Q() :- R(A,B), S(A,C)";

TEST(Wire, QueryRequestRoundTrips) {
  QueryRequest request;
  request.solver = SolverKind::kShapley;
  request.deadline_ms = 1234;
  request.query = "Q() :- R(A,B), S(A,\"C\")";
  auto decoded =
      DecodeQueryRequest(EncodeQueryRequest(request, kNative), kNative);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->solver, SolverKind::kShapley);
  EXPECT_EQ(decoded->deadline_ms, 1234u);
  EXPECT_EQ(decoded->query, request.query);
}

TEST(Wire, CountResultRoundTrips) {
  QueryResult result;
  result.solver = SolverKind::kCount;
  result.count = ~uint64_t{0} - 7;  // Exercises the full u64 range.
  auto decoded = DecodeQueryResult(
      EncodeQueryResult(result, kNative, /*with_stats=*/false,
                        /*with_trace=*/false),
      kNative, /*with_stats=*/false, /*with_trace=*/false);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->solver, SolverKind::kCount);
  EXPECT_EQ(decoded->count, result.count);
}

TEST(Wire, DoubleResultRoundTripsBitExactly) {
  QueryResult result;
  result.solver = SolverKind::kPqe;
  result.number = 0.1 + 0.2;
  auto decoded = DecodeQueryResult(
      EncodeQueryResult(result, kNative, false, false), kNative, false,
      false);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->number, result.number);  // Bit-exact, not near.
}

TEST(Wire, ShapleyResultWithTraceRoundTrips) {
  QueryResult result;
  result.solver = SolverKind::kShapley;
  result.shapley = {{"R(1,2)", "1/3", 1.0 / 3.0},
                    {"S(7,\"x\")", "-2/5", -0.4}};
  result.trace_json = "{\"traceEvents\": []}";
  auto decoded = DecodeQueryResult(
      EncodeQueryResult(result, kNative, /*with_stats=*/false,
                        /*with_trace=*/true),
      kNative, /*with_stats=*/false, /*with_trace=*/true);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->shapley.size(), 2u);
  EXPECT_EQ(decoded->shapley[0].fact, "R(1,2)");
  EXPECT_EQ(decoded->shapley[0].fraction, "1/3");
  EXPECT_EQ(decoded->shapley[1].fact, "S(7,\"x\")");
  EXPECT_EQ(decoded->shapley[1].value, -0.4);
  EXPECT_EQ(decoded->trace_json, result.trace_json);
}

TEST(Wire, StatsSectionRoundTrips) {
  QueryResult result;
  result.solver = SolverKind::kCount;
  result.count = 7;
  result.stats.rule1_rows_scanned = ~uint64_t{0} - 3;  // Past 2^53.
  result.stats.rule1_rows_emitted = 11;
  result.stats.rule2_rows_scanned = 12;
  result.stats.rule2_rows_emitted = 13;
  result.stats.steps_total = 6;
  result.stats.steps_serial = 4;
  result.stats.steps_parallel = 2;
  result.stats.cancel_checkpoints = 9;
  result.stats.queue_wait_ns = 1234567;
  result.stats.exec_ns = 7654321;
  result.stats.plan_cache_hit = true;
  auto decoded = DecodeQueryResult(
      EncodeQueryResult(result, kNative, /*with_stats=*/true,
                        /*with_trace=*/false),
      kNative, /*with_stats=*/true, /*with_trace=*/false);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->count, 7u);
  EXPECT_EQ(decoded->stats.rule1_rows_scanned,
            result.stats.rule1_rows_scanned);
  EXPECT_EQ(decoded->stats.rule1_rows_emitted, 11u);
  EXPECT_EQ(decoded->stats.rule2_rows_scanned, 12u);
  EXPECT_EQ(decoded->stats.rule2_rows_emitted, 13u);
  EXPECT_EQ(decoded->stats.steps_total, 6u);
  EXPECT_EQ(decoded->stats.steps_serial, 4u);
  EXPECT_EQ(decoded->stats.steps_parallel, 2u);
  EXPECT_EQ(decoded->stats.cancel_checkpoints, 9u);
  EXPECT_EQ(decoded->stats.queue_wait_ns, 1234567u);
  EXPECT_EQ(decoded->stats.exec_ns, 7654321u);
  EXPECT_TRUE(decoded->stats.plan_cache_hit);
}

TEST(Wire, StatsAndTraceSectionsCompose) {
  QueryResult result;
  result.solver = SolverKind::kPqe;
  result.number = 0.25;
  result.stats.exec_ns = 42;
  result.trace_json = "{\"traceEvents\": []}";
  auto decoded = DecodeQueryResult(
      EncodeQueryResult(result, kNative, /*with_stats=*/true,
                        /*with_trace=*/true),
      kNative, /*with_stats=*/true, /*with_trace=*/true);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->number, 0.25);
  EXPECT_EQ(decoded->stats.exec_ns, 42u);
  EXPECT_EQ(decoded->trace_json, result.trace_json);
}

TEST(Wire, StatsFlagOffDecodesOldStyleFrames) {
  // Backward compat both ways: a frame encoded WITHOUT the stats section
  // (an old server answering a new client, which then sees kFlagStats
  // clear and decodes accordingly) must round-trip; and a stats-bearing
  // encoding must NOT be accepted by a decoder told no section is there
  // — reject-don't-trust, not garbage in the value fields.
  QueryResult result;
  result.solver = SolverKind::kCount;
  result.count = 99;
  result.stats.exec_ns = 12345;  // Present in the struct, not on the wire.
  const std::string old_style =
      EncodeQueryResult(result, kNative, /*with_stats=*/false,
                        /*with_trace=*/false);
  auto decoded = DecodeQueryResult(old_style, kNative, false, false);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->count, 99u);
  EXPECT_EQ(decoded->stats.exec_ns, 0u) << "stats absent, not garbage";
  EXPECT_FALSE(decoded->stats.plan_cache_hit);

  // The layout is positional: unexpected trailing stats bytes are a
  // protocol violation, rejected rather than misread as a trace.
  const std::string with_stats =
      EncodeQueryResult(result, kNative, /*with_stats=*/true,
                        /*with_trace=*/false);
  EXPECT_FALSE(DecodeQueryResult(with_stats, kNative, false, false).ok());
}

TEST(Wire, TraceIdRidesTheRequestAndOldFramesStillDecode) {
  QueryRequest request;
  request.solver = SolverKind::kCount;
  request.deadline_ms = 5;
  request.query = "Q() :- R(A)";
  request.trace_id = "deadbeef01234567";
  auto decoded =
      DecodeQueryRequest(EncodeQueryRequest(request, kNative), kNative);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trace_id, "deadbeef01234567");

  // An id-less request encodes byte-identically to the pre-trace-id
  // layout (the trailing field is simply absent), so old servers decode
  // new clients' untraced requests unchanged — and new servers decode
  // old clients' requests to an empty id.
  request.trace_id.clear();
  auto old_style =
      DecodeQueryRequest(EncodeQueryRequest(request, kNative), kNative);
  ASSERT_TRUE(old_style.ok()) << old_style.status();
  EXPECT_TRUE(old_style->trace_id.empty());
}

TEST(Wire, TraceIdSectionMustBeOneTo64SafeBytes) {
  const std::string untraced = EncodeQueryRequest({}, kNative);
  const auto with_section = [&untraced](const std::string& id) {
    const uint32_t n = static_cast<uint32_t>(id.size());
    const char length[4] = {static_cast<char>(n), 0, 0, 0};
    return untraced + std::string(length, 4) + id;
  };
  // Empty: it used to decode as "absent" and re-encode 4 bytes shorter.
  // The others would land unescaped in the server's trace JSON.
  for (const std::string& bad : {std::string(), std::string("a\"b"),
                                 std::string("a b"), std::string(65, 'a')}) {
    auto decoded = DecodeQueryRequest(with_section(bad), kNative);
    ASSERT_FALSE(decoded.ok()) << "accepted trace id '" << bad << "'";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  const std::string longest =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
  auto good = DecodeQueryRequest(with_section(longest), kNative);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(EncodeQueryRequest(*good, kNative), with_section(longest));
}

TEST(Wire, StatusPayloadRoundTripsAndRejectsTruncation) {
  StatusPayload status;
  status.uptime_ns = ~uint64_t{0} - 17;
  status.queue_depth = 3;
  status.oldest_job_age_ns = 5'000'000'000ull;
  status.active_connections = 8;
  status.requests_total = 1'000'000;
  status.errors_total = 2;
  status.recent_errors = {"bad \"query\"", "deadline exceeded"};
  const std::string encoded = EncodeStatusPayload(status, kNative);
  auto decoded = DecodeStatusPayload(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->uptime_ns, status.uptime_ns);
  EXPECT_EQ(decoded->queue_depth, 3u);
  EXPECT_EQ(decoded->oldest_job_age_ns, 5'000'000'000ull);
  EXPECT_EQ(decoded->active_connections, 8u);
  EXPECT_EQ(decoded->requests_total, 1'000'000u);
  EXPECT_EQ(decoded->errors_total, 2u);
  ASSERT_EQ(decoded->recent_errors.size(), 2u);
  EXPECT_EQ(decoded->recent_errors[0], "bad \"query\"");
  EXPECT_EQ(decoded->recent_errors[1], "deadline exceeded");

  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(DecodeStatusPayload(encoded.substr(0, cut)).ok())
        << "prefix of length " << cut << " accepted";
  }
}

TEST(Wire, JsonStatusRenderingIsPinned) {
  // What tools/hierarq_top.py parses. u64s ride as decimal strings:
  // 2^53 + 1 would round as a JSON number.
  const StatusPayload status{(uint64_t{1} << 53) + 1, 3, 0, 1, 42, 2,
                             {"parse-error: bad \"query\"", "line\nbreak"}};
  EXPECT_EQ(EncodeStatusPayload(status, WireFormat::kJson),
            "{\"uptime_ns\":\"9007199254740993\",\"queue_depth\":\"3\","
            "\"oldest_job_age_ns\":\"0\",\"active_connections\":\"1\","
            "\"requests_total\":\"42\",\"errors_total\":\"2\","
            "\"recent_errors\":[\"parse-error: bad \\\"query\\\"\","
            "\"line\\nbreak\"]}");
}

TEST(Wire, ErrorAndDeltaAckRoundTrip) {
  auto error =
      DecodeError(EncodeError(Status::DeadlineExceeded("out of \"time\"")));
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_EQ(error->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(error->message, "out of \"time\"");

  auto ack = DecodeDeltaAck(EncodeDeltaAck(DeltaAck{42, 100000}));
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->generation, 42u);
  EXPECT_EQ(ack->num_facts, 100000u);
}

TEST(Wire, TruncatedAndTrailingPayloadsAreRejected) {
  QueryRequest request;
  request.query = "Q() :- R(A)";
  const std::string good = EncodeQueryRequest(request, kNative);
  // Every proper prefix must fail cleanly, never read out of bounds.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    auto decoded = DecodeQueryRequest(good.substr(0, cut), kNative);
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << cut << " accepted";
  }
  auto trailing = DecodeQueryRequest(good + "x", kNative);
  EXPECT_FALSE(trailing.ok());
}

TEST(Wire, GarbagePayloadIsRejectedNotTrusted) {
  EXPECT_FALSE(
      DecodeQueryResult("\xff\xfe garbage \x01", kNative, false, false).ok());
  EXPECT_FALSE(DecodeDeltaAck("{not json").ok());
  // The query codecs keep a format argument, but only kNative decodes.
  auto json = DecodeQueryRequest(EncodeQueryRequest({}, kNative),
                                 WireFormat::kJson);
  EXPECT_EQ(json.status().code(), StatusCode::kInvalidArgument);
  auto json_result = DecodeQueryResult(EncodeQueryResult({}, kNative, false,
                                                         false),
                                       WireFormat::kJson, false, false);
  EXPECT_EQ(json_result.status().code(), StatusCode::kInvalidArgument);
}

TEST(Wire, FrameHeaderRoundTripsAndValidates) {
  FrameHeader header;
  header.payload_len = 123;
  header.type = FrameType::kDeltaBatch;
  header.format = WireFormat::kJson;
  header.flags = kFlagTrace;
  header.request_id = 0xdeadbeefcafef00dull;
  char bytes[kFrameHeaderSize];
  EncodeFrameHeader(header, bytes);
  auto decoded = DecodeFrameHeader(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->payload_len, 123u);
  EXPECT_EQ(decoded->type, FrameType::kDeltaBatch);
  EXPECT_EQ(decoded->format, WireFormat::kJson);
  EXPECT_EQ(decoded->flags, kFlagTrace);
  EXPECT_EQ(decoded->request_id, header.request_id);

  // An oversized length prefix must be rejected BEFORE anyone allocates.
  header.payload_len = kMaxPayloadBytes + 1;
  EncodeFrameHeader(header, bytes);
  EXPECT_FALSE(DecodeFrameHeader(bytes).ok());

  // Unknown type and unknown format tags are protocol violations.
  header.payload_len = 0;
  EncodeFrameHeader(header, bytes);
  bytes[4] = 99;
  EXPECT_FALSE(DecodeFrameHeader(bytes).ok());
  EncodeFrameHeader(header, bytes);
  bytes[5] = 7;
  EXPECT_FALSE(DecodeFrameHeader(bytes).ok());
}

// ------------------------------------------------ decoder mutation sweep --

/// One valid encoding and the codec it belongs to: `reencode` decodes
/// bytes of that kind and, on success, encodes the value again.
struct CodecCase {
  std::string name;
  std::string bytes;
  std::function<Result<std::string>(std::string_view)> reencode;
};

template <typename Decode, typename Encode>
std::function<Result<std::string>(std::string_view)> Reencoder(
    Decode decode, Encode encode) {
  return [=](std::string_view bytes) -> Result<std::string> {
    auto value = decode(bytes);
    if (!value.ok()) {
      return value.status();
    }
    return encode(*value);
  };
}

std::vector<CodecCase> MutationCorpus() {
  std::vector<CodecCase> corpus;
  const auto encode_header = [](const FrameHeader& header) {
    char out[kFrameHeaderSize];
    EncodeFrameHeader(header, out);
    return std::string(out, kFrameHeaderSize);
  };
  const auto header = Reencoder(
      [](std::string_view bytes) -> Result<FrameHeader> {
        // ReadFrame always hands DecodeFrameHeader exactly 16 bytes.
        if (bytes.size() != kFrameHeaderSize) {
          return Status::InvalidArgument("not a 16-byte header");
        }
        return DecodeFrameHeader(bytes.data());
      },
      encode_header);
  for (const FrameHeader& h :
       {FrameHeader{40, FrameType::kQueryRequest, kNative,
                    kFlagTrace | kFlagStats, 7},
        FrameHeader{1u << 20, FrameType::kResultFrame, kNative, kFlagStats,
                    0x0102030405060708ull},
        FrameHeader{0, FrameType::kErrorFrame, kNative, 0, 0},
        FrameHeader{0, FrameType::kStatusRequest, WireFormat::kJson, 0, 3}}) {
    corpus.push_back({"header", encode_header(h), header});
  }

  const auto request = Reencoder(
      [](std::string_view bytes) { return DecodeQueryRequest(bytes, kNative); },
      [](const QueryRequest& r) { return EncodeQueryRequest(r, kNative); });
  corpus.push_back({"query request",
                    EncodeQueryRequest({SolverKind::kCount, 0, kSmallQuery, ""},
                                       kNative),
                    request});
  corpus.push_back(
      {"query request",
       EncodeQueryRequest(
           {SolverKind::kShapley, 250, kSmallQuery, "deadbeef01234567"},
           kNative),
       request});

  for (const SolverKind solver :
       {SolverKind::kCount, SolverKind::kPqe, SolverKind::kExpect,
        SolverKind::kResilience, SolverKind::kShapley}) {
    QueryResult result;
    result.solver = solver;
    result.count = 12345;
    result.number = 0.1 + 0.2;
    if (solver == SolverKind::kShapley) {
      result.shapley = {{"R(1,2)", "1/3", 1.0 / 3.0},
                        {"S(7)", "2/3", 2.0 / 3.0}};
    }
    result.stats.rule1_rows_scanned = 9;
    result.stats.exec_ns = 70000;
    result.stats.plan_cache_hit = solver != SolverKind::kPqe;
    result.trace_json = "{\"traceEvents\": []}";
    for (const bool stats : {false, true}) {
      for (const bool trace : {false, true}) {
        corpus.push_back(
            {std::string("result ") + SolverKindName(solver),
             EncodeQueryResult(result, kNative, stats, trace),
             Reencoder(
                 [=](std::string_view bytes) {
                   return DecodeQueryResult(bytes, kNative, stats, trace);
                 },
                 [=](const QueryResult& decoded) {
                   return EncodeQueryResult(decoded, kNative, stats, trace);
                 })});
      }
    }
  }

  const auto error = Reencoder(DecodeError, [](const ErrorPayload& e) {
    return EncodeError(Status(e.code, e.message));
  });
  corpus.push_back(
      {"error", EncodeError(Status::ResourceExhausted("full")), error});
  corpus.push_back({"error", EncodeError(Status::ParseError("")), error});
  corpus.push_back({"delta ack", EncodeDeltaAck(DeltaAck{3, 5000}),
                    Reencoder(DecodeDeltaAck, EncodeDeltaAck)});
  const auto status = Reencoder(DecodeStatusPayload, [](const auto& value) {
    return EncodeStatusPayload(value, kNative);
  });
  StatusPayload payload{5'000'000'000ull, 0, 0, 1, 17, 0, {}};
  corpus.push_back({"status", EncodeStatusPayload(payload, kNative), status});
  payload.errors_total = 2;
  payload.recent_errors = {"invalid-argument: x", "deadline"};
  corpus.push_back({"status", EncodeStatusPayload(payload, kNative), status});
  return corpus;
}

TEST(WireMutation, EveryMutantIsRejectedOrReencodesToItsBytes) {
  // The property behind reject-don't-trust: a decoder either refuses
  // bytes with a clean Status, or what it accepted is exactly what the
  // encoder writes for the value it decoded — no byte is ignored,
  // normalized or misread. Seeded and clock-free, so every run checks
  // the same mutants.
  const std::vector<CodecCase> corpus = MutationCorpus();
  for (const CodecCase& entry : corpus) {
    Result<std::string> reencoded = entry.reencode(entry.bytes);
    ASSERT_TRUE(reencoded.ok()) << entry.name << ": " << reencoded.status();
    ASSERT_EQ(*reencoded, entry.bytes) << entry.name;
  }
  Rng rng(0x5eed);
  const auto pick = [&rng](size_t n) {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
  };
  constexpr int kMutants = 6000;
  size_t accepted = 0;
  for (int i = 0; i < kMutants; ++i) {
    const CodecCase& entry = corpus[pick(corpus.size())];
    std::string mutant = entry.bytes;
    switch (rng.UniformInt(0, 4)) {
      case 0:  // Flip bits of one byte.
        mutant[pick(mutant.size())] ^=
            static_cast<char>(rng.UniformInt(1, 255));
        break;
      case 1:  // Insert one byte.
        mutant.insert(pick(mutant.size() + 1), 1,
                      static_cast<char>(rng.UniformInt(0, 255)));
        break;
      case 2:  // Delete one byte.
        mutant.erase(pick(mutant.size()), 1);
        break;
      case 3:  // Truncate.
        mutant.resize(pick(mutant.size()));
        break;
      default: {  // Splice: a prefix of this entry, a suffix of another.
        const std::string& other = corpus[pick(corpus.size())].bytes;
        mutant = mutant.substr(0, pick(mutant.size() + 1)) +
                 other.substr(pick(other.size() + 1));
        break;
      }
    }
    Result<std::string> reencoded = entry.reencode(mutant);
    if (!reencoded.ok()) {
      EXPECT_EQ(reencoded.status().code(), StatusCode::kInvalidArgument)
          << entry.name << " mutant " << i << ": " << reencoded.status();
      continue;
    }
    ++accepted;
    EXPECT_EQ(*reencoded, mutant)
        << entry.name << " mutant " << i << " decoded, but re-encodes "
        << "to other bytes";
  }
  EXPECT_GT(accepted, 0u) << "no mutant decoded: the sweep is vacuous";
  EXPECT_LT(accepted, static_cast<size_t>(kMutants));
}

// ------------------------------------------- delta-text line atomicity --

TEST(DeltaText, IntraLineArityConflictRejectsTheWholeLine) {
  Dictionary dict;
  VersionedDatabase db(Database{});
  // Regression: `New` is unknown to the schema, so the second op's arity
  // used to be validated against nothing — the batch passed per-op
  // checks, then VersionedDatabase::Apply CHECK-aborted on the mismatch
  // with the first op already committed. The line grammar now tracks
  // arities introduced by earlier ops in the SAME line and rejects at
  // parse time, before anything is applied.
  auto batch = ParseDeltaLine("+New(1); +New(1,2)", &dict, db);
  ASSERT_FALSE(batch.ok());
  EXPECT_NE(batch.status().message().find("op 2"), std::string::npos)
      << batch.status();
  EXPECT_EQ(db.generation(), 0u) << "nothing may be applied";
  EXPECT_EQ(db.NumFacts(), 0u);

  // The consistent variant parses and applies atomically.
  auto good = ParseDeltaLine("+New(1,2); +New(3,4); -New(1,2)", &dict, db);
  ASSERT_TRUE(good.ok()) << good.status();
  db.Apply(*good);
  EXPECT_EQ(db.generation(), 1u);
  EXPECT_EQ(db.NumFacts(), 1u);
}

TEST(DeltaText, NonFiniteWeightsRejectTheWholeLine) {
  Dictionary dict;
  auto base = LoadDatabase("R(1,2)\n", &dict);
  ASSERT_TRUE(base.ok());
  VersionedDatabase db(std::move(base).ValueOrDie());
  for (const char* weight : {"nan", "inf", "-inf"}) {
    for (const std::string& line :
         {std::string("+R(2,2)@") + weight,
          std::string("+R(3,3); !R(1,2)@") + weight}) {
      auto batch = ParseDeltaLine(line, &dict, db);
      ASSERT_FALSE(batch.ok()) << line;
      EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument) << line;
    }
  }
  EXPECT_EQ(db.generation(), 0u) << "nothing may be applied";
  EXPECT_EQ(db.NumFacts(), 1u);
}

TEST(DeltaText, SchemaArityStillWinsOverOpArity) {
  Dictionary dict;
  auto base = LoadDatabase("R(1,2)\n", &dict);
  ASSERT_TRUE(base.ok());
  VersionedDatabase db(std::move(base).ValueOrDie());
  auto bad = ParseDeltaLine("+R(9)", &dict, db);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(db.generation(), 0u);
}

// --------------------------------------------------- async admission --

TEST(AsyncEvalService, QueueFullRejectsInsteadOfQueueing) {
  AsyncEvalService::Options options;
  options.submit_threads = 1;
  options.max_queue_depth = 1;
  AsyncEvalService async(options);

  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  int ran = 0;
  const auto blocking_job = [&](EvalService&, const CancelToken&) {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
    ++ran;
  };
  // First job occupies the lone submitter, second fills the queue, third
  // must be shed at the door.
  ASSERT_TRUE(async.Submit(blocking_job).ok());
  // Wait for the submitter to pick up job 1 so job 2 queues.
  while (async.queue_depth() != 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(async.Submit(blocking_job).ok());
  const Status rejected = async.Submit(blocking_job);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  async.Shutdown();
  EXPECT_EQ(ran, 2) << "accepted jobs must run; rejected ones must not";
}

TEST(AsyncEvalService, UnrepresentableDeadlineNeverFires) {
  // deadline_ms is a client-chosen u64: converting it to nanoseconds and
  // adding it to the clock must saturate, not wrap into the past. The
  // clock counts from its first read; past one millisecond, a wrapped
  // UINT64_MAX ms (2^64 - 10^6 ns) plus the clock lands behind it.
  const uint64_t start_ns = obs::Tracer::NowNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_GT(obs::Tracer::NowNs(), start_ns + 1'000'000u);
  AsyncEvalService async(AsyncEvalService::Options{});
  std::promise<std::pair<bool, uint64_t>> seen;  // (expired, deadline_ns)
  ASSERT_TRUE(async
                  .Submit(
                      [&](EvalService&, const CancelToken& cancel) {
                        seen.set_value({cancel.Expired(),
                                        cancel.deadline_ns()});
                      },
                      std::numeric_limits<uint64_t>::max())
                  .ok());
  const auto [expired, deadline_ns] = seen.get_future().get();
  EXPECT_FALSE(expired);
  EXPECT_EQ(deadline_ns, std::numeric_limits<uint64_t>::max());
}

TEST(AsyncEvalService, ShutdownCancelsQueuedJobsButStillRunsThem) {
  AsyncEvalService::Options options;
  options.submit_threads = 1;
  options.max_queue_depth = 8;
  AsyncEvalService async(options);

  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> cancelled{0};
  std::atomic<int> completions{0};
  ASSERT_TRUE(async.Submit([&](EvalService&, const CancelToken&) {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return release; });
                completions.fetch_add(1);
              }).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(async.Submit([&](EvalService&, const CancelToken& cancel) {
                  if (cancel.Expired()) {
                    cancelled.fetch_add(1);
                  }
                  completions.fetch_add(1);
                }).ok());
  }
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
    cv.notify_all();
  });
  async.Shutdown();  // Cancels the 3 queued tokens, then drains.
  releaser.join();
  EXPECT_EQ(completions.load(), 4) << "every accepted job's completion fires";
  EXPECT_EQ(cancelled.load(), 3) << "queued jobs see their token cancelled";
}

TEST(EvalService, CancelledTokenReportsDeadlineExceededPerQuery) {
  Dictionary dict;
  auto db = LoadDatabase("R(1,2)\nS(1,3)\n", &dict);
  ASSERT_TRUE(db.ok());
  const ConjunctiveQuery query = MustParse("Q() :- R(A,B), S(A,C)");
  EvalService service;
  CancelToken cancel;
  cancel.Cancel();  // Expired before the replay starts.
  auto values = service.EvaluateMany<CountMonoid>(
      CountMonoid{}, {&query}, *db, [](const Fact&) -> uint64_t { return 1; },
      &cancel);
  ASSERT_EQ(values.size(), 1u);
  ASSERT_FALSE(values[0].ok());
  EXPECT_EQ(values[0].status().code(), StatusCode::kDeadlineExceeded);
}

// ----------------------------------------------------------- live server --

struct TestServer {
  Dictionary dict;
  std::unique_ptr<HierarqServer> server;

  /// Builds a server over in-memory database text. `options` may preset
  /// queue/deadline knobs; port stays ephemeral.
  explicit TestServer(const std::string& db_text,
                      const std::string& endo_text = "",
                      HierarqServer::Options options = {}) {
    auto db = LoadDatabase(db_text, &dict);
    EXPECT_TRUE(db.ok()) << db.status();
    Database endo;
    if (!endo_text.empty()) {
      auto loaded = LoadDatabase(endo_text, &dict);
      EXPECT_TRUE(loaded.ok()) << loaded.status();
      endo = std::move(loaded).ValueOrDie();
    }
    server = std::make_unique<HierarqServer>(
        options, VersionedDatabase(std::move(db).ValueOrDie()),
        std::move(endo), &dict);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started;
    EXPECT_NE(server->port(), 0);
  }

  HierarqClient Connect() {
    HierarqClient client;
    const Status connected = client.Connect("127.0.0.1", server->port());
    EXPECT_TRUE(connected.ok()) << connected;
    return client;
  }

  /// A bare loopback socket, for frames HierarqClient would never send.
  int ConnectRaw() const {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server->port());
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }
};

TEST(Server, AnswersCountPingAndMetrics) {
  TestServer fixture(kSmallDb);
  HierarqClient client = fixture.Connect();
  EXPECT_TRUE(client.Ping().ok());

  auto result = client.Query(SolverKind::kCount, kSmallQuery);
  ASSERT_TRUE(result.ok()) << result.status();
  // Reference: the single-threaded evaluator over the same facts.
  Dictionary dict;
  auto db = LoadDatabase(kSmallDb, &dict);
  ASSERT_TRUE(db.ok());
  Evaluator evaluator;
  auto reference = evaluator.Evaluate<CountMonoid>(
      MustParse(kSmallQuery), CountMonoid{}, *db,
      [](const Fact&) -> uint64_t { return 1; });
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(result->count, *reference);

  auto metrics = client.Metrics(WireFormat::kNative);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_NE(metrics->find("async.jobs_accepted"), std::string::npos);
  auto metrics_json = client.Metrics(WireFormat::kJson);
  ASSERT_TRUE(metrics_json.ok());
  EXPECT_EQ(metrics_json->front(), '{');
}

TEST(Server, ShapleyAndResilienceMatchDirectSolvers) {
  const std::string exo = "R(1,2)\nR(1,3)\n";
  const std::string endo = "S(1,5)\nS(1,6)\n";
  TestServer fixture(exo, endo);
  HierarqClient client = fixture.Connect();

  auto resilience = client.Query(SolverKind::kResilience, kSmallQuery);
  ASSERT_TRUE(resilience.ok()) << resilience.status();
  EXPECT_EQ(resilience->count, 2u);  // Both endogenous S-facts must go.

  auto shapley = client.Query(SolverKind::kShapley, kSmallQuery);
  ASSERT_TRUE(shapley.ok()) << shapley.status();
  ASSERT_EQ(shapley->shapley.size(), 2u);
  EXPECT_EQ(shapley->shapley[0].fraction, "1/2");
  EXPECT_EQ(shapley->shapley[1].fraction, "1/2");
}

TEST(Server, ConcurrentClientsMatchSingleThreadedReference) {
  // The TSAN target: many clients hammering queries + pings while delta
  // batches rewrite the database through the same front door.
  TestServer fixture(kSmallDb);
  constexpr size_t kClients = 4;
  constexpr size_t kQueriesEach = 25;

  // Reference once, single-threaded.
  Dictionary dict;
  auto db = LoadDatabase(kSmallDb, &dict);
  ASSERT_TRUE(db.ok());
  Evaluator evaluator;
  auto reference = evaluator.Evaluate<CountMonoid>(
      MustParse(kSmallQuery), CountMonoid{}, *db,
      [](const Fact&) -> uint64_t { return 1; });
  ASSERT_TRUE(reference.ok());

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&fixture, &mismatches, reference = *reference] {
      HierarqClient client = fixture.Connect();
      for (size_t i = 0; i < kQueriesEach; ++i) {
        auto result = client.Query(SolverKind::kCount, kSmallQuery);
        if (!result.ok() || result->count != reference) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  // A concurrent writer applying no-net-change delta pairs: the count is
  // +T facts only (T does not appear in the query), so every query's
  // answer stays the reference value whatever the interleaving.
  threads.emplace_back([&fixture] {
    HierarqClient client = fixture.Connect();
    for (int i = 0; i < 20; ++i) {
      auto ack = client.ApplyDelta("+T(" + std::to_string(i) + ",1)");
      EXPECT_TRUE(ack.ok()) << ack.status();
    }
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Server, DeltaBatchesApplyAtomicallyOverTheWire) {
  TestServer fixture(kSmallDb);
  HierarqClient client = fixture.Connect();

  auto before = client.Query(SolverKind::kCount, kSmallQuery);
  ASSERT_TRUE(before.ok());

  // The regression shape, through the socket: the whole line must be
  // rejected, the generation unchanged, and the server still healthy.
  auto bad = client.ApplyDelta("+New(1); +New(1,2)");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fixture.server->database().generation(), 0u);

  auto after = client.Query(SolverKind::kCount, kSmallQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->count, before->count);

  auto good = client.ApplyDelta("+R(3,7); +S(3,9)");
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good->generation, 1u);
  auto grown = client.Query(SolverKind::kCount, kSmallQuery);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown->count, before->count + 1);
}

TEST(Server, NonFiniteDeltaWeightIsRejectedBeforeApply) {
  TestServer fixture(kSmallDb);
  HierarqClient client = fixture.Connect();
  auto before = client.Query(SolverKind::kPqe, kSmallQuery);
  ASSERT_TRUE(before.ok()) << before.status();

  for (const char* line : {"+R(2,2)@nan", "+R(3,7)@inf; +S(3,9)"}) {
    auto bad = client.ApplyDelta(line);
    ASSERT_FALSE(bad.ok()) << line;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
        << bad.status();
  }
  EXPECT_EQ(fixture.server->database().generation(), 0u);

  auto after = client.Query(SolverKind::kPqe, kSmallQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(std::isfinite(after->number)) << after->number;
  EXPECT_EQ(after->number, before->number);
}

TEST(Server, UnrepresentableDeadlineIsAnswered) {
  TestServer fixture(kSmallDb);
  HierarqClient client = fixture.Connect();
  auto result = client.Query(SolverKind::kCount, kSmallQuery,
                             std::numeric_limits<uint64_t>::max());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->count, 3u);
}

TEST(Server, DeadlineExceededLeavesDatabaseUntouched) {
  // Big enough that annotation alone outlasts a 1 ms budget (the token
  // is armed at ADMISSION), so the replay's first checkpoint cancels —
  // deterministic even on fast machines, more so under TSAN.
  const ConjunctiveQuery query = MustParse("Q() :- R(A,B), S(A,C), T(A,D)");
  Rng rng(7);
  DataGenOptions gen;
  gen.tuples_per_relation = 60000;
  gen.domain_size = 200000;
  const Database big = RandomDatabaseForQuery(query, rng, gen);

  Dictionary dict;
  HierarqServer::Options options;
  HierarqServer server(options, VersionedDatabase(big), Database{}, &dict);
  ASSERT_TRUE(server.Start().ok());
  HierarqClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  const uint64_t generation_before = server.database().generation();
  auto cut = client.Query(SolverKind::kCount,
                          "Q() :- R(A,B), S(A,C), T(A,D)",
                          /*deadline_ms=*/1);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kDeadlineExceeded)
      << cut.status();
  // Clean cancellation: nothing was mutated and the server still answers.
  EXPECT_EQ(server.database().generation(), generation_before);
  auto retry = client.Query(SolverKind::kCount,
                            "Q() :- R(A,B), S(A,C), T(A,D)");
  EXPECT_TRUE(retry.ok()) << retry.status();
  server.Stop();
}

TEST(Server, QueueFullAnswersResourceExhausted) {
  HierarqServer::Options options;
  options.async.submit_threads = 1;
  options.async.max_queue_depth = 1;
  TestServer fixture(kSmallDb, "", options);

  // Raw pipelining: fire many query frames back-to-back on one socket
  // (the synchronous client can't overrun the queue), then drain. With
  // one submitter and depth 1, at least one of 16 rapid-fire requests
  // must be shed — and every request gets exactly one answer.
  HierarqClient probe = fixture.Connect();  // Ensures the server is up.
  ASSERT_TRUE(probe.Ping().ok());

  const int fd = fixture.ConnectRaw();
  constexpr uint64_t kRequests = 16;
  QueryRequest request;
  request.solver = SolverKind::kCount;
  request.query = kSmallQuery;
  const std::string payload =
      EncodeQueryRequest(request, WireFormat::kNative);
  for (uint64_t id = 1; id <= kRequests; ++id) {
    ASSERT_TRUE(WriteFrame(fd, FrameType::kQueryRequest,
                           WireFormat::kNative, 0, id, payload)
                    .ok());
  }
  size_t ok_answers = 0;
  size_t shed = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    auto frame = ReadFrame(fd);
    ASSERT_TRUE(frame.ok()) << frame.status();
    if (frame->header.type == FrameType::kResultFrame) {
      ++ok_answers;
    } else {
      ASSERT_EQ(frame->header.type, FrameType::kErrorFrame);
      auto error = DecodeError(frame->payload);
      ASSERT_TRUE(error.ok());
      EXPECT_EQ(error->code, StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  ::close(fd);
  EXPECT_EQ(ok_answers + shed, kRequests);
  EXPECT_GE(shed, 1u) << "16 pipelined requests against queue depth 1";
  EXPECT_GE(ok_answers, 1u);
}

TEST(Server, MalformedHeaderGetsErrorFrameThenClose) {
  TestServer fixture(kSmallDb);
  const int fd = fixture.ConnectRaw();
  // 16 bytes of garbage: a wild length under an unknown type tag.
  char garbage[kFrameHeaderSize];
  std::memset(garbage, 0xab, sizeof(garbage));
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
            static_cast<ssize_t>(sizeof(garbage)));
  auto frame = ReadFrame(fd);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->header.type, FrameType::kErrorFrame);
  // ...and the server closes: the next read is clean EOF.
  auto eof = ReadFrame(fd);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
  ::close(fd);
}

TEST(Server, JsonFramesOtherThanMetricsAndStatusGetOneNativeError) {
  TestServer fixture(kSmallDb);
  HierarqClient client = fixture.Connect();
  auto before = client.Query(SolverKind::kCount, kSmallQuery);
  ASSERT_TRUE(before.ok()) << before.status();
  // JSON is a rendering of metrics and status only: a JSON query, delta
  // or ping gets one native invalid-argument error frame, and the delta
  // (the same text in either format) is not applied.
  const int fd = fixture.ConnectRaw();
  const std::pair<FrameType, std::string> json_frames[] = {
      {FrameType::kQueryRequest, "{\"solver\":\"count\",\"query\":\"Q()\"}"},
      {FrameType::kDeltaBatch, "+R(9,9); +S(9,9)"},
      {FrameType::kPing, ""}};
  uint64_t id = 0;
  for (const auto& [type, payload] : json_frames) {
    ASSERT_TRUE(WriteFrame(fd, type, WireFormat::kJson, 0, ++id, payload).ok());
    auto frame = ReadFrame(fd);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->header.type, FrameType::kErrorFrame)
        << static_cast<int>(type);
    EXPECT_EQ(frame->header.format, kNative);
    EXPECT_EQ(frame->header.request_id, id);
    EXPECT_EQ(DecodeError(frame->payload)->code, StatusCode::kInvalidArgument);
  }
  // The same socket then answers a native query: the next frame is its
  // result, with the count the refused delta would have changed.
  ASSERT_TRUE(WriteFrame(fd, FrameType::kQueryRequest, kNative, 0, ++id,
                         EncodeQueryRequest(
                             {SolverKind::kCount, 0, kSmallQuery, ""}, kNative))
                  .ok());
  auto answer = ReadFrame(fd);
  ::close(fd);
  ASSERT_TRUE(answer.ok()) << answer.status();
  ASSERT_EQ(answer->header.type, FrameType::kResultFrame);
  EXPECT_EQ(answer->header.request_id, id);
  EXPECT_EQ(DecodeQueryResult(answer->payload, kNative, false, false)->count,
            before->count);
  auto ack = client.ApplyDelta("+T(1,1)");
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->generation, 1u) << "the JSON delta must not have applied";
}

TEST(Server, TraceIdWithAQuoteIsRejectedAndTheConnectionStillAnswers) {
  TestServer fixture(kSmallDb);
  HierarqClient client = fixture.Connect();
  // The server writes the id into its trace JSON; a quote would break it.
  auto bad = client.Query(SolverKind::kCount, kSmallQuery, 0,
                          /*capture_trace=*/true, false, "a\"b");
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto good = client.Query(SolverKind::kCount, kSmallQuery, 0,
                           /*capture_trace=*/true, false, "trace_id-42");
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_NE(good->trace_json.find("\"trace_id\": \"trace_id-42\""),
            std::string::npos);
}

TEST(Server, TraceCaptureAnnouncesPlanSteps) {
  TestServer fixture(kSmallDb);
  HierarqClient client = fixture.Connect();
  auto result = client.Query(SolverKind::kCount, kSmallQuery, 0,
                             /*capture_trace=*/true);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_NE(result->trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(result->trace_json.find("\"plan\""), std::string::npos);
  EXPECT_NE(result->trace_json.find("\"dropped\""), std::string::npos);

  // Without the flag, no trace rides along.
  auto untraced = client.Query(SolverKind::kCount, kSmallQuery);
  ASSERT_TRUE(untraced.ok());
  EXPECT_TRUE(untraced->trace_json.empty());
}

TEST(Server, StatsSectionReportsAccountingOverTheWire) {
  TestServer fixture(kSmallDb);
  HierarqClient client = fixture.Connect();

  auto first = client.Query(SolverKind::kCount, kSmallQuery, 0,
                            /*capture_trace=*/false, /*capture_stats=*/true);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(client.last_response_had_stats());
  EXPECT_GT(first->stats.steps_total, 0u);
  EXPECT_GT(first->stats.rule1_rows_scanned, 0u);
  EXPECT_GT(first->stats.exec_ns, 0u);
  EXPECT_GT(first->stats.cancel_checkpoints, 0u);
  EXPECT_FALSE(first->stats.plan_cache_hit) << "first sighting of the query";

  auto second = client.Query(SolverKind::kCount, kSmallQuery, 0, false,
                             /*capture_stats=*/true);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->stats.plan_cache_hit) << "same query, cached plan";
  EXPECT_EQ(second->count, first->count);

  // Without the flag the response carries no section and announces none.
  auto plain = client.Query(SolverKind::kCount, kSmallQuery);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_FALSE(client.last_response_had_stats());
  EXPECT_EQ(plain->stats.steps_total, 0u);
}

TEST(Server, ResilienceStatsReportExecutionAndSteps) {
  TestServer fixture("R(1,2)\nR(1,3)\n", "S(1,5)\nS(1,6)\n");
  HierarqClient client = fixture.Connect();
  auto result = client.Query(SolverKind::kResilience, kSmallQuery, 0,
                             /*capture_trace=*/false, /*capture_stats=*/true);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->count, 2u);
  EXPECT_TRUE(client.last_response_had_stats());
  EXPECT_GT(result->stats.exec_ns, 0u);
  auto plan = EliminationPlan::Build(MustParse(kSmallQuery));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(result->stats.steps_total, plan->steps().size());
}

TEST(Server, StatsAndTraceComposeOnOneRequest) {
  TestServer fixture(kSmallDb);
  HierarqClient client = fixture.Connect();
  const std::string trace_id = HierarqClient::MintTraceId();
  EXPECT_EQ(trace_id.size(), 16u);
  auto result = client.Query(SolverKind::kCount, kSmallQuery, 0,
                             /*capture_trace=*/true, /*capture_stats=*/true,
                             trace_id);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(client.last_response_had_stats());
  EXPECT_GT(result->stats.steps_total, 0u);
  EXPECT_NE(result->trace_json.find("\"traceEvents\""), std::string::npos);
  // The minted id rode the request and came back in the server's
  // trace envelope — the cross-process correlation handle.
  EXPECT_NE(result->trace_json.find(trace_id), std::string::npos);
}

TEST(Server, StatusFrameReportsHealthAndRecentErrors) {
  TestServer fixture(kSmallDb);
  HierarqClient client = fixture.Connect();

  auto initial = client.ServerStatus();
  ASSERT_TRUE(initial.ok()) << initial.status();
  EXPECT_GE(initial->active_connections, 1u);
  EXPECT_EQ(initial->errors_total, 0u);
  EXPECT_TRUE(initial->recent_errors.empty());

  ASSERT_TRUE(client.Query(SolverKind::kCount, kSmallQuery).ok());
  auto bad = client.Query(SolverKind::kCount, "this is not datalog");
  ASSERT_FALSE(bad.ok());

  auto after = client.ServerStatus();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_GT(after->requests_total, initial->requests_total);
  EXPECT_EQ(after->errors_total, 1u);
  ASSERT_EQ(after->recent_errors.size(), 1u);
  EXPECT_NE(after->recent_errors[0].find("parse"), std::string::npos)
      << after->recent_errors[0];
  EXPECT_GT(after->uptime_ns, 0u);

  // The per-frame-type counters back the fleet view's traffic mix.
  auto metrics = client.Metrics(WireFormat::kNative);
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->find("server.frames.query"), std::string::npos);
  EXPECT_NE(metrics->find("server.frames.status"), std::string::npos);
  EXPECT_NE(metrics->find("server.error_frames 1"), std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("server.query_ns"), std::string::npos);
}

TEST(Server, SlowQueryLogCapturesStatsAndExplain) {
  HierarqServer::Options options;
  options.slow_query_ms = 0;  // Log EVERY query.
  std::ostringstream sink;
  obs::Logger::Options log_options;
  log_options.sink = &sink;
  obs::Logger logger(log_options);
  options.logger = &logger;
  TestServer fixture(kSmallDb, "", options);
  HierarqClient client = fixture.Connect();
  ASSERT_TRUE(client.Query(SolverKind::kCount, kSmallQuery).ok());

  const std::string log = sink.str();
  EXPECT_NE(log.find("event=slow_query"), std::string::npos) << log;
  EXPECT_NE(log.find("solver=count"), std::string::npos) << log;
  EXPECT_NE(log.find("rule1_rows_scanned="), std::string::npos)
      << "the QueryStats line rides the log event: " << log;
  EXPECT_NE(log.find("EXPLAIN ANALYZE"), std::string::npos) << log;
}

TEST(Server, BadQueryAndBadSolverInputAnswerCleanErrors) {
  TestServer fixture(kSmallDb);  // No endogenous database.
  HierarqClient client = fixture.Connect();
  auto bad_query = client.Query(SolverKind::kCount, "this is not datalog");
  ASSERT_FALSE(bad_query.ok());
  // The connection survives payload-level errors.
  EXPECT_TRUE(client.Ping().ok());
  auto non_hier = client.Query(
      SolverKind::kCount, "Q() :- R(A,B), S(B,C), T(A,C)");
  ASSERT_FALSE(non_hier.ok());
  EXPECT_EQ(non_hier.status().code(), StatusCode::kNotHierarchical);
  EXPECT_TRUE(client.Ping().ok());
}

// ------------------------------------------------- retry + connection cap --

// A scripted one-connection server: answers the first `rejections` query
// frames with kResourceExhausted error frames (echoing the request id),
// then — when `then_answer` — answers count=42; when `close_instead`,
// it reads one frame and slams the connection shut with no response at
// all. Deterministic behavior the retry loop can be pinned against,
// with no queue timing involved.
struct ScriptedServer {
  int listen_fd = -1;
  uint16_t port = 0;
  std::thread thread;

  ScriptedServer(int rejections, bool then_answer, bool close_instead = false) {
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd, 1), 0);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    EXPECT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                            &len),
              0);
    port = ntohs(bound.sin_port);
    thread = std::thread([this, rejections, then_answer, close_instead] {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        return;
      }
      int remaining = rejections;
      while (true) {
        auto frame = ReadFrame(fd);
        if (!frame.ok()) {
          break;
        }
        if (close_instead) {
          break;  // Hang up mid-request: a transport-level failure.
        }
        if (remaining > 0) {
          --remaining;
          (void)WriteFrame(fd, FrameType::kErrorFrame, WireFormat::kNative,
                           0, frame->header.request_id,
                           EncodeError(Status::ResourceExhausted(
                               "scripted: queue full")));
          continue;
        }
        if (then_answer) {
          QueryResult result;
          result.solver = SolverKind::kCount;
          result.count = 42;
          (void)WriteFrame(fd, FrameType::kResultFrame, WireFormat::kNative,
                           0, frame->header.request_id,
                           EncodeQueryResult(result, WireFormat::kNative,
                                             false, false));
        }
      }
      ::close(fd);
    });
  }

  ~ScriptedServer() {
    if (thread.joinable()) {
      thread.join();
    }
    if (listen_fd >= 0) {
      ::close(listen_fd);
    }
  }
};

TEST(ClientRetry, RetriesTransientQueueFullThenSucceeds) {
  ScriptedServer server(/*rejections=*/2, /*then_answer=*/true);
  HierarqClient::Options options;
  options.max_retries = 5;
  options.backoff_initial_ms = 1;
  options.backoff_cap_ms = 4;
  HierarqClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port).ok());
  auto result = client.Query(SolverKind::kCount, kSmallQuery);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->count, 42u);
  EXPECT_EQ(client.retries(), 2u);
  client.Close();
}

TEST(ClientRetry, GivesUpAfterMaxRetriesWithTheLastError) {
  ScriptedServer server(/*rejections=*/100, /*then_answer=*/false);
  HierarqClient::Options options;
  options.max_retries = 3;
  options.backoff_initial_ms = 1;
  options.backoff_cap_ms = 2;
  HierarqClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port).ok());
  auto result = client.Query(SolverKind::kCount, kSmallQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  // 1 initial attempt + exactly max_retries retries, no more.
  EXPECT_EQ(client.retries(), 3u);
  client.Close();
}

TEST(ClientRetry, NeverRetriesAfterATransportFailure) {
  ScriptedServer server(/*rejections=*/0, /*then_answer=*/false,
                        /*close_instead=*/true);
  HierarqClient::Options options;
  options.max_retries = 5;
  options.backoff_initial_ms = 1;
  HierarqClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port).ok());
  auto result = client.Query(SolverKind::kCount, kSmallQuery);
  ASSERT_FALSE(result.ok());
  // A torn/absent response is NOT kResourceExhausted: the client cannot
  // know whether the server acted, so re-sending would risk double
  // evaluation — zero retries, the error surfaces as-is.
  EXPECT_NE(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(client.retries(), 0u);
  client.Close();
}

TEST(ClientRetry, DefaultOptionsNeverRetry) {
  ScriptedServer server(/*rejections=*/1, /*then_answer=*/true);
  HierarqClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port).ok());
  auto result = client.Query(SolverKind::kCount, kSmallQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(client.retries(), 0u);
  client.Close();
}

TEST(Server, MaxConnectionsRejectsExcessWithConnectionScopedError) {
  HierarqServer::Options options;
  options.max_connections = 1;
  TestServer fixture(kSmallDb, "", options);
  obs::Counter* rejected =
      fixture.server->metrics().GetCounter("server.connections_rejected");
  const uint64_t rejected_before = rejected->Value();

  HierarqClient first = fixture.Connect();
  ASSERT_TRUE(first.Ping().ok());  // The slot is definitely claimed now.

  // The second connection is accepted, answered with ONE error frame
  // (request id 0 — connection-scoped, wire.h), and closed. The client
  // surfaces it from any request.
  HierarqClient second = fixture.Connect();
  const Status rejected_status = second.Ping();
  ASSERT_FALSE(rejected_status.ok());
  EXPECT_EQ(rejected_status.code(), StatusCode::kResourceExhausted)
      << rejected_status;
  EXPECT_GE(rejected->Value(), rejected_before + 1);
  second.Close();

  // Releasing the first connection frees the slot — a later client gets
  // in (the decrement runs when the connection thread unwinds, so poll).
  first.Close();
  Status admitted = Status::Internal("never connected");
  for (int attempt = 0; attempt < 200; ++attempt) {
    HierarqClient retry = fixture.Connect();
    admitted = retry.Ping();
    retry.Close();
    if (admitted.ok()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(admitted.ok()) << admitted;
}

TEST(Client, ParseHostPortVariants) {
  auto full = ParseHostPort("10.1.2.3:8080");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->first, "10.1.2.3");
  EXPECT_EQ(full->second, 8080);
  auto bare = ParseHostPort("9001");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->first, "127.0.0.1");
  EXPECT_EQ(bare->second, 9001);
  EXPECT_FALSE(ParseHostPort("host:").ok());
  EXPECT_FALSE(ParseHostPort("host:notaport").ok());
  EXPECT_FALSE(ParseHostPort("host:99999").ok());
}

}  // namespace
}  // namespace hierarq::net
