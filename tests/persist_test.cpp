// Tests for the persistence layer (src/hierarq/persist/): codec and CRC
// primitives, atomic publish, WAL framing with torn-tail truncation,
// snapshot/recover round-trips (including dictionary remapping into a
// pre-populated dictionary), corrupt-input hardening (truncated
// manifests, CRC-mismatched chunks, forged versions, bit-flips — clean
// Status, never UB), the Persistor boot/append/snapshot lifecycle, view
// recovery through Release/Reattach, a live persisted server whose acks
// survive its own teardown, and the kill-and-recover differential: >100
// deterministic fault schedules, each crashing the writer at one chosen
// I/O operation and requiring recovery (through a fresh RealFileIo, like
// a restarted process) to land bit-identically on a never-crashed
// reference at the last durable generation.

#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hierarq/algebra/semirings.h"
#include "hierarq/data/loader.h"
#include "hierarq/incremental/delta_text.h"
#include "hierarq/incremental/incremental_evaluator.h"
#include "hierarq/incremental/versioned_database.h"
#include "hierarq/net/client.h"
#include "hierarq/net/server.h"
#include "hierarq/obs/metrics.h"
#include "hierarq/persist/chunk_store.h"
#include "hierarq/persist/codec.h"
#include "hierarq/persist/fault_io.h"
#include "hierarq/persist/persistor.h"
#include "hierarq/persist/snapshot.h"
#include "hierarq/persist/wal.h"
#include "hierarq/query/parser.h"

namespace hierarq::persist {
namespace {

// ------------------------------------------------------------- fixtures --

// A unique, empty directory per call. /dev/shm when present (tmpfs makes
// the thousands of fsyncs of the differential harness cheap), else the
// gtest temp dir.
std::string FreshDir(const std::string& tag) {
  static std::atomic<uint64_t> counter{0};
  RealFileIo io;
  const std::string base =
      io.Exists("/dev/shm") ? std::string("/dev/shm/") : ::testing::TempDir();
  const std::string dir = base + "hierarq_persist_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter.fetch_add(1));
  EXPECT_TRUE(io.MakeDir(dir).ok());
  auto entries = io.ListDir(dir);
  if (entries.ok()) {
    for (const std::string& name : *entries) {
      (void)io.Remove(dir + "/" + name);
    }
  }
  return dir;
}

void RemoveDirRecursive(const std::string& dir) {
  RealFileIo io;
  auto entries = io.ListDir(dir);
  if (entries.ok()) {
    for (const std::string& name : *entries) {
      (void)io.Remove(dir + "/" + name);
    }
  }
  ::rmdir(dir.c_str());
}

// Canonical rendering of (facts, weights, generation) for bit-identical
// comparison across independently recovered databases. Symbolic values
// render through the caller's dictionary, so a recovered database whose
// dictionary assigned different ids still compares equal iff the
// *logical* state is equal. Relations that hold no tuples are skipped: a
// recovered database never materializes them (a chunk with zero rows
// inserts nothing), and an empty relation has no observable facts.
std::string RenderState(const VersionedDatabase& db, const Dictionary& dict) {
  std::string out = "generation=" + std::to_string(db.generation()) + "\n";
  for (const auto& [name, relation] : db.facts().relations()) {
    for (const Tuple& tuple : relation.tuples()) {
      out += name + "(";
      for (size_t i = 0; i < tuple.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += dict.Render(tuple[i]);
      }
      char weight[64];
      std::snprintf(weight, sizeof(weight), ")@%.17g\n",
                    db.WeightOf(Fact{name, tuple}));
      out += weight;
    }
  }
  return out;
}

Status FlipOneByte(const std::string& path, size_t offset) {
  RealFileIo io;
  HIERARQ_ASSIGN_OR_RETURN(std::string bytes, io.ReadFile(path));
  if (offset >= bytes.size()) {
    return Status::InvalidArgument("offset past end");
  }
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
  HIERARQ_ASSIGN_OR_RETURN(const uint64_t file,
                           io.OpenForWrite(path, /*truncate=*/true));
  HIERARQ_RETURN_NOT_OK(io.Write(file, bytes));
  return io.Close(file);
}

// --------------------------------------------------------------- codec --

TEST(CodecTest, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check vector.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Chaining across buffers equals the one-shot CRC.
  EXPECT_EQ(Crc32("456789", Crc32("123")), Crc32("123456789"));
}

TEST(CodecTest, PrimitivesRoundTrip) {
  std::string bytes;
  PutU32(&bytes, 0xDEADBEEFu);
  PutU64(&bytes, 0x0123456789ABCDEFull);
  PutI64(&bytes, -42);
  PutF64(&bytes, 0.3);
  PutStr(&bytes, "hello");
  ByteReader reader(bytes);
  EXPECT_EQ(reader.U32().ValueOrDie(), 0xDEADBEEFu);
  EXPECT_EQ(reader.U64().ValueOrDie(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.I64().ValueOrDie(), -42);
  EXPECT_EQ(reader.F64().ValueOrDie(), 0.3);
  EXPECT_EQ(reader.Str().ValueOrDie(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CodecTest, ReaderRejectsOverReadsCleanly) {
  std::string bytes;
  PutU32(&bytes, 7);
  ByteReader reader(bytes);
  EXPECT_FALSE(reader.U64().ok());  // 4 bytes left, 8 wanted.
  // A length-prefixed string whose length exceeds the buffer must fail,
  // not allocate or read out of range.
  std::string huge;
  PutU32(&huge, 0xFFFFFFFFu);
  huge += "abc";
  ByteReader huge_reader(huge);
  EXPECT_FALSE(huge_reader.Str().ok());
}

// ------------------------------------------------------- atomic publish --

TEST(AtomicWriteFileTest, PublishesAndReplacesAtomically) {
  const std::string dir = FreshDir("atomic");
  const std::string path = dir + "/file";
  RealFileIo io;
  ASSERT_TRUE(AtomicWriteFile(io, path, "first").ok());
  EXPECT_EQ(io.ReadFile(path).ValueOrDie(), "first");
  ASSERT_TRUE(AtomicWriteFile(io, path, "second").ok());
  EXPECT_EQ(io.ReadFile(path).ValueOrDie(), "second");
  EXPECT_FALSE(io.Exists(path + ".tmp"));
  RemoveDirRecursive(dir);
}

TEST(AtomicWriteFileTest, CrashMidWriteLeavesDestinationUntouched) {
  const std::string dir = FreshDir("atomic_crash");
  const std::string path = dir + "/file";
  RealFileIo real;
  ASSERT_TRUE(AtomicWriteFile(real, path, "old").ok());
  // Op 1 is the temp-file Write: it tears, the rename never runs.
  FaultInjectingIo io(&real, {.seed = 7, .crash_at_op = 1});
  EXPECT_FALSE(AtomicWriteFile(io, path, "newer and longer").ok());
  EXPECT_EQ(real.ReadFile(path).ValueOrDie(), "old");
  RemoveDirRecursive(dir);
}

// ----------------------------------------------------------------- WAL --

TEST(WalTest, RoundTripsAndTruncatesTornTail) {
  const std::string dir = FreshDir("wal");
  const std::string path = dir + "/wal-0.log";
  RealFileIo io;
  {
    auto writer = WalWriter::Open(&io, path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "+R(1,2)").ok());
    ASSERT_TRUE(writer->Append(2, "-R(1,2); +S(3)@0.5").ok());
    ASSERT_TRUE(writer->Append(3, "").ok());  // Empty batches are legal.
    ASSERT_TRUE(writer->Close().ok());
  }
  WalReadStats stats;
  auto records = ReadWal(io, path, &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].generation, 1u);
  EXPECT_EQ((*records)[1].line, "-R(1,2); +S(3)@0.5");
  EXPECT_EQ((*records)[2].line, "");
  EXPECT_FALSE(stats.torn_tail);

  // A torn tail — half a record appended raw — reads as exactly the
  // records before it, with the tear accounted.
  const std::string full = EncodeWalRecord(4, "+T(9)");
  const uint64_t file = io.OpenForWrite(path, /*truncate=*/false).ValueOrDie();
  ASSERT_TRUE(io.Write(file, std::string_view(full).substr(0, full.size() / 2))
                  .ok());
  ASSERT_TRUE(io.Close(file).ok());
  records = ReadWal(io, path, &stats);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 3u);
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_GT(stats.truncated_bytes, 0u);
  RemoveDirRecursive(dir);
}

TEST(WalTest, CorruptRecordStopsReplayThere) {
  const std::string dir = FreshDir("wal_flip");
  const std::string path = dir + "/wal-0.log";
  RealFileIo io;
  auto writer = WalWriter::Open(&io, path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(1, "+R(1,2)").ok());
  ASSERT_TRUE(writer->Append(2, "+R(3,4)").ok());
  ASSERT_TRUE(writer->Close().ok());
  // Flip a bit in the SECOND record's payload region.
  const size_t first = EncodeWalRecord(1, "+R(1,2)").size();
  ASSERT_TRUE(FlipOneByte(path, first + 17).ok());
  WalReadStats stats;
  auto records = ReadWal(io, path, &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].line, "+R(1,2)");
  EXPECT_TRUE(stats.torn_tail);
  RemoveDirRecursive(dir);
}

TEST(WalTest, InjectedFsyncFailureSurfacesAsAppendError) {
  const std::string dir = FreshDir("wal_fsync");
  RealFileIo real;
  // Append is Write (op 1) then Sync (op 2): fail the sync.
  FaultInjectingIo io(&real, {.seed = 3, .fail_sync_at_op = 2});
  auto writer = WalWriter::Open(&io, dir + "/wal-0.log");
  ASSERT_TRUE(writer.ok());
  const Status appended = writer->Append(1, "+R(1)");
  EXPECT_FALSE(appended.ok());
  // Transient, not a crash: the next append goes through.
  EXPECT_TRUE(writer->Append(1, "+R(1)").ok());
  RemoveDirRecursive(dir);
}

// ------------------------------------------------------ delta rendering --

TEST(DeltaRenderTest, RenderedLinesReparseExactly) {
  Dictionary dict;
  VersionedDatabase db;
  const std::string line =
      "+R(alice,2)@0.25; -R(alice,2); +S(7); !S(7)@1; +T(bob)@3.0000000001";
  auto batch = ParseDeltaLine(line, &dict, db);
  ASSERT_TRUE(batch.ok()) << batch.status();
  const std::string rendered = RenderDeltaLine(*batch, dict);
  auto reparsed = ParseDeltaLine(rendered, &dict, db);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << " for " << rendered;
  EXPECT_EQ(RenderDeltaLine(*reparsed, dict), rendered);
  ASSERT_EQ(reparsed->size(), batch->size());
  for (size_t i = 0; i < batch->ops.size(); ++i) {
    EXPECT_EQ(RenderDeltaOp(reparsed->ops[i], dict),
              RenderDeltaOp(batch->ops[i], dict));
  }
  // Default-weight inserts render without the redundant @1.
  EXPECT_EQ(RenderDeltaOp(batch->ops[2], dict), "+S(7)");
}

// ----------------------------------------------------- chunks + manifest --

TEST(ChunkStoreTest, RelationChunkRoundTripsSymbolsIntoAForeignDictionary) {
  Dictionary writer_dict;
  Database base;
  base.AddFactOrDie("R", MakeTuple({writer_dict.Intern("alice"), 2}));
  base.AddFactOrDie("R", MakeTuple({writer_dict.Intern("bob"), 3}));
  VersionedDatabase db(std::move(base));
  DeltaBatch weights;
  weights.SetAnnotation("R", MakeTuple({writer_dict.Intern("alice"), 2}),
                        0.125);
  db.Apply(weights);

  const Relation& relation = db.facts().relations().at("R");
  const std::string chunk = EncodeRelationChunk(relation, db);
  const std::string dict_chunk = EncodeDictionaryChunk(writer_dict);

  // The reading dictionary already holds other symbols, so raw id reuse
  // would silently alias — the remap table must prevent exactly that.
  Dictionary reader_dict;
  reader_dict.Intern("zulu");
  reader_dict.Intern("alice");
  auto remap = DecodeDictionaryChunk(dict_chunk, &reader_dict);
  ASSERT_TRUE(remap.ok()) << remap.status();

  ChunkInfo info;
  info.file = "chunk-0-0.hq";
  info.relation = "R";
  info.arity = 2;
  info.rows = 2;
  info.bytes = chunk.size();
  info.crc = Crc32(chunk);
  Database decoded;
  std::unordered_map<Fact, double, FactHash> decoded_weights;
  ASSERT_TRUE(
      DecodeRelationChunk(chunk, info, *remap, &decoded, &decoded_weights)
          .ok());
  const Value alice = *reader_dict.Find("alice");
  const Value bob = *reader_dict.Find("bob");
  EXPECT_TRUE(decoded.ContainsFact("R", MakeTuple({alice, 2})));
  EXPECT_TRUE(decoded.ContainsFact("R", MakeTuple({bob, 3})));
  const Fact weighted{"R", MakeTuple({alice, 2})};
  EXPECT_DOUBLE_EQ(decoded_weights[weighted], 0.125);

  // A flipped bit anywhere fails the CRC gate before any parsing.
  std::string corrupt = chunk;
  corrupt[corrupt.size() / 2] ^= 0x10;
  Database scratch;
  std::unordered_map<Fact, double, FactHash> scratch_weights;
  EXPECT_FALSE(
      DecodeRelationChunk(corrupt, info, *remap, &scratch, &scratch_weights)
          .ok());
}

TEST(ChunkStoreTest, ManifestRejectsForgedVersionAndTruncation) {
  Manifest manifest;
  manifest.generation = 5;
  manifest.wal_file = "wal-5.log";
  manifest.chunks.push_back(
      ChunkInfo{"chunk-5-0.hq", "R", 2, 10, 1234, 0xABCD});
  const std::string bytes = EncodeManifest(manifest);
  auto decoded = DecodeManifest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->generation, 5u);
  ASSERT_EQ(decoded->chunks.size(), 1u);
  EXPECT_EQ(decoded->chunks[0].relation, "R");

  // A future format version with a perfectly valid CRC must be rejected
  // cleanly — misparsing it as version 1 would be silent corruption.
  Manifest forged = manifest;
  forged.version = 99;
  EXPECT_FALSE(DecodeManifest(EncodeManifest(forged)).ok());

  // Truncation at every prefix length: clean Status, never UB (the
  // ASan/UBSan legs run this).
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeManifest(std::string_view(bytes).substr(0, len)).ok());
  }
}

// ---------------------------------------------------- snapshot + recover --

// The shared example: two relations, symbolic constants, non-default
// weights — every representational feature the chunk format carries.
VersionedDatabase MakeExampleDb(Dictionary* dict) {
  Database base;
  base.AddFactOrDie("R", MakeTuple({dict->Intern("alice"), 2}));
  base.AddFactOrDie("R", MakeTuple({1, 3}));
  base.AddFactOrDie("S", MakeTuple({dict->Intern("bob")}));
  VersionedDatabase db(std::move(base));
  DeltaBatch weights;
  weights.SetAnnotation("S", MakeTuple({dict->Intern("bob")}), 0.75);
  db.Apply(weights);
  return db;
}

TEST(SnapshotTest, RoundTripsIntoAPrePopulatedDictionary) {
  const std::string dir = FreshDir("snap_roundtrip");
  RealFileIo io;
  Dictionary dict;
  VersionedDatabase db = MakeExampleDb(&dict);
  auto stats = WriteSnapshot(io, dir, db, dict);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->generation, 1u);
  EXPECT_EQ(stats->relations, 2u);
  EXPECT_EQ(stats->facts, 3u);

  Dictionary recovered_dict;
  recovered_dict.Intern("prior");  // Shifts every recovered symbol id.
  RecoverResult detail;
  auto recovered = RecoverDatabase(io, dir, &recovered_dict, &detail);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(detail.snapshot_generation, 1u);
  EXPECT_EQ(detail.recovered_generation, 1u);
  EXPECT_EQ(detail.wal_records, 0u);
  EXPECT_FALSE(detail.used_fallback_manifest);
  EXPECT_EQ(RenderState(*recovered, recovered_dict), RenderState(db, dict));
  RemoveDirRecursive(dir);
}

TEST(SnapshotTest, ReplaysWalTailPastTheSnapshot) {
  const std::string dir = FreshDir("snap_tail");
  RealFileIo io;
  Dictionary dict;
  VersionedDatabase db = MakeExampleDb(&dict);
  ASSERT_TRUE(WriteSnapshot(io, dir, db, dict).ok());

  // Two acked batches after the snapshot, WAL-appended exactly as the
  // server does it: render, append, apply.
  auto writer = WalWriter::Open(&io, dir + "/" + WalFileName(1));
  ASSERT_TRUE(writer.ok());
  for (const std::string line : {"+R(4,5); -S(bob)", "!R(alice,2)@0.5"}) {
    auto batch = ParseDeltaLine(line, &dict, db);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_TRUE(
        writer->Append(db.generation() + 1, RenderDeltaLine(*batch, dict))
            .ok());
    db.Apply(*batch);
  }
  ASSERT_TRUE(writer->Close().ok());

  Dictionary recovered_dict;
  RecoverResult detail;
  auto recovered = RecoverDatabase(io, dir, &recovered_dict, &detail);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(detail.snapshot_generation, 1u);
  EXPECT_EQ(detail.recovered_generation, 3u);
  EXPECT_EQ(detail.wal_records, 2u);
  EXPECT_EQ(RenderState(*recovered, recovered_dict), RenderState(db, dict));
  RemoveDirRecursive(dir);
}

TEST(SnapshotTest, EmptyOrMissingDirectoryIsNotFound) {
  RealFileIo io;
  Dictionary dict;
  const std::string dir = FreshDir("snap_empty");
  EXPECT_TRUE(Recover(io, dir, &dict).status().Is(StatusCode::kNotFound));
  EXPECT_TRUE(Recover(io, dir + "/never_made", &dict)
                  .status()
                  .Is(StatusCode::kNotFound));
  RemoveDirRecursive(dir);
}

// Builds the two-snapshot directory every fallback test corrupts:
// snapshot at generation 1, one acked batch (wal-1), snapshot at
// generation 2, one more acked batch (wal-2). Returns the final state.
std::string BuildTwoSnapshotDir(const std::string& dir, Dictionary* dict) {
  RealFileIo io;
  VersionedDatabase db = MakeExampleDb(dict);
  EXPECT_TRUE(WriteSnapshot(io, dir, db, *dict).ok());
  {
    auto writer = WalWriter::Open(&io, dir + "/" + WalFileName(1));
    EXPECT_TRUE(writer.ok());
    auto batch = ParseDeltaLine("+R(4,5)", dict, db);
    EXPECT_TRUE(batch.ok());
    EXPECT_TRUE(writer->Append(2, RenderDeltaLine(*batch, *dict)).ok());
    db.Apply(*batch);
    EXPECT_TRUE(writer->Close().ok());
  }
  EXPECT_TRUE(WriteSnapshot(io, dir, db, *dict).ok());
  {
    auto writer = WalWriter::Open(&io, dir + "/" + WalFileName(2));
    EXPECT_TRUE(writer.ok());
    auto batch = ParseDeltaLine("+S(carol)@0.5", dict, db);
    EXPECT_TRUE(batch.ok());
    EXPECT_TRUE(writer->Append(3, RenderDeltaLine(*batch, *dict)).ok());
    db.Apply(*batch);
    EXPECT_TRUE(writer->Close().ok());
  }
  return RenderState(db, *dict);
}

TEST(SnapshotTest, TruncatedManifestFallsBackAndReplaysTheWalChain) {
  const std::string dir = FreshDir("snap_fallback");
  Dictionary dict;
  const std::string reference = BuildTwoSnapshotDir(dir, &dict);
  RealFileIo io;
  // Damage the NEWEST manifest: recovery must fall back to MANIFEST.1
  // (generation 1) and still reach generation 3 by replaying wal-1 and
  // then HOPPING to wal-2 — no acked batch may be lost to a bad commit
  // record.
  const std::string manifest_bytes =
      io.ReadFile(dir + "/" + kManifestName).ValueOrDie();
  const uint64_t file =
      io.OpenForWrite(dir + "/" + kManifestName, /*truncate=*/true)
          .ValueOrDie();
  ASSERT_TRUE(io.Write(file, std::string_view(manifest_bytes)
                                 .substr(0, manifest_bytes.size() / 2))
                  .ok());
  ASSERT_TRUE(io.Close(file).ok());

  Dictionary recovered_dict;
  RecoverResult detail;
  auto recovered = RecoverDatabase(io, dir, &recovered_dict, &detail);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(detail.used_fallback_manifest);
  EXPECT_EQ(detail.snapshot_generation, 1u);
  EXPECT_EQ(detail.recovered_generation, 3u);
  EXPECT_EQ(RenderState(*recovered, recovered_dict), reference);
  RemoveDirRecursive(dir);
}

TEST(SnapshotTest, CorruptChunkCrcFallsBackWithoutLosingAckedBatches) {
  const std::string dir = FreshDir("snap_chunk_flip");
  Dictionary dict;
  const std::string reference = BuildTwoSnapshotDir(dir, &dict);
  // Flip one bit in a generation-2 chunk: MANIFEST (generation 2)
  // becomes unloadable mid-validation, MANIFEST.1 wins, the chain
  // replay still reaches generation 3.
  ASSERT_TRUE(FlipOneByte(dir + "/" + ChunkFileName(2, 0), 9).ok());
  RealFileIo io;
  Dictionary recovered_dict;
  RecoverResult detail;
  auto recovered = RecoverDatabase(io, dir, &recovered_dict, &detail);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(detail.used_fallback_manifest);
  EXPECT_EQ(detail.recovered_generation, 3u);
  EXPECT_EQ(RenderState(*recovered, recovered_dict), reference);
  RemoveDirRecursive(dir);
}

TEST(SnapshotTest, MissingChunkWithNoFallbackIsACleanError) {
  const std::string dir = FreshDir("snap_missing_chunk");
  RealFileIo io;
  Dictionary dict;
  VersionedDatabase db = MakeExampleDb(&dict);
  ASSERT_TRUE(WriteSnapshot(io, dir, db, dict).ok());
  ASSERT_TRUE(io.Remove(dir + "/" + ChunkFileName(1, 0)).ok());
  Dictionary recovered_dict;
  const Status status = Recover(io, dir, &recovered_dict).status();
  EXPECT_TRUE(status.Is(StatusCode::kInvalidArgument)) << status;
  RemoveDirRecursive(dir);
}

TEST(SnapshotTest, ForgedFutureVersionManifestIsACleanError) {
  const std::string dir = FreshDir("snap_forged");
  RealFileIo io;
  Manifest forged;
  forged.version = 99;
  forged.generation = 1;
  forged.wal_file = "wal-1.log";
  ASSERT_TRUE(
      AtomicWriteFile(io, dir + "/" + kManifestName, EncodeManifest(forged))
          .ok());
  Dictionary dict;
  const Status status = Recover(io, dir, &dict).status();
  EXPECT_TRUE(status.Is(StatusCode::kInvalidArgument)) << status;
  RemoveDirRecursive(dir);
}

// ----------------------------------------------------------- persistor --

TEST(PersistorTest, BootSeedsThenRecoversAndHealsTheDirectory) {
  const std::string dir = FreshDir("persistor");
  Dictionary dict;
  {
    auto persistor = Persistor::Open(dir, {});
    ASSERT_TRUE(persistor.ok());
    auto booted = (*persistor)->Boot(MakeExampleDb(&dict), &dict);
    ASSERT_TRUE(booted.ok()) << booted.status();
    EXPECT_FALSE((*persistor)->recovery().has_value());  // Seed path.
    VersionedDatabase db = std::move(*booted);
    for (const std::string line : {"+R(4,5)", "+S(dave)@0.25", "-R(1,3)"}) {
      auto batch = ParseDeltaLine(line, &dict, db);
      ASSERT_TRUE(batch.ok());
      ASSERT_TRUE((*persistor)
                      ->Append(db.generation() + 1,
                               RenderDeltaLine(*batch, dict))
                      .ok());
      db.Apply(*batch);
    }
    EXPECT_EQ((*persistor)->appends_since_snapshot(), 3u);
  }
  // A "restarted process": recover through a fresh persistor and an
  // empty initial database — the directory wins.
  Dictionary dict2;
  auto persistor = Persistor::Open(dir, {});
  ASSERT_TRUE(persistor.ok());
  auto booted = (*persistor)->Boot(VersionedDatabase(), &dict2);
  ASSERT_TRUE(booted.ok()) << booted.status();
  ASSERT_TRUE((*persistor)->recovery().has_value());
  EXPECT_EQ((*persistor)->recovery()->recovered_generation, 4u);
  EXPECT_EQ(booted->generation(), 4u);
  EXPECT_TRUE(booted->Contains(Fact{"R", MakeTuple({4, 5})}));
  EXPECT_FALSE(booted->Contains(Fact{"R", MakeTuple({1, 3})}));
  EXPECT_DOUBLE_EQ(
      booted->WeightOf(Fact{"S", MakeTuple({*dict2.Find("dave")})}), 0.25);
  // Boot healed: the directory now holds a fresh snapshot at the
  // recovered generation with an empty WAL, so a THIRD boot replays
  // nothing.
  RealFileIo io;
  Dictionary dict3;
  RecoverResult detail;
  ASSERT_TRUE(RecoverDatabase(io, dir, &dict3, &detail).ok());
  EXPECT_EQ(detail.snapshot_generation, 4u);
  EXPECT_EQ(detail.wal_records, 0u);
  RemoveDirRecursive(dir);
}

TEST(PersistorTest, ShouldSnapshotFiresOnTheConfiguredCadence) {
  const std::string dir = FreshDir("persistor_cadence");
  Dictionary dict;
  auto persistor = Persistor::Open(dir, {.snapshot_every = 2});
  ASSERT_TRUE(persistor.ok());
  auto booted = (*persistor)->Boot(VersionedDatabase(), &dict);
  ASSERT_TRUE(booted.ok());
  VersionedDatabase db = std::move(*booted);
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE((*persistor)->ShouldSnapshot());
    DeltaBatch batch;
    batch.Insert("R", MakeTuple({i}));
    ASSERT_TRUE(
        (*persistor)->Append(db.generation() + 1, "+R(" + std::to_string(i) + ")")
            .ok());
    db.Apply(batch);
  }
  EXPECT_TRUE((*persistor)->ShouldSnapshot());
  ASSERT_TRUE((*persistor)->WriteSnapshot(db, dict).ok());
  EXPECT_FALSE((*persistor)->ShouldSnapshot());
  EXPECT_EQ((*persistor)->appends_since_snapshot(), 0u);
  RemoveDirRecursive(dir);
}

// -------------------------------------------------------- view recovery --

TEST(ViewRecoveryTest, RecoveredTailStreamsThroughAReattachedView) {
  const std::string dir = FreshDir("view_recovery");
  RealFileIo io;
  Dictionary dict;
  Database base;
  base.AddFactOrDie("R", MakeTuple({1, 2}));
  base.AddFactOrDie("S", MakeTuple({1, 5}));
  VersionedDatabase db(std::move(base));
  ASSERT_TRUE(WriteSnapshot(io, dir, db, dict).ok());
  auto writer = WalWriter::Open(&io, dir + "/" + WalFileName(0));
  ASSERT_TRUE(writer.ok());
  for (const std::string line : {"+R(2,3); +S(2,0)", "-S(1,5)", "+S(1,9)"}) {
    auto batch = ParseDeltaLine(line, &dict, db);
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_TRUE(
        writer->Append(db.generation() + 1, RenderDeltaLine(*batch, dict))
            .ok());
    db.Apply(*batch);
  }
  ASSERT_TRUE(writer->Close().ok());

  // Recover WITHOUT applying the tail, attach a view against the
  // snapshot state, then stream the tail through it — the documented
  // view-recovery path (snapshot.h): nothing is rematerialized per
  // batch, and the final result matches a fresh evaluation.
  Dictionary recovered_dict;
  auto recovered = Recover(io, dir, &recovered_dict);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->snapshot_generation, 0u);
  ASSERT_EQ(recovered->tail.size(), 3u);

  auto query = ParseQuery("Q() :- R(A,B), S(A,C)");
  ASSERT_TRUE(query.ok());
  const auto annotator = [](const Fact&, double) -> uint64_t { return 1; };
  IncrementalEvaluator<CountMonoid> evaluator(CountMonoid{}, &recovered->db,
                                              annotator);
  auto handle = evaluator.Attach(*query);
  ASSERT_TRUE(handle.ok()) << handle.status();
  for (const DeltaBatch& batch : recovered->tail) {
    evaluator.ApplyDelta(batch);
  }
  EXPECT_EQ(recovered->db.generation(), 3u);

  IncrementalEvaluator<CountMonoid> fresh(CountMonoid{}, &db, annotator);
  auto fresh_handle = fresh.Attach(*query);
  ASSERT_TRUE(fresh_handle.ok());
  EXPECT_EQ(evaluator.ResultOf(*handle), fresh.ResultOf(*fresh_handle));
  RemoveDirRecursive(dir);
}

// --------------------------------------------- kill-and-recover harness --

// The differential workload: a seeded example database plus a fixed
// batch sequence exercising inserts, deletes, re-weights, and new
// symbols. snapshot_every=3 places snapshot commits (manifest rotation,
// stale-file sweeps) inside the crash window, not just WAL appends.
const std::vector<std::string>& WorkloadLines() {
  static const std::vector<std::string>* lines = new std::vector<std::string>{
      "+R(4,5); +S(carol)@0.5",
      "-R(1,3)",
      "!S(bob)@0.875",
      "+T(1,alice)",
      "+R(6,7)@2; -S(carol)",
      "+T(2,dave)@0.125",
      "-R(4,5); +R(4,8)",
      "!T(1,alice)@4",
      "+S(erin)",
      "-T(2,dave); +R(9,9)",
  };
  return *lines;
}

// Reference states indexed by GENERATION: the example db's seed Apply
// leaves it at generation 1 and each workload batch bumps it by one, so
// states[g] is the canonical rendering at generation g (computed
// entirely in memory — never crashed, never persisted). Generation 0 is
// unreachable on disk: the seed snapshot commits at generation 1.
std::vector<std::string> ReferenceStates(Dictionary* dict) {
  VersionedDatabase db = MakeExampleDb(dict);
  std::vector<std::string> states;
  states.push_back("<generation 0 is never durable>");
  states.push_back(RenderState(db, *dict));
  for (const std::string& line : WorkloadLines()) {
    auto batch = ParseDeltaLine(line, dict, db);
    EXPECT_TRUE(batch.ok()) << batch.status() << " for " << line;
    db.Apply(*batch);
    states.push_back(RenderState(db, *dict));
  }
  return states;
}

// Runs the persisted workload against `io`, stopping at the first I/O
// failure (the simulated crash). Returns the number of ACKED batches —
// batches whose WAL append returned OK before Apply.
uint64_t RunPersistedWorkload(FileIo* io, const std::string& dir) {
  Dictionary dict;
  Persistor::Options options;
  options.io = io;
  options.snapshot_every = 3;
  auto persistor = Persistor::Open(dir, options);
  if (!persistor.ok()) {
    return 0;
  }
  auto booted = (*persistor)->Boot(MakeExampleDb(&dict), &dict);
  if (!booted.ok()) {
    return 0;
  }
  VersionedDatabase db = std::move(*booted);
  uint64_t acked = 0;
  for (const std::string& line : WorkloadLines()) {
    auto batch = ParseDeltaLine(line, &dict, db);
    EXPECT_TRUE(batch.ok()) << batch.status();
    if (!(*persistor)
             ->Append(db.generation() + 1, RenderDeltaLine(*batch, dict))
             .ok()) {
      break;
    }
    db.Apply(*batch);
    ++acked;
    if ((*persistor)->ShouldSnapshot() &&
        !(*persistor)->WriteSnapshot(db, dict).ok()) {
      break;
    }
  }
  return acked;
}

// Recovery half of one schedule: a fresh RealFileIo (the restarted
// process), a fresh dictionary, and two obligations — (a) when faults
// were crashes or failed fsyncs, no acked batch may be lost; (b) always,
// whatever generation recovery CLAIMS must match the reference state at
// that generation bit-for-bit (no silent corruption, ever).
void CheckRecovery(const std::string& dir, uint64_t acked,
                   bool durability_required,
                   const std::vector<std::string>& reference,
                   const std::string& label) {
  RealFileIo io;
  Dictionary dict;
  RecoverResult detail;
  auto recovered = RecoverDatabase(io, dir, &dict, &detail);
  if (!recovered.ok()) {
    // Legal only when nothing was ever durable (a crash before the
    // seed snapshot committed) — or when a silent bit-flip destroyed a
    // directory with no surviving fallback, which is corruption beyond
    // the crash-durability contract but must still be a CLEAN error.
    if (durability_required) {
      EXPECT_EQ(acked, 0u)
          << label << ": lost " << acked
          << " acked batches: " << recovered.status();
      EXPECT_TRUE(recovered.status().Is(StatusCode::kNotFound))
          << label << ": " << recovered.status();
    }
    return;
  }
  const uint64_t generation = detail.recovered_generation;
  ASSERT_LT(generation, reference.size()) << label;
  if (durability_required) {
    // The seed commits at generation 1 and batch k acks at 1 + k.
    EXPECT_GE(generation, acked + 1) << label << ": acked batches lost";
  }
  EXPECT_EQ(recovered->generation(), generation) << label;
  EXPECT_EQ(RenderState(*recovered, dict), reference[generation]) << label;
}

TEST(KillAndRecoverTest, EveryCrashScheduleRecoversTheLastDurableGeneration) {
  Dictionary ref_dict;
  const std::vector<std::string> reference = ReferenceStates(&ref_dict);

  // Fault-free run sizes the schedule space: every mutating I/O op the
  // workload performs is one crash point.
  RealFileIo real;
  uint64_t total_ops = 0;
  {
    const std::string dir = FreshDir("kill_sizing");
    FaultInjectingIo io(&real, {});
    EXPECT_EQ(RunPersistedWorkload(&io, dir), WorkloadLines().size());
    total_ops = io.mutating_ops();
    RemoveDirRecursive(dir);
  }
  ASSERT_GT(total_ops, 80u) << "workload too small to be a crash harness";

  size_t schedules = 0;
  for (uint64_t op = 1; op <= total_ops; ++op) {
    const std::string dir = FreshDir("kill_crash");
    FaultInjectingIo io(&real, {.seed = op, .crash_at_op = op});
    const uint64_t acked = RunPersistedWorkload(&io, dir);
    EXPECT_TRUE(io.crashed());
    CheckRecovery(dir, acked, /*durability_required=*/true, reference,
                  "crash_at_op=" + std::to_string(op));
    RemoveDirRecursive(dir);
    ++schedules;
  }

  // Transient fsync failures: not a crash — the workload stops at the
  // first surfaced error (as the server stops acking), and nothing
  // acked before it may be lost.
  for (uint64_t op = 2; op <= total_ops; op += 7) {
    const std::string dir = FreshDir("kill_fsync");
    FaultInjectingIo io(&real, {.seed = op, .fail_sync_at_op = op});
    const uint64_t acked = RunPersistedWorkload(&io, dir);
    CheckRecovery(dir, acked, /*durability_required=*/true, reference,
                  "fail_sync_at_op=" + std::to_string(op));
    RemoveDirRecursive(dir);
    ++schedules;
  }

  // Silent single-bit corruption: the workload itself never notices
  // (every op "succeeds"), so durability at the acked generation cannot
  // be promised — but recovery must NEVER present corrupt data as a
  // valid generation: it either lands on a state bit-identical to the
  // reference at the generation it claims, or fails cleanly.
  for (uint64_t op = 1; op <= total_ops; op += 5) {
    const std::string dir = FreshDir("kill_flip");
    FaultInjectingIo io(&real, {.seed = op, .flip_bit_at_op = op});
    RunPersistedWorkload(&io, dir);
    CheckRecovery(dir, 0, /*durability_required=*/false, reference,
                  "flip_bit_at_op=" + std::to_string(op));
    RemoveDirRecursive(dir);
    ++schedules;
  }

  EXPECT_GE(schedules, 100u) << "the differential must cover >=100 schedules";
}

// ------------------------------------------------------ persisted server --

// End-to-end ack-implies-durable, with enough concurrency for the TSAN
// leg to check the WAL-append + Apply critical section: writer threads
// stream delta batches while a reader hammers queries, the server is
// torn down, and a fresh recovery must land exactly on the last acked
// generation. This is also the regression test for the single-writer
// assertion: two racing writers would die on the VersionedDatabase
// CHECK rather than corrupt state.
TEST(PersistedServerTest, AckedBatchesSurviveServerTeardown) {
  const std::string dir = FreshDir("server");
  Dictionary dict;
  auto loaded = LoadDatabase("R(1,2)\nR(1,3)\nS(1,5)\n", &dict);
  ASSERT_TRUE(loaded.ok());

  auto persistor = Persistor::Open(dir, {.snapshot_every = 4});
  ASSERT_TRUE(persistor.ok());
  auto booted = (*persistor)
                    ->Boot(VersionedDatabase(std::move(*loaded)), &dict);
  ASSERT_TRUE(booted.ok()) << booted.status();

  constexpr int kWriters = 2;
  constexpr int kBatchesPerWriter = 8;
  uint64_t final_generation = 0;
  {
    net::HierarqServer::Options options;
    options.persist = persistor->get();
    net::HierarqServer server(options, std::move(*booted), Database{},
                              &dict);
    ASSERT_TRUE(server.Start().ok());

    std::atomic<int> acked{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        net::HierarqClient client;
        ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
        for (int i = 0; i < kBatchesPerWriter; ++i) {
          // Distinct relations per writer: no arity races, and each
          // line is independent of interleaving order.
          const std::string line = "+W" + std::to_string(w) + "(" +
                                   std::to_string(i) + ")@0.5";
          auto ack = client.ApplyDelta(line);
          ASSERT_TRUE(ack.ok()) << ack.status();
          acked.fetch_add(1);
        }
      });
    }
    std::thread reader([&] {
      net::HierarqClient client;
      ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
      for (int i = 0; i < 10; ++i) {
        auto result = client.Query(net::SolverKind::kCount,
                                   "Q() :- R(A,B), S(A,C)");
        ASSERT_TRUE(result.ok()) << result.status();
      }
    });
    for (auto& thread : writers) {
      thread.join();
    }
    reader.join();
    EXPECT_EQ(acked.load(), kWriters * kBatchesPerWriter);
    server.Stop();
    final_generation = server.database().generation();
  }
  persistor->reset();  // Close the WAL before "restarting".

  RealFileIo io;
  Dictionary recovered_dict;
  RecoverResult detail;
  auto recovered = RecoverDatabase(io, dir, &recovered_dict, &detail);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(detail.recovered_generation, final_generation);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kBatchesPerWriter; ++i) {
      const Fact fact{"W" + std::to_string(w), MakeTuple({i})};
      EXPECT_TRUE(recovered->Contains(fact)) << fact.ToString();
      EXPECT_DOUBLE_EQ(recovered->WeightOf(fact), 0.5);
    }
  }
  RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace hierarq::persist
