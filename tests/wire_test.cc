// Wire-format robustness suite: CRC32 vectors, query/catalog record
// round-trips, bitwise-identical continuation of a checkpointed task that
// crossed the wire, and exhaustive rejection of malformed frames —
// truncation at every byte (with and without a repaired CRC, so the
// structural full-consumption checks are exercised, not just the
// trailer), wrong magic/version, corrupted CRC, bit flips, and trailing
// garbage.
#include "service/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/query_fingerprint.h"
#include "core/rmq.h"
#include "query/generator.h"
#include "service/batch_optimizer.h"

namespace moqo {
namespace {

BatchTask MakeTask(int tables, uint64_t seed = 7,
                   int64_t deadline_micros = 0) {
  Rng rng(seed);
  GeneratorConfig config;
  config.num_tables = tables;
  BatchTask task;
  task.query = GenerateQuery(config, &rng);
  task.seed = seed * 1000 + 1;
  task.deadline_micros = deadline_micros;
  return task;
}

/// Re-stamps the CRC trailer of a frame whose body was modified, so the
/// structural validation paths are reached instead of the CRC check.
void RepairCrc(std::vector<uint8_t>* frame) {
  ASSERT_GE(frame->size(), 4u);
  uint32_t crc = Crc32(frame->data(), frame->size() - 4);
  for (int i = 0; i < 4; ++i) {
    (*frame)[frame->size() - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
}

/// Byte offset, from the end of a frame with an empty checkpoint, of the
/// fixed-width fields behind the query record: deadline, remainder,
/// optimize_millis, steps, then the checkpoint's 8-byte length prefix and
/// the 4-byte CRC trailer.
constexpr size_t kDeadlineFromEnd = 4 + 8 + 8 + 8 + 8 + 8;
constexpr size_t kRemainderFromEnd = 4 + 8 + 8 + 8 + 8;

/// Overwrites the little-endian i64 field `from_end` bytes before the end
/// of `frame` and re-stamps the CRC — a foreign encoder's frame that only
/// the field validation can reject.
void PatchI64AndRepairCrc(std::vector<uint8_t>* frame, size_t from_end,
                          int64_t value) {
  ASSERT_GE(frame->size(), from_end);
  const size_t at = frame->size() - from_end;
  for (int i = 0; i < 8; ++i) {
    (*frame)[at + static_cast<size_t>(i)] =
        static_cast<uint8_t>(static_cast<uint64_t>(value) >> (8 * i));
  }
  RepairCrc(frame);
}

/// Truncates `frame` to `body_bytes` of body and appends a freshly
/// computed (valid) CRC trailer.
std::vector<uint8_t> TruncateWithValidCrc(const std::vector<uint8_t>& frame,
                                          size_t body_bytes) {
  std::vector<uint8_t> out(frame.begin(),
                           frame.begin() + static_cast<ptrdiff_t>(body_bytes));
  uint32_t crc = Crc32(out.data(), out.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return out;
}

TEST(Crc32Test, KnownAnswerVectors) {
  // The standard CRC-32 check value (IEEE 802.3 / zlib).
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                  check.size()),
            0xcbf43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0x00000000u);
  const std::string a = "a";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(a.data()), a.size()),
            0xe8b7be43u);
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 37);
  }
  uint32_t clean = Crc32(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_NE(Crc32(data), clean) << "byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<uint8_t>(1 << bit);
    }
  }
}

TEST(WireQueryRecordTest, CatalogAndGraphRoundTripBitExact) {
  BatchTask task = MakeTask(9);
  CheckpointWriter writer;
  WriteQuery(&writer, *task.query);
  std::vector<uint8_t> buffer = writer.Take();

  CheckpointReader reader(buffer, nullptr);
  QueryPtr restored = ReadQuery(&reader);
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
  // operator== compares doubles bit-for-value: the round-tripped catalog
  // and predicate list must be indistinguishable.
  EXPECT_TRUE(*restored == *task.query);
}

TEST(WireQueryRecordTest, RejectsInvalidRecords) {
  // Empty catalog: a query joins at least one table, and plan generation
  // indexes table 0 unconditionally in release builds.
  {
    CheckpointWriter writer;
    writer.WriteU32(0);
    std::vector<uint8_t> buffer = writer.Take();
    CheckpointReader reader(buffer, nullptr);
    Catalog catalog;
    EXPECT_FALSE(ReadCatalog(&reader, &catalog));
  }
  // Catalog with a non-positive cardinality.
  {
    CheckpointWriter writer;
    writer.WriteU32(1);
    writer.WriteDouble(0.0);  // cardinality must be > 0
    writer.WriteDouble(100.0);
    writer.WriteU8(0);
    std::vector<uint8_t> buffer = writer.Take();
    CheckpointReader reader(buffer, nullptr);
    Catalog catalog;
    EXPECT_FALSE(ReadCatalog(&reader, &catalog));
  }
  // Join graph with an out-of-range endpoint.
  {
    CheckpointWriter writer;
    writer.WriteU64(1);
    writer.WriteU32(0);
    writer.WriteU32(5);  // only 2 tables
    writer.WriteDouble(0.5);
    std::vector<uint8_t> buffer = writer.Take();
    CheckpointReader reader(buffer, nullptr);
    JoinGraph graph;
    EXPECT_FALSE(ReadJoinGraph(&reader, /*num_tables=*/2, &graph));
  }
  // Join graph with a selectivity outside (0, 1].
  {
    CheckpointWriter writer;
    writer.WriteU64(1);
    writer.WriteU32(0);
    writer.WriteU32(1);
    writer.WriteDouble(1.5);
    std::vector<uint8_t> buffer = writer.Take();
    CheckpointReader reader(buffer, nullptr);
    JoinGraph graph;
    EXPECT_FALSE(ReadJoinGraph(&reader, /*num_tables=*/2, &graph));
  }
  // Self-join edge.
  {
    CheckpointWriter writer;
    writer.WriteU64(1);
    writer.WriteU32(1);
    writer.WriteU32(1);
    writer.WriteDouble(0.5);
    std::vector<uint8_t> buffer = writer.Take();
    CheckpointReader reader(buffer, nullptr);
    JoinGraph graph;
    EXPECT_FALSE(ReadJoinGraph(&reader, /*num_tables=*/2, &graph));
  }
}

TEST(WireTaskTest, FreshTaskRoundTrip) {
  BatchTask task = MakeTask(8, /*seed=*/21, /*deadline_micros=*/250000);
  std::vector<uint8_t> frame = EncodeWireTask(MakeWireTask(task));

  WireTask decoded;
  ASSERT_TRUE(DecodeWireTask(frame, &decoded));
  EXPECT_TRUE(*decoded.task.query == *task.query);
  EXPECT_EQ(decoded.task.seed, task.seed);
  EXPECT_EQ(decoded.task.deadline_micros, task.deadline_micros);
  EXPECT_EQ(decoded.remaining_micros, task.deadline_micros);
  EXPECT_EQ(decoded.steps, 0);
  EXPECT_TRUE(decoded.checkpoint.empty());
  // The rebuilt query is a new object with the same value, so the
  // placement key — and therefore the shard — is unchanged by the hop.
  EXPECT_EQ(RouteKey(decoded.task), RouteKey(task));
}

// The determinism gate: a session checkpointed mid-run, shipped through
// the wire (query rebuilt from bytes on the "other side"), and restored
// against the rebuilt query must finish bitwise identical to the
// uninterrupted run.
TEST(WireTaskTest, MidRunCheckpointRestoresBitIdenticallyAcrossTheWire) {
  BatchTask task = MakeTask(7, /*seed=*/4);
  RmqConfig rmq_config;
  rmq_config.max_iterations = 18;
  Rmq rmq(rmq_config);
  CostModel model({Metric::kTime, Metric::kBuffer});

  // Uninterrupted reference.
  PlanFactory reference_factory(task.query, &model);
  Rng reference_rng(task.seed);
  auto reference = rmq.NewSession();
  reference->Begin(&reference_factory, &reference_rng);
  while (!reference->Done()) reference->Step();

  // Run half the steps, checkpoint, and put the task on the wire.
  PlanFactory source_factory(task.query, &model);
  Rng source_rng(task.seed);
  auto source = rmq.NewSession();
  source->Begin(&source_factory, &source_rng);
  for (int i = 0; i < 9; ++i) source->Step();
  WireTask wire = MakeWireTask(task);
  wire.checkpoint = source->Checkpoint();
  wire.steps = source->session_stats().steps;
  std::vector<uint8_t> frame = EncodeWireTask(wire);

  // The "receiving shard": everything below uses only the decoded frame.
  WireTask decoded;
  ASSERT_TRUE(DecodeWireTask(frame, &decoded));
  ASSERT_TRUE(*decoded.task.query == *task.query);
  PlanFactory destination_factory(decoded.task.query, &model);
  Rng destination_rng(decoded.task.seed);
  auto destination = rmq.NewSession();
  ASSERT_TRUE(destination->Restore(&destination_factory, &destination_rng,
                                   decoded.checkpoint));
  EXPECT_EQ(destination->session_stats().steps, 9);
  while (!destination->Done()) destination->Step();

  std::vector<CostVector> expected = CanonicalFrontier(reference->Frontier());
  std::vector<CostVector> actual = CanonicalFrontier(destination->Frontier());
  EXPECT_TRUE(BitwiseEqual(actual, expected))
      << "wire round-trip changed the result";
  EXPECT_EQ(destination->session_stats().steps,
            reference->session_stats().steps);
}

TEST(WireTaskTest, RejectsTruncationAtEveryByte) {
  BatchTask task = MakeTask(6, /*seed=*/9, /*deadline_micros=*/1000);
  WireTask wire = MakeWireTask(task);
  wire.checkpoint = {1, 2, 3, 4, 5};  // opaque payload, exercises ReadBytes
  std::vector<uint8_t> frame = EncodeWireTask(wire);
  WireTask decoded;
  ASSERT_TRUE(DecodeWireTask(frame, &decoded));

  for (size_t len = 0; len < frame.size(); ++len) {
    std::vector<uint8_t> truncated(frame.begin(),
                                   frame.begin() +
                                       static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(DecodeWireTask(truncated, &decoded))
        << "accepted a frame truncated to " << len << " bytes";
  }
}

// Truncation with a *repaired* CRC reaches the structural parser at every
// field boundary; the parser must reject every prefix on its own (reads
// past the body, or leftover bytes when a shorter parse "succeeds").
TEST(WireTaskTest, RejectsRepairedCrcTruncationAtEveryByte) {
  BatchTask task = MakeTask(6, /*seed=*/9, /*deadline_micros=*/1000);
  WireTask wire = MakeWireTask(task);
  wire.checkpoint = {1, 2, 3, 4, 5};
  std::vector<uint8_t> frame = EncodeWireTask(wire);
  const size_t body_size = frame.size() - 4;

  WireTask decoded;
  for (size_t body = 0; body < body_size; ++body) {
    std::vector<uint8_t> candidate = TruncateWithValidCrc(frame, body);
    EXPECT_FALSE(DecodeWireTask(candidate, &decoded))
        << "accepted a structurally truncated body of " << body << " bytes";
  }
}

TEST(WireTaskTest, RejectsTrailingGarbageEvenWithValidCrc) {
  BatchTask task = MakeTask(6);
  std::vector<uint8_t> frame = EncodeWireTask(MakeWireTask(task));
  WireTask decoded;

  // Plain appended garbage: caught by the CRC.
  std::vector<uint8_t> padded = frame;
  padded.push_back(0x00);
  EXPECT_FALSE(DecodeWireTask(padded, &decoded));

  // Garbage framed deliberately (CRC recomputed over the padded body):
  // only the full-consumption check can catch this.
  std::vector<uint8_t> body(frame.begin(), frame.end() - 4);
  body.push_back(0xab);
  body.push_back(0xcd);
  uint32_t crc = Crc32(body);
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  EXPECT_FALSE(DecodeWireTask(body, &decoded))
      << "accepted trailing garbage behind a valid CRC";
}

TEST(WireTaskTest, RejectsWrongMagicVersionAndCorruptCrc) {
  BatchTask task = MakeTask(6);
  std::vector<uint8_t> frame = EncodeWireTask(MakeWireTask(task));
  WireTask decoded;

  std::vector<uint8_t> wrong_magic = frame;
  wrong_magic[0] ^= 0xff;
  RepairCrc(&wrong_magic);
  EXPECT_FALSE(DecodeWireTask(wrong_magic, &decoded));

  std::vector<uint8_t> wrong_version = frame;
  wrong_version[4] ^= 0x01;
  RepairCrc(&wrong_version);
  EXPECT_FALSE(DecodeWireTask(wrong_version, &decoded));

  std::vector<uint8_t> bad_crc = frame;
  bad_crc[bad_crc.size() - 1] ^= 0x01;
  EXPECT_FALSE(DecodeWireTask(bad_crc, &decoded));

  EXPECT_FALSE(DecodeWireTask({}, &decoded));
  EXPECT_FALSE(DecodeWireTask({0x4d, 0x4f, 0x51, 0x57}, &decoded));
}

TEST(WireTaskTest, RejectsBodyBitFlips) {
  BatchTask task = MakeTask(5, /*seed=*/3, /*deadline_micros=*/500);
  std::vector<uint8_t> frame = EncodeWireTask(MakeWireTask(task));
  WireTask decoded;
  // Without a CRC repair every flip is caught by the trailer check.
  for (size_t pos = 0; pos + 4 < frame.size(); pos += 7) {
    std::vector<uint8_t> corrupt = frame;
    corrupt[pos] ^= 0x10;
    EXPECT_FALSE(DecodeWireTask(corrupt, &decoded)) << "byte " << pos;
  }
}

// The scheduler treats deadline_micros <= 0 as "no deadline"; the encoder
// must normalize such a task instead of producing a frame its own decoder
// rejects (which would strand the task on a shard it can never leave).
// Oversized windows are clamped the same way Deadline::AfterMicros does.
TEST(WireTaskTest, DeadlineIsNormalizedNotRejected) {
  BatchTask task = MakeTask(5, /*seed=*/2, /*deadline_micros=*/-5);
  std::vector<uint8_t> frame = EncodeWireTask(MakeWireTask(task));
  WireTask decoded;
  ASSERT_TRUE(DecodeWireTask(frame, &decoded));
  EXPECT_EQ(decoded.task.deadline_micros, 0);
  EXPECT_EQ(decoded.remaining_micros, 0);

  BatchTask huge = MakeTask(5, /*seed=*/2, INT64_MAX);
  ASSERT_TRUE(DecodeWireTask(EncodeWireTask(MakeWireTask(huge)), &decoded));
  EXPECT_EQ(decoded.task.deadline_micros, kMaxDeadlineMicros);
  EXPECT_EQ(decoded.remaining_micros, kMaxDeadlineMicros);

  // A foreign encoder shipping an un-clamped window is rejected: the
  // decoder bounds every field, not just the ones our encoder normalizes.
  std::vector<uint8_t> raw = EncodeWireTask(MakeWireTask(huge));
  PatchI64AndRepairCrc(&raw, kDeadlineFromEnd, INT64_MAX);
  std::string why;
  EXPECT_FALSE(DecodeWireTask(raw, &decoded, &why));
  EXPECT_EQ(why, "field out of range");
}

// The remainder of a deadline window never exceeds the window: an honest
// producer stores 0 <= remaining_micros <= deadline_micros, which for a
// deadline-free task means exactly 0. A frame breaking the rule (CRC
// repaired, so only the field check can catch it) is rejected.
TEST(WireTaskTest, RejectsRemainderOutsideTheWindow) {
  const BatchTask timed = MakeTask(5, /*seed=*/4, /*deadline_micros=*/800);
  const BatchTask untimed = MakeTask(5, /*seed=*/4);
  auto frame_with = [](const BatchTask& task, int64_t remaining) {
    std::vector<uint8_t> frame = EncodeWireTask(MakeWireTask(task));
    PatchI64AndRepairCrc(&frame, kRemainderFromEnd, remaining);
    return frame;
  };
  WireTask decoded;
  std::string why;
  for (int64_t remaining : {int64_t{0}, int64_t{800}}) {
    EXPECT_TRUE(DecodeWireTask(frame_with(timed, remaining), &decoded, &why))
        << "remaining " << remaining << ": " << why;
  }
  EXPECT_TRUE(DecodeWireTask(frame_with(untimed, 0), &decoded, &why)) << why;

  for (int64_t remaining : {int64_t{801}, int64_t{-1}}) {
    EXPECT_FALSE(DecodeWireTask(frame_with(timed, remaining), &decoded, &why))
        << "accepted remaining " << remaining << " for an 800 us window";
    EXPECT_EQ(why, "field out of range");
  }
  for (int64_t remaining : {int64_t{1}, int64_t{-1}, kMaxDeadlineMicros}) {
    EXPECT_FALSE(DecodeWireTask(frame_with(untimed, remaining), &decoded, &why))
        << "accepted remaining " << remaining << " without a deadline";
    EXPECT_EQ(why, "field out of range");
  }
}

// The 3-argument decode names the failure, so a rejection surfaced over
// the transport (shard server kReject, failover replay error) tells the
// operator WHAT was malformed, not just that something was.
TEST(WireTaskTest, DecodeFailuresCarryAReason) {
  BatchTask task = MakeTask(5, /*seed=*/11);
  std::vector<uint8_t> frame = EncodeWireTask(MakeWireTask(task));
  WireTask decoded;
  std::string why;

  EXPECT_FALSE(DecodeWireTask({}, &decoded, &why));
  EXPECT_EQ(why, "frame too short");

  std::vector<uint8_t> flipped = frame;
  flipped[frame.size() / 2] ^= 0x40;
  EXPECT_FALSE(DecodeWireTask(flipped, &decoded, &why));
  EXPECT_EQ(why, "CRC mismatch");

  std::vector<uint8_t> wrong_magic = frame;
  wrong_magic[0] ^= 0xff;
  RepairCrc(&wrong_magic);
  EXPECT_FALSE(DecodeWireTask(wrong_magic, &decoded, &why));
  EXPECT_EQ(why, "bad magic");

  std::vector<uint8_t> future_version = frame;
  future_version[4] = 0xee;
  RepairCrc(&future_version);
  EXPECT_FALSE(DecodeWireTask(future_version, &decoded, &why));
  EXPECT_EQ(why, "unsupported version");

  std::vector<uint8_t> padded = frame;
  padded.insert(padded.end() - 4, {0x00, 0x00});
  RepairCrc(&padded);
  EXPECT_FALSE(DecodeWireTask(padded, &decoded, &why));
  EXPECT_EQ(why, "trailing bytes after payload");

  // A success leaves the reason empty; a null reason pointer is legal.
  ASSERT_TRUE(DecodeWireTask(frame, &decoded, &why));
  EXPECT_TRUE(why.empty());
  ASSERT_TRUE(DecodeWireTask(frame, &decoded, nullptr));
}

TEST(WireTaskTest, TaskResultRoundTripsBitwise) {
  BatchTaskResult result;
  result.index = 42;  // NOT carried: the receiver re-stamps it.
  result.optimize_millis = 3.25;
  result.elapsed_millis = 7.5;
  result.admit_millis = 0.125;
  result.steps = 977;
  result.had_deadline = true;
  result.deadline_hit = true;
  CostVector a(2), b(2);
  a[0] = 1.5;
  a[1] = 8.0;
  b[0] = 2.75;
  b[1] = 4.0;
  result.frontier = {a, b};

  CheckpointWriter writer;
  EncodeTaskResult(&writer, result);
  std::vector<uint8_t> body = writer.Take();

  CheckpointReader reader(body, /*factory=*/nullptr);
  BatchTaskResult decoded;
  ASSERT_TRUE(DecodeTaskResult(&reader, &decoded));
  EXPECT_EQ(decoded.index, -1);
  EXPECT_EQ(decoded.optimize_millis, result.optimize_millis);
  EXPECT_EQ(decoded.elapsed_millis, result.elapsed_millis);
  EXPECT_EQ(decoded.admit_millis, result.admit_millis);
  EXPECT_EQ(decoded.steps, result.steps);
  EXPECT_TRUE(decoded.had_deadline);
  EXPECT_TRUE(decoded.deadline_hit);
  EXPECT_FALSE(decoded.gave_up);
  EXPECT_FALSE(decoded.migrated);
  EXPECT_TRUE(BitwiseEqual(decoded.frontier, result.frontier));
}

TEST(WireTaskTest, TaskResultDecodeRejectsMalformedBodies) {
  BatchTaskResult result;
  result.steps = 10;
  CostVector v(2);
  v[0] = 1.0;
  v[1] = 2.0;
  result.frontier = {v};
  CheckpointWriter writer;
  EncodeTaskResult(&writer, result);
  std::vector<uint8_t> body = writer.Take();

  // Truncation at every byte runs the reader out of input.
  for (size_t cut = 0; cut < body.size(); ++cut) {
    std::vector<uint8_t> torn(body.begin(),
                              body.begin() + static_cast<ptrdiff_t>(cut));
    CheckpointReader reader(torn, nullptr);
    BatchTaskResult decoded;
    EXPECT_FALSE(DecodeTaskResult(&reader, &decoded)) << "cut " << cut;
  }

  // Structural garbage: a bool byte that is neither 0 nor 1, negative
  // steps, an out-of-range frontier count, a non-finite timing.
  {
    std::vector<uint8_t> bad_bool = body;
    bad_bool[3 * 8 + 8] = 2;  // first bool byte after 3 doubles + i64
    CheckpointReader reader(bad_bool, nullptr);
    BatchTaskResult decoded;
    EXPECT_FALSE(DecodeTaskResult(&reader, &decoded));
  }
  {
    BatchTaskResult negative = result;
    negative.steps = -4;
    CheckpointWriter bad_writer;
    EncodeTaskResult(&bad_writer, negative);
    std::vector<uint8_t> bad = bad_writer.Take();
    CheckpointReader reader(bad, nullptr);
    BatchTaskResult decoded;
    EXPECT_FALSE(DecodeTaskResult(&reader, &decoded));
  }
  {
    BatchTaskResult infinite = result;
    infinite.optimize_millis = -1.0;
    CheckpointWriter bad_writer;
    EncodeTaskResult(&bad_writer, infinite);
    std::vector<uint8_t> bad = bad_writer.Take();
    CheckpointReader reader(bad, nullptr);
    BatchTaskResult decoded;
    EXPECT_FALSE(DecodeTaskResult(&reader, &decoded));
  }
}

// Route keys are quoted in failover/migration error messages; the fixed
// sixteen-digit form keeps two renderings of the same key identical.
TEST(WireTaskTest, RouteKeyStringIsFixedWidthLowercaseHex) {
  EXPECT_EQ(RouteKeyString(0), "0x0000000000000000");
  EXPECT_EQ(RouteKeyString(0xabcdefull), "0x0000000000abcdef");
  EXPECT_EQ(RouteKeyString(0xFFFFFFFFFFFFFFFFull), "0xffffffffffffffff");
  BatchTask task = MakeTask(6, /*seed=*/3);
  std::string rendered = RouteKeyString(RouteKey(task));
  EXPECT_EQ(rendered.size(), 18u);
  EXPECT_EQ(rendered.substr(0, 2), "0x");
}

TEST(WireTaskTest, RouteKeyIsStableAndSeedSensitive) {
  BatchTask task = MakeTask(8, /*seed=*/13);
  uint64_t key = RouteKey(task);
  EXPECT_EQ(RouteKey(task), key);  // pure

  // Same query content in a distinct object: same key (placement must
  // survive serialization and process boundaries).
  std::vector<uint8_t> frame = EncodeWireTask(MakeWireTask(task));
  WireTask decoded;
  ASSERT_TRUE(DecodeWireTask(frame, &decoded));
  EXPECT_EQ(RouteKey(decoded.task), key);

  // A different seed is a different task and may land elsewhere.
  BatchTask reseeded = task;
  reseeded.seed ^= 1;
  EXPECT_NE(RouteKey(reseeded), key);
}

// served_from_cache travels with the result so routers can distinguish a
// shard-side cache answer from a computed one.
TEST(WireTaskTest, TaskResultCarriesServedFromCache) {
  BatchTaskResult result;
  result.steps = 0;
  result.served_from_cache = true;
  CostVector v(2);
  v[0] = 1.0;
  v[1] = 2.0;
  result.frontier = {v};
  CheckpointWriter writer;
  EncodeTaskResult(&writer, result);
  std::vector<uint8_t> body = writer.Take();
  CheckpointReader reader(body, nullptr);
  BatchTaskResult decoded;
  ASSERT_TRUE(DecodeTaskResult(&reader, &decoded));
  EXPECT_TRUE(decoded.served_from_cache);
}

// The canonical fingerprint is stamped once by the sender's encoder and
// verified at the receiver, so per-shard caches key identically without
// recomputing canonicalization on the hot path. A fingerprint the sender
// already stamped is carried as is.
TEST(WireTaskTest, FingerprintIsStampedAndSurvivesTheWire) {
  BatchTask task = MakeTask(7, /*seed=*/5);
  const uint64_t fingerprint = QueryFingerprint(*task.query);
  EXPECT_NE(fingerprint, 0u);
  for (uint64_t stamped : {uint64_t{0}, fingerprint}) {
    task.fingerprint = stamped;
    std::vector<uint8_t> frame = EncodeWireTask(MakeWireTask(task));
    WireTask decoded;
    ASSERT_TRUE(DecodeWireTask(frame, &decoded));
    EXPECT_EQ(decoded.task.fingerprint, fingerprint);
    EXPECT_EQ(FingerprintOf(decoded.task), fingerprint);
  }
}

// A frame whose stamped fingerprint disagrees with the query it carries is
// rejected (valid CRC or not) — a shard must never poison its cache with a
// mislabeled frontier.
TEST(WireTaskTest, RejectsFingerprintMismatch) {
  BatchTask task = MakeTask(6, /*seed=*/11);
  WireTask wire = MakeWireTask(task);
  wire.task.fingerprint ^= 1;  // CRC is computed over the lie at encode
  std::vector<uint8_t> frame = EncodeWireTask(wire);
  WireTask decoded;
  std::string why;
  EXPECT_FALSE(DecodeWireTask(frame, &decoded, &why));
  EXPECT_NE(why.find("fingerprint mismatch"), std::string::npos) << why;
}

// Isomorphic relabelings of a query produce the same fingerprint, hence
// the same route key for the same seed: repeats of a shape land on the
// same shard no matter how the client numbered its tables.
TEST(WireTaskTest, RelabeledQueryKeepsRouteKey) {
  BatchTask task = MakeTask(5, /*seed=*/17);
  const Query& query = *task.query;
  const int n = query.NumTables();
  // Rotate table ids by one.
  std::vector<int> perm(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) perm[static_cast<size_t>(t)] = (t + 1) % n;
  std::vector<TableStats> stats(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    stats[static_cast<size_t>(perm[static_cast<size_t>(t)])] =
        query.catalog().Table(t);
  }
  JoinGraph graph(n);
  for (const JoinEdge& edge : query.graph().Edges()) {
    graph.AddEdge(perm[static_cast<size_t>(edge.left)],
                  perm[static_cast<size_t>(edge.right)], edge.selectivity);
  }
  BatchTask relabeled = task;
  relabeled.query = std::make_shared<Query>(Catalog(std::move(stats)),
                                            std::move(graph));
  relabeled.fingerprint = 0;  // force recomputation from the new object
  BatchTask original = task;
  original.fingerprint = 0;
  EXPECT_EQ(FingerprintOf(relabeled), FingerprintOf(original));
  EXPECT_EQ(RouteKey(relabeled), RouteKey(original));
}

}  // namespace
}  // namespace moqo
