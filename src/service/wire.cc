#include "service/wire.h"

#include <cmath>
#include <utility>

#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/query_fingerprint.h"

namespace moqo {

namespace {

/// The scheduler treats deadline_micros <= 0 as "no deadline" and clamps
/// longer windows to kMaxDeadlineMicros; the frame stores that normal form
/// so the decoder's range checks never reject a frame the encoder produced
/// from a healthy task.
int64_t NormalizedDeadline(int64_t deadline_micros) {
  if (deadline_micros <= 0) return 0;
  return deadline_micros > kMaxDeadlineMicros ? kMaxDeadlineMicros
                                              : deadline_micros;
}

}  // namespace

WireTask MakeWireTask(const BatchTask& task) {
  WireTask wire;
  wire.task = task;
  wire.remaining_micros = NormalizedDeadline(task.deadline_micros);
  return wire;
}

std::vector<uint8_t> EncodeWireTask(const WireTask& task) {
  CheckpointWriter writer;
  writer.WriteU32(kWireMagic);
  writer.WriteU32(kWireVersion);
  WriteQuery(&writer, *task.task.query);
  writer.WriteU64(task.task.seed);
  writer.WriteU64(FingerprintOf(task.task));
  writer.WriteI64(NormalizedDeadline(task.task.deadline_micros));
  writer.WriteI64(task.remaining_micros);
  writer.WriteDouble(task.optimize_millis);
  writer.WriteI64(task.steps);
  writer.WriteBytes(task.checkpoint);
  std::vector<uint8_t> frame = writer.Take();
  uint32_t crc = Crc32(frame);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  return frame;
}

namespace {

/// Shared Decode failure path: records the reason (when asked for) and
/// returns false so each rejection in DecodeWireTask stays one line.
bool DecodeFail(std::string* why, const char* reason) {
  if (why != nullptr) *why = reason;
  return false;
}

}  // namespace

bool DecodeWireTask(const std::vector<uint8_t>& frame, WireTask* out) {
  return DecodeWireTask(frame, out, nullptr);
}

bool DecodeWireTask(const std::vector<uint8_t>& frame, WireTask* out,
                    std::string* why) {
  if (why != nullptr) why->clear();  // a reused string must not go stale
  // Smallest conceivable frame: magic + version + CRC trailer.
  if (frame.size() < 12) return DecodeFail(why, "frame too short");
  const size_t body_size = frame.size() - 4;
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(frame[body_size + i]) << (8 * i);
  }
  if (Crc32(frame.data(), body_size) != stored_crc) {
    return DecodeFail(why, "CRC mismatch");
  }

  // The CRC covers exactly the body; the reader parses the frame in place
  // and the position() == body_size check below guarantees the accepted
  // parse consumed the body exactly — position is monotonic, so a parse
  // that read even one trailer byte cannot end at the boundary.
  CheckpointReader reader(frame, /*factory=*/nullptr);
  if (reader.ReadU32() != kWireMagic) return DecodeFail(why, "bad magic");
  if (reader.ReadU32() != kWireVersion) {
    return DecodeFail(why, "unsupported version");
  }
  WireTask wire;
  wire.task.query = ReadQuery(&reader);
  if (wire.task.query == nullptr || !reader.ok()) {
    return DecodeFail(why, "invalid query record");
  }
  wire.task.seed = reader.ReadU64();
  wire.task.fingerprint = reader.ReadU64();
  wire.task.deadline_micros = reader.ReadI64();
  wire.remaining_micros = reader.ReadI64();
  wire.optimize_millis = reader.ReadDouble();
  wire.steps = reader.ReadI64();
  wire.checkpoint = reader.ReadBytes();
  // A frame with leftover bytes between a well-formed payload and the CRC
  // trailer is corrupt even though every individual field decoded (the
  // CRC passed, so the garbage was framed deliberately or the encoder
  // disagrees with us on the layout — reject either way).
  if (!reader.ok()) return DecodeFail(why, "payload reads past frame");
  if (reader.position() != body_size) {
    return DecodeFail(why, "trailing bytes after payload");
  }
  // The fingerprint rides the frame so the receiving shard's cache keys
  // agree with the router's without re-canonicalizing — but a frame whose
  // stamped fingerprint disagrees with the query it carries would poison
  // that cache, so the decoder pays one canonicalization to verify.
  if (wire.task.fingerprint != QueryFingerprint(*wire.task.query)) {
    return DecodeFail(why, "fingerprint mismatch");
  }
  // The remainder of a window never exceeds the window itself; for a
  // deadline-free task (deadline_micros == 0) it is exactly 0.
  if (wire.task.deadline_micros < 0 ||
      wire.task.deadline_micros > kMaxDeadlineMicros ||
      wire.remaining_micros < 0 ||
      wire.remaining_micros > wire.task.deadline_micros || wire.steps < 0 ||
      !std::isfinite(wire.optimize_millis) || wire.optimize_millis < 0.0) {
    return DecodeFail(why, "field out of range");
  }
  *out = std::move(wire);
  return true;
}

uint64_t FingerprintOf(const BatchTask& task) {
  return task.fingerprint != 0 ? task.fingerprint
                               : QueryFingerprint(*task.query);
}

uint64_t DeriveRouteKey(uint64_t fingerprint, uint64_t seed) {
  return CombineSeed(fingerprint, seed, 0x726f757465ull /* "route" */);
}

uint64_t RouteKey(const BatchTask& task) {
  return DeriveRouteKey(FingerprintOf(task), task.seed);
}

std::string RouteKeyString(uint64_t key) {
  static const char kHex[] = "0123456789abcdef";
  std::string text = "0x0000000000000000";
  for (int i = 0; i < 16; ++i) {
    text[17 - i] = kHex[(key >> (4 * i)) & 0xf];
  }
  return text;
}

/// Frontier sizes far beyond anything the optimizer produces mark a frame
/// that decoded to garbage lengths; rejecting them bounds the allocation a
/// hostile or corrupt peer can force.
namespace {
constexpr uint32_t kMaxWireFrontier = 1u << 20;
}  // namespace

void EncodeTaskResult(CheckpointWriter* writer,
                      const BatchTaskResult& result) {
  writer->WriteDouble(result.optimize_millis);
  writer->WriteDouble(result.elapsed_millis);
  writer->WriteDouble(result.admit_millis);
  writer->WriteI64(result.steps);
  writer->WriteU8(result.had_deadline ? 1 : 0);
  writer->WriteU8(result.deadline_hit ? 1 : 0);
  writer->WriteU8(result.gave_up ? 1 : 0);
  writer->WriteU8(result.migrated ? 1 : 0);
  writer->WriteU8(result.served_from_cache ? 1 : 0);
  writer->WriteU32(static_cast<uint32_t>(result.frontier.size()));
  for (const CostVector& vec : result.frontier) {
    writer->WriteU8(static_cast<uint8_t>(vec.size()));
    for (int i = 0; i < vec.size(); ++i) {
      writer->WriteDouble(vec[i]);
    }
  }
}

bool DecodeTaskResult(CheckpointReader* reader, BatchTaskResult* out) {
  BatchTaskResult result;
  result.optimize_millis = reader->ReadDouble();
  result.elapsed_millis = reader->ReadDouble();
  result.admit_millis = reader->ReadDouble();
  result.steps = reader->ReadI64();
  uint8_t had_deadline = reader->ReadU8();
  uint8_t deadline_hit = reader->ReadU8();
  uint8_t gave_up = reader->ReadU8();
  uint8_t migrated = reader->ReadU8();
  uint8_t served_from_cache = reader->ReadU8();
  uint32_t frontier_size = reader->ReadU32();
  if (!reader->ok() || had_deadline > 1 || deadline_hit > 1 ||
      gave_up > 1 || migrated > 1 || served_from_cache > 1 ||
      result.steps < 0 || frontier_size > kMaxWireFrontier) {
    return false;
  }
  result.had_deadline = had_deadline == 1;
  result.deadline_hit = deadline_hit == 1;
  result.gave_up = gave_up == 1;
  result.migrated = migrated == 1;
  result.served_from_cache = served_from_cache == 1;
  result.frontier.reserve(frontier_size);
  for (uint32_t i = 0; i < frontier_size; ++i) {
    uint8_t metrics = reader->ReadU8();
    if (!reader->ok() || metrics == 0 ||
        metrics > static_cast<uint8_t>(CostVector::kMaxMetrics)) {
      return false;
    }
    CostVector vec(static_cast<int>(metrics));
    for (int m = 0; m < vec.size(); ++m) {
      vec[m] = reader->ReadDouble();
    }
    if (!reader->ok()) return false;
    result.frontier.push_back(vec);
  }
  // The timing fields are diagnostics, not determinism inputs, but a NaN
  // would still poison downstream aggregation.
  if (!std::isfinite(result.optimize_millis) ||
      !std::isfinite(result.elapsed_millis) ||
      !std::isfinite(result.admit_millis) || result.optimize_millis < 0.0 ||
      result.elapsed_millis < 0.0 || result.admit_millis < 0.0) {
    return false;
  }
  *out = std::move(result);
  return true;
}

}  // namespace moqo
