// Wire format for shipping optimization tasks between service shards.
//
// A wire frame is a self-describing byte string carrying everything a
// shard needs to run (or continue) one optimization task: the full query
// (catalog + join graph, rebuilt value-for-value on the receiving side),
// the task configuration (seed, original deadline window), the unexpired
// deadline remainder and accumulated runtime of a mid-run task, and
// optionally an OptimizerSession checkpoint of its mid-run state. It is
// what the in-process ShardRouter (service/shard_router.h) round-trips on
// every rebalance, and what a cross-process transport would put on the
// socket unchanged.
//
// Framing reuses the checkpoint substrate (core/checkpoint.h): fixed-width
// little-endian primitives behind CheckpointWriter/Reader, a magic/version
// header, and — because wire frames cross process and machine boundaries
// where corruption is a when, not an if — a CRC32 trailer over the whole
// body. DecodeWireTask() verifies the CRC before parsing, validates every
// field range, and requires full buffer consumption: a frame with trailing
// bytes after a well-formed payload is rejected as corrupt, never
// silently accepted.
//
// Determinism: the frame stores doubles bit-exactly and the decoder
// rebuilds the query through the same value types, so a session checkpoint
// restored against the rebuilt query continues bitwise identically to one
// that never crossed the wire (gated by tests/wire_test.cc and
// bench/shard_throughput.cc).
#ifndef MOQO_SERVICE_WIRE_H_
#define MOQO_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "service/batch_optimizer.h"

namespace moqo {

/// First bytes of every wire frame ("MOQW" little-endian).
inline constexpr uint32_t kWireMagic = 0x57514f4du;

/// Bumped whenever the frame layout changes; DecodeWireTask() rejects
/// other versions. Version 2 added the canonical query fingerprint after
/// the seed, so per-shard frontier caches reuse the router's
/// canonicalization instead of recomputing it. Version 3 dropped the
/// had-deadline byte: a task runs under a deadline exactly when its
/// deadline_micros is positive.
inline constexpr uint32_t kWireVersion = 3;

/// The state of one optimization task between two slices: everything a
/// scheduler needs to run it, or to continue it mid-run. It is the one
/// value OnlineScheduler::Suspend() fills (inside a SuspendedTask, next to
/// the reply promise), the periodic snapshot publishes, and a wire frame
/// carries. The promise is the submitter-side reply channel and never
/// crosses the wire: a transport pairs a decoded frame with its own reply
/// path.
struct WireTask {
  /// The query (rebuilt from the frame on decode) + seed + the task's
  /// original deadline window; the task runs under a deadline iff
  /// task.deadline_micros > 0.
  BatchTask task;
  /// Unexpired window at suspension or snapshot time (the full window for
  /// a task that never ran; 0 for a deadline-free task), re-armed by
  /// OnlineScheduler::Resume(). Time spent suspended is a free pause: the
  /// clock restarts on re-admission.
  int64_t remaining_micros = 0;
  /// Slice time accumulated before the hop, carried into the destination's
  /// accounting.
  double optimize_millis = 0.0;
  /// Steps executed before the hop (also inside the checkpoint; exposed
  /// for logs).
  int64_t steps = 0;
  /// OptimizerSession::Checkpoint() of the mid-run state (RNG stream
  /// position included); empty if the task never ran a slice, in which
  /// case the destination begins the session from scratch with the task's
  /// own seed.
  std::vector<uint8_t> checkpoint;
};

/// Wraps a fresh, not-yet-admitted task: the full deadline window
/// remaining, no checkpoint.
WireTask MakeWireTask(const BatchTask& task);

/// Serializes `task` into a framed byte string:
/// magic, version, query, seed, fingerprint, deadline, remainder,
/// accounting, checkpoint bytes, CRC32 trailer over everything before it.
/// The frame carries the task's normal form: the fingerprint is stamped
/// (FingerprintOf) and the deadline window clamped to
/// [0, kMaxDeadlineMicros], so every task a scheduler accepts encodes to a
/// frame DecodeWireTask() accepts.
std::vector<uint8_t> EncodeWireTask(const WireTask& task);

/// Mirrors EncodeWireTask. Returns false — leaving `out` untouched — on
/// any malformation: short frame, CRC mismatch, wrong magic or version,
/// invalid query records, out-of-range fields (including a remainder
/// outside [0, task.deadline_micros]), a payload that reads past
/// the frame, or trailing bytes after the payload (the frame must be
/// consumed exactly). The embedded session checkpoint is opaque here; it
/// is validated against the rebuilt query by OptimizerSession::Restore()
/// at resume time.
bool DecodeWireTask(const std::vector<uint8_t>& frame, WireTask* out);

/// As above, additionally reporting *why* a frame was rejected ("CRC
/// mismatch", "invalid query record", …) so failover diagnostics can name
/// the failure next to the shard id / route key context the caller adds.
/// `why` is untouched on success and may be null.
bool DecodeWireTask(const std::vector<uint8_t>& frame, WireTask* out,
                    std::string* why);

/// The task's canonical query fingerprint: returns the stamped
/// BatchTask::fingerprint when present, computing QueryFingerprint(query)
/// otherwise. Layers that already paid for canonicalization (the router on
/// Submit, the wire decoder) stamp the field so everything downstream hits
/// the cached value.
uint64_t FingerprintOf(const BatchTask& task);

/// Derives the placement key from the layered identity: a seed-mixed
/// finalization of the canonical fingerprint (fingerprint ⊕ seed). Same
/// (query shape, seed) always lands on the same key — and therefore the
/// same consistent-hash shard — across processes and runs, while repeats
/// of one shape under different seeds still spread over the ring.
uint64_t DeriveRouteKey(uint64_t fingerprint, uint64_t seed);

/// Stable 64-bit placement key of a task:
/// DeriveRouteKey(FingerprintOf(task), task.seed). Identical across
/// processes and runs, so every router instance agrees where a task
/// lives — the property consistent hashing needs.
uint64_t RouteKey(const BatchTask& task);

/// Renders a route key the way every diagnostic message spells it
/// ("0x" + 16 hex digits), so failover errors and logs agree.
std::string RouteKeyString(uint64_t key);

/// Serializes a task result — the shard-to-router half of the transport —
/// as checkpoint-substrate fields: counters, flags, and the frontier's
/// cost vectors bit-exactly. `index` is scheduler-local and deliberately
/// not carried: the receiving side re-stamps its own submission index.
void EncodeTaskResult(CheckpointWriter* writer,
                      const BatchTaskResult& result);

/// Mirrors EncodeTaskResult. Returns false (clearing nothing) on a
/// truncated record, an oversized frontier, or out-of-range fields.
bool DecodeTaskResult(CheckpointReader* reader, BatchTaskResult* out);

}  // namespace moqo

#endif  // MOQO_SERVICE_WIRE_H_
