#ifndef SIM2REC_OBS_SNAPSHOT_CODEC_H_
#define SIM2REC_OBS_SNAPSHOT_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace sim2rec {
namespace obs {

/// Binary (de)serialization of MetricsSnapshot — the cross-process leg
/// of the aggregation story: each serving process snapshots its own
/// registry, the snapshot travels over the serving transport as a
/// kMetricsReply payload, and the receiver folds the decoded parts with
/// MergeSnapshots exactly as it folds in-process shard registries.
///
/// Format (all integers little-endian; see docs/PROTOCOL.md for the
/// byte-level reference):
///   u32 magic "S2MX", u16 codec version (always 2)
///   u32 counter count,   each: u16 name length, name bytes, i64 value
///   u32 gauge count,     each: name, f64 value
///   u32 histogram count, each: name, i64 count,
///                        f64 mean/min/max/p50/p95/p99,
///                        u32 bucket count, i64 buckets[]
///   then zero or more sections, each framed as
///   u16 section id, u32 payload length, payload bytes
/// Section 1 carries histogram exemplars and is written only when some
/// histogram has them:
///   u32 histogram entries, each: u16 name length, name bytes,
///   u32 exemplar count, each: u8 bucket, f64 value, u64 trace id,
///   u8 tag count, each tag: u16 name length, name bytes, f64 value
/// Doubles are raw IEEE-754 bit patterns, so a decoded snapshot is
/// bit-identical to the encoded one — merged quantiles answer the same
/// whether the parts arrived over the wire or not.
///
/// Versioning: the codec has one layout. A decoder refuses every other
/// version with kUnsupportedVersion and every section id but 1 as
/// kMalformed — it never guesses. Snapshots only travel inside
/// kMetricsReply frames and are never persisted, so nothing older ever
/// needs reading.
std::string EncodeSnapshot(const MetricsSnapshot& snapshot);

/// Typed decode outcome.
enum class SnapshotDecodeStatus {
  /// Fully decoded.
  kOk = 0,
  /// First four bytes are not "S2MX": not a snapshot at all.
  kBadMagic,
  /// The payload declares a version other than this codec's; nothing
  /// is decoded and `out` is untouched.
  kUnsupportedVersion,
  /// Truncation, trailing garbage, implausible counts, unknown section.
  kMalformed,
};

/// The codec version EncodeSnapshot writes (reported by
/// obs.build_info).
uint16_t SnapshotCodecVersion();

/// Staged decode with a typed verdict: `out` is written only on kOk
/// and left untouched on every failure. Never aborts — the input is
/// network data.
SnapshotDecodeStatus DecodeSnapshotEx(const void* data, size_t size,
                                      MetricsSnapshot* out);

/// Convenience wrapper: true on kOk.
bool DecodeSnapshot(const void* data, size_t size, MetricsSnapshot* out);

inline bool DecodeSnapshot(const std::string& data, MetricsSnapshot* out) {
  return DecodeSnapshot(data.data(), data.size(), out);
}

inline SnapshotDecodeStatus DecodeSnapshotEx(const std::string& data,
                                             MetricsSnapshot* out) {
  return DecodeSnapshotEx(data.data(), data.size(), out);
}

}  // namespace obs
}  // namespace sim2rec

#endif  // SIM2REC_OBS_SNAPSHOT_CODEC_H_
