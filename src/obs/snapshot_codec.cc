#include "obs/snapshot_codec.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/bytes.h"

namespace sim2rec {
namespace obs {
namespace {

constexpr uint32_t kSnapshotMagic = 0x584D3253;  // "S2MX" little-endian
constexpr uint16_t kSnapshotCodecVersion = 2;
constexpr uint16_t kExemplarSectionId = 1;

// Plausibility caps: a damaged count field must not trigger a
// multi-gigabyte reserve before the truncation is noticed.
constexpr uint32_t kMaxEntries = 1u << 20;
constexpr uint16_t kMaxNameBytes = 4096;
constexpr uint32_t kMaxBuckets = 4096;
// Merged snapshots concatenate exemplars across parts, so the cap is
// well above one histogram's kBuckets * kExemplarSlots.
constexpr uint32_t kMaxExemplarsPerHistogram = 4096;
constexpr uint8_t kMaxExemplarTagsWire = 16;

void AppendName(std::string* out, const std::string& name) {
  const uint16_t len = static_cast<uint16_t>(
      name.size() > kMaxNameBytes ? kMaxNameBytes : name.size());
  AppendU16(out, len);
  AppendBytes(out, name.data(), len);
}

bool ReadName(ByteReader* reader, std::string* name) {
  uint16_t len = 0;
  if (!reader->ReadU16(&len) || len > kMaxNameBytes) return false;
  return reader->ReadString(name, len);
}

/// Section 1 payload: exemplars grouped by histogram name.
std::string EncodeExemplarSection(const MetricsSnapshot& snapshot) {
  std::string section;
  uint32_t histograms_with_exemplars = 0;
  for (const HistogramSample& hist : snapshot.histograms) {
    if (!hist.exemplars.empty()) ++histograms_with_exemplars;
  }
  AppendU32(&section, histograms_with_exemplars);
  for (const HistogramSample& hist : snapshot.histograms) {
    if (hist.exemplars.empty()) continue;
    AppendName(&section, hist.name);
    AppendU32(&section, static_cast<uint32_t>(hist.exemplars.size()));
    for (const ExemplarSample& e : hist.exemplars) {
      AppendU8(&section,
               static_cast<uint8_t>(std::clamp(e.bucket, 0, 255)));
      AppendF64(&section, e.value);
      AppendU64(&section, e.trace_id);
      AppendU8(&section, static_cast<uint8_t>(
                             std::min<size_t>(e.tags.size(), 255)));
      for (const ExemplarTag& tag : e.tags) {
        AppendName(&section, tag.name);
        AppendF64(&section, tag.value);
      }
    }
  }
  return section;
}

bool DecodeExemplarSection(
    const void* data, size_t size,
    std::map<std::string, std::vector<ExemplarSample>>* out) {
  ByteReader reader(data, size);
  uint32_t num_histograms = 0;
  if (!reader.ReadU32(&num_histograms) || num_histograms > kMaxEntries) {
    return false;
  }
  for (uint32_t h = 0; h < num_histograms; ++h) {
    std::string name;
    uint32_t num_exemplars = 0;
    if (!ReadName(&reader, &name) || !reader.ReadU32(&num_exemplars) ||
        num_exemplars > kMaxExemplarsPerHistogram) {
      return false;
    }
    std::vector<ExemplarSample>& exemplars = (*out)[name];
    exemplars.reserve(num_exemplars);
    for (uint32_t i = 0; i < num_exemplars; ++i) {
      ExemplarSample sample;
      uint8_t bucket = 0;
      uint8_t num_tags = 0;
      if (!reader.ReadU8(&bucket) || !reader.ReadF64(&sample.value) ||
          !reader.ReadU64(&sample.trace_id) || !reader.ReadU8(&num_tags) ||
          num_tags > kMaxExemplarTagsWire) {
        return false;
      }
      sample.bucket = bucket;
      sample.tags.reserve(num_tags);
      for (uint8_t t = 0; t < num_tags; ++t) {
        ExemplarTag tag;
        if (!ReadName(&reader, &tag.name) || !reader.ReadF64(&tag.value)) {
          return false;
        }
        sample.tags.push_back(std::move(tag));
      }
      exemplars.push_back(std::move(sample));
    }
  }
  return reader.remaining() == 0;
}

/// Decodes the base body (everything after magic + version, up to the
/// sections) into `decoded`, leaving the reader at the first section.
bool DecodeBaseBody(ByteReader* reader, MetricsSnapshot* decoded) {
  uint32_t count = 0;

  if (!reader->ReadU32(&count) || count > kMaxEntries) return false;
  decoded->counters.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CounterSample sample;
    if (!ReadName(reader, &sample.name) ||
        !reader->ReadI64(&sample.value)) {
      return false;
    }
    decoded->counters.push_back(std::move(sample));
  }

  if (!reader->ReadU32(&count) || count > kMaxEntries) return false;
  decoded->gauges.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    GaugeSample sample;
    if (!ReadName(reader, &sample.name) ||
        !reader->ReadF64(&sample.value)) {
      return false;
    }
    decoded->gauges.push_back(std::move(sample));
  }

  if (!reader->ReadU32(&count) || count > kMaxEntries) return false;
  decoded->histograms.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HistogramSample sample;
    uint32_t num_buckets = 0;
    if (!ReadName(reader, &sample.name) ||
        !reader->ReadI64(&sample.count) || !reader->ReadF64(&sample.mean) ||
        !reader->ReadF64(&sample.min) || !reader->ReadF64(&sample.max) ||
        !reader->ReadF64(&sample.p50) || !reader->ReadF64(&sample.p95) ||
        !reader->ReadF64(&sample.p99) || !reader->ReadU32(&num_buckets) ||
        num_buckets > kMaxBuckets) {
      return false;
    }
    sample.buckets.resize(num_buckets);
    for (uint32_t b = 0; b < num_buckets; ++b) {
      if (!reader->ReadI64(&sample.buckets[b])) return false;
    }
    decoded->histograms.push_back(std::move(sample));
  }
  return true;
}

}  // namespace

uint16_t SnapshotCodecVersion() { return kSnapshotCodecVersion; }

std::string EncodeSnapshot(const MetricsSnapshot& snapshot) {
  bool any_exemplars = false;
  for (const HistogramSample& hist : snapshot.histograms) {
    if (!hist.exemplars.empty()) {
      any_exemplars = true;
      break;
    }
  }

  std::string out;
  AppendU32(&out, kSnapshotMagic);
  AppendU16(&out, kSnapshotCodecVersion);

  AppendU32(&out, static_cast<uint32_t>(snapshot.counters.size()));
  for (const CounterSample& counter : snapshot.counters) {
    AppendName(&out, counter.name);
    AppendI64(&out, counter.value);
  }

  AppendU32(&out, static_cast<uint32_t>(snapshot.gauges.size()));
  for (const GaugeSample& gauge : snapshot.gauges) {
    AppendName(&out, gauge.name);
    AppendF64(&out, gauge.value);
  }

  AppendU32(&out, static_cast<uint32_t>(snapshot.histograms.size()));
  for (const HistogramSample& hist : snapshot.histograms) {
    AppendName(&out, hist.name);
    AppendI64(&out, hist.count);
    AppendF64(&out, hist.mean);
    AppendF64(&out, hist.min);
    AppendF64(&out, hist.max);
    AppendF64(&out, hist.p50);
    AppendF64(&out, hist.p95);
    AppendF64(&out, hist.p99);
    AppendU32(&out, static_cast<uint32_t>(hist.buckets.size()));
    for (int64_t bucket : hist.buckets) AppendI64(&out, bucket);
  }

  if (any_exemplars) {
    const std::string section = EncodeExemplarSection(snapshot);
    AppendU16(&out, kExemplarSectionId);
    AppendU32(&out, static_cast<uint32_t>(section.size()));
    out += section;
  }
  return out;
}

SnapshotDecodeStatus DecodeSnapshotEx(const void* data, size_t size,
                                      MetricsSnapshot* out) {
  ByteReader reader(data, size);
  uint32_t magic = 0;
  uint16_t version = 0;
  if (!reader.ReadU32(&magic) || magic != kSnapshotMagic) {
    return SnapshotDecodeStatus::kBadMagic;
  }
  if (!reader.ReadU16(&version)) return SnapshotDecodeStatus::kMalformed;
  if (version != kSnapshotCodecVersion) {
    return SnapshotDecodeStatus::kUnsupportedVersion;
  }

  // Staged: decode into a local, commit only on full success.
  MetricsSnapshot decoded;
  if (!DecodeBaseBody(&reader, &decoded)) {
    return SnapshotDecodeStatus::kMalformed;
  }

  // Zero or more (u16 id, u32 len, payload) sections.
  std::map<std::string, std::vector<ExemplarSample>> exemplars;
  while (reader.remaining() != 0) {
    uint16_t section_id = 0;
    uint32_t section_len = 0;
    if (!reader.ReadU16(&section_id) || !reader.ReadU32(&section_len) ||
        section_len > reader.remaining() ||
        section_id != kExemplarSectionId) {
      return SnapshotDecodeStatus::kMalformed;
    }
    const uint8_t* section_data =
        static_cast<const uint8_t*>(data) + (size - reader.remaining());
    if (!DecodeExemplarSection(section_data, section_len, &exemplars)) {
      return SnapshotDecodeStatus::kMalformed;
    }
    reader.Skip(section_len);
  }
  for (HistogramSample& hist : decoded.histograms) {
    auto it = exemplars.find(hist.name);
    if (it != exemplars.end()) hist.exemplars = std::move(it->second);
  }

  *out = std::move(decoded);
  return SnapshotDecodeStatus::kOk;
}

bool DecodeSnapshot(const void* data, size_t size, MetricsSnapshot* out) {
  return DecodeSnapshotEx(data, size, out) == SnapshotDecodeStatus::kOk;
}

}  // namespace obs
}  // namespace sim2rec
