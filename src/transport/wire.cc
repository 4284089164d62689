#include "transport/wire.h"

#include <cstring>

#include "util/bytes.h"
#include "util/crc32.h"

namespace sim2rec {
namespace transport {
namespace {

// Caps on tensor shapes decoded from the wire, over and above the
// frame-size bound: a hostile rows/cols pair must not overflow the
// byte-count arithmetic or trigger a huge allocation before the length
// check runs.
constexpr uint32_t kMaxTensorDim = 1u << 20;

// Error messages are diagnostics, not payloads; cap them.
constexpr uint32_t kMaxErrorMessageBytes = 4096;

void AppendTensor(std::string* out, const nn::Tensor& tensor) {
  AppendU32(out, static_cast<uint32_t>(tensor.rows()));
  AppendU32(out, static_cast<uint32_t>(tensor.cols()));
  for (int i = 0; i < tensor.size(); ++i) {
    AppendF64(out, tensor[static_cast<size_t>(i)]);
  }
}

bool ReadTensor(ByteReader* reader, nn::Tensor* tensor) {
  uint32_t rows = 0, cols = 0;
  if (!reader->ReadU32(&rows) || !reader->ReadU32(&cols)) return false;
  if (rows > kMaxTensorDim || cols > kMaxTensorDim) return false;
  const uint64_t count = static_cast<uint64_t>(rows) * cols;
  if (count * sizeof(double) > reader->remaining()) return false;
  nn::Tensor decoded(static_cast<int>(rows), static_cast<int>(cols));
  for (uint64_t i = 0; i < count; ++i) {
    if (!reader->ReadF64(&decoded[static_cast<size_t>(i)])) return false;
  }
  *tensor = std::move(decoded);
  return true;
}

}  // namespace

const char* WireErrorName(WireError error) {
  switch (error) {
    case WireError::kNone: return "none";
    case WireError::kMalformedFrame: return "malformed_frame";
    case WireError::kUnsupportedVersion: return "unsupported_version";
    case WireError::kUnsupportedType: return "unsupported_type";
    case WireError::kBadPayload: return "bad_payload";
    case WireError::kUnavailable: return "unavailable";
    case WireError::kInternal: return "internal";
  }
  return "unknown";
}

const char* TransportStatusName(TransportStatus status) {
  switch (status) {
    case TransportStatus::kOk: return "ok";
    case TransportStatus::kConnectFailed: return "connect_failed";
    case TransportStatus::kTimeout: return "timeout";
    case TransportStatus::kClosed: return "closed";
    case TransportStatus::kMalformedReply: return "malformed_reply";
    case TransportStatus::kFrameTooLarge: return "frame_too_large";
    case TransportStatus::kRemoteError: return "remote_error";
    case TransportStatus::kInvalidHandle: return "invalid_handle";
  }
  return "unknown";
}

std::string EncodeFrame(MessageType type, const std::string& payload,
                        uint16_t flags, uint64_t request_id) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendU32(&out, kFrameMagic);
  AppendU8(&out, kProtocolVersion);
  AppendU8(&out, static_cast<uint8_t>(type));
  AppendU16(&out, flags);
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  // The request id sits after the CRC slot but is CRC-covered, so a
  // corrupted id can never route a reply to the wrong request.
  std::string id_bytes;
  AppendU64(&id_bytes, request_id);
  uint32_t crc = Crc32(out.data(), out.size());
  crc = Crc32(id_bytes.data(), id_bytes.size(), crc);
  crc = Crc32(payload.data(), payload.size(), crc);
  AppendU32(&out, crc);
  out += id_bytes;
  out += payload;
  return out;
}

HeaderStatus DecodeHeader(const uint8_t* prefix, size_t max_frame_bytes,
                          FrameHeader* out) {
  ByteReader reader(prefix, kFramePrefixBytes);
  uint32_t magic = 0;
  uint8_t version = 0, type = 0;
  uint16_t flags = 0;
  uint32_t payload_len = 0, crc = 0;
  reader.ReadU32(&magic);
  reader.ReadU8(&version);
  reader.ReadU8(&type);
  reader.ReadU16(&flags);
  reader.ReadU32(&payload_len);
  reader.ReadU32(&crc);
  if (magic != kFrameMagic) return HeaderStatus::kBadMagic;
  // Checked before the length: another version's length field may not
  // mean what ours does.
  if (version != kProtocolVersion) return HeaderStatus::kUnsupportedVersion;
  if (static_cast<size_t>(payload_len) + kFrameHeaderBytes >
      max_frame_bytes) {
    return HeaderStatus::kTooLarge;
  }
  out->type = static_cast<MessageType>(type);
  out->flags = flags;
  out->payload_len = payload_len;
  out->crc32 = crc;
  return HeaderStatus::kOk;
}

void DecodeRequestId(const uint8_t* bytes, FrameHeader* out) {
  ByteReader reader(bytes, kRequestIdBytes);
  reader.ReadU64(&out->request_id);
}

bool FrameCrcMatches(const uint8_t* header, const std::string& payload) {
  // The header stores the CRC little-endian; reassemble explicitly so
  // the check is host-order independent.
  uint32_t stored = 0;
  ByteReader reader(header + 12, 4);
  reader.ReadU32(&stored);
  uint32_t actual = Crc32(header, 12);
  actual = Crc32(header + kFramePrefixBytes, kRequestIdBytes, actual);
  actual = Crc32(payload.data(), payload.size(), actual);
  return stored == actual;
}

std::string EncodeActRequest(uint64_t user_id, const nn::Tensor& obs,
                             uint64_t trace_id) {
  std::string out;
  AppendU64(&out, user_id);
  AppendU64(&out, trace_id);
  AppendTensor(&out, obs);
  return out;
}

bool DecodeActRequest(const std::string& payload, uint64_t* user_id,
                      uint64_t* trace_id, nn::Tensor* obs) {
  ByteReader reader(payload.data(), payload.size());
  if (!reader.ReadU64(user_id) || !reader.ReadU64(trace_id)) return false;
  if (!ReadTensor(&reader, obs)) return false;
  return reader.remaining() == 0;
}

std::string EncodeActReply(const serve::ServeReply& reply) {
  std::string out;
  AppendTensor(&out, reply.action);
  AppendU8(&out, reply.exec_clamped ? 1 : 0);
  AppendF64(&out, reply.value);
  AppendU32(&out, static_cast<uint32_t>(reply.batch_size));
  return out;
}

bool DecodeActReply(const std::string& payload, serve::ServeReply* reply) {
  ByteReader reader(payload.data(), payload.size());
  serve::ServeReply decoded;
  uint8_t clamped = 0;
  uint32_t batch_size = 0;
  if (!ReadTensor(&reader, &decoded.action)) return false;
  if (!reader.ReadU8(&clamped) || !reader.ReadF64(&decoded.value) ||
      !reader.ReadU32(&batch_size)) {
    return false;
  }
  if (reader.remaining() != 0) return false;
  decoded.exec_clamped = clamped != 0;
  decoded.batch_size = static_cast<int>(batch_size);
  *reply = std::move(decoded);
  return true;
}

std::string EncodeU64(uint64_t value) {
  std::string out;
  AppendU64(&out, value);
  return out;
}

bool DecodeU64(const std::string& payload, uint64_t* value) {
  ByteReader reader(payload.data(), payload.size());
  return reader.ReadU64(value) && reader.remaining() == 0;
}

std::string EncodePingReply(uint64_t nonce, uint8_t version) {
  std::string out;
  AppendU64(&out, nonce);
  AppendU8(&out, version);
  return out;
}

bool DecodePingReply(const std::string& payload, uint64_t* nonce,
                     uint8_t* version) {
  ByteReader reader(payload.data(), payload.size());
  return reader.ReadU64(nonce) && reader.ReadU8(version) &&
         reader.remaining() == 0;
}

std::string EncodeError(WireError code, const std::string& message) {
  std::string out;
  AppendU16(&out, static_cast<uint16_t>(code));
  const uint32_t len = static_cast<uint32_t>(
      message.size() > kMaxErrorMessageBytes ? kMaxErrorMessageBytes
                                             : message.size());
  AppendU32(&out, len);
  AppendBytes(&out, message.data(), len);
  return out;
}

bool DecodeError(const std::string& payload, WireError* code,
                 std::string* message) {
  ByteReader reader(payload.data(), payload.size());
  uint16_t raw_code = 0;
  uint32_t len = 0;
  if (!reader.ReadU16(&raw_code) || !reader.ReadU32(&len) ||
      len > kMaxErrorMessageBytes || !reader.ReadString(message, len)) {
    return false;
  }
  if (reader.remaining() != 0) return false;
  *code = static_cast<WireError>(raw_code);
  return true;
}

}  // namespace transport
}  // namespace sim2rec
