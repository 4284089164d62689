#ifndef SIM2REC_TRANSPORT_WIRE_H_
#define SIM2REC_TRANSPORT_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "nn/tensor.h"
#include "serve/policy_service.h"
#include "transport/limits.h"

namespace sim2rec {
namespace transport {

/// Byte-level wire protocol of the serving transport. The normative
/// reference — frame layout, every field encoding, the worked hex dump
/// of an Act round trip, and the versioning rule — lives in
/// docs/PROTOCOL.md; this header is its executable counterpart.
///
/// Every message travels in one frame with a 24-byte header:
///
///   offset size field
///   0      4    magic 0x54523253 ("S2RT" when read as bytes)
///   4      1    protocol version (always 3)
///   5      1    message type (MessageType)
///   6      2    flags — reserved, senders write 0, receivers ignore
///   8      4    payload length in bytes
///   12     4    CRC-32 (zlib polynomial, util/crc32) over header
///               bytes [0, 12), then the request-id bytes, then the
///               payload
///   16     8    u64 request id
///   24     n    payload
///
/// All integers are little-endian; doubles are IEEE-754 binary64 bit
/// patterns, so replies decoded from the wire are bitwise-identical to
/// the in-process values — the repo's replay guarantee crosses the
/// network boundary intact.
///
/// The request id is the multiplexing key: a client may pipeline many
/// requests on one connection, the server dispatches them to its
/// worker pool concurrently, and every reply (including typed kError
/// replies) carries the id of the request it answers — so replies may
/// arrive in any order. The id is opaque to the server (echoed, never
/// interpreted); uniqueness among a connection's in-flight requests is
/// the client's job. Within one connection, pipelined requests may be
/// *processed* concurrently: callers must not pipeline two
/// order-dependent requests (e.g. two Acts for the same user, or an
/// Act and the EndSession that follows it) without awaiting the first.
///
/// Versioning: one version is spoken. Additive evolution rides on new
/// message types (an unknown type gets a kUnsupportedType error reply,
/// the connection survives) or on flags bits (receivers must ignore
/// bits they do not know). A frame whose version byte is not
/// kProtocolVersion is refused as soon as its 16-byte prefix is read:
/// its header length is unknown, so the receiver cannot find the next
/// frame — the server answers kUnsupportedVersion and closes the
/// connection, the client fails its in-flight requests.

constexpr uint32_t kFrameMagic = 0x54523253;  // "S2RT"
constexpr uint8_t kProtocolVersion = 3;
/// Header bytes [0, 16): magic through CRC. DecodeHeader validates
/// them before the request id is read.
constexpr size_t kFramePrefixBytes = 16;
constexpr size_t kRequestIdBytes = 8;
/// Bytes preceding the payload in every frame.
constexpr size_t kFrameHeaderBytes = kFramePrefixBytes + kRequestIdBytes;

enum class MessageType : uint8_t {
  kActRequest = 1,         // u64 user_id, u64 trace_id, tensor obs
  kActReply = 2,           // tensor action, u8 clamped, f64 value, u32 batch
  kEndSessionRequest = 3,  // u64 user_id
  kEndSessionReply = 4,    // empty
  kPingRequest = 5,        // u64 nonce
  kPingReply = 6,          // u64 nonce echoed, u8 server protocol version
  kMetricsRequest = 7,     // empty
  kMetricsReply = 8,       // obs::EncodeSnapshot payload
  kError = 9,              // u16 WireError, u32 message length, message
};

/// Error codes a peer sends in a kError frame. Operationally distinct:
/// kUnsupportedVersion / kUnsupportedType mean the request was intact
/// but beyond this binary (upgrade something); the rest mean the bytes
/// or the request itself were bad.
enum class WireError : uint16_t {
  kNone = 0,
  kMalformedFrame = 1,      // bad magic, oversized length, CRC mismatch
  kUnsupportedVersion = 2,  // frame version is not kProtocolVersion
  kUnsupportedType = 3,     // unknown MessageType
  kBadPayload = 4,          // frame intact, payload did not decode
  kUnavailable = 5,         // e.g. metrics requested but no source wired
  kInternal = 6,
};

const char* WireErrorName(WireError error);

/// Client-side typed error surface: what a request attempt came back
/// with. kRemoteError means the server answered with a kError frame
/// (inspect the WireError for why); everything else is local transport
/// failure.
enum class TransportStatus {
  kOk = 0,
  kConnectFailed,
  kTimeout,
  kClosed,          // peer closed / mid-stream disconnect
  kMalformedReply,  // reply frame failed magic/CRC/decode checks
  kFrameTooLarge,   // reply exceeded this side's max_frame_bytes
  kRemoteError,     // server sent a kError frame
  kInvalidHandle,   // Await on an unknown / already-awaited handle
};

const char* TransportStatusName(TransportStatus status);

/// Decoded frame header, validated against magic, version and a
/// frame-size bound but not yet against the CRC (the payload is needed
/// for that). `request_id` stays 0 until the caller reads the request-id
/// bytes (DecodeRequestId).
struct FrameHeader {
  MessageType type = MessageType::kError;
  uint16_t flags = 0;
  uint32_t payload_len = 0;
  uint32_t crc32 = 0;
  uint64_t request_id = 0;
};

enum class HeaderStatus {
  kOk = 0,
  kBadMagic,
  kUnsupportedVersion,  // version byte is not kProtocolVersion
  kTooLarge,            // header + payload exceeds max_frame_bytes
};

/// Encodes one complete frame (header + payload) ready to write.
std::string EncodeFrame(MessageType type, const std::string& payload,
                        uint16_t flags = 0, uint64_t request_id = 0);

/// Validates the header prefix. `prefix` must hold kFramePrefixBytes
/// bytes. The type byte is NOT range-checked here — an unknown type
/// must survive header decoding so the receiver can answer
/// kUnsupportedType instead of dropping the connection. On kOk the
/// caller then reads kRequestIdBytes more header bytes and hands them
/// to DecodeRequestId.
HeaderStatus DecodeHeader(const uint8_t* prefix, size_t max_frame_bytes,
                          FrameHeader* out);

/// Decodes the request-id bytes (`bytes` holds kRequestIdBytes) into
/// out->request_id.
void DecodeRequestId(const uint8_t* bytes, FrameHeader* out);

/// True when the stored CRC matches header bytes [0, 12), then header
/// bytes [16, 24) — the request id — then the payload. `header` holds
/// kFrameHeaderBytes bytes.
bool FrameCrcMatches(const uint8_t* header, const std::string& payload);

// --- Payload codecs. Every Decode* returns false on truncated,
// oversized or trailing bytes and leaves outputs unspecified-but-valid;
// none of them aborts on malformed input. -------------------------------

/// Act request: u64 user id, u64 trace id (0 = no trace in scope),
/// tensor obs.
std::string EncodeActRequest(uint64_t user_id, const nn::Tensor& obs,
                             uint64_t trace_id = 0);
bool DecodeActRequest(const std::string& payload, uint64_t* user_id,
                      uint64_t* trace_id, nn::Tensor* obs);

std::string EncodeActReply(const serve::ServeReply& reply);
bool DecodeActReply(const std::string& payload, serve::ServeReply* reply);

/// EndSession request and Ping request/reply payloads are a single u64
/// (user id / echoed nonce); the ping reply additionally carries the
/// responder's protocol version.
std::string EncodeU64(uint64_t value);
bool DecodeU64(const std::string& payload, uint64_t* value);

std::string EncodePingReply(uint64_t nonce, uint8_t version);
bool DecodePingReply(const std::string& payload, uint64_t* nonce,
                     uint8_t* version);

std::string EncodeError(WireError code, const std::string& message);
bool DecodeError(const std::string& payload, WireError* code,
                 std::string* message);

}  // namespace transport
}  // namespace sim2rec

#endif  // SIM2REC_TRANSPORT_WIRE_H_
