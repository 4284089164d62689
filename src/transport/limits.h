#ifndef SIM2REC_TRANSPORT_LIMITS_H_
#define SIM2REC_TRANSPORT_LIMITS_H_

#include <cstddef>

namespace sim2rec {
namespace transport {

/// Default per-side frame-size bound; every transport surface rejects
/// larger frames before allocating for them.
constexpr size_t kDefaultMaxFrameBytes = size_t{4} << 20;

/// Framing and deadline limits shared by every transport surface —
/// PolicyClientConfig, PolicyServerConfig and HttpMetricsConfig all
/// embed one `Limits`, so the frame-size bound and timeout defaults
/// are defined exactly once and cannot drift between the three.
///
/// The semantics per surface:
///  * max_frame_bytes — protocol frames (header + payload) larger than
///    this are rejected before any payload allocation. The HTTP
///    endpoint has no protocol frames; it bounds request lines with
///    its own max_request_bytes instead and ignores this field.
///  * request_timeout_ms — the full per-request budget. Server side:
///    header-start to reply-written. Client side: the default
///    submit-to-reply deadline (overridable per request on the async
///    tier).
///  * connect_timeout_ms — client-side connection establishment (the
///    TCP connect). Ignored by servers.
struct Limits {
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  int request_timeout_ms = 5000;
  int connect_timeout_ms = 2000;
};

}  // namespace transport
}  // namespace sim2rec

#endif  // SIM2REC_TRANSPORT_LIMITS_H_
