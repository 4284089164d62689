#ifndef SIM2REC_SERVE_POLICY_SERVICE_H_
#define SIM2REC_SERVE_POLICY_SERVICE_H_

#include <cstdint>

#include "nn/tensor.h"

namespace sim2rec {
namespace serve {

/// One answered request.
struct ServeReply {
  nn::Tensor action;        // [1 x action_dim], after the F_exec guard
  bool exec_clamped = false;
  double value = 0.0;       // critic estimate (diagnostics)
  int batch_size = 0;       // rows of the batch this rode in
};

/// The abstract serving API: anything that can answer
/// Act(user_id, obs) with a policy action while maintaining per-user
/// session state. Both the single-shard InferenceServer and the
/// consistent-hash ServeRouter implement it, so examples, benches and
/// future transport front ends (the ROADMAP's cross-process item) are
/// written once against this interface and work unchanged over one
/// shard or many.
///
/// Contract for implementations:
///  * Act blocks until the reply is computed; `obs` is [1 x obs_dim]
///    and must stay valid for the duration of the call. Any other
///    shape throws std::invalid_argument and changes no state.
///  * Act is safe from any number of client threads; requests of a
///    single user are expected to be sequential (session affinity).
///  * EndSession drops the user's recurrent state; the next Act for
///    that user starts a fresh session.
class PolicyService {
 public:
  virtual ~PolicyService() = default;

  /// Serves one observation for one user; blocks until the reply is
  /// computed.
  virtual ServeReply Act(uint64_t user_id, const nn::Tensor& obs) = 0;

  /// Ends a user's session (drops stored recurrent state).
  virtual void EndSession(uint64_t user_id) = 0;
};

}  // namespace serve
}  // namespace sim2rec

#endif  // SIM2REC_SERVE_POLICY_SERVICE_H_
