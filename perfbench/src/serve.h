// Open-loop traffic generation for the serve-open workload: the
// session schedule, the generator, the capacity ladder and the timing
// decorator placed between the TCP server and the router.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "nn/tensor.h"
#include "serve/checkpoint.h"
#include "serve/policy_service.h"
#include "serve/serve_router.h"
#include "transport/policy_client.h"

namespace perfbench {

// Session shape, taken from the repository's own load model
// (load::PopulationDriverConfig defaults): user ids are Zipf(1.05)
// ranks over 2^20 ids, rehashed to a free id while the drawn user still
// has a live session (one live session per user); a session has 2 to 8
// steps, uniform. Every session ends with EndSession, so the session
// stores hold the live population only (the driver's abandonment, which
// leaves sessions to TTL expiry, is not used).
constexpr double kZipfS = 1.05;
constexpr uint64_t kUserSpace = uint64_t{1} << 20;
constexpr int kMinSteps = 2;
constexpr int kMaxSteps = 8;
// The live population is fixed: a session that ends is replaced by a
// new one at once. Requests arrive as a Poisson process at the window's
// rate and each goes to a uniformly drawn live session, which is the
// same as every session thinking for an exponential time of mean
// kLiveSessions / rate between its steps (25 s at 1000 req/s, 3 s at
// 8000 req/s). At the served agent's session size (752 B) the default
// 16 MiB per-shard store holds 22310 sessions; each of the two shards
// holds about half of kLiveSessions, about 55% of that cap.
constexpr int kLiveSessions = 24576;
// How often the generator checks its backlog and lateness, and for how
// many checks in a row an overload must persist to end a ladder step.
constexpr double kHealthCheckS = 0.025;
constexpr int kOverloadChecks = 3;
constexpr int64_t kHardBacklog = 5000;
// p99 is taken per window of this many requests (in due order, so each
// window has ten samples beyond its p99) and reported as the median
// window.
constexpr int kWindowRequests = 1000;
// Threads that await replies and end sessions, beside the submitting
// main thread: four generator threads in all.
constexpr int kWorkers = 3;
// An Await that returns within this time found its reply already
// there: that reply may have waited for a worker, so it is timed late.
constexpr double kReadyAwaitS = 5e-6;

struct ScheduledRequest {
  double due = 0.0;  // seconds from the start of the window
  uint64_t user = 0;
  uint64_t session = 0;  // serial number of the session in the population
  int ordinal = 0;       // step within the session
  bool last = false;     // the session's last step: EndSession follows
  int prev = -1;         // index of the user's previous request, or -1
  int next = -1;         // index of the user's next request, or -1
};

/// Requests of one window, sorted by due time.
struct Schedule {
  double rate_rps = 0.0;
  std::vector<ScheduledRequest> requests;
};

/// The live sessions the generator drives. Every schedule is a pure
/// function of the seed and the sequence of calls made on the
/// population.
class Population {
 public:
  Population(uint64_t seed, int live_sessions);

  /// The first step of every live session, all due at once: sent
  /// before the measured windows, it makes the whole population
  /// resident on the server.
  Schedule Fill();
  /// A window of `duration_s` with requests due as a Poisson process at
  /// `rate_rps`, each the next step of a uniformly drawn live session.
  Schedule NextWindow(double rate_rps, double duration_s);

 private:
  struct Live {
    uint64_t user = 0;
    uint64_t serial = 0;
    int steps = 0;
    int next_ordinal = 0;
  };
  Live NewSession();
  void Emit(double due, size_t slot, Schedule* schedule);
  static void Link(Schedule* schedule);

  SplitMix rng_;
  std::vector<Live> slots_;
  std::unordered_map<uint64_t, int> live_users_;  // user -> slot
  uint64_t next_serial_ = 0;
};

uint64_t ScheduleChecksum(const Schedule& schedule);
/// A Zipf(kZipfS) rank in [0, kUserSpace), rank 0 the hottest (the
/// closed form load::ZipfSampler uses, drawn from the benchmark's own
/// generator).
uint64_t ZipfRank(SplitMix& rng);
/// The observation a session sends with its ordinal-th step (DPR shape:
/// continuous features, then a one-hot tier).
sim2rec::nn::Tensor ObsFor(uint64_t user, uint64_t session, int ordinal);
/// Id shared by a request's client and server spans: a hash of the user
/// and the observation's bytes.
uint64_t RequestId(uint64_t user, const sim2rec::nn::Tensor& obs);

/// The served model: a Sim2Rec agent with DPR shapes and the
/// DprTrainOptions{} sizes, built from a fixed seed (serving cost does
/// not depend on weight values) and passed through SaveCheckpoint /
/// LoadCheckpoint in `dir`, as a deployment gets it. Null on I/O failure.
std::unique_ptr<sim2rec::serve::LoadedPolicy> BuildServePolicy(
    const std::string& dir);
/// Router defaults plus the DPR action box for the F_exec guard.
sim2rec::serve::ServeRouterConfig BenchRouterConfig();

/// Forwards every PolicyService call unchanged. While tracing, records a
/// serve.act span per Act (with the request id of RequestId) and the
/// number of Acts inside the fronted service.
class TimingService : public sim2rec::serve::PolicyService {
 public:
  TimingService(sim2rec::serve::PolicyService* inner, SpanLog* spans);
  TimingService(const TimingService&) = delete;
  TimingService& operator=(const TimingService&) = delete;

  sim2rec::serve::ServeReply Act(uint64_t user_id,
                                 const sim2rec::nn::Tensor& obs) override;
  void EndSession(uint64_t user_id) override;

  /// Starts or stops recording; either way clears the in-flight samples.
  void set_tracing(bool on);
  /// In-flight count seen by each traced Act, itself included.
  std::vector<int> inflight_samples() const;

 private:
  sim2rec::serve::PolicyService* inner_;
  SpanLog* spans_;
  std::atomic<bool> tracing_{false};
  std::atomic<int> inflight_{0};
  mutable std::mutex mu_;
  std::vector<int> inflight_samples_;  // guarded by mu_
};

/// What the generator sent to one user, in order, for the replay check.
struct ReplayEvent {
  uint64_t user = 0;
  uint64_t session = 0;
  int ordinal = 0;
  bool end_session = false;
  bool ok = false;  // the Act was answered
  std::vector<double> action;
};

struct LoopConfig {
  double latency_limit_us = 20000.0;
  /// Ladder steps end early once overloaded; fixed-rate steps run their
  /// whole window unless the backlog passes kHardBacklog.
  bool stop_on_overload = true;
  /// F_exec box every returned action value must lie in.
  double action_low = 0.0;
  double action_high = 1.0;
  double exec_tolerance = 0.0;
  /// Record what is sent to every record_every-th user for replay.
  int record_every = 0;
};

/// True for the users whose requests are recorded for replay.
bool Recorded(uint64_t user, int record_every);

struct StepResult {
  double rate_rps = 0.0;
  double elapsed_s = 0.0;
  int64_t attempted = 0;  // requests sent
  int64_t failed = 0;     // sent but failed, timed out or refused
  int64_t unsent = 0;     // due before an early stop but never sent
  int64_t close_failures = 0;
  int64_t outside_box = 0;
  int64_t max_backlog = 0;
  int64_t steal_ticks = 0;  // hypervisor steal during the step
  double cpu_s = 0.0;       // process CPU time during the step
  bool over_capacity = false;
  bool passed = false;
  std::string why;
  // From due time; a failed or unsent request counts with the client's
  // request deadline, which misses any limit but keeps percentiles
  // finite. p90 and p99 are medians of per-window percentiles.
  double p50_us = 0.0, p90_us = 0.0, p99_us = 0.0;
  bool clean() const { return Clean(steal_ticks, elapsed_s); }
  std::vector<double> latency_us;  // per due request
  std::vector<double> late_us;     // send minus release
  // Per answered request: schedule index and absolute times.
  std::vector<int> indices;
  std::vector<double> due_abs, send_abs, done_abs;
  int64_t awaits = 0;
  int64_t ready_awaits = 0;  // Awaits whose reply was already there
  std::vector<ReplayEvent> events;  // for recorded users, in send order
};

/// Drives one window of the schedule open-loop. The main thread submits
/// each request on its user's lane (connection); kWorkers threads take
/// the submitted handles in submission order and await them, so one
/// slow reply holds back no other, and end finished sessions. Stops
/// early, marked over capacity, once the backlog implies a mean wait
/// above twice the latency limit or the generator falls behind by more
/// than the limit; sessions whose last step it did not send are ended.
StepResult RunOpenLoop(const Schedule& schedule,
                       const std::vector<sim2rec::transport::PolicyClient*>& lanes,
                       const LoopConfig& config);

// Capacity ladder: rates start * sqrt(2)^k for k < kLadderSteps (or,
// when the start rate fails, start / sqrt(2)^k down to the first rate
// that passes), each tried for kLadderStepS; then kLadderRefinements
// bisection steps. A rate passes when a try passes and fails after
// kLadderCleanFailures clean failing tries (or twice as many tries in
// all).
constexpr int kLadderSteps = 7;
constexpr int kLadderRefinements = 4;
constexpr double kLadderStepS = 0.5;
constexpr int kLadderCleanFailures = 1;

struct CapacityResult {
  double capacity_rps = 0.0;  // the highest passing ladder rate
  /// Requests the passing try at capacity_rps sent per second of its
  /// window: the capacity as measured, not rounded to the ladder.
  double served_rps = 0.0;
  bool saturated = false;  // some ladder rate failed
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t steps = 0;  // ladder steps run
  /// Every try, in the order sent (recorded users feed the replay).
  std::vector<StepResult> tries;
};

/// Climbs the geometric ladder until a rate fails (p99 over the limit, a
/// failed request or a growing backlog) on clean tries, then bisects
/// between the last passing and the first failing rate. Returns the
/// highest rate that passed. Each try is the population's next window.
CapacityResult SearchCapacity(
    Population* population,
    const std::vector<sim2rec::transport::PolicyClient*>& lanes,
    const LoopConfig& config, double start_rps);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
