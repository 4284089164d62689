// serve-open: open-loop traffic over loopback TCP against a
// transport::PolicyServer fronting a 2-shard serve::ServeRouter.
//
// A fixed population of live sessions is made resident first; then
// requests arrive as a Poisson process at each window's rate, each the
// next step of a uniformly drawn live session. A step is sent at its
// due time, or when the same user's previous reply (and, after a
// session's last step, its EndSession) lands if that is later: one
// request in flight per user. Latency is timed from the due time. The
// generator is this process: the main thread submits, kWorkers threads
// await replies and end finished sessions.
#include "serve.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "baselines/factories.h"
#include "core/context_agent.h"
#include "envs/dpr_features.h"
#include "experiments/dpr_pipeline.h"
#include "infer/plan.h"
#include "sadae/sadae.h"
#include "serve/checkpoint.h"
#include "serve/serve_router.h"
#include "transport/limits.h"
#include "transport/policy_server.h"

namespace perfbench {

namespace core = sim2rec::core;
namespace envs = sim2rec::envs;
namespace nn = sim2rec::nn;
namespace serve = sim2rec::serve;
namespace transport = sim2rec::transport;

// ------------------------------------------------------------ schedule

namespace {

/// Constants of the YCSB closed form for Zipf(kZipfS) over kUserSpace
/// ranks, as load::ZipfSampler computes them.
struct ZipfConstants {
  double zetan = 0.0, theta = 0.0, alpha = 0.0, eta = 0.0;
};

const ZipfConstants& Zipf() {
  static const ZipfConstants constants = [] {
    ZipfConstants z;
    const double n = static_cast<double>(kUserSpace);
    for (uint64_t i = 1; i <= kUserSpace; ++i) {
      z.zetan += std::pow(static_cast<double>(i), -kZipfS);
    }
    z.theta = kZipfS;
    z.alpha = 1.0 / (1.0 - z.theta);
    const double zeta2 = 1.0 + std::pow(2.0, -z.theta);
    z.eta = (1.0 - std::pow(2.0 / n, 1.0 - z.theta)) / (1.0 - zeta2 / z.zetan);
    return z;
  }();
  return constants;
}

}  // namespace

uint64_t ZipfRank(SplitMix& rng) {
  const ZipfConstants& z = Zipf();
  const double u = rng.Uniform();
  const double uz = u * z.zetan;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, z.theta)) return 1;
  const uint64_t rank = static_cast<uint64_t>(
      static_cast<double>(kUserSpace) *
      std::pow(z.eta * u - z.eta + 1.0, z.alpha));
  return std::min(rank, kUserSpace - 1);
}

nn::Tensor ObsFor(uint64_t user, uint64_t session, int ordinal) {
  nn::Tensor obs(1, envs::kDprObsDim);
  SplitMix rng(Mix64(session * 0x100000001b3ULL + ordinal) ^ user);
  for (int c = 0; c < envs::kDprContinuousObsDim; ++c) {
    obs(0, c) = 2.0 * rng.Uniform() - 1.0;
  }
  obs(0, envs::kDprContinuousObsDim + user % envs::kDprTierCount) = 1.0;
  return obs;
}

uint64_t RequestId(uint64_t user, const nn::Tensor& obs) {
  uint64_t id = Mix64(user);
  for (int c = 0; c < obs.cols(); ++c) {
    uint64_t bits = 0;
    const double value = obs(0, c);
    std::memcpy(&bits, &value, sizeof(bits));
    id = Mix64(id ^ bits);
  }
  return id;
}

Population::Population(uint64_t seed, int live_sessions)
    : rng_(Mix64(seed) ^ 0x5e55) {
  for (int i = 0; i < live_sessions; ++i) {
    slots_.push_back(NewSession());
    live_users_[slots_.back().user] = i;
  }
}

Population::Live Population::NewSession() {
  Live live;
  live.user = ZipfRank(rng_);
  // One live session per user: a drawn user who is still live is
  // rehashed to another id, as load::PopulationDriver does.
  for (uint64_t probe = 1; live_users_.count(live.user) > 0; ++probe) {
    live.user = Mix64(live.user + probe) % kUserSpace;
  }
  live.serial = next_serial_++;
  live.steps = kMinSteps + static_cast<int>(rng_.Next() %
                                            (kMaxSteps - kMinSteps + 1));
  return live;
}

void Population::Emit(double due, size_t slot, Schedule* schedule) {
  Live& live = slots_[slot];
  ScheduledRequest request;
  request.due = due;
  request.user = live.user;
  request.session = live.serial;
  request.ordinal = live.next_ordinal++;
  request.last = live.next_ordinal == live.steps;
  schedule->requests.push_back(request);
  if (request.last) {
    live_users_.erase(live.user);
    live = NewSession();
    live_users_[live.user] = static_cast<int>(slot);
  }
}

void Population::Link(Schedule* schedule) {
  std::unordered_map<uint64_t, int> last_of_user;
  auto& requests = schedule->requests;
  for (int i = 0; i < static_cast<int>(requests.size()); ++i) {
    auto it = last_of_user.find(requests[i].user);
    if (it != last_of_user.end()) {
      requests[i].prev = it->second;
      requests[it->second].next = i;
    }
    last_of_user[requests[i].user] = i;
  }
}

Schedule Population::Fill() {
  Schedule schedule;
  for (size_t slot = 0; slot < slots_.size(); ++slot) {
    Emit(0.0, slot, &schedule);
  }
  Link(&schedule);
  return schedule;
}

Schedule Population::NextWindow(double rate_rps, double duration_s) {
  Schedule schedule;
  schedule.rate_rps = rate_rps;
  double due = 0.0;
  while (true) {
    due += rng_.Exponential(1.0 / rate_rps);
    if (due >= duration_s) break;
    Emit(due, rng_.Next() % slots_.size(), &schedule);
  }
  Link(&schedule);
  return schedule;
}

uint64_t ScheduleChecksum(const Schedule& schedule) {
  uint64_t sum = Mix64(schedule.requests.size());
  for (const ScheduledRequest& r : schedule.requests) {
    uint64_t due_bits = 0;
    std::memcpy(&due_bits, &r.due, sizeof(due_bits));
    sum = Mix64(sum ^ due_bits ^ Mix64(r.user) ^ Mix64(r.session + 1) ^
                (uint64_t(r.ordinal) << 48) ^ (uint64_t(r.last) << 63));
  }
  return sum;
}

bool Recorded(uint64_t user, int record_every) {
  return record_every > 0 && Mix64(user ^ 0x7e91a7) % record_every == 0;
}

// ------------------------------------------------------- timing service

TimingService::TimingService(serve::PolicyService* inner, SpanLog* spans)
    : inner_(inner), spans_(spans) {}

serve::ServeReply TimingService::Act(uint64_t user_id, const nn::Tensor& obs) {
  if (!tracing_.load(std::memory_order_relaxed)) {
    return inner_->Act(user_id, obs);
  }
  const uint64_t request = RequestId(user_id, obs);
  const int inflight = inflight_.fetch_add(1) + 1;
  const double start = Now();
  serve::ServeReply reply = inner_->Act(user_id, obs);
  const double end = Now();
  inflight_.fetch_sub(1);
  spans_->Add("serve.act", start, end, -1, request);
  std::lock_guard<std::mutex> lock(mu_);
  inflight_samples_.push_back(inflight);
  return reply;
}

void TimingService::EndSession(uint64_t user_id) {
  inner_->EndSession(user_id);
}

void TimingService::set_tracing(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  tracing_ = on;
  inflight_samples_.clear();
}

std::vector<int> TimingService::inflight_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_samples_;
}

// ----------------------------------------------------------- open loop

namespace {

struct RequestRecord {
  double release = 0.0;  // absolute: max(due, previous reply observed)
  double send = 0.0;
  double done = 0.0;
  bool blocked = false;
  bool sent = false;
  bool completed = false;
  bool closed = false;  // EndSession after this (last) step completed
  int event = -1;       // index into StepResult::events, or -1
  transport::TransportStatus status = transport::TransportStatus::kClosed;
};

/// Work for the worker threads: await a submitted Act, or end the
/// session of the request's user.
struct Task {
  int index = 0;
  bool end_session = false;
  transport::PolicyClient::ActHandle handle;
};

struct Completion {
  int index = 0;
  bool end_session = false;
  bool ready = false;  // the Await found its reply already there
  double done = 0.0;
  transport::TransportStatus status = transport::TransportStatus::kClosed;
  serve::ServeReply reply;
};

int LaneOf(uint64_t user, int lanes) {
  return static_cast<int>(Mix64(user) % lanes);
}

/// Action values of a reply outside the F_exec box.
int64_t OutsideBox(const serve::ServeReply& reply, const LoopConfig& config) {
  int64_t outside = 0;
  for (int d = 0; d < reply.action.cols(); ++d) {
    const double a = reply.action.data()[d];
    if (!(a >= config.action_low - config.exec_tolerance &&
          a <= config.action_high + config.exec_tolerance)) {
      ++outside;
    }
  }
  return outside;
}

}  // namespace

StepResult RunOpenLoop(const Schedule& schedule,
                       const std::vector<transport::PolicyClient*>& lanes,
                       const LoopConfig& config) {
  const int n = static_cast<int>(schedule.requests.size());
  const auto& requests = schedule.requests;
  std::vector<RequestRecord> records(n);
  const int num_lanes = static_cast<int>(lanes.size());

  std::mutex task_mu;
  std::condition_variable task_cv;
  std::deque<Task> tasks;
  bool closing = false;

  std::mutex completion_mu;
  std::condition_variable completion_cv;
  std::vector<Completion> completions;

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&] {
      while (true) {
        Task task;
        {
          std::unique_lock<std::mutex> lock(task_mu);
          task_cv.wait(lock, [&] { return closing || !tasks.empty(); });
          if (tasks.empty()) return;
          task = tasks.front();
          tasks.pop_front();
        }
        const uint64_t user = requests[task.index].user;
        transport::PolicyClient* lane = lanes[LaneOf(user, num_lanes)];
        Completion completion;
        completion.index = task.index;
        completion.end_session = task.end_session;
        if (task.end_session) {
          completion.status = lane->TryEndSession(user);
          completion.done = Now();
        } else {
          const double start = Now();
          completion.status = lane->Await(task.handle, &completion.reply);
          completion.done = Now();
          completion.ready = completion.done - start < kReadyAwaitS;
        }
        {
          std::lock_guard<std::mutex> lock(completion_mu);
          completions.push_back(std::move(completion));
        }
        completion_cv.notify_one();
      }
    });
  }
  auto push_task = [&](const Task& task) {
    {
      std::lock_guard<std::mutex> lock(task_mu);
      tasks.push_back(task);
    }
    task_cv.notify_one();
  };

  StepResult result;
  result.rate_rps = schedule.rate_rps;
  const int64_t steal_start = StealTicks();
  const double cpu_start = CpuNow();
  const double t0 = Now() + 0.002;
  int64_t submitted = 0, completed = 0, blocked = 0, pending_closes = 0;
  int64_t close_failures = 0;
  int next_due = 0;
  const double limit_s = config.latency_limit_us * 1e-6;
  const double miss_us = transport::Limits{}.request_timeout_ms * 1e3;
  // Little's law: this many requests in the system means a mean wait of
  // twice the latency limit.
  const int64_t backlog_limit = std::max<int64_t>(
      32, static_cast<int64_t>(schedule.rate_rps * 2.0 * limit_s));
  double next_check = t0 + kHealthCheckS;
  int overloaded_checks = 0;

  auto record_event = [&](int i, bool end_session) {
    const ScheduledRequest& r = requests[i];
    if (!Recorded(r.user, config.record_every)) return -1;
    ReplayEvent event;
    event.user = r.user;
    event.session = r.session;
    event.ordinal = r.ordinal;
    event.end_session = end_session;
    result.events.push_back(std::move(event));
    return static_cast<int>(result.events.size()) - 1;
  };
  auto submit = [&](int i, double release) {
    const ScheduledRequest& r = requests[i];
    RequestRecord& record = records[i];
    record.release = release;
    record.blocked = false;
    record.sent = true;
    const nn::Tensor obs = ObsFor(r.user, r.session, r.ordinal);
    record.event = record_event(i, false);
    record.send = Now();
    Task task;
    task.index = i;
    task.handle = lanes[LaneOf(r.user, num_lanes)]->SubmitAct(r.user, obs);
    push_task(task);
    ++submitted;
  };
  auto end_session = [&](int i) {
    record_event(i, true);
    Task task;
    task.index = i;
    task.end_session = true;
    push_task(task);
    ++pending_closes;
  };
  // A request may go once its user's previous request is answered and,
  // when that ended a session, the session is ended.
  auto releasable = [&](int i) {
    const int prev = requests[i].prev;
    return prev < 0 || (records[prev].completed &&
                        (!requests[prev].last || records[prev].closed));
  };

  bool stopping = false;
  std::vector<Completion> batch;
  while (true) {
    batch.clear();
    {
      std::lock_guard<std::mutex> lock(completion_mu);
      batch.swap(completions);
    }
    for (Completion& c : batch) {
      RequestRecord& record = records[c.index];
      const ScheduledRequest& r = requests[c.index];
      if (c.end_session) {
        record.closed = true;
        --pending_closes;
        if (c.status != transport::TransportStatus::kOk) ++close_failures;
      } else {
        record.completed = true;
        record.done = c.done;
        record.status = c.status;
        ++completed;
        ++result.awaits;
        if (c.ready) ++result.ready_awaits;
        if (c.status == transport::TransportStatus::kOk) {
          result.outside_box += OutsideBox(c.reply, config);
          if (record.event >= 0) {
            const double* a = c.reply.action.data();
            result.events[record.event].ok = true;
            result.events[record.event].action.assign(
                a, a + c.reply.action.cols());
          }
        }
        if (r.last) end_session(c.index);
      }
      if (r.next >= 0 && records[r.next].blocked && !stopping &&
          releasable(r.next)) {
        --blocked;
        submit(r.next, c.done);
      }
    }

    const double now = Now();
    while (!stopping && next_due < n && t0 + requests[next_due].due <= now) {
      if (releasable(next_due)) {
        submit(next_due, t0 + requests[next_due].due);
      } else {
        records[next_due].blocked = true;
        ++blocked;
      }
      ++next_due;
    }

    if (!stopping && now >= next_check) {
      next_check = now + kHealthCheckS;
      const int64_t backlog = submitted - completed + blocked;
      result.max_backlog = std::max(result.max_backlog, backlog);
      const double behind =
          next_due < n ? now - (t0 + requests[next_due].due) : 0.0;
      overloaded_checks = backlog > backlog_limit || behind > limit_s
                              ? overloaded_checks + 1
                              : 0;
      if (backlog > kHardBacklog ||
          (config.stop_on_overload && overloaded_checks >= kOverloadChecks)) {
        stopping = true;
        result.over_capacity = true;
        result.why = behind > limit_s
                         ? "generator behind by " +
                               std::to_string(static_cast<int>(behind * 1e3)) +
                               " ms"
                         : "backlog " + std::to_string(backlog) + " > " +
                               std::to_string(backlog_limit);
        // Sessions whose last step will not be sent are ended now, so
        // the population and the server agree on who is live.
        for (int i = 0; i < n; ++i) {
          if (requests[i].last && !records[i].sent) end_session(i);
        }
      }
    }
    if (completed == submitted && pending_closes == 0 &&
        (stopping || (next_due == n && blocked == 0))) {
      break;
    }

    std::unique_lock<std::mutex> lock(completion_mu);
    double wake = now + kHealthCheckS;
    if (!stopping && next_due < n) {
      wake = std::min(wake, t0 + requests[next_due].due);
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(0.0, wake - Now())));
    completion_cv.wait_until(lock, deadline,
                             [&] { return !completions.empty(); });
  }

  {
    std::lock_guard<std::mutex> lock(task_mu);
    closing = true;
  }
  task_cv.notify_all();
  for (std::thread& t : workers) t.join();

  // Every request due before a stop counts; a failed or unsent one
  // misses the latency limit.
  result.elapsed_s = Now() - t0;
  result.cpu_s = CpuNow() - cpu_start;
  result.steal_ticks = StealTicks() - steal_start;
  std::vector<std::vector<double>> windows(1);
  for (int i = 0; i < n; ++i) {
    const RequestRecord& record = records[i];
    const ScheduledRequest& r = requests[i];
    if (i >= next_due && !record.sent) continue;
    double latency_us = miss_us;
    if (!record.sent) {
      ++result.unsent;
    } else {
      ++result.attempted;
      if (record.status != transport::TransportStatus::kOk) {
        ++result.failed;
      } else {
        latency_us = (record.done - (t0 + r.due)) * 1e6;
        result.late_us.push_back((record.send - record.release) * 1e6);
        result.indices.push_back(i);
        result.due_abs.push_back(t0 + r.due);
        result.send_abs.push_back(record.send);
        result.done_abs.push_back(record.done);
      }
    }
    result.latency_us.push_back(latency_us);
    if (static_cast<int>(windows.back().size()) == kWindowRequests) {
      windows.emplace_back();
    }
    windows.back().push_back(latency_us);
  }
  result.close_failures = close_failures;
  result.failed += result.close_failures;
  std::vector<double> window_p90, window_p99;
  for (const std::vector<double>& window : windows) {
    // A short tail window joins the statistic only when it is alone.
    if (window.size() * 2 >= static_cast<size_t>(kWindowRequests) ||
        windows.size() == 1) {
      window_p90.push_back(Quantile(window, 0.90));
      window_p99.push_back(Quantile(window, 0.99));
    }
  }
  result.p50_us = Quantile(result.latency_us, 0.5);
  result.p90_us = Median(window_p90);
  result.p99_us = Median(window_p99);
  result.passed = !result.over_capacity && result.failed == 0 &&
                  result.unsent == 0 &&
                  result.p99_us <= config.latency_limit_us;
  return result;
}

CapacityResult SearchCapacity(Population* population,
                              const std::vector<transport::PolicyClient*>& lanes,
                              const LoopConfig& config, double start_rps) {
  const double ratio = std::sqrt(2.0);
  CapacityResult out;
  auto run = [&](double rate) {
    const Schedule schedule = population->NextWindow(rate, kLadderStepS);
    const StepResult step = RunOpenLoop(schedule, lanes, config);
    std::printf("#   ladder %8.0f req/s: %-4s p50 %8.0f us p99 %9.0f us "
                "steal %lld failed %lld/%lld unsent %lld %.0f req per CPU-s%s%s\n",
                rate, step.passed ? "pass" : "FAIL", step.p50_us, step.p99_us,
                static_cast<long long>(step.steal_ticks),
                static_cast<long long>(step.failed),
                static_cast<long long>(step.attempted),
                static_cast<long long>(step.unsent),
                step.attempted / std::max(1e-9, step.cpu_s),
                step.over_capacity ? " over capacity: " : "",
                step.why.c_str());
    out.attempted += step.attempted;
    out.failed += step.failed;
    ++out.steps;
    out.tries.push_back(step);
    return step;
  };
  // Host noise only ever adds latency, so a rate passes when a try
  // passes, and a failing try counts only when it ran clean: a spell of
  // hypervisor steal does not decide the answer, while a rate above
  // capacity fails clean tries (each stops early on its growing backlog).
  auto passes = [&](double rate) {
    int clean_failures = 0;
    for (int t = 0; t < 2 * kLadderCleanFailures &&
                    clean_failures < kLadderCleanFailures;
         ++t) {
      const StepResult step = run(rate);
      if (step.passed) {
        if (rate > out.capacity_rps) {
          out.capacity_rps = rate;
          out.served_rps = step.attempted / kLadderStepS;
        }
        return true;
      }
      if (step.clean()) ++clean_failures;
    }
    return false;
  };
  double lo = 0.0;  // highest passing rate
  double hi = 0.0;  // lowest failing rate
  for (int k = 0; k < kLadderSteps && hi == 0.0; ++k) {
    const double rate = start_rps * std::pow(ratio, k);
    (passes(rate) ? lo : hi) = rate;
  }
  // When the start rate fails, the ladder steps down until a rate passes.
  for (int k = 1; lo == 0.0 && k <= kLadderSteps; ++k) {
    const double rate = start_rps / std::pow(ratio, k);
    (passes(rate) ? lo : hi) = rate;
  }
  out.saturated = hi > 0.0;
  for (int j = 0; lo > 0.0 && out.saturated && j < kLadderRefinements; ++j) {
    const double mid = std::sqrt(lo * hi);
    (passes(mid) ? lo : hi) = mid;
  }
  return out;
}

// ------------------------------------------------------------- model

std::unique_ptr<serve::LoadedPolicy> BuildServePolicy(const std::string& dir) {
  const sim2rec::experiments::DprTrainOptions sizes;
  core::ContextAgentConfig config = sim2rec::baselines::MakeAgentConfig(
      sim2rec::baselines::AgentVariant::kSim2Rec, envs::kDprObsDim,
      envs::kDprActionDim);
  config.lstm_hidden = sizes.lstm_hidden;
  config.f_hidden = sizes.f_hidden;
  config.f_out = sizes.f_out;
  config.policy_hidden = sizes.policy_hidden;
  config.value_hidden = sizes.value_hidden;
  config.action_bias = {0.5, 0.5};
  sim2rec::sadae::SadaeConfig sadae_config;
  sadae_config.state_dim = envs::kDprContinuousObsDim;
  sadae_config.categorical_dim = envs::kDprTierCount;
  sadae_config.action_dim = envs::kDprActionDim;
  sadae_config.latent_dim = sizes.sadae_latent;
  sadae_config.encoder_hidden = sizes.sadae_hidden;
  sadae_config.decoder_hidden = sizes.sadae_hidden;
  sim2rec::Rng rng(20230403);
  sim2rec::sadae::Sadae sadae(sadae_config, rng);
  core::ContextAgent agent(config, &sadae, rng);
  if (!serve::SaveCheckpoint(dir, agent)) return nullptr;
  return serve::LoadCheckpoint(dir);
}

serve::ServeRouterConfig BenchRouterConfig() {
  serve::ServeRouterConfig config;
  config.shard.action_low = {0.0, 0.0};
  config.shard.action_high = {1.0, 1.0};
  return config;
}

// ---------------------------------------------------------- workload

namespace {

constexpr int kShards = 2;
constexpr int kLanes = 2;
constexpr double kLowRps = 1000.0;
constexpr double kMidRps = 4000.0;
constexpr double kLadderStartRps = 3000.0;
constexpr double kLatencyLimitUs = 20000.0;
constexpr int kSetupRepeats = 9;
constexpr int kReplayEvery = 32;
constexpr int kForwardRepeats = 200;

/// The serving stack of one run: policy, router, optional timing
/// decorator, TCP server and the generator's client connections.
struct Stack {
  std::unique_ptr<serve::LoadedPolicy> policy;
  std::unique_ptr<serve::ServeRouter> router;
  std::unique_ptr<TimingService> timing;
  std::unique_ptr<transport::PolicyServer> server;
  std::vector<std::unique_ptr<transport::PolicyClient>> clients;

  std::vector<transport::PolicyClient*> lanes() const {
    std::vector<transport::PolicyClient*> out;
    for (const auto& c : clients) out.push_back(c.get());
    return out;
  }
  ~Stack() {
    clients.clear();
    if (server) server->Shutdown();
  }
};

std::unique_ptr<Stack> SetUpStack(const Options& options, SpanLog* spans,
                                  bool with_timing) {
  auto stack = std::make_unique<Stack>();
  const std::string dir = options.work_dir + "/serve-checkpoint-" +
                          std::to_string(getpid());
  std::filesystem::create_directories(dir);
  stack->policy = BuildServePolicy(dir);
  std::filesystem::remove_all(dir);
  if (!stack->policy) return nullptr;
  stack->router = std::make_unique<serve::ServeRouter>(
      stack->policy->agent.get(), BenchRouterConfig(), kShards);
  serve::PolicyService* front = stack->router.get();
  if (with_timing) {
    stack->timing = std::make_unique<TimingService>(front, spans);
    front = stack->timing.get();
  }
  transport::PolicyServerConfig server_config;
  server_config.host = "127.0.0.1";
  server_config.port = 0;
  stack->server = std::make_unique<transport::PolicyServer>(front,
                                                            server_config);
  if (!stack->server->Start()) return nullptr;
  transport::PolicyClientConfig client_config;
  client_config.host = "127.0.0.1";
  client_config.port = stack->server->port();
  for (int l = 0; l < kLanes; ++l) {
    stack->clients.push_back(
        std::make_unique<transport::PolicyClient>(client_config));
    if (stack->clients.back()->Connect() != transport::TransportStatus::kOk) {
      return nullptr;
    }
  }
  return stack;
}

LoopConfig MakeLoopConfig() {
  LoopConfig config;
  const serve::ServeRouterConfig router = BenchRouterConfig();
  config.latency_limit_us = kLatencyLimitUs;
  config.stop_on_overload = false;
  config.action_low = router.shard.action_low[0];
  config.action_high = router.shard.action_high[0];
  config.exec_tolerance = router.shard.exec_tolerance;
  config.record_every = kReplayEvery;
  return config;
}

void PrintStep(const char* label, const StepResult& step) {
  std::printf("#   %-6s %7.0f req/s: p50 %7.1f p90 %7.1f p99 %8.1f us, "
              "steal %lld, %lld/%lld failed, late p99 %.1f us, max backlog "
              "%lld, %.0f req per CPU-s%s%s\n",
              label, step.rate_rps, step.p50_us, step.p90_us, step.p99_us,
              static_cast<long long>(step.steal_ticks),
              static_cast<long long>(step.failed),
              static_cast<long long>(step.attempted),
              Quantile(step.late_us, 0.99),
              static_cast<long long>(step.max_backlog),
              step.attempted / std::max(1e-9, step.cpu_s),
              step.over_capacity ? ", over capacity: " : "",
              step.why.c_str());
}

/// Replays everything the generator sent to the recorded users (every
/// Act and EndSession, in order, from the population fill on) one
/// request at a time through a fresh in-process router, and compares
/// the actions bitwise with the TCP replies. A user whose Act failed is
/// compared up to that Act only: the server may or may not have run it.
void CheckReplay(const std::vector<const StepResult*>& steps,
                 const core::ContextAgent* agent, Report* report) {
  std::unordered_map<uint64_t, std::vector<const ReplayEvent*>> by_user;
  std::vector<uint64_t> users;
  for (const StepResult* step : steps) {
    for (const ReplayEvent& event : step->events) {
      auto& events = by_user[event.user];
      if (events.empty()) users.push_back(event.user);
      events.push_back(&event);
    }
  }
  serve::ServeRouter router(agent, BenchRouterConfig(), kShards);
  int64_t compared = 0, mismatched = 0;
  for (uint64_t user : users) {
    for (const ReplayEvent* event : by_user[user]) {
      if (event->end_session) {
        router.EndSession(user);
        continue;
      }
      if (!event->ok) break;
      const serve::ServeReply reply =
          router.Act(user, ObsFor(user, event->session, event->ordinal));
      ++compared;
      if (reply.action.cols() != static_cast<int>(event->action.size()) ||
          std::memcmp(reply.action.data(), event->action.data(),
                      event->action.size() * sizeof(double)) != 0) {
        ++mismatched;
      }
    }
  }
  std::printf("# replay: %lld actions of %zu users compared bitwise, "
              "%lld mismatched\n",
              static_cast<long long>(compared), users.size(),
              static_cast<long long>(mismatched));
  if (compared == 0) report->Fail("no request recorded for replay");
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " TCP replies differ from in-process replay");
  }
}

void CheckStep(const char* label, const StepResult& step, Report* report) {
  report->CountAttempts(step.attempted, step.failed);
  if (step.outside_box > 0) {
    report->Fail(std::string(label) + ": " +
                 std::to_string(step.outside_box) +
                 " action values outside the F_exec box");
  }
}

/// Makes the whole population resident: every live session's first
/// step, sent closed-loop with at most the server's per-connection
/// in-flight limit outstanding on each lane. Untimed: a warm-up before
/// the measured windows.
StepResult RunFill(Stack* stack, Population* population,
                   const LoopConfig& config) {
  const Schedule fill = population->Fill();
  const std::vector<transport::PolicyClient*> lanes = stack->lanes();
  const int num_lanes = static_cast<int>(lanes.size());
  const int depth = transport::PolicyServerConfig{}.max_inflight_per_connection;
  StepResult result;
  const double start = Now();
  const int n = static_cast<int>(fill.requests.size());
  for (int begin = 0; begin < n;) {
    std::vector<std::vector<transport::PolicyClient::ActHandle>> handles(
        num_lanes);
    std::vector<std::vector<int>> indices(num_lanes);
    for (; begin < n; ++begin) {
      const ScheduledRequest& r = fill.requests[begin];
      const int lane = LaneOf(r.user, num_lanes);
      if (static_cast<int>(handles[lane].size()) == depth) break;
      handles[lane].push_back(lanes[lane]->SubmitAct(
          r.user, ObsFor(r.user, r.session, r.ordinal)));
      indices[lane].push_back(begin);
    }
    for (int lane = 0; lane < num_lanes; ++lane) {
      const auto replies = lanes[lane]->AwaitAll(handles[lane]);
      for (size_t k = 0; k < replies.size(); ++k) {
        const ScheduledRequest& r = fill.requests[indices[lane][k]];
        ++result.attempted;
        if (replies[k].status != transport::TransportStatus::kOk) {
          ++result.failed;
          continue;
        }
        result.outside_box += OutsideBox(replies[k].reply, config);
        if (Recorded(r.user, config.record_every)) {
          ReplayEvent event;
          event.user = r.user;
          event.session = r.session;
          event.ordinal = r.ordinal;
          event.ok = true;
          const double* a = replies[k].reply.action.data();
          event.action.assign(a, a + replies[k].reply.action.cols());
          result.events.push_back(std::move(event));
        }
      }
    }
  }
  result.elapsed_s = Now() - start;
  std::printf("# fill: %lld sessions made resident in %.2f s, %lld failed\n",
              static_cast<long long>(result.attempted), result.elapsed_s,
              static_cast<long long>(result.failed));
  return result;
}

/// Largest share of a shard's session cap in use.
double StoreFill(serve::ServeRouter& router) {
  double fill = 0.0;
  for (int id : router.shard_ids()) {
    serve::SessionStore& store = router.shard(id)->sessions();
    const double cap = static_cast<double>(store.config().max_bytes /
                                           store.BytesPerSession());
    std::printf("# shard %d: %zu resident sessions of a %.0f-session cap "
                "(%zu B each)\n",
                id, store.size(), cap, store.BytesPerSession());
    fill = std::max(fill, store.size() / cap);
  }
  return fill;
}

/// Times the forward the shards run, alone, at a batch size.
double ForwardUs(serve::ServeRouter& router, const core::ContextAgent& agent,
                 int rows) {
  const sim2rec::infer::InferencePlan* plan =
      router.shard(router.shard_ids().front())->plan();
  nn::Tensor obs(rows, envs::kDprObsDim);
  for (int r = 0; r < rows; ++r) {
    const nn::Tensor one = ObsFor(r + 1, 0, 0);
    for (int c = 0; c < envs::kDprObsDim; ++c) obs(r, c) = one(0, c);
  }
  core::ContextAgent::ServeBatch state = agent.InitialServeBatch(rows);
  std::unique_ptr<sim2rec::infer::Workspace> workspace;
  if (plan != nullptr) {
    workspace = std::make_unique<sim2rec::infer::Workspace>(
        plan->CreateWorkspace(rows));
  }
  std::vector<double> us;
  for (int i = 0; i < kForwardRepeats; ++i) {
    const double start = Now();
    if (plan != nullptr) {
      plan->ServeStep(obs, &state, workspace.get());
    } else {
      agent.ServeStep(obs, &state);
    }
    us.push_back((Now() - start) * 1e6);
  }
  return Median(us);
}

struct ShardTotals {
  int64_t requests = 0, batches = 0, hits = 0, misses = 0, evictions = 0;
};

ShardTotals Totals(const serve::ServeRouter& router) {
  ShardTotals totals;
  for (const auto& [id, stats] : router.ShardStats()) {
    totals.requests += stats.requests;
    totals.batches += stats.batches;
    totals.hits += static_cast<int64_t>(stats.sessions.hits);
    totals.misses += static_cast<int64_t>(stats.sessions.misses);
    totals.evictions += static_cast<int64_t>(stats.sessions.evictions);
  }
  return totals;
}

constexpr int kMinCleanRounds = 3;

/// Fixed-rate traffic is measured in short rounds that alternate the
/// low and the mid rate across the run. A percentile is reported as its
/// median over the clean rounds (StepResult::clean); when fewer than
/// kMinCleanRounds ran clean, over the kMinCleanRounds rounds with the
/// least steal per second: a round's latency grows with the steal
/// during it.
struct Rounds {
  std::vector<Schedule> schedules;
  std::vector<StepResult> steps;

  double Over(double StepResult::*field) const {
    std::vector<const StepResult*> chosen;
    for (const StepResult& s : steps) {
      if (s.clean()) chosen.push_back(&s);
    }
    if (static_cast<int>(chosen.size()) < kMinCleanRounds) {
      chosen.clear();
      for (const StepResult& s : steps) chosen.push_back(&s);
      auto steal_rate = [](const StepResult* s) {
        return s->steal_ticks / std::max(1e-9, s->elapsed_s);
      };
      std::stable_sort(chosen.begin(), chosen.end(),
                       [&](const StepResult* a, const StepResult* b) {
                         return steal_rate(a) < steal_rate(b);
                       });
      chosen.resize(std::min<size_t>(chosen.size(), kMinCleanRounds));
    }
    std::vector<double> values;
    for (const StepResult* s : chosen) values.push_back(s->*field);
    return Median(values);
  }
  /// Requests answered per second of process CPU time, the median over
  /// the rounds. Stolen time is not CPU time, so steal leaves it alone.
  double RequestsPerCpuS() const {
    std::vector<double> values;
    for (const StepResult& s : steps) {
      values.push_back((s.attempted - s.failed) / std::max(1e-9, s.cpu_s));
    }
    return Median(values);
  }
  int clean_rounds() const {
    int n = 0;
    for (const StepResult& s : steps) n += s.clean() ? 1 : 0;
    return n;
  }
  double p50() const { return Over(&StepResult::p50_us); }
  double p90() const { return Over(&StepResult::p90_us); }
  double p99() const { return Over(&StepResult::p99_us); }
  int64_t attempted() const {
    int64_t n = 0;
    for (const StepResult& s : steps) n += s.attempted;
    return n;
  }
  std::vector<double> late_us() const {
    std::vector<double> v;
    for (const StepResult& s : steps) {
      v.insert(v.end(), s.late_us.begin(), s.late_us.end());
    }
    return v;
  }
};

constexpr int kRounds = 12;
// The untraced run searches for capacity kCapacitySearches times, spread
// over the run between its fixed-rate rounds, and reports the highest
// result: a shared host's noise only ever lowers capacity, and a busy
// spell on the host lasts seconds.
constexpr int kCapacitySearches = 3;
constexpr int kUntracedRounds = 9;

double RoundSeconds(const Options& options) {
  return std::max(0.25, 0.02 * options.seconds);
}

void RunRound(const Options& options, Stack* stack, Population* population,
              const char* label, double rate, const LoopConfig& config,
              Rounds* rounds, Report* report) {
  rounds->schedules.push_back(
      population->NextWindow(rate, RoundSeconds(options)));
  rounds->steps.push_back(
      RunOpenLoop(rounds->schedules.back(), stack->lanes(), config));
  PrintStep(label, rounds->steps.back());
  CheckStep(label, rounds->steps.back(), report);
}

void PrintServerStats(const transport::PolicyServer& server) {
  const transport::PolicyServerStats stats = server.stats();
  std::printf("# server: %lld requests, %lld timeouts, %lld errors, %lld "
              "connections refused\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.timeouts),
              static_cast<long long>(stats.errors_sent),
              static_cast<long long>(stats.connections_rejected));
}

/// Awaits that found their reply already there, over all `steps`.
double ReadyAwaitRatio(const std::vector<const StepResult*>& steps) {
  int64_t awaits = 0, ready = 0;
  for (const StepResult* step : steps) {
    awaits += step->awaits;
    ready += step->ready_awaits;
  }
  return static_cast<double>(ready) / std::max<int64_t>(1, awaits);
}

int RunUntraced(const Options& options, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  SpanLog no_spans(false);
  for (int i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    // The first set-up is counted from process start.
    const double offset = i == 0 ? SecondsSinceProcessStart() : 0.0;
    const double start = Now();
    stack = SetUpStack(options, &no_spans, /*with_timing=*/false);
    setup_s.push_back(offset + Now() - start);
    if (!stack) {
      report->Fail("serving stack set-up failed");
      return 1;
    }
  }
  const LoopConfig config = MakeLoopConfig();
  std::printf("# serve-open: %d shards, %d connections, %d live sessions, "
              "latency limit %.0f us\n",
              kShards, kLanes, kLiveSessions, kLatencyLimitUs);
  Population population(options.seed, kLiveSessions);
  const StepResult fill = RunFill(stack.get(), &population, config);
  CheckStep("fill", fill, report);
  LoopConfig ladder_config = config;
  ladder_config.stop_on_overload = true;
  Rounds low, mid;
  std::vector<CapacityResult> searches;
  const int rounds_per_search = kUntracedRounds / kCapacitySearches;
  for (int s = 0; s < kCapacitySearches; ++s) {
    for (int r = 0; r < rounds_per_search; ++r) {
      RunRound(options, stack.get(), &population, "low", kLowRps, config,
               &low, report);
      RunRound(options, stack.get(), &population, "mid", kMidRps, config,
               &mid, report);
    }
    searches.push_back(SearchCapacity(&population, stack->lanes(),
                                      ladder_config, kLadderStartRps));
    const CapacityResult& search = searches.back();
    report->CountAttempts(search.attempted, search.failed);
    for (const StepResult& step : search.tries) {
      if (step.outside_box > 0) {
        report->Fail("ladder: " + std::to_string(step.outside_box) +
                     " action values outside the F_exec box");
      }
    }
    std::printf("# capacity search %d: %.0f req/s (%.1f served)%s\n", s + 1,
                search.capacity_rps, search.served_rps,
                search.saturated ? "" : " (the ladder top passed)");
  }
  // Everything sent, in the order it was sent, for the replay.
  std::vector<const StepResult*> rounds = {&fill};
  std::vector<const StepResult*> history = {&fill};
  for (int s = 0; s < kCapacitySearches; ++s) {
    for (int r = s * rounds_per_search; r < (s + 1) * rounds_per_search;
         ++r) {
      for (const StepResult* step : {&low.steps[r], &mid.steps[r]}) {
        rounds.push_back(step);
        history.push_back(step);
      }
    }
    for (const StepResult& step : searches[s].tries) history.push_back(&step);
  }
  std::printf("# clean rounds: low %d of %d, mid %d of %d; %.4f of awaits "
              "found their reply there\n",
              low.clean_rounds(), kUntracedRounds, mid.clean_rounds(),
              kUntracedRounds, ReadyAwaitRatio(rounds));
  StoreFill(*stack->router);
  CheckReplay(history, stack->policy->agent.get(), report);
  CapacityResult capacity;
  for (const CapacityResult& search : searches) {
    capacity.steps += search.steps;
    capacity.served_rps = std::max(capacity.served_rps, search.served_rps);
  }
  std::printf("# capacity: %.1f req/s served (highest of %d searches)\n",
              capacity.served_rps, kCapacitySearches);
  PrintServerStats(*stack->server);

  report->Add("setup_s", Median(setup_s), "s", kSetupRepeats, "setup_s");
  report->Add("setup.cold_s", setup_s.front(), "s", 1,
              "set-up counted from process start");
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1, "peak_rss_mb");
  report->Add("rate_per_s", mid.RequestsPerCpuS(), "1/s", mid.attempted(),
              "serve.mid.requests_per_cpu_s");
  report->Add("serve.capacity_rps", capacity.served_rps, "1/s",
              capacity.steps, "serve.capacity_rps");
  report->Add("p50_ms", low.p50() / 1e3, "ms", low.attempted(),
              "serve.low.p50_us / 1000");
  report->Add("serve.low.p90_us", low.p90(), "us", low.attempted(),
              "serve.low.p90_us");
  report->Add("serve.mid.p90_us", mid.p90(), "us", mid.attempted(),
              "serve.mid.p90_us");
  report->Add("serve.low.p99_us", low.p99(), "us", low.attempted(),
              "serve.low.p99_us");
  report->Add("serve.mid.p50_us", mid.p50(), "us", mid.attempted(),
              "serve.mid.p50_us");
  report->Add("serve.mid.p99_us", mid.p99(), "us", mid.attempted(),
              "serve.mid.p99_us");
  return 0;
}

/// Per-request stage budget of traced fixed-rate steps, built from the
/// client spans and the server spans with the same request id.
struct Budget {
  std::vector<double> overhead_us, service_us;
  double late = 0.0, act = 0.0, total = 0.0;  // summed, us
  int64_t matched = 0, unmatched = 0;
};

/// Adds the client.request and load.late spans of one traced step and
/// parents the step's serve.act spans (indices [first, last)) to them.
void TraceStep(const Schedule& schedule, const StepResult& step,
               SpanLog* spans, size_t first, size_t last, Budget* budget) {
  std::unordered_map<uint64_t, int64_t> client_span;
  for (size_t k = 0; k < step.indices.size(); ++k) {
    const ScheduledRequest& r = schedule.requests[step.indices[k]];
    const uint64_t id = RequestId(r.user, ObsFor(r.user, r.session, r.ordinal));
    const int64_t root =
        spans->Add("client.request", step.due_abs[k], step.done_abs[k], -1, id);
    spans->Add("load.late", step.due_abs[k], step.send_abs[k], root, id);
    client_span[id] = root;
  }
  for (size_t s = first; s < last; ++s) {
    const SpanLog::Span server = spans->spans()[s];
    if (std::strcmp(server.name, "serve.act") != 0) continue;
    auto it = client_span.find(server.request);
    if (it == client_span.end()) {
      ++budget->unmatched;
      continue;
    }
    spans->SetParent(static_cast<int64_t>(s), it->second);
    const SpanLog::Span client = spans->spans()[it->second];
    const SpanLog::Span late = spans->spans()[it->second + 1];
    const double act_us = (server.end - server.start) * 1e6;
    budget->overhead_us.push_back((client.end - late.end) * 1e6 - act_us);
    budget->service_us.push_back(act_us);
    budget->late += (late.end - late.start) * 1e6;
    budget->act += act_us;
    budget->total += (client.end - client.start) * 1e6;
    ++budget->matched;
  }
}

int RunTraced(const Options& options, Report* report) {
  SpanLog spans(true);
  const double offset = SecondsSinceProcessStart();
  const double start = Now();
  std::unique_ptr<Stack> stack =
      SetUpStack(options, &spans, /*with_timing=*/true);
  report->Add("setup.cold_s", offset + Now() - start, "s", 1);
  if (!stack) {
    report->Fail("serving stack set-up failed");
    return 1;
  }
  const LoopConfig config = MakeLoopConfig();
  Population population(options.seed, kLiveSessions);
  const StepResult fill = RunFill(stack.get(), &population, config);
  CheckStep("fill", fill, report);
  // Session counters count from here: the fill's first steps all miss.
  const ShardTotals after_fill = Totals(*stack->router);

  // Each round runs a window untraced, then the next window at the same
  // rate traced: the difference is the tracing overhead.
  Rounds low_plain, mid_plain, low, mid;
  Budget low_budget, mid_budget;
  int64_t traced_requests = 0, traced_batches = 0;
  std::vector<int> inflight;
  for (int r = 0; r < kRounds; ++r) {
    for (const bool is_low : {true, false}) {
      const double rate = is_low ? kLowRps : kMidRps;
      Rounds* plain = is_low ? &low_plain : &mid_plain;
      RunRound(options, stack.get(), &population, is_low ? "low" : "mid",
               rate, config, plain, report);
      const ShardTotals start = Totals(*stack->router);
      stack->timing->set_tracing(true);
      const size_t first = spans.spans().size();
      Rounds* traced = is_low ? &low : &mid;
      RunRound(options, stack.get(), &population,
               is_low ? "low+tr" : "mid+tr", rate, config, traced, report);
      const size_t last = spans.spans().size();
      const std::vector<int> samples = stack->timing->inflight_samples();
      stack->timing->set_tracing(false);
      const ShardTotals end = Totals(*stack->router);
      inflight.insert(inflight.end(), samples.begin(), samples.end());
      traced_requests += end.requests - start.requests;
      traced_batches += end.batches - start.batches;
      TraceStep(traced->schedules.back(), traced->steps.back(), &spans, first,
                last, is_low ? &low_budget : &mid_budget);
    }
  }
  // Everything sent, in the order it was sent, for the replay.
  std::vector<const StepResult*> history = {&fill};
  for (int r = 0; r < kRounds; ++r) {
    for (const Rounds* rounds : {&low_plain, &low, &mid_plain, &mid}) {
      history.push_back(&rounds->steps[r]);
    }
  }
  const core::ContextAgent* agent = stack->policy->agent.get();
  const double store_fill = StoreFill(*stack->router);
  CheckReplay(history, agent, report);
  PrintServerStats(*stack->server);

  const double batch_mean =
      traced_batches > 0
          ? static_cast<double>(traced_requests) / traced_batches
          : 1.0;
  const core::ContextAgent& policy_agent = *agent;
  const double forward_b1 = ForwardUs(*stack->router, policy_agent, 1);
  const double forward_bmean = ForwardUs(
      *stack->router, policy_agent,
      std::max(1, static_cast<int>(std::lround(batch_mean))));

  std::printf("# traced budget (mean us per request; the stages sum to the "
              "client latency from the due time):\n");
  for (const auto& [label, budget] :
       {std::pair<const char*, const Budget*>{"low", &low_budget},
        std::pair<const char*, const Budget*>{"mid", &mid_budget}}) {
    const double n = std::max<int64_t>(1, budget->matched);
    const double transport = budget->total - budget->late - budget->act;
    std::printf("#   %s: client.request %.1f = load.late %.1f + transport "
                "%.1f + serve.act %.1f (infer forward ~%.1f, wait %.1f); "
                "%lld server spans unmatched\n",
                label, budget->total / n, budget->late / n, transport / n,
                budget->act / n, forward_bmean, budget->act / n - forward_bmean,
                static_cast<long long>(budget->unmatched));
  }

  std::vector<double> overhead = low_budget.overhead_us;
  overhead.insert(overhead.end(), mid_budget.overhead_us.begin(),
                  mid_budget.overhead_us.end());
  std::vector<double> service = low_budget.service_us;
  service.insert(service.end(), mid_budget.service_us.begin(),
                 mid_budget.service_us.end());
  std::vector<double> late = low.late_us();
  const std::vector<double> mid_late = mid.late_us();
  late.insert(late.end(), mid_late.begin(), mid_late.end());
  const std::vector<double> inflight_d(inflight.begin(), inflight.end());
  const int64_t n = static_cast<int64_t>(service.size());
  ShardTotals totals = Totals(*stack->router);
  totals.hits -= after_fill.hits;
  totals.misses -= after_fill.misses;
  totals.evictions -= after_fill.evictions;
  report->Add("transport.overhead_us.p50", Median(overhead), "us", n);
  report->Add("transport.overhead_us.p99", Quantile(overhead, 0.99), "us", n);
  report->Add("serve.service_us.p50", Median(service), "us", n);
  report->Add("serve.service_us.p99", Quantile(service, 0.99), "us", n);
  report->Add("infer.forward_us.b1", forward_b1, "us", kForwardRepeats);
  report->Add("infer.forward_us.bmean", forward_bmean, "us", kForwardRepeats);
  report->Add("serve.wait_us.p50", Median(service) - forward_bmean, "us", n);
  report->Add("serve.inflight.mean", Mean(inflight_d), "requests",
              static_cast<int64_t>(inflight_d.size()));
  report->Add("serve.inflight.max",
              inflight_d.empty() ? 0.0
                                 : *std::max_element(inflight_d.begin(),
                                                     inflight_d.end()),
              "requests", static_cast<int64_t>(inflight_d.size()));
  report->Add("serve.batch_rows.mean", batch_mean, "rows", traced_batches);
  report->Add("serve.session_hit_ratio",
              static_cast<double>(totals.hits) /
                  std::max<int64_t>(1, totals.hits + totals.misses),
              "ratio", totals.hits + totals.misses);
  report->Add("serve.session_evictions", static_cast<double>(totals.evictions),
              "count", 1);
  report->Add("serve.session_store_fill", store_fill, "ratio", kShards);
  report->Add("load.await_ready_ratio", ReadyAwaitRatio(history), "ratio",
              static_cast<int64_t>(history.size()));
  report->Add("load.late_us.p99", Quantile(late, 0.99), "us",
              static_cast<int64_t>(late.size()));
  report->Add("load.late_us.max",
              late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
              "us", static_cast<int64_t>(late.size()));
  report->Add("serve.low.p90_us", low_plain.p90(), "us",
              low_plain.attempted());
  report->Add("serve.low.p99_us", low_plain.p99(), "us",
              low_plain.attempted());
  report->Add("serve.mid.p50_us", mid_plain.p50(), "us",
              mid_plain.attempted());
  report->Add("serve.mid.p90_us", mid_plain.p90(), "us",
              mid_plain.attempted());
  report->Add("serve.mid.p99_us", mid_plain.p99(), "us",
              mid_plain.attempted());
  report->Add("trace.overhead_pct",
              100.0 * (low.p50() - low_plain.p50()) / low_plain.p50(), "%",
              low.attempted());
  const double total = low_budget.total + mid_budget.total;
  const double unmatched_share =
      static_cast<double>(low_budget.unmatched + mid_budget.unmatched) /
      std::max<int64_t>(1, n + low_budget.unmatched + mid_budget.unmatched);
  // Every matched request's stages add up exactly; what the budget
  // cannot attribute is the share of server spans without a client span.
  report->Add("trace.unattributed_pct", total > 0.0 ? 100.0 * unmatched_share
                                                    : 0.0,
              "%", n);

  std::filesystem::create_directories(options.work_dir);
  const std::string path = options.work_dir + "/serve-open.spans.jsonl";
  if (!spans.Write(path)) report->Fail("could not write " + path);
  std::printf("# spans: %zu written to %s\n", spans.spans().size(),
              path.c_str());
  AddIdleLayers(report);
  return 0;
}

}  // namespace

int RunServeOpen(const Options& options, Report* report) {
  return options.trace ? RunTraced(options, report)
                       : RunUntraced(options, report);
}

}  // namespace perfbench
