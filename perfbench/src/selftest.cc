// Self-tests of the benchmark harness itself (perfbench --self-test):
//  * the session and arrival schedule is a pure function of the seed,
//    and its user ids follow the load model's Zipf distribution;
//  * the timing decorators forward every call unchanged;
//  * the training set-ups train as the experiment functions they copy;
//  * the capacity search finds the known capacity of a fake service
//    with a fixed service time.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <thread>

#include "bench.h"
#include "load/zipf.h"
#include "nn/tensor.h"
#include "serve.h"
#include "transport/policy_server.h"

namespace perfbench {
namespace {

namespace nn = sim2rec::nn;
namespace serve = sim2rec::serve;
namespace transport = sim2rec::transport;

std::vector<Schedule> DrivePopulation(uint64_t seed) {
  Population population(seed, 2000);
  std::vector<Schedule> windows;
  windows.push_back(population.Fill());
  windows.push_back(population.NextWindow(3000.0, 4.0));
  windows.push_back(population.NextWindow(1000.0, 2.0));
  return windows;
}

bool SchedulesArePure() {
  // One seed driven by the same calls schedules the same requests.
  const std::vector<Schedule> a = DrivePopulation(11);
  const std::vector<Schedule> b = DrivePopulation(11);
  const std::vector<Schedule> other = DrivePopulation(12);
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].requests.empty()) return false;
    if (ScheduleChecksum(a[k]) != ScheduleChecksum(b[k])) return false;
    if (ScheduleChecksum(a[k]) == ScheduleChecksum(other[k])) return false;
  }
  // The fill sends every live session's first step.
  if (a[0].requests.size() != 2000) return false;
  for (const ScheduledRequest& r : a[0].requests) {
    if (r.ordinal != 0 || r.last) return false;
  }
  // The request count follows the rate (Poisson; 12000 expected).
  const double count = static_cast<double>(a[1].requests.size());
  if (std::abs(count - 12000.0) > 0.05 * 12000.0) return false;
  // A user's requests are linked in due order, and one user has one
  // live session: the next request continues the session or, after its
  // last step, opens a new session at step 0.
  for (const Schedule& window : a) {
    const auto& requests = window.requests;
    for (size_t i = 0; i < requests.size(); ++i) {
      const ScheduledRequest& r = requests[i];
      if (r.next < 0) continue;
      const ScheduledRequest& next = requests[r.next];
      if (next.prev != static_cast<int>(i) || next.due < r.due ||
          next.user != r.user) {
        return false;
      }
      if (r.last ? next.ordinal != 0 || next.session == r.session
                 : next.ordinal != r.ordinal + 1 || next.session != r.session) {
        return false;
      }
    }
  }
  // Observations are a pure function of (user, session, step).
  const ScheduledRequest& r = a[1].requests[0];
  const nn::Tensor x = ObsFor(r.user, r.session, 3);
  const nn::Tensor y = ObsFor(r.user, r.session, 3);
  return std::memcmp(x.data(), y.data(), sizeof(double) * x.cols()) == 0;
}

/// The benchmark's Zipf ranks follow the distribution of the library's
/// load::ZipfSampler (same closed form, another generator).
bool ZipfRanksMatchLoadModel() {
  constexpr int kDraws = 200000;
  sim2rec::load::ZipfSampler library(kUserSpace, kZipfS);
  sim2rec::Rng library_rng(1);
  SplitMix rng(1);
  int hottest[2] = {0, 0}, top[2] = {0, 0};
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t ranks[2] = {ZipfRank(rng), library.Sample(library_rng)};
    for (int k = 0; k < 2; ++k) {
      hottest[k] += ranks[k] == 0 ? 1 : 0;
      top[k] += ranks[k] < 1000 ? 1 : 0;
    }
  }
  std::printf("# zipf: rank 0 share %.4f (library %.4f), top-1000 share "
              "%.4f (library %.4f)\n",
              static_cast<double>(hottest[0]) / kDraws,
              static_cast<double>(hottest[1]) / kDraws,
              static_cast<double>(top[0]) / kDraws,
              static_cast<double>(top[1]) / kDraws);
  return std::abs(hottest[0] - hottest[1]) < 0.01 * kDraws &&
         std::abs(top[0] - top[1]) < 0.01 * kDraws && hottest[0] > 0;
}

/// A fake whose every Act takes a fixed service time (a sleep) and which
/// the server runs on exactly kServers dispatch threads, so its capacity
/// is kServers / service time.
class FixedTimeService : public serve::PolicyService {
 public:
  explicit FixedTimeService(double service_s) : service_s_(service_s) {}
  serve::ServeReply Act(uint64_t, const nn::Tensor&) override {
    std::this_thread::sleep_for(std::chrono::duration<double>(service_s_));
    serve::ServeReply reply;
    reply.action = nn::Tensor(1, 2, 0.5);
    reply.batch_size = 1;
    return reply;
  }
  void EndSession(uint64_t) override {}

 private:
  const double service_s_;
};

bool CapacitySearchFindsKnownAnswer() {
  constexpr int kServers = 4;
  constexpr double kServiceS = 2e-3;  // capacity 2000 req/s
  FixedTimeService service(kServiceS);
  transport::PolicyServerConfig server_config;
  server_config.dispatch_threads = kServers;
  transport::PolicyServer server(&service, server_config);
  if (!server.Start()) return false;
  transport::PolicyClientConfig config;
  config.port = server.port();
  transport::PolicyClient lane_a(config), lane_b(config);
  Population population(5, 512);
  const CapacityResult result = SearchCapacity(
      &population, {&lane_a, &lane_b}, LoopConfig{}, /*start_rps=*/500.0);
  server.Shutdown();
  const double capacity = kServers / kServiceS;
  std::printf("# fake service capacity %.0f req/s, search found %.0f req/s\n",
              capacity, result.capacity_rps);
  // Below saturation four servers keep p99 near the service time, so the
  // search must land below the true capacity but not far below it.
  return result.saturated && result.capacity_rps <= capacity &&
         result.capacity_rps >= 0.5 * capacity;
}

bool SameReply(const serve::ServeReply& a, const serve::ServeReply& b) {
  return a.action.cols() == b.action.cols() &&
         std::memcmp(a.action.data(), b.action.data(),
                     sizeof(double) * a.action.cols()) == 0 &&
         std::memcmp(&a.value, &b.value, sizeof(double)) == 0 &&
         a.exec_clamped == b.exec_clamped;
}

bool TimingServiceForwardsUnchanged(const std::string& work_dir) {
  const std::string dir = work_dir + "/selftest-checkpoint";
  std::filesystem::create_directories(dir);
  std::unique_ptr<serve::LoadedPolicy> policy = BuildServePolicy(dir);
  std::filesystem::remove_all(dir);
  if (!policy) return false;
  // Two identical routers over one agent: one called directly, one
  // through the decorator with tracing on, then off.
  serve::ServeRouter direct(policy->agent.get(), BenchRouterConfig(), 2);
  serve::ServeRouter inner(policy->agent.get(), BenchRouterConfig(), 2);
  SpanLog spans(true);
  TimingService timing(&inner, &spans);
  for (const bool tracing : {true, false}) {
    timing.set_tracing(tracing);
    for (uint64_t user = 1; user <= 8; ++user) {
      for (int step = 0; step < 6; ++step) {
        const nn::Tensor obs = ObsFor(user, user, step);
        if (!SameReply(direct.Act(user, obs), timing.Act(user, obs))) {
          return false;
        }
      }
      direct.EndSession(user);
      timing.EndSession(user);
    }
  }
  // 8 users x 6 steps traced; nothing recorded once tracing is off.
  return spans.spans().size() == 48;
}

}  // namespace

int RunSelfTest(const Options& options) {
  struct Case {
    const char* name;
    std::function<bool()> run;
  };
  const Case cases[] = {
      {"schedule is a pure function of the seed", SchedulesArePure},
      {"Zipf user ranks match load::ZipfSampler", ZipfRanksMatchLoadModel},
      {"training decorators forward every call unchanged",
       TrainingDecoratorsForwardUnchanged},
      {"train-lts set-up trains as experiments::RunLtsVariant",
       LtsSetUpMatchesExperiment},
      {"train-dpr set-up trains as experiments::TrainDprPolicy",
       DprSetUpMatchesExperiment},
      {"timing service forwards every call unchanged",
       [&] { return TimingServiceForwardsUnchanged(options.work_dir); }},
      {"capacity search finds a fake service's known capacity",
       CapacitySearchFindsKnownAnswer},
  };
  int failures = 0;
  for (const Case& c : cases) {
    const bool ok = c.run();
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", c.name);
    if (!ok) ++failures;
  }
  std::printf("%d of %zu self-tests failed\n", failures, std::size(cases));
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
