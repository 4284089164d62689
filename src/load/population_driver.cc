#include "load/population_driver.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "load/flaky_service.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace sim2rec {
namespace load {
namespace {

/// Substream domain for per-tick spawn draws (user ids). Session
/// ordinals live in the low half of the id space, so the two domains
/// never collide.
constexpr uint64_t kSpawnDomain = uint64_t{1} << 63;

/// splitmix64 finalizer — the mixing step behind Rng seeding, reused
/// here for the order-independent request digest.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashDoubles(const double* values, size_t count, uint64_t h) {
  for (size_t i = 0; i < count; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof(bits));
    h = Mix64(h ^ bits);
  }
  return h;
}

}  // namespace

bool PopulationReport::Consistent() const {
  return sessions_started == sessions_finished + sessions_aborted +
                                 sessions_active_at_end &&
         sessions_finished ==
             sessions_ended_gracefully + sessions_abandoned;
}

PopulationDriver::PopulationDriver(serve::PolicyService* service,
                                   const PopulationDriverConfig& config)
    : service_(service),
      config_(config),
      arrivals_(config.arrival, config.seed ^ 0x4152525649564cULL),
      zipf_(config.user_space, config.zipf_s) {
  S2R_CHECK(service != nullptr);
  S2R_CHECK(config.ticks >= 1);
  S2R_CHECK(config.drain_ticks >= 0);
  S2R_CHECK(config.obs_dim >= 1);
  S2R_CHECK(config.action_dim >= 1);
  S2R_CHECK(config.min_steps >= 1);
  S2R_CHECK(config.max_steps >= config.min_steps);
  S2R_CHECK(config.max_think_ticks >= 0);
  S2R_CHECK(config.abandon_prob >= 0.0 && config.abandon_prob <= 1.0);
  S2R_CHECK(config.max_retries_per_step >= 0);
  S2R_CHECK(config.num_threads >= 1);
  S2R_CHECK(config.user_space >= 1);
  pool_ = std::make_unique<core::ThreadPool>(config.num_threads);
}

void PopulationDriver::SpawnArrivals(int tick, Rng& spawn_stream) {
  const int count = arrivals_.CountAt(tick);
  for (int i = 0; i < count; ++i) {
    if ((config_.max_active != 0 &&
         active_users_.size() >= config_.max_active) ||
        active_users_.size() >= config_.user_space) {
      ++report_.sessions_rejected;
      continue;
    }
    uint64_t user_id = zipf_.Sample(spawn_stream);
    // One live session per user (session affinity): on collision,
    // rehash to a fresh id rather than walking linearly. Zipf packs
    // the hot low-rank ids solid, so a +1 probe would traverse the
    // entire occupied prefix once the population is large (quadratic
    // at ~1M active); rehashing jumps uniformly, so expected probes
    // stay at 1/(1 - active/user_space). The (user_id, probe) pair
    // never repeats, so the walk always terminates. Deterministic
    // because the active set only changes at tick boundaries, on this
    // thread.
    for (uint64_t probe = 1; active_users_.count(user_id) != 0; ++probe) {
      user_id = Mix64(user_id + probe) % config_.user_space;
    }

    size_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = slots_.size();
      slots_.emplace_back();
    }
    SessionState& session = slots_[slot];
    session.live = true;
    session.user_id = user_id;
    session.ordinal = next_ordinal_++;
    session.rng = Rng(config_.seed).Substream(session.ordinal);
    session.steps_left =
        config_.min_steps +
        session.rng.UniformInt(config_.max_steps - config_.min_steps + 1);
    session.step_index = 0;
    session.abandon = session.rng.Bernoulli(config_.abandon_prob);
    session.next_due_tick = tick;
    session.retries = 0;
    session.has_pending_obs = false;
    session.last_ok = false;
    session.prev_action.assign(static_cast<size_t>(config_.action_dim),
                               0.0);
    session.pending_obs.assign(static_cast<size_t>(config_.obs_dim), 0.0);
    active_users_.emplace(user_id, slot);
    ++report_.sessions_started;
  }
  report_.peak_active =
      std::max(report_.peak_active,
               static_cast<uint64_t>(active_users_.size()));
}

void PopulationDriver::PrepareObs(SessionState& session) {
  for (int j = 0; j < config_.obs_dim; ++j) {
    session.pending_obs[j] = session.rng.Uniform(-1.0, 1.0);
  }
  if (config_.obs_feedback) {
    for (int j = 0; j < config_.obs_dim; ++j) {
      session.pending_obs[j] +=
          0.1 * std::tanh(session.prev_action[j % config_.action_dim]);
    }
  }
  session.has_pending_obs = true;
}

void PopulationDriver::FinishSession(size_t slot, bool aborted) {
  SessionState& session = slots_[slot];
  if (aborted) {
    ++report_.sessions_aborted;
  } else {
    ++report_.sessions_finished;
    if (session.abandon) {
      ++report_.sessions_abandoned;
    } else {
      ++report_.sessions_ended_gracefully;
    }
  }
  // Graceful and aborted sessions tell the server; abandoned ones walk
  // away and leave their server-side state to TTL expiry.
  if (aborted || !session.abandon) {
    try {
      service_->EndSession(session.user_id);
    } catch (const TransientFault&) {
      ++report_.end_session_failures;
    }
  }
  session.live = false;
  active_users_.erase(session.user_id);
  free_slots_.push_back(slot);
}

void PopulationDriver::AdvanceSession(int tick, size_t slot) {
  SessionState& session = slots_[slot];
  if (session.last_ok) {
    ++report_.requests_ok;
    session.has_pending_obs = false;
    session.retries = 0;
    ++session.step_index;
    --session.steps_left;
    if (session.steps_left == 0) {
      FinishSession(slot, /*aborted=*/false);
    } else {
      session.next_due_tick =
          tick + 1 + session.rng.UniformInt(config_.max_think_ticks + 1);
    }
    return;
  }
  ++report_.requests_failed;
  ++session.retries;
  if (session.retries > config_.max_retries_per_step) {
    FinishSession(slot, /*aborted=*/true);
  } else {
    ++report_.retries;
    session.next_due_tick = tick + 1;  // same observation, next tick
  }
}

PopulationReport PopulationDriver::Run() {
  S2R_CHECK_MSG(!ran_, "PopulationDriver::Run is single-use");
  ran_ = true;
  const int total_ticks = config_.ticks + config_.drain_ticks;
  Stopwatch stopwatch;

  std::vector<size_t> due;
  int tick = 0;
  for (; tick < total_ticks; ++tick) {
    if (tick >= config_.ticks && active_users_.empty()) break;
    if (tick < config_.ticks) {
      Rng spawn_stream = Rng(config_.seed).Substream(
          kSpawnDomain | static_cast<uint64_t>(tick));
      SpawnArrivals(tick, spawn_stream);
    }

    // Collect due sessions in slot order (deterministic) and draw their
    // observations on this thread, so workers touch no Rng at all.
    due.clear();
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      SessionState& session = slots_[slot];
      if (!session.live || session.next_due_tick > tick) continue;
      if (!session.has_pending_obs) PrepareObs(session);
      due.push_back(slot);
    }

    const int num_due = static_cast<int>(due.size());
    if (num_due > 0) {
      pool_->ParallelFor(num_due, [&](int i) {
        SessionState& session = slots_[due[static_cast<size_t>(i)]];
        nn::Tensor obs(1, config_.obs_dim, session.pending_obs);
        request_checksum_.fetch_add(
            HashDoubles(obs.data(), obs.size(),
                        Mix64(session.user_id) ^ Mix64(session.ordinal) ^
                            Mix64(static_cast<uint64_t>(
                                session.step_index))),
            std::memory_order_relaxed);
        // Deterministic nonzero request trace id — (session, step) is
        // unique for the whole run and independent of thread schedule,
        // so a wire/exemplar/span id can be matched back to the exact
        // request that produced it. Retries of a step reuse its id.
        const uint64_t trace_id =
            ((session.ordinal + 1) << 20) |
            (static_cast<uint64_t>(session.step_index) + 1);
        obs::TraceIdScope trace_scope(trace_id);
        try {
          const double start_us = obs::MonotonicMicros();
          const serve::ServeReply reply =
              service_->Act(session.user_id, obs);
          const double elapsed_us = obs::MonotonicMicros() - start_us;
          latency_.Record(elapsed_us);
          tick_latency_.Record(elapsed_us);
          session.last_ok = true;
          if (reply.exec_clamped) {
            exec_clamps_.fetch_add(1, std::memory_order_relaxed);
          }
          reply_checksum_.fetch_add(
              HashDoubles(reply.action.data(), reply.action.size(),
                          Mix64(session.user_id) ^
                              Mix64(static_cast<uint64_t>(
                                  session.step_index))),
              std::memory_order_relaxed);
          if (config_.obs_feedback) {
            for (int c = 0; c < config_.action_dim &&
                            c < reply.action.cols();
                 ++c) {
              session.prev_action[c] = reply.action(0, c);
            }
          }
        } catch (const TransientFault&) {
          session.last_ok = false;
        }
      });
      for (const size_t slot : due) AdvanceSession(tick, slot);
    }

    if (config_.record_timeline) {
      TickSample sample;
      sample.tick = tick;
      sample.rate = arrivals_.RateAt(tick);
      sample.arrivals = tick < config_.ticks ? arrivals_.CountAt(tick) : 0;
      sample.active = active_users_.size();
      sample.issued = static_cast<uint64_t>(num_due);
      uint64_t failed = 0;
      for (const size_t slot : due) {
        if (!slots_[slot].last_ok) ++failed;
      }
      sample.failed = failed;
      if (config_.shard_count_source) {
        sample.shards = config_.shard_count_source();
      }
      if (config_.queue_depth_source) {
        sample.queue_depth = config_.queue_depth_source();
      }
      sample.tick_p50_us = tick_latency_.Quantile(0.50);
      sample.tick_p99_us = tick_latency_.Quantile(0.99);
      report_.timeline.push_back(sample);
    }
    tick_latency_.Reset();
    if (config_.tick_hook) config_.tick_hook(tick);
  }

  report_.ticks_run = tick;
  report_.sessions_active_at_end = active_users_.size();
  report_.elapsed_seconds = stopwatch.ElapsedSeconds();
  const uint64_t issued = report_.requests_ok + report_.requests_failed;
  report_.req_per_sec =
      report_.elapsed_seconds > 0.0
          ? static_cast<double>(issued) / report_.elapsed_seconds
          : 0.0;
  report_.p50_us = latency_.Quantile(0.50);
  report_.p95_us = latency_.Quantile(0.95);
  report_.p99_us = latency_.Quantile(0.99);
  report_.mean_us = latency_.mean();
  report_.max_us = latency_.max_value();
  report_.request_checksum =
      request_checksum_.load(std::memory_order_relaxed);
  report_.reply_checksum = reply_checksum_.load(std::memory_order_relaxed);
  report_.exec_clamps = exec_clamps_.load(std::memory_order_relaxed);
  return report_;
}

}  // namespace load
}  // namespace sim2rec
