#include "health/governor.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

namespace lot::health {

namespace {

std::uint64_t steady_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Severity (0..3) of one value against a threshold triple. `div` selects
/// the side: 1 = entry thresholds, 2 = exit (entry/2, clamped to >= 1 so a
/// signal whose entry threshold is already 1 can still read calm at 0).
unsigned severity_against(std::uint64_t v, const std::uint64_t (&th)[3],
                          unsigned div) {
  for (unsigned lvl = 3; lvl >= 1; --lvl) {
    const std::uint64_t t = th[lvl - 1];
    if (t == std::numeric_limits<std::uint64_t>::max()) continue;  // disabled
    if (v >= std::max<std::uint64_t>(1, t / div)) return lvl;
  }
  return 0;
}

struct Severity {
  unsigned level = 0;
  const char* cause = "calm";
};

/// Fused severity of a sample: the max across signals, with the dominant
/// signal named. Signal order breaks ties (a stall outranks the backlog it
/// causes in the log's "cause" column).
Severity fuse(const Signals& s, const Thresholds& th, bool exit_side,
              std::uint32_t lag_run) {
  const unsigned div = exit_side ? 2 : 1;
  Severity out;
  if (s.stalled_now) out = {2, "stall-watchdog"};
  if (unsigned v = severity_against(s.backlog, th.backlog, div);
      v > out.level) {
    out = {v, "ebr-backlog"};
  }
  if (unsigned v = severity_against(s.fallback_outstanding, th.fallback, div);
      v > out.level) {
    out = {v, "pool-fallback"};
  }
  if (unsigned v = severity_against(std::max(s.heat_delta, s.restart_delta),
                                    th.heat, div);
      v > out.level) {
    out = {v, "contention-heat"};
  }
  // Epoch lag is a *persistence* signal, not a magnitude one: try_advance
  // fails outright on any straggler, so the lag never grows past ~2 — what
  // distinguishes a stuck reader from normal jitter is the lag refusing to
  // clear across consecutive ticks.
  if (lag_run >= th.lag_ticks && out.level < 1) out = {1, "epoch-lag"};
  return out;
}

}  // namespace

void Governor::set_thresholds(const Thresholds& t) {
  std::lock_guard<std::mutex> lk(mu_);
  thresholds_ = t;
}

Thresholds Governor::thresholds() const {
  std::lock_guard<std::mutex> lk(mu_);
  return thresholds_;
}

Signals Governor::sample_signals(reclaim::EbrDomain& domain) {
  std::lock_guard<std::mutex> lk(mu_);
  return sample_signals_locked(domain);
}

Signals Governor::sample_signals_locked(reclaim::EbrDomain& domain) {
  // Pressure anywhere is pressure everywhere: the published state is
  // process-wide, so the reclamation signals fold over EVERY live domain
  // (the registry enumeration), not just the caller's — a sharded map's
  // stalled shard must degrade the process even when the sampling writer
  // lives on a different shard. Backlog sums (total unreclaimed garbage),
  // lag and stall take the worst domain (one wedged reader is the
  // failure), and the pool fallback count is already process-global.
  Signals s;
  (void)domain;  // the caller's domain matters to sample()'s flush, not
                 // to the observation
  reclaim::EbrDomain::for_each_domain([&s](reclaim::EbrDomain& d) {
    const auto st = d.stats();
    s.backlog += st.pending_retired;
    s.epoch_lag =
        std::max(s.epoch_lag, static_cast<std::uint32_t>(st.epoch_lag));
    s.stalled_now = s.stalled_now || st.stalled_now;
  });
  s.fallback_outstanding =
      reclaim::PoolStats::snapshot().fallback_outstanding();
  const std::uint64_t heat = contention_events();
  s.heat_delta = heat - last_heat_;
  last_heat_ = heat;
  const std::uint64_t restarts =
      obs::counter_total(obs::Counter::kValidationFallbacks) +
      obs::counter_total(obs::Counter::kBalanceRestarts) +
      obs::counter_total(obs::Counter::kRemovalLockRetries);
  s.restart_delta = restarts - last_restarts_;
  last_restarts_ = restarts;
  return s;
}

void Governor::record_transition(State from, State to, const char* cause) {
  log_[log_count_ % kLogCapacity] =
      Transition{tick_count(), from, to, cause};
  ++log_count_;
  detail::state_cell().transitions.fetch_add(1, std::memory_order_relaxed);
}

State Governor::apply_locked(const Signals& s) {
  detail::state_cell().ticks.fetch_add(1, std::memory_order_relaxed);
  lag_run_ = s.epoch_lag >= thresholds_.lag_floor ? lag_run_ + 1 : 0;

  const State cur = current_state();
  const auto cur_lvl = static_cast<unsigned>(cur);

  // Escalation is immediate and jumps straight to the demanded severity:
  // overload is when the process can least afford a slow reaction.
  const Severity entry = fuse(s, thresholds_, /*exit_side=*/false, lag_run_);
  if (entry.level > cur_lvl) {
    const auto next = static_cast<State>(entry.level);
    record_transition(cur, next, entry.cause);
    publish_state(next);
    calm_run_ = 0;
    return next;
  }

  // De-escalation needs recover_ticks consecutive samples calm against the
  // exit thresholds, then steps ONE level — a signal flapping between
  // entry and entry/2 holds the state, it cannot oscillate it.
  const Severity exit = fuse(s, thresholds_, /*exit_side=*/true, lag_run_);
  if (cur_lvl > 0 && exit.level < cur_lvl) {
    if (++calm_run_ >= thresholds_.recover_ticks) {
      const auto next = static_cast<State>(cur_lvl - 1);
      record_transition(cur, next, "recovery");
      publish_state(next);
      calm_run_ = 0;
      return next;
    }
  } else {
    calm_run_ = 0;
  }
  return cur;
}

State Governor::apply(const Signals& s) {
  std::lock_guard<std::mutex> lk(mu_);
  return apply_locked(s);
}

State Governor::sample(reclaim::EbrDomain& domain) {
  std::unique_lock<std::mutex> lk(mu_, std::try_to_lock);
  // A sample is a whole-process observation any thread can take; a caller
  // racing an in-flight sample learns nothing new by waiting for its own.
  if (!lk.owns_lock()) return current_state();
  const Signals s = sample_signals_locked(domain);
  const State next = apply_locked(s);
  lk.unlock();
  // Flush outside the lock: flush() walks every record and may free a
  // large backlog; other ticks can keep skipping past meanwhile.
  if (next >= State::kDegraded && policies_enabled()) domain.flush();
  return next;
}

State Governor::timed_sample(reclaim::EbrDomain& domain) {
  const std::uint64_t now = steady_us();
  std::uint64_t next = next_sample_us_.load(std::memory_order_relaxed);
  if (now < next) return current_state();
  if (!next_sample_us_.compare_exchange_strong(
          next, now + min_interval_us_.load(std::memory_order_relaxed),
          std::memory_order_relaxed)) {
    return current_state();  // another thread claimed this interval
  }
  return sample(domain);
}

std::vector<Transition> Governor::transition_log() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<Transition> out;
  const std::uint64_t n = std::min<std::uint64_t>(log_count_, kLogCapacity);
  out.reserve(static_cast<std::size_t>(n));
  const std::uint64_t start = log_count_ - n;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(log_[(start + i) % kLogCapacity]);
  }
  return out;
}

void Governor::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  thresholds_ = Thresholds{};
  calm_run_ = 0;
  lag_run_ = 0;
  log_count_ = 0;
  auto& cell = detail::state_cell();
  cell.state.store(0, std::memory_order_relaxed);
  cell.transitions.store(0, std::memory_order_relaxed);
  cell.ticks.store(0, std::memory_order_relaxed);
  cell.contention_events.store(0, std::memory_order_relaxed);
  cell.policies.store(true, std::memory_order_relaxed);
  last_heat_ = 0;
  // obs counters are process-monotonic and not ours to reset; re-baseline
  // so the first post-reset delta is clean.
  last_restarts_ = obs::counter_total(obs::Counter::kValidationFallbacks) +
                   obs::counter_total(obs::Counter::kBalanceRestarts) +
                   obs::counter_total(obs::Counter::kRemovalLockRetries);
  next_sample_us_.store(0, std::memory_order_relaxed);
}

Governor& governor() {
  static Governor g;
  return g;
}

}  // namespace lot::health
