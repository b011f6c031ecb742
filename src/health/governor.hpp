// The overload governor: fuses the process's independent pressure signals
// — EBR backlog / epoch lag / stall watchdog, pool fallback debt,
// cross-thread contention heat, obs restart counters — into one
// process-wide health state, with hysteresis so a flapping signal cannot
// make the state oscillate.
//
// One policy acts on the state: at Degraded or worse a governor sample
// flushes the sampling caller's EBR domain (sample() below). Pressured is
// early-warning telemetry only. set_policies_enabled(false) turns the
// flush off at runtime while the state machine keeps running, which is
// the storm campaign's ungoverned arm.
//
// Sampling model: there is no governor thread. Writers tick the governor
// on a stride (maybe_sample_tick, every kSampleStride-th write per
// thread), the tick is clock-gated (timed_sample, at most one sample per
// min_interval), and concurrent ticks resolve by try-lock — whoever loses
// simply skips, since a sample is a whole-process observation any thread
// can take. Tests drive ticks explicitly through sample()/apply() with
// the interval gate bypassed.
//
// State machine (DESIGN.md §14): each sample computes a severity per
// signal against the *entry* thresholds and escalates immediately to the
// maximum. De-escalation is one level per `recover_ticks` consecutive calm
// samples, where calm means every signal is below the *exit* thresholds
// (entry/2) — a signal flapping between entry and entry/2 therefore holds
// the state rather than oscillating it. From Critical, recovery to Healthy
// takes 3 * recover_ticks calm samples; recovery_bound() adds slack for
// the drain itself and is the bound the storm campaign asserts.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

// Keep reclaim/ebr.hpp ahead of obs/counters.hpp: this order fixes the
// order in which their inline functions are emitted into every binary.
#include "reclaim/ebr.hpp"
#include "obs/counters.hpp"

namespace lot::health {

/// Process health, ordered by severity. The governor escalates directly to
/// whatever severity the signals demand but de-escalates one level at a
/// time (hysteresis; see the header comment).
enum class State : std::uint8_t {
  kHealthy = 0,   // all signals below entry thresholds
  kPressured,     // early pressure: telemetry only
  kDegraded,      // sustained pressure: samples flush the caller's domain
  kCritical,      // survival mode: as Degraded
};

constexpr const char* state_name(State s) {
  switch (s) {
    case State::kHealthy:   return "healthy";
    case State::kPressured: return "pressured";
    case State::kDegraded:  return "degraded";
    case State::kCritical:  return "critical";
  }
  return "?";
}

namespace detail {

/// The published state plus the governor-maintained odometers that obs
/// snapshots. Function-local static: immortal, no destruction-order
/// hazards, reachable for LeakSanitizer.
struct StateCell {
  std::atomic<std::uint8_t> state{0};           // State, relaxed-published
  std::atomic<std::uint64_t> transitions{0};    // monotonic transition count
  std::atomic<std::uint64_t> ticks{0};          // governor samples taken
  std::atomic<std::uint64_t> contention_events{0};  // heat events, all threads
  std::atomic<bool> policies{true};             // master switch (flush on/off)
};

inline StateCell& state_cell() {
  static StateCell cell;
  return cell;
}

}  // namespace detail

inline State current_state() {
  return static_cast<State>(
      detail::state_cell().state.load(std::memory_order_relaxed));
}

/// Governor-only: publish a new state. Not for general use.
inline void publish_state(State s) {
  detail::state_cell().state.store(static_cast<std::uint8_t>(s),
                                   std::memory_order_relaxed);
}

inline std::uint64_t transition_count() {
  return detail::state_cell().transitions.load(std::memory_order_relaxed);
}

inline std::uint64_t tick_count() {
  return detail::state_cell().ticks.load(std::memory_order_relaxed);
}

/// Cross-thread contention odometer: the process-wide companion of the
/// per-domain odometers (ROADMAP item 2(c)). Fed by lo/rebalance.hpp
/// note_contention(); the governor differentiates it per tick.
inline void note_contention() {
  auto& c = detail::state_cell().contention_events;
  c.fetch_add(1, std::memory_order_relaxed);
}

inline std::uint64_t contention_events() {
  return detail::state_cell().contention_events.load(
      std::memory_order_relaxed);
}

/// Master policy switch: when off, the state machine still runs (signals
/// are still fused and published — obs keeps reporting) but sample() no
/// longer flushes at Degraded. This is the storm campaign's negative
/// control, as a runtime knob so both arms come from one binary.
inline void set_policies_enabled(bool on) {
  detail::state_cell().policies.store(on, std::memory_order_relaxed);
}

inline bool policies_enabled() {
  return detail::state_cell().policies.load(std::memory_order_relaxed);
}

/// What obs embeds in a Snapshot.
struct View {
  State state = State::kHealthy;
  std::uint64_t transitions = 0;
  std::uint64_t ticks = 0;
  std::uint64_t contention_events = 0;
};

/// Entry thresholds per target state (index 0 → Pressured, 1 → Degraded,
/// 2 → Critical); exit thresholds are entry/2. A value of UINT64_MAX
/// disables that signal/level (the storm campaign's negative control sets
/// everything unreachable to model the ungoverned build).
///
/// The backlog defaults sit well above a healthy churning domain's
/// steady state (~5-11k pending at 4-thread full-tilt churn with the
/// default EBR knobs — measured in EXPERIMENTS.md A10). A governor whose
/// Pressured line is inside normal operating range rides the threshold
/// and taxes fault-free throughput with backoff it was never meant to
/// apply; genuine reclamation distress (a pinned epoch under churn)
/// accumulates tens of thousands of retires per hundred milliseconds and
/// crosses these lines almost immediately. Campaigns with small working
/// sets (the storm stress) override these to match their own scale.
struct Thresholds {
  std::uint64_t backlog[3] = {32768, 131072, 524288};  // pending retired nodes
  std::uint64_t fallback[3] = {1, 8, 64};           // outstanding new-fallbacks
  std::uint64_t heat[3] = {256, 1024, 4096};        // contention events / tick
  std::uint32_t lag_floor = 2;     // epoch_lag at/above this counts as lagging
  std::uint32_t lag_ticks = 4;     // consecutive lagging ticks → Pressured
  std::uint32_t recover_ticks = 2; // calm ticks per de-escalation level
};

/// One sample's fused inputs. sample_signals() fills this from a live
/// domain; tests hand apply() synthetic ones.
struct Signals {
  std::uint64_t backlog = 0;              // EbrDomain pending_retired
  std::uint32_t epoch_lag = 0;            // epoch - min pinned epoch
  bool stalled_now = false;               // stall watchdog currently firing
  std::uint64_t fallback_outstanding = 0; // pool operator-new debt
  std::uint64_t heat_delta = 0;           // contention events since last tick
  std::uint64_t restart_delta = 0;        // obs restart counters since last tick
};

struct Transition {
  std::uint64_t tick = 0;
  State from = State::kHealthy;
  State to = State::kHealthy;
  const char* cause = "";  // dominant signal, or "recovery"
};

class Governor {
 public:
  /// Replace the thresholds (quiescent callers only; campaign setup).
  void set_thresholds(const Thresholds& t);
  Thresholds thresholds() const;

  State state() const { return current_state(); }

  /// Collect live signals, folded across EVERY registered EbrDomain —
  /// backlog sums, epoch lag and the stall flag take the worst domain —
  /// so shard-private domains (shard/sharded_map.hpp) are observed no
  /// matter which domain's writer ticks the governor. Also advances the
  /// heat/restart differencing baselines. Public so tests can inspect
  /// what a sample would see without applying it; `domain` is the
  /// caller's home domain and only directs the flush in sample().
  Signals sample_signals(reclaim::EbrDomain& domain);

  /// Feed one sample through the state machine. Returns the new state.
  /// Synthetic-signal entry point for the unit tests; skips the flush
  /// (no domain at hand).
  State apply(const Signals& s);

  /// One full governor tick: collect (all domains), apply, and — at
  /// Degraded or worse with policies enabled — flush the CALLER's domain
  /// only. Each pressured domain's own writers flush it on their ticks;
  /// flushing every registered domain here would make the sampling thread
  /// acquire an EBR record in each. Concurrent callers skip (try-lock);
  /// returns the state either way.
  State sample(reclaim::EbrDomain& domain);

  /// Clock-gated sample: at most one per min_interval_us. The writers'
  /// stride tick lands here.
  State timed_sample(reclaim::EbrDomain& domain);

  void set_min_interval_us(std::uint64_t us) {
    min_interval_us_.store(us, std::memory_order_relaxed);
  }

  /// Documented recovery bound, in governor ticks: after the storm
  /// releases and signals go calm, the state machine needs at most
  /// 3 * recover_ticks calm samples from Critical, plus slack (4 ticks)
  /// for the flush to get the signals below the exit thresholds.
  std::uint32_t recovery_bound() const {
    return 4 + 3 * thresholds().recover_ticks;
  }

  std::uint64_t transitions() const { return transition_count(); }
  std::uint64_t ticks() const { return tick_count(); }

  /// Copy of the transition log, oldest first (bounded ring of the most
  /// recent kLogCapacity transitions).
  std::vector<Transition> transition_log() const;

  /// Test isolation: back to Healthy, zeroed log/ticks/odometers, default
  /// thresholds, policies on. Quiescent callers only.
  void reset();

  static constexpr std::size_t kLogCapacity = 64;

 private:
  Signals sample_signals_locked(reclaim::EbrDomain& domain);
  State apply_locked(const Signals& s);
  void record_transition(State from, State to, const char* cause);

  mutable std::mutex mu_;  // serializes sample/apply/log/reset
  Thresholds thresholds_{};
  std::uint32_t calm_run_ = 0;  // consecutive calm samples at current state
  std::uint32_t lag_run_ = 0;   // consecutive lagging samples
  std::uint64_t last_heat_ = 0;     // differencing baselines
  std::uint64_t last_restarts_ = 0;
  Transition log_[kLogCapacity] = {};
  std::uint64_t log_count_ = 0;
  std::atomic<std::uint64_t> min_interval_us_{1000};
  std::atomic<std::uint64_t> next_sample_us_{0};  // steady-clock deadline
};

/// The process-wide governor (the state it publishes is process-wide, so
/// there is exactly one). Multi-domain processes tick it from whichever
/// domain their writers live in; the observation itself folds over the
/// whole domain registry — pressure anywhere is pressure everywhere.
Governor& governor();

/// Per-thread write-op stride between governor ticks. Coarse on purpose:
/// the tick itself is clock-gated, the stride only bounds how much TLS
/// arithmetic the fault-free hot path pays. Writers tick *before* taking
/// their EBR guard, so a tick's flush is never held back by the ticking
/// thread's own pin.
inline constexpr std::uint32_t kSampleStride = 2048;

inline void maybe_sample_tick(reclaim::EbrDomain& domain) {
  thread_local std::uint32_t countdown = 1;
  if (--countdown == 0) {
    countdown = kSampleStride;
    governor().timed_sample(domain);
  }
}

inline View view() {
  return View{current_state(), transition_count(), tick_count(),
              contention_events()};
}

}  // namespace lot::health
