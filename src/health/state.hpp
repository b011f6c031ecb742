// Process-wide health state: the cheap, dependency-free half of the
// overload governor (src/health/governor.hpp holds the state machine that
// decides transitions; this header holds the published state and the
// policy predicates the hot layers consult).
//
// Why two headers: the policy consumers — the EBR drain path
// (reclaim/ebr.cpp), the pool's emergency reserve (reclaim/pool.cpp) and
// the rebalance shedding check (lo/rebalance.hpp) — sit *below* the layers
// the governor samples, so they must not include governor.hpp (which pulls
// in reclaim/ebr.hpp). Everything here is a relaxed atomic read on a
// function-local static: one load on the hot path, no allocation, no
// headers beyond <atomic>.
//
// set_policies_enabled(false) turns every policy predicate below into
// "do nothing" at runtime, which restores the ungoverned behaviour.
#pragma once

#include <atomic>
#include <cstdint>

namespace lot::health {

/// Process health, ordered by severity. The governor escalates directly to
/// whatever severity the signals demand but de-escalates one level at a
/// time (hysteresis; see governor.hpp).
enum class State : std::uint8_t {
  kHealthy = 0,   // all signals below entry thresholds
  kPressured,     // early pressure: admission backoff only
  kDegraded,      // sustained pressure: + rotation shedding, drain boost,
                  //   pool emergency reserve unlocked
  kCritical,      // survival mode: maximum backoff, everything above
};

inline constexpr std::uint8_t kStateCount = 4;

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
  std::atomic<bool> policies{true};             // master switch (bench B arm)
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

/// Cross-thread contention odometer: the process-wide companion of the TLS
/// heat score in lo/rebalance.hpp (ROADMAP item 2(c)). Fed by
/// contention_heat_add(); the governor differentiates it per tick.
inline void note_contention() {
  auto& c = detail::state_cell().contention_events;
  c.fetch_add(1, std::memory_order_relaxed);
}

inline std::uint64_t contention_events() {
  return detail::state_cell().contention_events.load(
      std::memory_order_relaxed);
}

/// Master policy switch: when off, the state machine still runs (signals
/// are still fused and published — obs keeps reporting) but every
/// degradation policy below reports "do nothing". This is the governor-off
/// arm of bench/ablation_storm.cpp and the storm campaign's negative
/// control, as a runtime knob so both arms come from one binary.
inline void set_policies_enabled(bool on) {
  detail::state_cell().policies.store(on, std::memory_order_relaxed);
}

inline bool policies_enabled() {
  return detail::state_cell().policies.load(std::memory_order_relaxed);
}

// ---- policy predicates (signals -> states -> policies; DESIGN.md §14) ----

/// Rebalance shedding: at Degraded or worse every thread defers rotations,
/// not just the ones whose TLS heat ran hot — the governor's state is the
/// cross-thread heat signal the TLS throttle cannot see.
inline bool shed_rotations() {
  return current_state() >= State::kDegraded && policies_enabled();
}

/// EBR drain boost: how many positions to right-shift the retire-scan
/// threshold (halving/quartering it), so reclamation scans come earlier
/// while the process is pressured and backlogs collapse faster.
inline unsigned ebr_drain_shift() {
  if (!policies_enabled()) return 0;
  switch (current_state()) {
    case State::kDegraded: return 1;
    case State::kCritical: return 2;
    default: return 0;
  }
}

/// Pool break-glass: at Degraded or worse the pool prefers its pre-armed
/// emergency slab over the operator-new fallback path (the fallback is
/// exactly what tends to fail under the memory pressure that put us here).
inline bool prefer_emergency_reserve() {
  return current_state() >= State::kDegraded && policies_enabled();
}

/// Writer admission backoff intensity: pauses a writer takes *before*
/// pinning an epoch (0 = none). Bounded and jittered at the call site via
/// sync::JitterBackoff, so admission delay never becomes unbounded and
/// colliding writers do not re-collide in lockstep.
inline unsigned admission_backoff_level() {
  if (!policies_enabled()) return 0;
  switch (current_state()) {
    case State::kPressured: return 1;
    case State::kDegraded:  return 2;
    case State::kCritical:  return 4;
    default: return 0;
  }
}

}  // namespace lot::health
