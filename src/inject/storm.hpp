// Seeded fault-storm scheduler: time-phased bursts over the named
// injection sites (inject.hpp), with ramp / hold / release envelopes.
//
// A single site rate models steady background faults; what it cannot model
// is *weather* — memory pressure that builds, peaks, and clears, or a
// swarm of preempted readers that all stall within one window. The storm
// scheduler drives the per-site fire rates through exactly that shape:
//
//   rate(t) = peak_permille * envelope(t)
//   envelope: 0 → 1 linearly over ramp_ms, 1 for hold_ms, 1 → 0 linearly
//   over release_ms, then 0 (storm over).
//
// The recovery campaign (tests/stress/stress_lo_storm.cpp) asserts two
// different things on the two sides of that envelope: a frozen backlog
// and a reported straggler *during* the storm, and EBR backpressure
// draining that backlog within a wall-clock bound once the straggler
// releases *after* it; linearizability and exact obs reconciliation hold
// across both.
//
// Determinism: which operations fail is decided by inject.hpp's seeded
// per-thread streams; the scheduler only modulates the rates. The envelope
// itself is wall-clock-phased, so storm runs are statistically — not
// bitwise — reproducible; the campaign's assertions are envelope-level
// (backlog marks, recovery bound, exact reconciliation) rather than
// event-level for exactly that reason.
//
// Idiom matches inject.hpp: everything compiles away without
// LOT_FAULT_INJECT; instrumented binaries are separate build targets.
#pragma once

#include <cstdint>

#include "inject/inject.hpp"

#if defined(LOT_FAULT_INJECT)
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>
#endif

namespace lot::inject {

enum class StormPhase : std::uint8_t {
  kIdle = 0,  // not started
  kRamp,      // rates climbing toward peak
  kHold,      // rates at peak
  kRelease,   // rates falling back to zero
  kDone,      // storm over, all site rates zeroed
};

inline const char* storm_phase_name(StormPhase p) {
  switch (p) {
    case StormPhase::kIdle: return "idle";
    case StormPhase::kRamp: return "ramp";
    case StormPhase::kHold: return "hold";
    case StormPhase::kRelease: return "release";
    case StormPhase::kDone: return "done";
  }
  return "?";
}

/// One attacked site and its peak intensity (fires per mille at hold).
struct StormSiteSpec {
  Site site;
  std::uint32_t peak_permille = 0;
};

struct StormSpec {
  std::uint64_t seed = 1;        // campaign seed handed to inject::set_seed
  std::uint32_t ramp_ms = 50;
  std::uint32_t hold_ms = 100;
  std::uint32_t release_ms = 50;
  std::uint32_t step_ms = 5;     // scheduler update granularity
  std::uint32_t stall_max_us = 200;  // cap for guard-stall sites
#if defined(LOT_FAULT_INJECT)
  std::vector<StormSiteSpec> sites;
#endif
  std::uint32_t total_ms() const { return ramp_ms + hold_ms + release_ms; }
};

/// Envelope intensity in [0, 1000] at `elapsed_ms` into the storm.
inline std::uint32_t storm_envelope_permille(const StormSpec& spec,
                                             std::uint64_t elapsed_ms) {
  if (elapsed_ms < spec.ramp_ms) {
    return spec.ramp_ms == 0
               ? 1000
               : static_cast<std::uint32_t>(elapsed_ms * 1000 / spec.ramp_ms);
  }
  elapsed_ms -= spec.ramp_ms;
  if (elapsed_ms < spec.hold_ms) return 1000;
  elapsed_ms -= spec.hold_ms;
  if (elapsed_ms < spec.release_ms) {
    return static_cast<std::uint32_t>(
        (spec.release_ms - elapsed_ms) * 1000 / spec.release_ms);
  }
  return 0;
}

inline StormPhase storm_phase_at(const StormSpec& spec,
                                 std::uint64_t elapsed_ms) {
  if (elapsed_ms < spec.ramp_ms) return StormPhase::kRamp;
  if (elapsed_ms < spec.ramp_ms + spec.hold_ms) return StormPhase::kHold;
  if (elapsed_ms < spec.total_ms()) return StormPhase::kRelease;
  return StormPhase::kDone;
}

#if defined(LOT_FAULT_INJECT)

/// Drives the injector's site rates through one storm envelope on a
/// background thread. start() seeds the injector and enables injection;
/// when the envelope completes, every attacked site's rate returns to 0
/// (injection stays enabled — the owner disables it when the campaign
/// ends). Single storm per scheduler instance.
class StormScheduler {
 public:
  StormScheduler() = default;
  ~StormScheduler() { stop(); }
  StormScheduler(const StormScheduler&) = delete;
  StormScheduler& operator=(const StormScheduler&) = delete;

  void start(StormSpec spec) {
    stop();
    spec_ = std::move(spec);
    set_seed(spec_.seed);
    set_stall_max_us(spec_.stall_max_us);
    for (const auto& s : spec_.sites) set_site_rate(s.site, 0);
    enable_injection(true);
    phase_.store(static_cast<std::uint8_t>(StormPhase::kRamp),
                 std::memory_order_relaxed);
    stop_.store(false, std::memory_order_relaxed);
    driver_ = std::thread([this] { run(); });
  }

  StormPhase phase() const {
    return static_cast<StormPhase>(phase_.load(std::memory_order_relaxed));
  }

  bool done() const { return phase() == StormPhase::kDone; }

  /// Blocks until the envelope has fully played out (rates back at 0).
  void wait() {
    if (driver_.joinable()) driver_.join();
  }

  /// Early abort: zeroes the attacked sites and joins the driver.
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    wait();
  }

 private:
  void run() {
    const auto t0 = std::chrono::steady_clock::now();
    for (;;) {
      const auto elapsed_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      if (stop_.load(std::memory_order_relaxed) ||
          elapsed_ms >= spec_.total_ms()) {
        break;
      }
      const std::uint32_t env = storm_envelope_permille(spec_, elapsed_ms);
      for (const auto& s : spec_.sites) {
        set_site_rate(s.site, s.peak_permille * env / 1000);
      }
      phase_.store(static_cast<std::uint8_t>(storm_phase_at(spec_, elapsed_ms)),
                   std::memory_order_relaxed);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(spec_.step_ms ? spec_.step_ms : 1));
    }
    for (const auto& s : spec_.sites) set_site_rate(s.site, 0);
    phase_.store(static_cast<std::uint8_t>(StormPhase::kDone),
                 std::memory_order_relaxed);
  }

  StormSpec spec_;
  std::thread driver_;
  std::atomic<std::uint8_t> phase_{
      static_cast<std::uint8_t>(StormPhase::kIdle)};
  std::atomic<bool> stop_{false};
};

#else  // !LOT_FAULT_INJECT — the scheduler compiles away with the injector.

class StormScheduler {
 public:
  void start(StormSpec) {}
  StormPhase phase() const { return StormPhase::kDone; }
  bool done() const { return true; }
  void wait() {}
  void stop() {}
};

#endif  // LOT_FAULT_INJECT

}  // namespace lot::inject
