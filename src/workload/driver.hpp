// The throughput-trial driver reproducing the paper's §6 methodology:
// prefill the structure to its steady-state size running the same mix and
// thread count as the trial, then run a timed trial in which every thread
// draws operations from the spec's distribution and keys uniformly from
// the range, and report aggregate million-operations-per-second.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "check/history.hpp"
#include "obs/histogram.hpp"
#include "sync/barrier.hpp"
#include "util/random.hpp"
#include "util/stopwatch.hpp"
#include "workload/spec.hpp"

namespace lot::workload {

struct TrialResult {
  std::uint64_t total_ops = 0;
  double seconds = 0;
  double mops_per_sec = 0;
  std::uint64_t final_size = 0;
};

/// Runs the spec's operation mix from `threads` threads for `seconds`.
/// `map` must already be prefilled (see prefill()).
template <typename MapT>
TrialResult run_trial(MapT& map, const Spec& spec, unsigned threads,
                      double seconds, std::uint64_t seed) {
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> ops(threads, 0);
  sync::ThreadBarrier barrier(threads + 1);
  std::vector<std::thread> workers;
  workers.reserve(threads);

  // Scan results escape through one relaxed add per thread so the range
  // walk cannot be optimized into a no-op.
  std::atomic<std::uint64_t> scan_sink{0};

  // Skewed specs share one read-only CDF table across the workers; the
  // per-draw cost is a binary search over it.
  const std::vector<double> zipf =
      spec.zipf_s > 0 ? zipf_cdf(spec.zipf_s, spec.key_range)
                      : std::vector<double>{};

  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      using K = typename MapT::key_type;
      using V = typename MapT::mapped_type;
      util::Xoshiro256 rng(seed * 1315423911ULL + t);
      std::uint64_t local = 0;
      std::uint64_t sink = 0;
      // Hoisted out of the loop: the map calls below are opaque to the
      // optimizer, so reading the knob through `spec` per op would reload
      // it every iteration.
      const unsigned sample_every = spec.latency_sample_every;
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto key =
            zipf.empty()
                ? static_cast<std::int64_t>(rng.next_below(
                      static_cast<std::uint64_t>(spec.key_range)))
                : zipf_draw(zipf, rng.next());
        const auto dice = rng.next_below(100);
        // Timing every op would put two clock reads on the hot path and
        // drown the structure's own cost; sample 1-in-N per worker instead.
        // Driver-level timing covers the baselines too, not just lot maps.
        const bool sampled = sample_every != 0 && local % sample_every == 0;
        if (dice < spec.contains_pct) {
          obs::ScopedLatency lat(obs::OpKind::kContains, sampled);
          map.contains(key);
        } else if (dice < spec.contains_pct + spec.insert_pct) {
          obs::ScopedLatency lat(obs::OpKind::kInsert, sampled);
          map.insert(key, key);
        } else if (dice < spec.contains_pct + spec.insert_pct +
                              spec.remove_pct) {
          obs::ScopedLatency lat(obs::OpKind::kErase, sampled);
          map.erase(key);
        } else {
          // Range scan over [key, key + scan_len). Implementations without
          // the ordered surface (hash-style baselines) degrade to a point
          // lookup so mixed specs still run everywhere.
          if constexpr (requires {
                          map.range(key, key, [](const K&, const V&) {});
                        }) {
            obs::ScopedLatency lat(obs::OpKind::kScan, sampled);
            map.range(key, key + spec.scan_len,
                      [&sink](const K& k, const V&) {
                        sink += static_cast<std::uint64_t>(k);
                      });
          } else {
            obs::ScopedLatency lat(obs::OpKind::kContains, sampled);
            map.contains(key);
          }
        }
        ++local;
      }
      ops[t] = local;
      scan_sink.fetch_add(sink, std::memory_order_relaxed);
    });
  }

  util::Stopwatch watch;
  barrier.arrive_and_wait();
  watch.restart();
  while (watch.elapsed_seconds() < seconds) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  const double elapsed = watch.elapsed_seconds();
  for (auto& w : workers) w.join();

  TrialResult r;
  for (auto o : ops) r.total_ops += o;
  r.seconds = elapsed;
  r.mops_per_sec = static_cast<double>(r.total_ops) / elapsed / 1e6;
  return r;
}

/// History-capture mode: the trial's operation mix with every operation
/// recorded into `rec` for offline linearizability checking (src/check/).
/// Ops-bounded rather than time-bounded so the per-thread log capacity can
/// be sized up front (rec must hold `threads` logs of >= ops_per_thread
/// events). The same mix/key distribution as run_trial; throughput numbers
/// from recorded runs are NOT comparable to unrecorded ones — the logical
/// clock is a shared atomic the paper's hot path does not have.
template <typename MapT>
TrialResult run_recorded_trial(
    MapT& map, const Spec& spec, unsigned threads,
    std::uint64_t ops_per_thread, std::uint64_t seed,
    check::HistoryRecorder<typename MapT::key_type>& rec) {
  using K = typename MapT::key_type;
  sync::ThreadBarrier barrier(threads + 1);
  std::vector<std::thread> workers;
  workers.reserve(threads);

  const std::vector<double> zipf =
      spec.zipf_s > 0 ? zipf_cdf(spec.zipf_s, spec.key_range)
                      : std::vector<double>{};

  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng(seed * 1315423911ULL + t);
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        const auto key =
            zipf.empty()
                ? static_cast<K>(rng.next_below(
                      static_cast<std::uint64_t>(spec.key_range)))
                : static_cast<K>(zipf_draw(zipf, rng.next()));
        const auto dice = rng.next_below(100);
        if (dice < spec.contains_pct) {
          rec.record(t, check::Op::kContains, key,
                     [&] { return map.contains(key); });
        } else if (dice < spec.contains_pct + spec.insert_pct) {
          rec.record(t, check::Op::kInsert, key,
                     [&] { return map.insert(key, key); });
        } else if (dice < spec.contains_pct + spec.insert_pct +
                              spec.remove_pct) {
          rec.record(t, check::Op::kRemove, key,
                     [&] { return map.erase(key); });
        } else {
          // Recorded range scan: the recorder decomposes the observed key
          // set into per-key contains observations (check/history.hpp).
          if constexpr (requires {
                          map.range(key, key,
                                    [](const K&, const
                                       typename MapT::mapped_type&) {});
                        }) {
            rec.record_scan(t, key, static_cast<K>(key + spec.scan_len),
                            [&](const K& lo, const K& hi, auto&& sink) {
                              map.range(lo, hi, sink);
                            });
          } else {
            rec.record(t, check::Op::kContains, key,
                       [&] { return map.contains(key); });
          }
        }
      }
    });
  }

  util::Stopwatch watch;
  barrier.arrive_and_wait();
  watch.restart();
  for (auto& w : workers) w.join();

  TrialResult r;
  r.total_ops = static_cast<std::uint64_t>(threads) * ops_per_thread;
  r.seconds = watch.elapsed_seconds();
  r.mops_per_sec = static_cast<double>(r.total_ops) / r.seconds / 1e6;
  return r;
}

/// Prefills to the spec's steady-state size. The paper prefills "running
/// the same workload until reaching the desired size" — but the desired
/// size *is* the mix's fixed point, where the net growth of that process
/// is zero and convergence degenerates into an unbiased random walk
/// (hours for the 2e6 range). We keep the spirit with bounded time:
///   phase 1: parallel random inserts straight to the target size;
///   phase 2: one target-sized round of the trial's own update mix, so
///            the physical shape (rotation history, zombie population,
///            node placement) matches the steady-state process.
template <typename MapT>
void prefill(MapT& map, const Spec& spec, unsigned threads,
             std::uint64_t seed) {
  const auto target = static_cast<std::uint64_t>(spec.prefill_target());
  if (target == 0) return;
  // Skewed specs prefill from the same distribution as the trial, so the
  // steady-state population (hot set resident, sparse tail) matches.
  const std::vector<double> zipf =
      spec.zipf_s > 0 ? zipf_cdf(spec.zipf_s, spec.key_range)
                      : std::vector<double>{};
  std::atomic<std::uint64_t> inserted{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng(seed * 2654435761ULL + t);
      while (inserted.load(std::memory_order_relaxed) < target) {
        const auto key =
            zipf.empty()
                ? static_cast<std::int64_t>(rng.next_below(
                      static_cast<std::uint64_t>(spec.key_range)))
                : zipf_draw(zipf, rng.next());
        if (map.insert(key, key)) inserted.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  workers.clear();

  if (spec.insert_pct + spec.remove_pct == 0) return;
  const unsigned insert_share =
      100u * spec.insert_pct / (spec.insert_pct + spec.remove_pct);
  const std::uint64_t per_thread = target / threads + 1;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng(seed * 40503ULL + t);
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        const auto key =
            zipf.empty()
                ? static_cast<std::int64_t>(rng.next_below(
                      static_cast<std::uint64_t>(spec.key_range)))
                : zipf_draw(zipf, rng.next());
        if (rng.next_below(100) < insert_share) {
          map.insert(key, key);
        } else {
          map.erase(key);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
}

}  // namespace lot::workload
