// Operational stress / soak tool: drive any implementation with a chosen
// workload for a chosen duration from the command line, validating set
// semantics against per-thread partition logs and (for the logical-
// ordering trees) full structural invariants at the end. The tool a
// downstream user runs overnight before trusting the library on new
// hardware.
//
//   ./stress_tool --impl=lo-avl --threads=8 --range=100000 --secs=10
//   ./stress_tool --impl=all --secs=2
//
// Implementations: lo-avl, lo-bst, lo-partial, bronson, cf, skiplist,
//                  efrb, hj, chromatic, all.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/bronson/bronson.hpp"
#include "baselines/cf/cf_tree.hpp"
#include "baselines/chromatic/chromatic.hpp"
#include "baselines/efrb/efrb.hpp"
#include "baselines/hj/hj_tree.hpp"
#include "baselines/skiplist/skiplist.hpp"
#include "lo/avl.hpp"
#include "lo/bst.hpp"
#include "lo/partial.hpp"
#include "lo/validate.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/stopwatch.hpp"

namespace {

using K = std::int64_t;
using V = std::int64_t;

struct Config {
  unsigned threads = 4;
  K range = 50'000;
  double secs = 2.0;
  unsigned update_pct = 40;
  std::uint64_t seed = 1;
};

/// Disjoint-partition soak: each thread owns range/threads keys, tracks
/// its own expected set, and cross-checks every operation result. Returns
/// false on any semantic violation.
template <typename MapT>
bool soak(const char* name, const Config& cfg) {
  lot::reclaim::EbrDomain domain;
  bool ok = true;
  std::uint64_t total_ops = 0;
  double elapsed = 0;
  {
    MapT map(domain);
    const K per_thread = cfg.range / cfg.threads;
    std::atomic<bool> stop{false};
    std::atomic<bool> violated{false};
    std::vector<std::uint64_t> ops(cfg.threads, 0);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < cfg.threads; ++t) {
      workers.emplace_back([&, t] {
        lot::util::Xoshiro256 rng(cfg.seed * 7919 + t);
        std::set<K> mine;
        const K base = static_cast<K>(t) * per_thread;
        std::uint64_t local = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const K k = base + static_cast<K>(rng.next_below(
                                 static_cast<std::uint64_t>(per_thread)));
          const auto dice = rng.next_below(100);
          bool good = true;
          if (dice >= cfg.update_pct) {
            good = map.contains(k) == (mine.count(k) > 0);
          } else if (dice < cfg.update_pct / 2) {
            good = map.insert(k, k) == (mine.count(k) == 0);
            mine.insert(k);
          } else {
            good = map.erase(k) == (mine.count(k) > 0);
            mine.erase(k);
          }
          if (!good) {
            violated.store(true);
            std::fprintf(stderr, "[%s] semantic violation at key %lld\n",
                         name, static_cast<long long>(k));
            break;
          }
          ++local;
        }
        ops[t] = local;
      });
    }
    lot::util::Stopwatch watch;
    while (watch.elapsed_seconds() < cfg.secs &&
           !violated.load(std::memory_order_relaxed)) {
      std::this_thread::yield();
    }
    stop = true;
    for (auto& w : workers) w.join();
    elapsed = watch.elapsed_seconds();
    for (auto o : ops) total_ops += o;
    ok = !violated.load();
  }
  std::printf("%-12s %8.2f Mop/s over %4.1fs x %u threads   %s\n", name,
              static_cast<double>(total_ops) / elapsed / 1e6, elapsed,
              cfg.threads, ok ? "OK" : "VIOLATED");
  return ok;
}

/// LO trees get the full structural validation on top of the soak.
template <typename MapT>
bool soak_lo(const char* name, const Config& cfg, bool balanced,
             bool partial) {
  lot::reclaim::EbrDomain domain;
  MapT map(domain);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      lot::util::Xoshiro256 rng(cfg.seed * 104729 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const K k = static_cast<K>(rng.next_below(
            static_cast<std::uint64_t>(cfg.range)));
        const auto dice = rng.next_below(100);
        if (dice >= cfg.update_pct) {
          map.contains(k);
        } else if (dice < cfg.update_pct / 2) {
          map.insert(k, k);
        } else {
          map.erase(k);
        }
      }
    });
  }
  lot::util::Stopwatch watch;
  while (watch.elapsed_seconds() < cfg.secs) std::this_thread::yield();
  stop = true;
  for (auto& w : workers) w.join();
  if constexpr (MapT::kBalanced) {
    // Repair heights stale from abandoned climbs before the strict-height
    // check.
    if (balanced) map.repair_balance();
  }
  const auto rep = lot::lo::validate(map, balanced, partial);
  std::printf("%-12s structural validation: %s (n=%zu, height=%d)\n", name,
              rep.ok ? "OK" : "VIOLATED", rep.chain_nodes, rep.height);
  if (!rep.ok) std::fprintf(stderr, "%s\n", rep.to_string().c_str());
  return rep.ok;
}

}  // namespace

int main(int argc, char** argv) {
  lot::util::Cli cli(argc, argv);
  Config cfg;
  cfg.threads = static_cast<unsigned>(cli.get_int("threads", 4));
  cfg.range = cli.get_int("range", 50'000);
  cfg.secs = cli.get_double("secs", 2.0);
  cfg.update_pct = static_cast<unsigned>(cli.get_int("update", 40));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string impl = cli.get_string("impl", "all");

  bool ok = true;
  const auto want = [&](const char* n) {
    return impl == "all" || impl == n;
  };
  if (want("lo-avl")) {
    ok &= soak<lot::lo::AvlMap<K, V>>("lo-avl", cfg);
    ok &= soak_lo<lot::lo::AvlMap<K, V>>("lo-avl", cfg, true, false);
  }
  if (want("lo-bst")) {
    ok &= soak<lot::lo::BstMap<K, V>>("lo-bst", cfg);
    ok &= soak_lo<lot::lo::BstMap<K, V>>("lo-bst", cfg, false, false);
  }
  if (want("lo-partial")) {
    ok &= soak<lot::lo::PartialAvlMap<K, V>>("lo-partial", cfg);
    ok &= soak_lo<lot::lo::PartialAvlMap<K, V>>("lo-partial", cfg, true,
                                                true);
  }
  if (want("bronson")) {
    ok &= soak<lot::baselines::BronsonMap<K, V>>("bronson", cfg);
  }
  if (want("cf")) ok &= soak<lot::baselines::CfTreeMap<K, V>>("cf", cfg);
  if (want("skiplist")) {
    ok &= soak<lot::baselines::SkipListMap<K, V>>("skiplist", cfg);
  }
  if (want("efrb")) ok &= soak<lot::baselines::EfrbMap<K, V>>("efrb", cfg);
  if (want("hj")) ok &= soak<lot::baselines::HjTreeMap<K, V>>("hj", cfg);
  if (want("chromatic")) {
    ok &= soak<lot::baselines::ChromaticMap<K, V>>("chromatic", cfg);
  }

  std::printf("%s\n", ok ? "ALL OK" : "FAILURES DETECTED");
  return ok ? 0 : 1;
}
