// End-to-end benchmark of the logical-ordering trees (see README.md).
//
// One closed-loop load generator: T worker threads (one per allowed CPU,
// at most four) each draw an endless seeded op sequence (get / insert /
// erase / range scan) and run it against one shared map as fast as the map
// answers. A run is
//
//   set-up    build the map from the seed's prefill keys, at least kSetups
//             times and until kSetupBudget seconds have gone into builds;
//             the median build time is setup_s, the first build's heap
//             growth per key is heap_bytes_per_key, and the last map is
//             kept;
//   maps      the measured rounds are spread over kMaps maps: the kept one
//             and kMaps - 1 fresh builds (each one more set-up sample). A map's speed depends on where its nodes landed when
//             it was loaded, and in the logical-removing trees that layout
//             outlives the churn (erased keys are revived in place), so one
//             map per run made whole runs fast or slow; spread over a few
//             maps, the run-to-run spread of skewed-lr roughly halved;
//   warm-up   per map, the workload's mix for a short while, unmeasured, so
//             the allocator caches, reclamation backlog and (for the
//             logical-removing trees) zombie population reach steady state;
//   rounds    kRounds equal slices of --seconds, kRounds / kMaps per map;
//             each end-to-end metric is the median over the rounds of that
//             round's value, which keeps short bursts of noise from a shared
//             host out of the result;
//   checks    after every phase the map is quiescent and its size must equal
//             prefill + successful inserts - successful erases; at the end
//             the last map's structure is validated and (MVCC) a snapshot
//             must equal the live contents (validating every map would add
//             seconds per map on the largest tree).
//
// Every get result is checked against the value the key was inserted with,
// and every scan must report strictly increasing in-range keys with their
// values. A wrong result counts as a failed op.
//
// --trace 1 runs the same schedule and reports the per-layer ledger
// instead: obs-counter deltas over the measured rounds (normalized per 1000
// ops), reclamation/pool/shard gauges, and spans timed around the calls
// into each layer from this file.
//
// The last line of stdout is the result object; everything else goes to
// stderr.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lo/avl.hpp"
#include "lo/partial.hpp"
#include "lo/validate.hpp"
#include "obs/obs.hpp"
#include "shard/sharded_map.hpp"

namespace {

using K = std::int64_t;
using V = std::int64_t;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 5;
constexpr double kSetupBudget = 1.0;  // seconds; small maps build many times
constexpr int kMaxSetups = 200;
constexpr int kRounds = 20;
constexpr int kMaps = 4;  // kRounds / kMaps rounds on each
constexpr unsigned kMaxThreads = 4;
constexpr unsigned kSkewTableBits = 20;  // 2^20 pre-drawn Zipf keys
constexpr std::uint64_t kSampleEvery = 8;  // 1 op in 8 is timed

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------ inputs

/// xoshiro256** seeded through splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& w : s_) {
      seed += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      w = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t out = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return out;
  }
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_[4];
};

enum Op : std::uint32_t { kGet, kInsert, kErase, kScan, kOpCount };
constexpr const char* kOpNames[kOpCount] = {"get", "insert", "erase", "scan"};
// The point ops, whose latencies are end-to-end metrics; every workload
// issues all three. Scans run only in some workloads and count through
// throughput.
constexpr unsigned kPointOps = kScan;

struct Workload {
  const char* name;
  K key_range;  // keys live in [0, key_range)
  unsigned get_pct;
  unsigned insert_pct;
  unsigned erase_pct;  // the remaining share are range scans
  K scan_len;           // 0 for workloads without scans
  double zipf_s;        // 0: uniform keys; else Zipf(s) over a key permutation
  bool snapshot_scans;  // scans read an MVCC snapshot, not the live map
};

// Which map each workload drives is fixed in main(). The first two are cells
// of the paper's Table 1 on the AVL tree (contains/insert/remove mix and key
// range exactly as there): 70C-20I-10R at 2*10^6, a tree far larger than the
// private caches, and 50C-25I-25R at 2*10^4, a small tree where writers
// contend.
// Range scans appear only in the two cells of the later layers: a 4-shard
// logical-removing AVL map under skewed churn with merged scans, and a
// logical-removing AVL tree serving MVCC snapshot scans.
constexpr Workload kWorkloads[] = {
    {"avl-70-20-10-2m", 2'000'000, 70, 20, 10, 0, 0.0, false},
    {"avl-50-25-25-20k", 20'000, 50, 25, 25, 0, 0.0, false},
    {"skewed-lr", K{1} << 18, 66, 15, 15, 16, 0.99, false},
    {"snapshot-scan", K{1} << 18, 50, 10, 10, 64, 0.0, true},
};

/// The value every key is stored with, so reads can be checked.
V value_of(K k) {
  return static_cast<V>(
      (static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull) >> 2);
}

struct Inputs {
  std::vector<K> prefill;  // distinct keys, loaded at set-up
  std::vector<K> skewed;   // pre-drawn Zipf keys; empty for uniform workloads
};

/// Zipf(s) ranks over [0, n), inverted through the CDF, then scattered over
/// the key range by an odd-multiplier bijection (n is a power of two) so hot
/// keys are not neighbours in the tree.
std::vector<K> zipf_keys(double s, K n, Rng& rng) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double sum = 0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = sum;
  }
  std::vector<K> keys(std::size_t{1} << kSkewTableBits);
  for (auto& k : keys) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.unit() * sum);
    const auto rank = static_cast<std::uint64_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(), n - 1));
    k = static_cast<K>((rank * 0x9E3779B1ull + 0x7F4A7C15ull) &
                       static_cast<std::uint64_t>(n - 1));
  }
  return keys;
}

/// The mix's steady-state size, as the paper prefills: half the key range
/// when inserts and erases are equally likely, 2/3 for a 2:1 mix.
std::size_t prefill_size(const Workload& w) {
  return static_cast<std::size_t>(w.key_range) * w.insert_pct /
         (w.insert_pct + w.erase_pct);
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  Rng rng(seed * 0x100000001B3ull + 1);
  std::vector<K> all(static_cast<std::size_t>(w.key_range));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<K>(i);
  for (std::size_t i = all.size() - 1; i > 0; --i) {
    std::swap(all[i], all[rng.below(i + 1)]);
  }
  all.resize(prefill_size(w));
  in.prefill = std::move(all);
  if (w.zipf_s > 0) in.skewed = zipf_keys(w.zipf_s, w.key_range, rng);
  return in;
}

/// One worker's endless op sequence, drawn from its own seeded generator.
/// Not a replayed finite stream: once every key's last op repeats, most
/// replayed writes would be no-ops.
class OpSource {
 public:
  OpSource(const Workload& w, const Inputs& in, std::uint64_t seed)
      : w_(&w), skewed_(&in.skewed), rng_(seed) {}

  Op next(K& key) {
    const auto dice = rng_.below(100);
    Op op = kScan;
    if (dice < w_->get_pct) {
      op = kGet;
    } else if (dice < w_->get_pct + w_->insert_pct) {
      op = kInsert;
    } else if (dice < w_->get_pct + w_->insert_pct + w_->erase_pct) {
      op = kErase;
    }
    // Scans start uniformly; point ops follow the workload's skew.
    if (op == kScan || skewed_->empty()) {
      key = static_cast<K>(
          rng_.below(static_cast<std::uint64_t>(w_->key_range)));
    } else {
      key = (*skewed_)[rng_.next() >> (64 - kSkewTableBits)];
    }
    return op;
  }

 private:
  const Workload* w_;
  const std::vector<K>* skewed_;
  Rng rng_;
};

// ------------------------------------------------------------- measurement

/// Log-linear latency histogram over nanoseconds: exact below 128 ns, then
/// 64 buckets per power of two (1.6% wide). Quantiles interpolate inside
/// the bucket.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = ((64 - kSubBits) << kSubBits) + kSub;

  void record(std::uint64_t ns) {
    ++buckets_[index(ns)];
    ++count_;
  }
  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  std::uint64_t count() const { return count_; }

  double quantile(double p) const {
    if (count_ == 0) return 0;
    const double rank = p / 100.0 * static_cast<double>(count_ - 1);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = buckets_[i];
      if (c == 0) continue;
      if (rank < static_cast<double>(before + c)) {
        const double frac = (rank - static_cast<double>(before) + 0.5) /
                            static_cast<double>(c);
        return static_cast<double>(lower(i)) +
               frac * static_cast<double>(width(i));
      }
      before += c;
    }
    return 0;
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const unsigned shift =
        static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
    return static_cast<std::size_t>((std::uint64_t{shift} << kSubBits) +
                                    ((v >> shift) & (kSub - 1)) + kSub);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < 2 * kSub) return i;
    const std::uint64_t adj = i - kSub;
    return (kSub + (adj & (kSub - 1))) << (adj >> kSubBits);
  }
  static std::uint64_t width(std::size_t i) {
    if (i < 2 * kSub) return 1;
    return std::uint64_t{1} << ((i - kSub) >> kSubBits);
  }

  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
};

/// Spans timed around the snapshot scan's three calls into the MVCC layer.
enum Span : std::uint32_t {
  kSnapAcquire,
  kSnapRange,
  kSnapRelease,
  kSpanCount
};

/// What one worker did in one phase. Cache-line aligned: workers update
/// their own tally on every op.
struct alignas(64) Tally {
  std::uint64_t ops = 0;
  std::uint64_t inserted = 0;  // successful inserts
  std::uint64_t erased = 0;    // successful erases
  std::uint64_t failed = 0;    // wrong results
  Histogram lat[kOpCount];
  Histogram spans[kSpanCount];

  void merge(const Tally& o) {
    ops += o.ops;
    inserted += o.inserted;
    erased += o.erased;
    failed += o.failed;
    for (unsigned i = 0; i < kOpCount; ++i) lat[i].merge(o.lat[i]);
    for (unsigned i = 0; i < kSpanCount; ++i) spans[i].merge(o.spans[i]);
  }
};

struct Phase {
  double seconds = 0;
  Tally total;
  double mops() const { return static_cast<double>(total.ops) / seconds / 1e6; }
};

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

void pin_to(const std::vector<int>& cpus, unsigned t) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[t % cpus.size()], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Worker threads that live as long as one map, one pinned per CPU, so the
/// library's per-thread state (allocator caches, reclamation records,
/// counter shards) persists across phases as it would in a server. Each map
/// gets fresh workers: a thread keeps reclamation records for at most 8
/// domains (reclaim/ebr.cpp), a 4-shard map has 4, and a thread that has
/// outlived more domains than that slows down a hundredfold.
class WorkerPool {
 public:
  WorkerPool(unsigned n, std::vector<int> cpus) {
    for (unsigned t = 0; t < n; ++t) {
      threads_.emplace_back([this, t, cpus] { loop(t, cpus); });
    }
  }
  ~WorkerPool() {
    {
      std::lock_guard lock(mu_);
      quit_ = true;
      ++generation_;
    }
    wake_.notify_all();
    for (auto& th : threads_) th.join();
  }
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs job(t) on workers 0..active-1 and returns at once.
  void start(unsigned active, std::function<void(unsigned)> job) {
    {
      std::lock_guard lock(mu_);
      job_ = std::move(job);
      active_ = active;
      pending_ = active;
      ++generation_;
    }
    wake_.notify_all();
  }

  /// Waits for the last started job; returns how many workers threw.
  unsigned wait() {
    std::unique_lock lock(mu_);
    done_.wait(lock, [this] { return pending_ == 0; });
    return std::exchange(thrown_, 0);
  }

 private:
  void loop(unsigned t, const std::vector<int>& cpus) {
    pin_to(cpus, t);
    std::uint64_t seen = 0;
    for (;;) {
      std::function<void(unsigned)> job;
      {
        std::unique_lock lock(mu_);
        wake_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (quit_) return;
        if (t >= active_) continue;
        job = job_;
      }
      bool threw = false;
      try {
        job(t);
      } catch (...) {
        threw = true;
      }
      std::lock_guard lock(mu_);
      thrown_ += threw ? 1 : 0;
      if (--pending_ == 0) done_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::function<void(unsigned)> job_;
  unsigned active_ = 0;
  unsigned pending_ = 0;
  unsigned thrown_ = 0;
  std::uint64_t generation_ = 0;
  bool quit_ = false;
  std::vector<std::thread> threads_;  // last: they use everything above
};

/// Bytes the C heap has handed out (all arenas, incl. mmapped chunks).
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --------------------------------------------------------------- benchmark

template <typename MapT>
class Bench {
 public:
  Bench(const Workload& w, const Inputs& in, std::uint64_t seed,
        unsigned threads, bool trace)
      : w_(w), in_(in), threads_(threads), trace_(trace),
        cpus_(allowed_cpus()),
        pool_(std::make_unique<WorkerPool>(threads, cpus_)) {
    for (unsigned t = 0; t < threads; ++t) {
      ops_.emplace_back(w, in, (seed + 1) * 0x100000001B3ull + t);
    }
  }

  /// Destroys the current map, then builds a fresh one from the prefill
  /// keys, each of T loader threads inserting its share. Returns the wall
  /// time of construction plus load.
  /// Loaders are fresh threads, not the pool: a bulk load is a one-off job,
  /// and long-lived threads would carry per-map reclamation state from
  /// every discarded build into the measured phases.
  double setup() {
    map_.reset();
    const auto t0 = Clock::now();
    map_ = std::make_unique<MapT>();
    std::vector<std::uint64_t> rejected(threads_, 0);
    std::vector<std::thread> loaders;
    for (unsigned t = 0; t < threads_; ++t) {
      loaders.emplace_back([this, t, &rejected] {
        pin_to(cpus_, t);
        for (std::size_t i = t; i < in_.prefill.size(); i += threads_) {
          const K k = in_.prefill[i];
          if (!map_->insert(k, value_of(k))) ++rejected[t];
        }
      });
    }
    for (auto& th : loaders) th.join();
    const double s = seconds_since(t0);
    attempted_ += in_.prefill.size();
    for (const auto r : rejected) {
      fail(r, "set-up insert of a fresh key returned false");
    }
    expected_size_ = in_.prefill.size();
    return s;
  }

  /// The kept map must hold exactly the prefill keys with their values.
  void check_loaded() {
    std::vector<K> want = in_.prefill;
    std::sort(want.begin(), want.end());
    std::size_t i = 0;
    bool ok = true;
    map_->for_each([&](const K& k, const V& v) {
      ok = ok && i < want.size() && want[i] == k && v == value_of(k);
      ++i;
    });
    if (!ok || i != want.size()) {
      fail(1, "set-up contents differ from the prefill keys");
    }
  }

  /// Runs the mix on `threads` workers for `seconds`, then checks the size.
  Phase phase(unsigned threads, double seconds) {
    std::vector<Tally> tallies(threads);
    std::atomic<bool> stop{false};
    const auto t0 = Clock::now();
    pool_->start(threads, [&](unsigned t) { worker(t, tallies[t], stop); });
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    Phase p;
    p.seconds = seconds_since(t0);
    fail(pool_->wait(), "worker threw");
    for (const auto& t : tallies) p.total.merge(t);
    attempted_ += p.total.ops;
    fail(p.total.failed, "op returned a wrong result");
    expected_size_ += p.total.inserted;
    expected_size_ -= p.total.erased;
    if (map_->size_slow() != expected_size_) {
      fail(1, "size differs from prefill + inserts - erases");
    }
    return p;
  }

  /// Quiescent end-of-run checks: structure and snapshot-vs-live.
  void check_final() {
    if constexpr (requires { map_->shard_map(0); }) {
      for (std::size_t i = 0; i < MapT::shard_count(); ++i) {
        validate_tree(map_->shard_map(i));
      }
    } else {
      validate_tree(*map_);
    }
    if constexpr (requires { map_->snapshot(); }) {
      std::vector<std::pair<K, V>> live;
      std::vector<std::pair<K, V>> snap;
      map_->for_each([&](const K& k, const V& v) { live.emplace_back(k, v); });
      const auto view = map_->snapshot();
      view.for_each([&](const K& k, const V& v) { snap.emplace_back(k, v); });
      if (live != snap) fail(1, "quiescent snapshot differs from the live map");
    }
  }

  /// Replaces the workers with fresh threads (see WorkerPool).
  void renew_workers() {
    pool_.reset();
    pool_ = std::make_unique<WorkerPool>(threads_, cpus_);
  }

  MapT& map() { return *map_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  void fail(std::uint64_t n, const char* what) {
    if (n == 0) return;
    failed_ += n;
    std::fprintf(stderr, "perfbench: %s (%llu)\n", what,
                 static_cast<unsigned long long>(n));
  }

  template <typename TreeT>
  void validate_tree(TreeT& tree) {
    if constexpr (requires { tree.repair_balance(); }) tree.repair_balance();
    const auto rep =
        lot::lo::validate(tree, TreeT::kBalanced, TreeT::kLogicalRemoving);
    if (!rep.ok) {
      std::fprintf(stderr, "%s", rep.to_string().c_str());
      fail(1, "structural validation failed");
    }
  }

  void worker(unsigned t, Tally& tally, const std::atomic<bool>& stop) {
    OpSource& ops = ops_[t];
    MapT& map = *map_;
    while (!stop.load(std::memory_order_relaxed)) {
      K k = 0;
      const Op op = ops.next(k);
      const bool timed = tally.ops++ % kSampleEvery == 0;
      const auto t0 = timed ? Clock::now() : Clock::time_point{};
      switch (op) {
        case kGet: {
          const auto v = map.get(k);
          if (v.has_value() && *v != value_of(k)) ++tally.failed;
          break;
        }
        case kInsert:
          tally.inserted += map.insert(k, value_of(k)) ? 1 : 0;
          break;
        case kErase:
          tally.erased += map.erase(k) ? 1 : 0;
          break;
        default:
          scan(map, k, tally, timed);
          break;
      }
      if (timed) {
        tally.lat[op].record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count()));
      }
    }
  }

  void scan(MapT& map, K lo, Tally& tally, bool timed) {
    const K hi = lo + w_.scan_len;
    K prev = lo - 1;
    bool ok = true;
    auto sink = [&](const K& k, const V& v) {
      ok = ok && prev < k && k < hi && v == value_of(k);
      prev = k;
    };
    if constexpr (requires { map.snapshot(); }) {
      if (w_.snapshot_scans) {
        if (trace_ && timed) {
          auto t0 = Clock::now();
          std::optional<decltype(map.snapshot())> view(map.snapshot());
          auto t1 = Clock::now();
          tally.spans[kSnapAcquire].record(ns(t0, t1));
          view->range(lo, hi, sink);
          t0 = Clock::now();
          tally.spans[kSnapRange].record(ns(t1, t0));
          view.reset();
          tally.spans[kSnapRelease].record(ns(t0, Clock::now()));
        } else {
          map.snapshot().range(lo, hi, sink);
        }
        if (!ok) ++tally.failed;
        return;
      }
    }
    map.range(lo, hi, sink);
    if (!ok) ++tally.failed;
  }

  static std::uint64_t ns(Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  }

  const Workload& w_;
  const Inputs& in_;
  const unsigned threads_;
  const bool trace_;
  const std::vector<int> cpus_;
  std::vector<OpSource> ops_;  // one per worker, continued across phases
  std::unique_ptr<MapT> map_;
  std::uint64_t expected_size_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  // Last: joined before the map and tallies it uses go.
  std::unique_ptr<WorkerPool> pool_;
};

// ----------------------------------------------------------------- ledger

/// Obs counters by name, so the ledger keeps compiling when the counter
/// set changes; a counter that no longer exists reads 0.
std::map<std::string, double> counters_by_name(const lot::obs::Snapshot& s) {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < lot::obs::kCounterCount; ++i) {
    out[lot::obs::counter_name(static_cast<lot::obs::Counter>(i))] =
        static_cast<double>(s.counters[i]);
  }
  return out;
}

struct Layers {
  // Snapshots before and after each map's measured rounds; the set-ups and
  // warm-ups between them are left out.
  std::vector<std::pair<lot::obs::Snapshot, lot::obs::Snapshot>> windows;
  // Retired nodes awaiting reclamation, summed over every domain, sampled
  // after each measured round.
  std::vector<double> pending_per_round;
};

lot::obs::Snapshot obs_now() { return lot::obs::Registry::instance().snapshot(); }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// The per-layer metrics of a traced run. `all` holds every measured op
/// of the `seconds` of measured rounds.
template <typename MapT>
std::vector<Metric> ledger(const Layers& l, const Tally& all, double seconds,
                           MapT& map) {
  std::map<std::string, double> delta;
  for (const auto& [before, after] : l.windows) {
    const auto b = counters_by_name(before);
    for (const auto& [name, x] : counters_by_name(after)) {
      delta[name] += x - b.at(name);
    }
  }
  const auto d = [&](const char* name) { return delta[name]; };
  const double kops = static_cast<double>(all.ops) / 1e3;
  const auto per_kop = [&](double x) { return x / kops; };
  const auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };

  // Reclamation: epochs advanced across every domain that lived through
  // the measured rounds (one per shard for a sharded map), and the largest
  // backlog seen at the end of a round. Pool and governor: deltas.
  double epochs = 0;
  double contention = 0;
  double allocs = 0;
  double frees = 0;
  double remote_frees = 0;
  double harvests = 0;
  double slabs = 0;
  double transitions = 0;
  for (const auto& [before, after] : l.windows) {
    for (const auto& row : after.domains) {
      for (const auto& old : before.domains) {
        if (old.uid != row.uid) continue;
        epochs += static_cast<double>(row.epoch - old.epoch);
        contention += static_cast<double>(row.contention_events -
                                          old.contention_events);
      }
    }
    const auto& pb = before.ebr.pool;
    const auto& pa = after.ebr.pool;
    allocs += static_cast<double>(pa.allocs - pb.allocs);
    frees += static_cast<double>(pa.frees - pb.frees);
    remote_frees += static_cast<double>(pa.remote_frees - pb.remote_frees);
    harvests += static_cast<double>(pa.harvests - pb.harvests);
    slabs += static_cast<double>(pa.slabs - pb.slabs);
    transitions += static_cast<double>(after.health.transitions -
                                       before.health.transitions);
  }
  const double pending_peak = *std::max_element(l.pending_per_round.begin(),
                                                l.pending_per_round.end());

  // Shard routing balance: busiest shard's point ops over the mean.
  double imbalance = 1.0;
  if constexpr (requires { map.shard_stats(0).point_ops; }) {
    double max_ops = 0;
    double sum_ops = 0;
    for (std::size_t i = 0; i < MapT::shard_count(); ++i) {
      const auto ops = static_cast<double>(map.shard_stats(i).point_ops);
      max_ops = std::max(max_ops, ops);
      sum_ops += ops;
    }
    imbalance = ratio(max_ops, sum_ops / MapT::shard_count());
  }

  const auto num = [](std::uint64_t x) { return static_cast<double>(x); };
  const double scan_keys = d("range_keys_reported");
  const char* per_kop_unit = "count/kop";
  return {
      {"trace.throughput_mops", num(all.ops) / seconds / 1e6, "Mop/s"},
      {"core.descents_per_op", ratio(d("tree_descents"), num(all.ops)),
       "count/op"},
      {"core.mark_backoffs_per_kop", per_kop(d("locate_mark_backoffs")),
       per_kop_unit},
      {"core.ordered_locates_per_kop", per_kop(d("ordered_locates")),
       per_kop_unit},
      {"write.restarts_per_kop",
       per_kop(d("insert_restarts") + d("erase_restarts")), per_kop_unit},
      {"write.lock_retries_per_kop",
       per_kop(d("removal_lock_retries") + d("balance_restarts")),
       per_kop_unit},
      {"write.resumes_per_kop", per_kop(d("locate_resumes")), per_kop_unit},
      {"write.fallbacks_per_kop", per_kop(d("validation_fallbacks")),
       per_kop_unit},
      {"write.insert_success_pct",
       100 * ratio(d("insert_success"), d("insert_ops")), "%"},
      {"write.erase_success_pct",
       100 * ratio(d("erase_success"), d("erase_ops")), "%"},
      {"rebalance.rotations_per_kop", per_kop(d("rotations")), per_kop_unit},
      {"rebalance.height_passes_per_kop", per_kop(d("height_passes")),
       per_kop_unit},
      {"rebalance.deferred_per_kop", per_kop(d("rotations_deferred")),
       per_kop_unit},
      {"removal.relocations_per_kop", per_kop(d("erase_relocations")),
       per_kop_unit},
      {"removal.logical_erases_per_kop", per_kop(d("erase_logical")),
       per_kop_unit},
      {"removal.revives_per_kop", per_kop(d("insert_revives")), per_kop_unit},
      {"removal.purges_per_kop", per_kop(d("purge_successes")), per_kop_unit},
      {"scan.keys_per_scan", ratio(scan_keys, d("range_ops")), "count"},
      {"mvcc.snapshots_per_kop", per_kop(d("snapshot_acquires")),
       per_kop_unit},
      {"mvcc.chain_walks_per_scan_key",
       ratio(d("version_chain_walks"), scan_keys), "count"},
      {"mvcc.versions_retired_per_kop", per_kop(d("versions_retired")),
       per_kop_unit},
      {"ebr.epoch_advances_per_kop", per_kop(epochs), per_kop_unit},
      {"ebr.contention_events_per_kop", per_kop(contention), per_kop_unit},
      {"ebr.pending_peak", pending_peak, "count"},
      {"pool.allocs_per_kop", per_kop(allocs), per_kop_unit},
      {"pool.remote_free_pct", 100 * ratio(remote_frees, frees), "%"},
      {"pool.harvests_per_kop", per_kop(harvests), per_kop_unit},
      {"pool.slabs_carved", slabs, "count"},
      {"health.transitions", transitions, "count"},
      {"shard.imbalance", imbalance, "ratio"},
      {"span.snapshot_acquire_p50_ns", all.spans[kSnapAcquire].quantile(50),
       "ns"},
      {"span.snapshot_range_p50_ns", all.spans[kSnapRange].quantile(50), "ns"},
      {"span.snapshot_release_p50_ns", all.spans[kSnapRelease].quantile(50),
       "ns"},
  };
}

template <typename MapT>
int run(const Workload& w, std::uint64_t seed, double seconds, bool trace,
        unsigned threads) {
  const Inputs in = make_inputs(w, seed);
  Bench<MapT> bench(w, in, seed, threads, trace);

  // What the benchmark keeps across the run is allocated before the heap
  // baseline, so the heap metrics count the library's memory only.
  std::vector<double> setups;
  setups.reserve(kMaxSetups + kMaps);
  std::vector<double> round_mops;
  round_mops.reserve(kRounds);
  std::vector<std::array<double, 2 * kPointOps>> round_lat_us;  // p50, p99
  round_lat_us.reserve(kRounds);
  Tally all;  // every measured op
  double measured_s = 0;
  const std::size_t heap0 = heap_in_use();
  double heap_per_key = 0;
  double spent = 0;
  while (setups.size() < kSetups ||
         (spent < kSetupBudget && setups.size() < kMaxSetups)) {
    setups.push_back(bench.setup());
    spent += setups.back();
    if (setups.size() == 1) {
      heap_per_key = static_cast<double>(heap_in_use() - heap0) /
                     static_cast<double>(in.prefill.size());
    }
  }
  bench.check_loaded();

  Layers layers;
  for (int r = 0; r < kRounds; ++r) {
    if (r % (kRounds / kMaps) == 0) {
      if (r > 0) {
        if (trace) layers.windows.back().second = obs_now();
        bench.renew_workers();
        setups.push_back(bench.setup());
      }
      bench.phase(threads, std::min(0.5, 0.05 * seconds));  // warm-up
      if (trace) layers.windows.push_back({obs_now(), {}});
    }
    const Phase p = bench.phase(threads, seconds / kRounds);
    round_mops.push_back(p.mops());
    std::array<double, 2 * kPointOps> lat{};
    for (unsigned op = 0; op < kPointOps; ++op) {
      lat[2 * op] = p.total.lat[op].quantile(50) / 1e3;
      lat[2 * op + 1] = p.total.lat[op].quantile(99) / 1e3;
    }
    round_lat_us.push_back(lat);
    all.merge(p.total);
    measured_s += p.seconds;
    if (trace) {
      layers.pending_per_round.push_back(
          static_cast<double>(obs_now().total_pending_retired()));
    }
  }
  if (trace) layers.windows.back().second = obs_now();
  bench.check_final();

  std::vector<Metric> metrics;
  if (trace) {
    metrics = ledger(layers, all, measured_s, bench.map());
  } else {
    metrics.push_back({"throughput_mops", median(round_mops), "Mop/s"});
    for (unsigned i = 0; i < 2 * kPointOps; ++i) {
      std::vector<double> v;
      for (const auto& lat : round_lat_us) v.push_back(lat[i]);
      metrics.push_back({std::string(kOpNames[i / 2]) +
                             (i % 2 == 0 ? "_p50_us" : "_p99_us"),
                         median(v), "us"});
    }
    metrics.push_back({"heap_bytes_per_key", heap_per_key, "B"});
    metrics.push_back({"setup_s", median(setups), "s"});
  }

  // Human-readable summary (stderr), with the sample counts behind the
  // latency quantiles.
  std::fprintf(stderr,
               "perfbench %s: %s, %u threads, seed %llu, %d rounds on %d "
               "maps\n",
               w.name, MapT::name().data(), threads,
               static_cast<unsigned long long>(seed), kRounds, kMaps);
  for (unsigned op = 0; op < kOpCount; ++op) {
    std::fprintf(stderr, "  %-6s latency samples: %llu\n", kOpNames[op],
                 static_cast<unsigned long long>(all.lat[op].count()));
  }
  std::fprintf(stderr, "  Mop/s per round:");
  for (const double m : round_mops) std::fprintf(stderr, " %.3f", m);
  std::fprintf(stderr, "\n  set-ups: %zu, median %.4f s\n", setups.size(),
               median(setups));
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-34s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }

  print_result(bench.failed() == 0, bench.attempted(), bench.failed(), metrics);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: lot_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Fix the C allocator's mmap threshold. glibc otherwise raises it the
  // first time a large block is freed, and whether the pool's 64 KiB slabs
  // then come from mmap (which pads each to twice its size) or from the
  // heap would hinge on what the process happened to free before.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  const auto threads = static_cast<unsigned>(
      std::clamp<std::size_t>(allowed_cpus().size(), 1, kMaxThreads));
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(val, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(val, "0") != 0;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || seconds <= 0) return usage();

  using Avl = lot::lo::AvlMap<K, V>;
  using AvlLr = lot::lo::PartialAvlMap<K, V>;
  using ShardedAvlLr = lot::shard::ShardedMap<AvlLr, 4>;
  const auto is = [&](const Workload& w) { return workload == w.name; };
  const auto& [large, contended, skewed_lr, snapshot_scan] = kWorkloads;
  if (is(large)) return run<Avl>(large, seed, seconds, trace, threads);
  if (is(contended)) return run<Avl>(contended, seed, seconds, trace, threads);
  if (is(skewed_lr)) {
    return run<ShardedAvlLr>(skewed_lr, seed, seconds, trace, threads);
  }
  if (is(snapshot_scan)) {
    return run<AvlLr>(snapshot_scan, seed, seconds, trace, threads);
  }
  return usage();
}
