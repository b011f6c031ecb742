// Epoch-based memory reclamation (EBR).
//
// The logical-ordering trees (and the lock-free baselines) traverse nodes
// without holding locks, including nodes that have already been unlinked.
// The paper's Java implementation leans on the JVM garbage collector for
// this; in C++ we must guarantee ourselves that a node is not freed while
// some thread may still dereference it. EBR provides exactly that:
//
//  * every operation executes under a Guard, which pins the thread to the
//    current global epoch;
//  * removed nodes are retire()d, not deleted; a retired node is freed only
//    once the global epoch has advanced twice past its retirement epoch,
//    which implies every guard that could have seen the node has ended.
//
// The domain owns a pool of per-thread records, organised as a chain of
// fixed-size chunks that grows on demand — oversubscription past the
// initial kMaxThreads slots allocates another chunk instead of aborting.
// A thread lazily acquires a record on first use and caches it in a
// thread-local table; the record (and any not-yet-freed retired objects in
// it) returns to the pool when the thread exits, so no memory is orphaned.
//
// Hardening (DESIGN.md §9 failure model):
//  * stall watchdog — a record pinned at the same epoch across
//    stall_strike_limit failed advance attempts (i.e. across that many
//    retire cycles) is flagged, with owner diagnostics surfaced through
//    stats(); the flag clears when the straggler unpins.
//  * backlog backpressure — a retire that finds its record's list beyond
//    backlog_high_water forces advance+free regardless of the scan
//    threshold, so a drained stall collapses the backlog promptly and a
//    healthy domain can never accumulate more than one high-water mark of
//    garbage per thread.
//  * quiescent steal — flush() adopts the retired lists of records whose
//    owner threads have exited, so their backlog drains through the
//    caller's normal retire cycles instead of waiting for reacquisition.
//  * OOM-safe bookkeeping — if growing a retire list throws bad_alloc the
//    domain frees eligible entries in place to make room and, in the
//    degenerate fully-pinned-and-OOM case, deliberately leaks the one
//    object (counted in stats) rather than risk use-after-free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "reclaim/alloc_stats.hpp"
#include "sync/cacheline.hpp"

namespace lot::reclaim {

class EbrDomain {
 public:
  /// Record slots per pool chunk (and the initial pool capacity). More
  /// simultaneous threads than this grow the pool instead of failing.
  static constexpr std::size_t kMaxThreads = 64;
  static constexpr std::size_t kDefaultRetireThreshold = 128;
  /// Per-record retired-list length beyond which every retire forces an
  /// advance+free attempt (backpressure), bypassing the scan threshold.
  static constexpr std::size_t kDefaultBacklogHighWater = 4096;
  /// Failed advance attempts against the same pinned epoch before the
  /// stall watchdog flags the record.
  static constexpr std::uint32_t kDefaultStallStrikeLimit = 64;
  /// Wall-clock persistence a strike episode must ALSO show before it is
  /// reported. Strike counts alone are attempt-rate-dependent: at
  /// full-tilt churn the retire paths attempt advances so often that a
  /// healthy microseconds-long pin can eat the whole strike limit; a
  /// genuinely wedged straggler is distinguished by the episode's age,
  /// not its attempt count. The default sits above the round-robin
  /// latency of an oversubscribed-but-healthy box (threads × scheduler
  /// slice can reach tens of ms on small CI machines) so routine
  /// preemption does not flap the governor; a genuinely wedged reader is
  /// stuck for far longer, and the epoch-lag persistence signal in the
  /// governor covers the window below this line. 0 restores attempt-only
  /// semantics (tests).
  static constexpr std::uint64_t kDefaultStallReportUs = 50'000;
  /// While a straggler pins the epoch, only every N-th over-high-water
  /// retire pays for the forced advance attempt (the attempt is a full
  /// O(record_capacity) scan that is doomed until the straggler moves);
  /// any epoch movement re-arms an immediate attempt so a drained stall
  /// still collapses the backlog promptly.
  static constexpr std::size_t kDefaultBackpressureStride = 16;

  EbrDomain();
  ~EbrDomain();
  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  /// Process-wide default domain shared by all trees unless a test passes
  /// its own.
  static EbrDomain& global_domain();

  /// Enumerates every live domain (including global_domain() once it has
  /// been touched) under the registry mutex — safe against concurrent
  /// construction/destruction because the destructor unregisters *before*
  /// it starts tearing the domain down. Multi-domain consumers (the
  /// overload governor, the obs snapshot) use this instead of assuming
  /// the global domain is the only one; sharded maps register one domain
  /// per shard. `fn` must not construct or destroy domains (deadlock).
  template <typename F>
  static void for_each_domain(F&& fn) {
    for_each_domain_impl(
        [](EbrDomain& d, void* ctx) { (*static_cast<F*>(ctx))(d); },
        const_cast<void*>(static_cast<const void*>(&fn)));
  }
  static std::size_t live_domain_count();

  /// Stable identity for this domain incarnation (registry uids start at
  /// 1 and never repeat, even if a new domain reuses this address).
  std::uint64_t uid() const { return uid_; }

  /// Shard-scoped contention odometer (ROADMAP 2(c)). The write paths
  /// (lo/rebalance.hpp note_contention) attribute contention events to the
  /// domain the structure retires through, so a hot shard's pressure is
  /// visible per shard instead of dissolving into one process-wide number.
  /// Relaxed: this is monotonic telemetry.
  void note_contention_event() {
    contention_events_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t contention_events() const {
    return contention_events_.load(std::memory_order_relaxed);
  }

  class Guard;

  /// RAII epoch pin. Re-entrant: nested guards on the same thread are
  /// cheap (a depth increment). A thread's first guard on a domain may
  /// throw std::bad_alloc if the record pool must grow and the allocator
  /// refuses; no domain state changes in that case.
  Guard guard();

  /// Defers `delete_counted(p)` until no guard can reference `p`.
  template <typename T>
  void retire(T* p) {
    retire_raw(p, [](void* q) {
      AllocStats::freed().fetch_add(1, std::memory_order_relaxed);
      delete static_cast<T*>(q);
    });
  }

  /// Defers `Alloc::destroy(p)` until no guard can reference `p` — how the
  /// trees return nodes to whatever allocation policy created them
  /// (reclaim/pool.hpp). With the pool policy the grace period is what
  /// makes slot recycling safe: the slot re-enters a free list only after
  /// every guard that could reach the node has ended, so the pool itself
  /// needs no quarantine of its own. The deleter runs on whichever thread
  /// drains the backlog, which is why the pool's cross-thread free path
  /// (remote-free stacks) is the common case, not the exception.
  template <typename Alloc, typename T>
  void retire_via(T* p) {
    retire_raw(p, [](void* q) { Alloc::template destroy<T>(static_cast<T*>(q)); });
  }

  /// Type-erased variant; `deleter` must be callable from any thread.
  void retire_raw(void* p, void (*deleter)(void*));

  /// Attempts to advance the epoch and free everything eligible, from every
  /// record. Call at quiescence (no active guards) to reach a clean state;
  /// with active guards it frees what it safely can. Retired lists left
  /// behind by exited threads are stolen into the caller's record so they
  /// keep draining through normal retire cycles.
  void flush();

  /// Number of retired-but-not-yet-freed objects (approximate under
  /// concurrency; exact at quiescence).
  std::size_t pending_retired() const;

  /// Lower threshold = more frequent reclamation attempts. Exposed for the
  /// failure-injection tests which force reclamation on every retire.
  void set_retire_threshold(std::size_t n) {
    retire_threshold_.store(n, std::memory_order_relaxed);
  }

  /// Backpressure knob: per-record backlog length beyond which every
  /// retire forces an advance+free attempt.
  void set_backlog_high_water(std::size_t n) {
    backlog_high_water_.store(n, std::memory_order_relaxed);
  }

  /// Watchdog knob: failed advances against one pinned epoch before the
  /// record is reported stalled.
  void set_stall_strike_limit(std::uint32_t n) {
    stall_strike_limit_.store(n, std::memory_order_relaxed);
  }

  /// Watchdog knob: minimum age (µs) of a strike episode before it may be
  /// reported. 0 = attempt-count-only (deterministic test mode).
  void set_stall_report_us(std::uint64_t us) {
    stall_report_us_.store(us, std::memory_order_relaxed);
  }

  /// Amortization knob for the backpressure path: over-high-water retires
  /// between forced advance attempts while the epoch is stuck (1 restores
  /// the attempt-per-retire seed behaviour).
  void set_backpressure_stride(std::size_t n) {
    backpressure_stride_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }

  std::uint64_t epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Point-in-time snapshot of the domain's health counters. Counters are
  /// monotonic; the stalled_* diagnostics describe the most recent
  /// watchdog episode (stalled_now says whether it is still in progress).
  struct Stats {
    std::uint64_t epoch = 0;
    /// Oldest epoch any guard currently pins (0 when nothing is pinned)
    /// and its distance from the global epoch. A lag that keeps growing
    /// is the signature of a stalled reader holding reclamation back —
    /// the leading indicator the stall watchdog later confirms.
    std::uint64_t min_pinned_epoch = 0;
    std::uint64_t epoch_lag = 0;
    std::size_t pending_retired = 0;
    /// High-water mark of any single record's retired-list length (the
    /// quantity backlog_high_water throttles); monotonic.
    std::size_t backlog_peak = 0;
    std::size_t records_in_use = 0;
    std::size_t record_capacity = 0;
    std::uint64_t pool_growths = 0;       // extra chunks allocated
    std::uint64_t backpressure_hits = 0;  // forced advance+free retires
    /// Over-high-water retires that skipped the forced advance because the
    /// epoch was stuck and the record was inside its stride cooldown.
    std::uint64_t backpressure_throttled = 0;
    std::uint64_t backlog_steals = 0;     // entries adopted by flush()
    std::uint64_t emergency_leaks = 0;    // OOM'd retire bookkeeping
    std::uint64_t stall_watchdog_fires = 0;
    /// Shard-scoped contention odometer (note_contention_event) — the
    /// per-domain view of the governor's process-wide odometer.
    std::uint64_t contention_events = 0;
    bool stalled_now = false;
    std::size_t stalled_record = static_cast<std::size_t>(-1);
    std::uint64_t stalled_epoch = 0;  // the epoch the straggler pins
    std::uint64_t stalled_owner = 0;  // hashed owner thread id
    // Slab-pool allocator health (process-global, reclaim/alloc_stats.hpp)
    // in the same snapshot, so a reclamation stall and the allocation
    // pressure it causes are visible side by side.
    PoolSnapshot pool;
  };
  Stats stats() const;

 private:
  static void for_each_domain_impl(void (*fn)(EbrDomain&, void*), void* ctx);

  struct Retired {
    void* ptr;
    void (*deleter)(void*);
    std::uint64_t epoch;
  };

  struct alignas(sync::kCacheLineSize) Record {
    std::atomic<std::uint64_t> pinned_epoch{0};  // 0 = not pinned
    std::atomic<bool> in_use{false};
    unsigned guard_depth = 0;        // owner thread only
    // `retired` is mutated by the owning thread and swept by flush();
    // list_lock arbitrates between them (uncontended on the owner's fast
    // path — flush only try-locks records with a live owner). retired_count
    // mirrors retired.size() so monitoring reads (stats, pending_retired,
    // the backpressure check) never touch the vector itself.
    std::atomic_flag list_lock = ATOMIC_FLAG_INIT;
    std::atomic<std::size_t> retired_count{0};
    std::vector<Retired> retired;
    std::size_t since_last_scan = 0; // owner thread only
    // Backpressure amortization (owner thread only): retires left before
    // the next forced advance attempt, and the epoch the last attempt
    // observed — any movement re-arms an immediate attempt.
    std::size_t bp_cooldown = 0;
    std::uint64_t bp_last_epoch = 0;
    // Epoch free_eligible last scanned this list at. A rescan at the same
    // epoch is provably a no-op (entries pushed since carry the current
    // epoch, never ≤ epoch-2), so the retire paths skip it — without this
    // the backpressure path degrades to an O(backlog) scan per retire
    // while a straggler holds the epoch still. Zeroed when flush() steals
    // into (or hands back) a list, since spliced entries carry old epochs.
    std::atomic<std::uint64_t> last_scan_epoch{0};
    // Watchdog state: how many failed advances observed this record pinned
    // at stall_epoch_seen, when that episode began (steady µs), and
    // whether it was already reported.
    std::atomic<std::uint64_t> stall_epoch_seen{0};
    std::atomic<std::uint64_t> stall_since_us{0};
    std::atomic<std::uint32_t> stall_strikes{0};
    std::atomic<bool> stall_reported{false};
    std::atomic<std::uint64_t> owner{0};  // hashed owner thread id
  };

  /// The record pool grows by whole chunks; records never move, so cached
  /// pointers and in-flight scans stay valid. The `next` links are seq_cst
  /// on both sides: a scanner whose seq_cst loads follow a record's
  /// seq_cst pin in the total order is then guaranteed to observe the
  /// chunk publication that preceded the pin, so try_advance can never
  /// miss a pinned record in a freshly grown chunk.
  struct RecordChunk {
    Record records[kMaxThreads];
    std::atomic<RecordChunk*> next{nullptr};
  };

  Record* acquire_record();
  void pin(Record& rec);
  void unpin(Record& rec);
  bool try_advance();
  void note_stall(Record& rec, std::size_t index, std::uint64_t pinned);
  static void lock_list(Record& rec) {
    while (rec.list_lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  static bool try_lock_list(Record& rec) {
    return !rec.list_lock.test_and_set(std::memory_order_acquire);
  }
  static void unlock_list(Record& rec) {
    rec.list_lock.clear(std::memory_order_release);
  }
  void free_eligible(Record& rec);         // takes list_lock
  void free_eligible_locked(Record& rec);  // caller holds list_lock
  /// push_back with the OOM fallback described in the header comment.
  /// Returns false iff the object had to be leaked. Caller holds list_lock.
  bool push_retired(Record& rec, const Retired& r);
  void release_record_of_exiting_thread(Record* rec);

  template <typename F>
  void for_each_record(F&& fn) {
    std::size_t index = 0;
    for (RecordChunk* c = &head_chunk_; c != nullptr;
         c = c->next.load(std::memory_order_seq_cst)) {
      for (auto& rec : c->records) fn(rec, index++);
    }
  }
  template <typename F>
  void for_each_record(F&& fn) const {
    const_cast<EbrDomain*>(this)->for_each_record(
        [&fn](Record& rec, std::size_t i) {
          fn(static_cast<const Record&>(rec), i);
        });
  }

  std::atomic<std::uint64_t> global_epoch_{1};
  std::uint64_t uid_;  // distinguishes reincarnated domains at one address
  std::atomic<std::size_t> retire_threshold_{kDefaultRetireThreshold};
  std::atomic<std::size_t> backlog_high_water_{kDefaultBacklogHighWater};
  std::atomic<std::uint32_t> stall_strike_limit_{kDefaultStallStrikeLimit};
  std::atomic<std::uint64_t> stall_report_us_{kDefaultStallReportUs};
  std::atomic<std::size_t> backpressure_stride_{kDefaultBackpressureStride};
  RecordChunk head_chunk_;

  // Health counters (stats()).
  std::atomic<std::uint64_t> pool_growths_{0};
  std::atomic<std::size_t> backlog_peak_{0};
  std::atomic<std::uint64_t> backpressure_hits_{0};
  std::atomic<std::uint64_t> backpressure_throttled_{0};
  std::atomic<std::uint64_t> backlog_steals_{0};
  std::atomic<std::uint64_t> emergency_leaks_{0};
  std::atomic<std::uint64_t> stall_fires_{0};
  std::atomic<std::size_t> stalled_record_{static_cast<std::size_t>(-1)};
  std::atomic<std::uint64_t> stalled_epoch_{0};
  std::atomic<std::uint64_t> stalled_owner_{0};
  std::atomic<std::uint64_t> contention_events_{0};

  friend class Guard;
  friend struct TlsCache;
};

class EbrDomain::Guard {
 public:
  Guard(Guard&& o) noexcept : domain_(o.domain_), rec_(o.rec_) {
    o.rec_ = nullptr;
  }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;
  ~Guard() {
    if (rec_ != nullptr && --rec_->guard_depth == 0) domain_->unpin(*rec_);
  }

 private:
  Guard(EbrDomain* d, Record* r) : domain_(d), rec_(r) {}
  EbrDomain* domain_;
  Record* rec_;
  friend class EbrDomain;
};

}  // namespace lot::reclaim
