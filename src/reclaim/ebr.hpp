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
//
// Snapshot floors (DESIGN.md §16). The MVCC layer (lo/mvcc.hpp) needs a
// lower bound on every live snapshot's epoch; each record carries it as
// one slot written only by its owner, so a snapshot acquire or release
// touches no shared lock. The domain also owns the clock those floors
// are read from (EpochSource), so every map on one domain measures its
// stamps and its floors on the same clock. Writers first read a count of
// records that may hold a floor: a record joins it with its thread's
// first view and leaves it once its thread has gone a while without one
// (or exits), so back-to-back views write no shared line besides the
// clock. Only while the count is non-zero do writers scan the records,
// up to a high-water mark of records that ever held a floor.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "reclaim/alloc_stats.hpp"
#include "sync/cacheline.hpp"

namespace lot::reclaim {

/// The MVCC epoch clock (lo/mvcc.hpp has the ordering argument). Every
/// EbrDomain owns one, which every map on the domain reads by default;
/// ShardedMap binds its shards, each on a private domain, to one shared
/// instance instead so per-shard snapshots compose into a single cut.
/// Only cuts write it. Alone on its line: every cut writes it, and a
/// map's hot fields must not share that.
class alignas(sync::kCacheLineSize) EpochSource {
 public:
  /// Current epoch, without advancing the clock — a snapshot's
  /// pessimistic floor token, which is <= any cut taken after it.
  std::uint64_t now() const { return counter_.load(std::memory_order_seq_cst); }

  /// Draws a stamp for a write: the current epoch. A seq_cst load, so
  /// it is >= E + 1 for every cut E whose RMW precedes it in the seq_cst
  /// total order and <= E for every cut it precedes.
  std::uint64_t next_stamp() const {
    return counter_.load(std::memory_order_seq_cst);
  }

  /// Takes a snapshot's cut: advances the clock and returns the epoch
  /// before the increment as E. Every stamp drawn before this RMW is
  /// <= E, every stamp drawn after it is > E. The clock's only writer.
  std::uint64_t cut() {
    return counter_.fetch_add(1, std::memory_order_seq_cst);
  }

 private:
  std::atomic<std::uint64_t> counter_{1};
};

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

  /// The domain's snapshot clock: what every map on this domain stamps
  /// writes and takes cuts with, unless rebound to a shared clock
  /// (LoCore::use_epoch_source, for maps on a private domain only).
  EpochSource& snapshot_clock() { return snapshot_clock_; }

  /// The floor of a record that holds no snapshot (== lo::mvcc::kNoSnapshot).
  static constexpr std::uint64_t kNoFloor = ~std::uint64_t{0};

  class SnapshotFloor;

  /// Publishes the calling thread's snapshot floor until the returned
  /// handle is destroyed: `token` must be a clock value read before the
  /// snapshot's cut, so the floor is <= its epoch. A thread's floor is
  /// the min of its live snapshots' tokens, in whatever order they are
  /// released (a small thread-local table tracks them); the seq_cst
  /// stores precede the caller's cut RMW (the Dekker pairing with
  /// snapshot_floor_min). The handle is thread-affine like a Guard:
  /// destroy it on the thread that entered. May throw std::bad_alloc
  /// like guard(), with no domain state changed.
  SnapshotFloor enter_snapshot(std::uint64_t token);

  /// The lowest live floor (kNoFloor when no thread holds a snapshot): a
  /// lower bound on every live snapshot's epoch. A node that died at `d`
  /// may still be needed by a live snapshot iff this is below `d`.
  /// Seq_cst loads, so a floor this misses was published after the
  /// caller's stamp draw (the Dekker pairing with enter_snapshot).
  std::uint64_t snapshot_floor_min() const {
    std::uint64_t m = kNoFloor;
    for_each_floor([&m](std::uint64_t f) {
      if (f < m) m = f;
      return false;
    });
    return m;
  }

  /// Records (threads) currently holding a floor on this domain.
  std::size_t snapshot_holders() const {
    std::size_t n = 0;
    for_each_floor([&n](std::uint64_t f) {
      n += f != kNoFloor ? 1 : 0;
      return false;
    });
    return n;
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
    // Owner thread only: whether snap_hwm_ already covers this record
    // (it never shrinks, so the answer outlives the owner).
    bool snap_listed = false;
    // Owner thread only: whether snap_live_ counts this record, and the
    // outermost guards taken since its last view went (snapshot floors
    // above: a counted record stays counted across back-to-back views).
    bool snap_counted = false;
    std::uint8_t snap_idle = 0;
    unsigned guard_depth = 0;        // owner thread only
    unsigned snap_depth = 0;         // owner thread only: live floors
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
    // Snapshot floor (enter_snapshot): written by the owner, read by
    // writers' limbo decisions. The last 8 bytes of the second line.
    std::atomic<std::uint64_t> snap_floor{kNoFloor};
  };
  static_assert(sizeof(Record) == 2 * sync::kCacheLineSize,
                "the snapshot floor must fit the record's two lines");

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
  void list_snapshot_holder(Record& rec);
  void exit_snapshot(Record& rec, std::uint64_t token);
  void note_snapshot_idle(Record& rec);
  static constexpr std::uint8_t kSnapIdleGuards = 64;

  /// Visits the floors of records [0, snap_hwm_) until fn returns true;
  /// none while snap_live_ reads 0. A record is counted from its first
  /// floor until kSnapIdleGuards outermost guards pass with no view of
  /// its thread live, so a thread that snapshots often pays no shared
  /// write per view. The count is raised (seq_cst) before
  /// a record's floor is stored and the mark before the count, so a
  /// visit that skips a live floor read the count before that floor's
  /// thread raised it, hence before the thread's cut.
  template <typename F>
  void for_each_floor(F&& fn) const {
    if (snap_live_.load(std::memory_order_seq_cst) == 0) return;
    std::size_t n = snap_hwm_.load(std::memory_order_seq_cst);
    for (const RecordChunk* c = &head_chunk_; n != 0 && c != nullptr;
         c = c->next.load(std::memory_order_seq_cst)) {
      const std::size_t k = n < kMaxThreads ? n : kMaxThreads;
      for (std::size_t i = 0; i < k; ++i) {
        if (fn(c->records[i].snap_floor.load(std::memory_order_seq_cst))) {
          return;
        }
      }
      n -= k;
    }
  }

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
  // Records that may hold a floor (Record::snap_counted); and one past
  // the highest record index that ever held a floor (raised once per
  // record, never lowered). Off
  // the fields above: writers read this line on every removal and
  // revive, and a domain that never snapshots never writes it.
  alignas(sync::kCacheLineSize) std::atomic<std::size_t> snap_live_{0};
  std::atomic<std::size_t> snap_hwm_{0};
  EpochSource snapshot_clock_;
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
  friend class SnapshotFloor;
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

/// One snapshot's hold on its thread's floor (enter_snapshot). It keeps
/// the record it entered on, as a Guard does, so the exit lands there.
class EbrDomain::SnapshotFloor {
 public:
  SnapshotFloor(SnapshotFloor&& o) noexcept
      : domain_(o.domain_), rec_(std::exchange(o.rec_, nullptr)),
        token_(o.token_) {}
  SnapshotFloor(const SnapshotFloor&) = delete;
  SnapshotFloor& operator=(const SnapshotFloor&) = delete;
  ~SnapshotFloor() {
    if (rec_ != nullptr) domain_->exit_snapshot(*rec_, token_);
  }

 private:
  SnapshotFloor(EbrDomain* d, Record* r, std::uint64_t token)
      : domain_(d), rec_(r), token_(token) {}
  EbrDomain* domain_;
  Record* rec_;
  std::uint64_t token_;
  friend class EbrDomain;
};

}  // namespace lot::reclaim
