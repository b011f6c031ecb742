#include "reclaim/ebr.hpp"

#include <cassert>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

namespace lot::reclaim {
namespace {

// Registry of live domains, so thread-exit cleanup never touches a domain
// that was already destroyed (a thread's cached record pointer may outlive
// a test-scoped domain).
std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

std::unordered_set<EbrDomain*>& live_domains() {
  static std::unordered_set<EbrDomain*> s;
  return s;
}

// Serializes record-pool growth (rare: once per kMaxThreads of peak
// oversubscription). Shared across domains; growth is far off any hot path.
std::mutex& grow_mutex() {
  static std::mutex m;
  return m;
}

std::uint64_t next_domain_uid() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t this_thread_hash() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

// Per-thread cache mapping domains to acquired records. A linear table:
// a thread usually touches one or two domains, so the hit path is a short
// scan. Entries of destroyed domains are reused on the miss path, so a
// thread that outlives many domains (one serving successive sharded maps)
// keeps a table as long as its live domains, never one per domain it saw.
struct TlsCache {
  struct Entry {
    EbrDomain* domain = nullptr;
    std::uint64_t uid = 0;
    EbrDomain::Record* record = nullptr;
  };
  std::vector<Entry> entries;

  // Caller holds the registry mutex. A uid mismatch means the address now
  // belongs to a later domain; the entry's own domain is gone.
  static bool alive(const Entry& e) {
    return live_domains().count(e.domain) > 0 && e.domain->uid_ == e.uid;
  }

  ~TlsCache() {
    // Release records back to their domains — but only for domains that
    // still exist.
    std::lock_guard<std::mutex> lock(registry_mutex());
    for (auto& e : entries) {
      if (e.record != nullptr && alive(e)) {
        e.domain->release_record_of_exiting_thread(e.record);
      }
    }
    // Leave an empty table, not a dangling one, for any free that runs
    // later in this thread's teardown (static destructors on main).
    std::vector<Entry>().swap(entries);
  }

  EbrDomain::Record*& slot_for(EbrDomain* d, std::uint64_t uid) {
    for (auto& e : entries) {
      if (e.domain == d && e.uid == uid) return e.record;
    }
    // Miss: reuse an entry whose domain died (its record went with it) or
    // whose acquisition never completed. Live entries are never evicted,
    // so no record is ever dropped while it may still be pinned.
    std::lock_guard<std::mutex> lock(registry_mutex());
    for (auto& e : entries) {
      if (e.record == nullptr || !alive(e)) {
        e = Entry{d, uid, nullptr};
        return e.record;
      }
    }
    entries.push_back(Entry{d, uid, nullptr});
    return entries.back().record;
  }
};

namespace {
TlsCache& tls_cache() {
  thread_local TlsCache cache;
  return cache;
}
}  // namespace

EbrDomain::EbrDomain() : uid_(next_domain_uid()) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  live_domains().insert(this);
}

EbrDomain::~EbrDomain() {
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    live_domains().erase(this);
  }
  // By contract no guards are active at destruction; everything retired is
  // now safe to free. Overflow chunks go with the domain.
  RecordChunk* chunk = &head_chunk_;
  while (chunk != nullptr) {
    for (auto& rec : chunk->records) {
      assert(rec.pinned_epoch.load(std::memory_order_relaxed) == 0);
      for (auto& r : rec.retired) r.deleter(r.ptr);
      rec.retired.clear();
    }
    RecordChunk* next = chunk->next.load(std::memory_order_relaxed);
    if (chunk != &head_chunk_) delete chunk;
    chunk = next;
  }
}

void EbrDomain::for_each_domain_impl(void (*fn)(EbrDomain&, void*),
                                     void* ctx) {
  // Safe under the registry mutex: a destructing domain erases itself
  // here *before* freeing anything, so every enumerated pointer is alive
  // for the duration of the lock.
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (EbrDomain* d : live_domains()) fn(*d, ctx);
}

std::size_t EbrDomain::live_domain_count() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  return live_domains().size();
}

EbrDomain& EbrDomain::global_domain() {
  static EbrDomain domain;
  return domain;
}

EbrDomain::Record* EbrDomain::acquire_record() {
  auto*& cached = tls_cache().slot_for(this, uid_);
  if (cached != nullptr) return cached;
  const std::uint64_t owner = this_thread_hash();
  for (;;) {
    RecordChunk* last = &head_chunk_;
    for (RecordChunk* c = &head_chunk_; c != nullptr;
         c = c->next.load(std::memory_order_seq_cst)) {
      last = c;
      for (auto& rec : c->records) {
        bool expected = false;
        if (!rec.in_use.load(std::memory_order_relaxed) &&
            rec.in_use.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
          rec.owner.store(owner, std::memory_order_relaxed);
          cached = &rec;
          return cached;
        }
      }
    }
    // More simultaneous threads than the pool holds: grow by one chunk
    // rather than failing. Double-checked under the mutex — a racing
    // grower may have appended already, in which case just rescan. A
    // bad_alloc here propagates with no domain state changed (the caller's
    // operation has touched nothing yet).
    std::lock_guard<std::mutex> lock(grow_mutex());
    if (last->next.load(std::memory_order_seq_cst) == nullptr) {
      RecordChunk* fresh = new RecordChunk;
      last->next.store(fresh, std::memory_order_seq_cst);
      pool_growths_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void EbrDomain::release_record_of_exiting_thread(Record* rec) {
  // Called with the registry mutex held, from the exiting thread's TLS
  // destructor. The retired list stays with the record; the next owner,
  // flush()'s steal path, or the domain destructor frees it when eligible.
  rec->guard_depth = 0;
  rec->pinned_epoch.store(0, std::memory_order_release);
  rec->in_use.store(false, std::memory_order_release);
}

EbrDomain::Guard EbrDomain::guard() {
  Record* rec = acquire_record();
  if (rec->guard_depth++ == 0) pin(*rec);
  return Guard(this, rec);
}

void EbrDomain::pin(Record& rec) {
  // The store must be visible before we re-check the global epoch, or a
  // concurrent advance could miss this pin; hence seq_cst on both sides.
  std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    rec.pinned_epoch.store(e, std::memory_order_seq_cst);
    const std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
    if (now == e) return;
    e = now;
  }
}

void EbrDomain::unpin(Record& rec) {
  rec.pinned_epoch.store(0, std::memory_order_release);
  // End of any watchdog episode this record was accumulating; the load is
  // on a line this thread owns, so the common no-stall case stays cheap.
  if (rec.stall_strikes.load(std::memory_order_relaxed) != 0) {
    rec.stall_strikes.store(0, std::memory_order_relaxed);
    rec.stall_epoch_seen.store(0, std::memory_order_relaxed);
    rec.stall_reported.store(false, std::memory_order_relaxed);
  }
}

void EbrDomain::retire_raw(void* p, void (*deleter)(void*)) {
  Record* rec = acquire_record();
  lock_list(*rec);
  const bool pushed = push_retired(
      *rec, {p, deleter, global_epoch_.load(std::memory_order_acquire)});
  unlock_list(*rec);
  if (!pushed) {
    return;  // emergency leak, counted; nothing more we can safely do
  }
  const std::size_t backlog =
      rec->retired_count.load(std::memory_order_relaxed);
  // Retire-backlog high-water gauge (stats().backlog_peak). The peak only
  // rarely moves, so the common case is one relaxed load and no RMW.
  std::size_t peak = backlog_peak_.load(std::memory_order_relaxed);
  while (backlog > peak &&
         !backlog_peak_.compare_exchange_weak(peak, backlog,
                                              std::memory_order_relaxed)) {
  }
  if (backlog >=
      backlog_high_water_.load(std::memory_order_relaxed)) {
    // Backpressure: past the high-water mark retires pay for full
    // reclamation attempts. Two advances move this record's whole backlog
    // out of the danger window when nothing is pinned; a straggler stops
    // the loop early (and accrues a watchdog strike inside try_advance).
    // Amortization: each advance attempt is an O(record_capacity) scan
    // that is doomed while the straggler pins the epoch still, so while
    // the epoch has not moved since this record's last attempt, only every
    // stride-th retire repeats it. Any epoch movement re-arms an immediate
    // attempt — a drained stall collapses the backlog on the very next
    // retire, not a stride later.
    const std::uint64_t seen = global_epoch_.load(std::memory_order_acquire);
    if (seen != rec->bp_last_epoch || rec->bp_cooldown == 0) {
      backpressure_hits_.fetch_add(1, std::memory_order_relaxed);
      for (int i = 0; i < 2; ++i) {
        if (!try_advance()) break;
      }
      if (global_epoch_.load(std::memory_order_acquire) !=
          rec->last_scan_epoch.load(std::memory_order_relaxed)) {
        free_eligible(*rec);
      }
      rec->bp_last_epoch = global_epoch_.load(std::memory_order_acquire);
      rec->bp_cooldown =
          backpressure_stride_.load(std::memory_order_relaxed) - 1;
    } else {
      --rec->bp_cooldown;
      backpressure_throttled_.fetch_add(1, std::memory_order_relaxed);
    }
    rec->since_last_scan = 0;
  } else {
    if (++rec->since_last_scan >=
        retire_threshold_.load(std::memory_order_relaxed)) {
      rec->since_last_scan = 0;
      try_advance();
      if (global_epoch_.load(std::memory_order_acquire) !=
          rec->last_scan_epoch.load(std::memory_order_relaxed)) {
        free_eligible(*rec);
      }
    }
  }
}

bool EbrDomain::push_retired(Record& rec, const Retired& r) {
  if (rec.retired.size() == rec.retired.capacity()) {
    // Growth imminent and growth can fail. On bad_alloc, free eligible
    // entries in place (rewrites the vector without allocating) and retry
    // within the existing capacity.
    try {
      rec.retired.push_back(r);
      rec.retired_count.store(rec.retired.size(), std::memory_order_relaxed);
      return true;
    } catch (const std::bad_alloc&) {
      try_advance();
      try_advance();
      free_eligible_locked(rec);
      if (rec.retired.size() < rec.retired.capacity()) {
        rec.retired.push_back(r);
        rec.retired_count.store(rec.retired.size(),
                                std::memory_order_relaxed);
        return true;
      }
      // Fully pinned *and* out of memory: deliberately leak this one
      // object. Freeing it could be a use-after-free (guards may hold
      // it); blocking could deadlock against the pinned straggler.
      emergency_leaks_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  rec.retired.push_back(r);
  rec.retired_count.store(rec.retired.size(), std::memory_order_relaxed);
  return true;
}

bool EbrDomain::try_advance() {
  const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
  std::size_t index = 0;
  for (RecordChunk* c = &head_chunk_; c != nullptr;
       c = c->next.load(std::memory_order_seq_cst)) {
    for (auto& rec : c->records) {
      const std::uint64_t pinned =
          rec.pinned_epoch.load(std::memory_order_seq_cst);
      if (pinned != 0 && pinned < e) {
        note_stall(rec, index, pinned);  // straggler in an old epoch
        return false;
      }
      ++index;
    }
  }
  std::uint64_t expected = e;
  global_epoch_.compare_exchange_strong(expected, e + 1,
                                        std::memory_order_seq_cst);
  return true;  // someone advanced (us or a racing thread)
}

namespace {
std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

void EbrDomain::note_stall(Record& rec, std::size_t index,
                           std::uint64_t pinned) {
  if (rec.stall_epoch_seen.load(std::memory_order_relaxed) != pinned) {
    // New episode (or the straggler finally moved): restart the count.
    rec.stall_epoch_seen.store(pinned, std::memory_order_relaxed);
    rec.stall_since_us.store(steady_now_us(), std::memory_order_relaxed);
    rec.stall_strikes.store(1, std::memory_order_relaxed);
    return;
  }
  const std::uint32_t strikes =
      rec.stall_strikes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (strikes < stall_strike_limit_.load(std::memory_order_relaxed)) return;
  // Strike counts are attempt-rate-dependent — full-tilt churn can burn
  // the whole limit inside one healthy microseconds-long pin — so a
  // report additionally requires the episode to have *aged*: only a
  // straggler that is both struck often and stuck long is a stall. The
  // clock is only read at/after the strike limit, never on the common
  // transient-strike path.
  const std::uint64_t min_age = stall_report_us_.load(std::memory_order_relaxed);
  if (min_age != 0 &&
      steady_now_us() -
              rec.stall_since_us.load(std::memory_order_relaxed) <
          min_age) {
    return;
  }
  if (!rec.stall_reported.exchange(true, std::memory_order_relaxed)) {
    stall_fires_.fetch_add(1, std::memory_order_relaxed);
    stalled_record_.store(index, std::memory_order_relaxed);
    stalled_epoch_.store(pinned, std::memory_order_relaxed);
    stalled_owner_.store(rec.owner.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
}

void EbrDomain::free_eligible(Record& rec) {
  lock_list(rec);
  free_eligible_locked(rec);
  unlock_list(rec);
}

void EbrDomain::free_eligible_locked(Record& rec) {
  // Safe to free anything retired at least two epochs ago: every guard
  // active at (or before) the retire epoch has ended, and no newer guard
  // can reach an object that was unlinked before retirement. Deleters run
  // under the list lock, so they must not retire into the same domain —
  // they never do here (node destructors don't retire), and even the
  // unlocked seed code relied on that (a reentrant retire would have
  // mutated the vector mid-scan).
  const std::uint64_t safe_before =
      global_epoch_.load(std::memory_order_acquire);
  rec.last_scan_epoch.store(safe_before, std::memory_order_relaxed);
  if (safe_before < 3) return;
  auto& list = rec.retired;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].epoch <= safe_before - 2) {
      list[i].deleter(list[i].ptr);
    } else {
      list[kept++] = list[i];
    }
  }
  list.resize(kept);
  rec.retired_count.store(kept, std::memory_order_relaxed);
}

void EbrDomain::flush() {
  // Two advances move everything currently retired out of the danger
  // window (when no guards are pinned; otherwise we free what we can).
  try_advance();
  try_advance();
  Record* mine = acquire_record();
  for_each_record([&](Record& rec, std::size_t) {
    if (&rec == mine) return;
    // Claim records whose owner threads have exited so their leftover
    // backlog can be stolen; records of running threads are swept only if
    // their list lock is free (a busy owner will reclaim through its own
    // retire cycles — never block it, never race it).
    bool expected = false;
    if (rec.in_use.load(std::memory_order_relaxed) ||
        !rec.in_use.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel)) {
      if (try_lock_list(rec)) {
        free_eligible_locked(rec);
        unlock_list(rec);
      }
      return;
    }
    // Claimed an ownerless record. Free what's eligible, then steal the
    // remainder into the caller's record: it drains through the caller's
    // ordinary retire cycles instead of waiting for this slot to be
    // reacquired. The swap-through-a-temporary keeps us from ever holding
    // two list locks at once (lock-order cycles between concurrent
    // flushers), and swap itself cannot throw.
    lock_list(rec);
    free_eligible_locked(rec);
    std::vector<Retired> stolen;
    stolen.swap(rec.retired);
    rec.retired_count.store(0, std::memory_order_relaxed);
    unlock_list(rec);
    if (!stolen.empty()) {
      lock_list(*mine);
      try {
        mine->retired.insert(mine->retired.end(), stolen.begin(),
                             stolen.end());
        mine->retired_count.store(mine->retired.size(),
                                  std::memory_order_relaxed);
        mine->last_scan_epoch.store(0, std::memory_order_relaxed);
        backlog_steals_.fetch_add(stolen.size(), std::memory_order_relaxed);
        stolen.clear();
      } catch (const std::bad_alloc&) {
        // No room to adopt it; hand the list back to the idle slot below.
      }
      unlock_list(*mine);
      if (!stolen.empty()) {
        lock_list(rec);
        rec.retired.swap(stolen);
        rec.retired_count.store(rec.retired.size(),
                                std::memory_order_relaxed);
        rec.last_scan_epoch.store(0, std::memory_order_relaxed);
        unlock_list(rec);
      }
    }
    rec.since_last_scan = 0;
    rec.in_use.store(false, std::memory_order_release);
  });
  free_eligible(*mine);
}

std::size_t EbrDomain::pending_retired() const {
  std::size_t n = 0;
  for_each_record([&n](const Record& rec, std::size_t) {
    n += rec.retired_count.load(std::memory_order_relaxed);
  });
  return n;
}

EbrDomain::Stats EbrDomain::stats() const {
  Stats s;
  s.epoch = global_epoch_.load(std::memory_order_acquire);
  for_each_record([&s](const Record& rec, std::size_t) {
    ++s.record_capacity;
    s.pending_retired += rec.retired_count.load(std::memory_order_relaxed);
    if (rec.in_use.load(std::memory_order_relaxed)) ++s.records_in_use;
    const std::uint64_t pinned =
        rec.pinned_epoch.load(std::memory_order_acquire);
    if (pinned != 0 &&
        (s.min_pinned_epoch == 0 || pinned < s.min_pinned_epoch)) {
      s.min_pinned_epoch = pinned;
    }
    if (rec.stall_reported.load(std::memory_order_relaxed) &&
        rec.pinned_epoch.load(std::memory_order_relaxed) != 0) {
      s.stalled_now = true;
    }
  });
  if (s.min_pinned_epoch != 0 && s.epoch > s.min_pinned_epoch) {
    s.epoch_lag = s.epoch - s.min_pinned_epoch;
  }
  s.backlog_peak = backlog_peak_.load(std::memory_order_relaxed);
  s.pool_growths = pool_growths_.load(std::memory_order_relaxed);
  s.backpressure_hits = backpressure_hits_.load(std::memory_order_relaxed);
  s.backpressure_throttled =
      backpressure_throttled_.load(std::memory_order_relaxed);
  s.backlog_steals = backlog_steals_.load(std::memory_order_relaxed);
  s.emergency_leaks = emergency_leaks_.load(std::memory_order_relaxed);
  s.stall_watchdog_fires = stall_fires_.load(std::memory_order_relaxed);
  s.stalled_record = stalled_record_.load(std::memory_order_relaxed);
  s.stalled_epoch = stalled_epoch_.load(std::memory_order_relaxed);
  s.stalled_owner = stalled_owner_.load(std::memory_order_relaxed);
  s.contention_events = contention_events_.load(std::memory_order_relaxed);
  s.pool = PoolStats::snapshot();
  return s;
}

}  // namespace lot::reclaim
