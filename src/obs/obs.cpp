#include "obs/obs.hpp"

#include <cinttypes>
#include <cstdio>

#include "reclaim/alloc_stats.hpp"

namespace lot::obs {

namespace {

// Formatted append: the report is a few KiB of controlled identifiers
// and integers, so snprintf straight into the std::string is plenty. The
// first call sizes the line, which for the JSON gauges runs to several
// hundred bytes.
template <typename... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  if (n <= 0) return;
  const std::size_t at = out.size();
  out.resize(at + static_cast<std::size_t>(n) + 1);
  std::snprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                args...);
  out.resize(at + static_cast<std::size_t>(n));
}

}  // namespace

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Snapshot Registry::snapshot(const reclaim::EbrDomain* domain) const {
  Snapshot s;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    s.counters[i] = counter_total(static_cast<Counter>(i));
  }
  for (std::size_t i = 0; i < kOpKindCount; ++i) {
    s.latency[i] = latency_histogram(static_cast<OpKind>(i)).stats();
  }
  const reclaim::EbrDomain& d =
      domain != nullptr ? *domain : reclaim::EbrDomain::global_domain();
  s.ebr = d.stats();
  // One row per live domain. stats() only reads atomics, so taking it
  // inside the registry enumeration is safe — the registry mutex orders
  // us against domain construction/destruction, nothing else.
  s.domains.reserve(reclaim::EbrDomain::live_domain_count());
  reclaim::EbrDomain::for_each_domain([&s](reclaim::EbrDomain& dom) {
    const auto st = dom.stats();
    Snapshot::DomainRow row;
    row.uid = dom.uid();
    row.epoch = st.epoch;
    row.epoch_lag = st.epoch_lag;
    row.pending_retired = st.pending_retired;
    row.backlog_peak = st.backlog_peak;
    row.contention_events = st.contention_events;
    row.stalled_now = st.stalled_now;
    s.domains.push_back(row);
  });
  s.live_nodes = reclaim::AllocStats::live();
  s.counter_shards = counter_shards();
  return s;
}

void Registry::reset() {
  reset_counters();
  reset_latency_histograms();
}

std::string Snapshot::to_text() const {
  std::string out;
  out += "== obs snapshot ==\n";
  appendf(out, "counters (%zu shards):\n", counter_shards);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    appendf(out, "  %-22s %12" PRIu64 "\n",
            counter_name(static_cast<Counter>(i)), counters[i]);
  }
  appendf(out, "  %-22s %12lld  (derived; 0 == the paper's claim)\n",
          "contains_restarts", static_cast<long long>(contains_restarts()));
  out += "latency (sampled, ns):\n";
  for (std::size_t i = 0; i < kOpKindCount; ++i) {
    const HistogramStats& h = latency[i];
    if (h.count == 0) continue;
    appendf(out,
            "  %-8s n=%-9" PRIu64 " p50=%-8.0f p90=%-8.0f p99=%-8.0f "
            "max=%" PRIu64 " mean=%.0f\n",
            op_kind_name(static_cast<OpKind>(i)), h.count, h.p50_ns, h.p90_ns,
            h.p99_ns, h.max_ns, h.mean_ns);
  }
  out += "gauges:\n";
  appendf(out, "  epoch=%" PRIu64 " min_pinned=%" PRIu64 " lag=%" PRIu64
               " pending_retired=%zu backlog_peak=%zu\n",
          ebr.epoch, ebr.min_pinned_epoch, ebr.epoch_lag, ebr.pending_retired,
          ebr.backlog_peak);
  appendf(out, "  records=%zu/%zu pool_growths=%" PRIu64
               " backpressure=%" PRIu64 "/%" PRIu64 " steals=%" PRIu64
               " leaks=%" PRIu64 "\n",
          ebr.records_in_use, ebr.record_capacity, ebr.pool_growths,
          ebr.backpressure_hits, ebr.backpressure_throttled,
          ebr.backlog_steals, ebr.emergency_leaks);
  appendf(out, "  stall_fires=%" PRIu64 " stalled_now=%s "
               "fallback_outstanding=%" PRIu64 "\n",
          ebr.stall_watchdog_fires, ebr.stalled_now ? "true" : "false",
          ebr.pool.fallback_outstanding());
  appendf(out, "  domains=%zu total_pending=%zu max_lag=%" PRIu64
               " any_stalled=%s\n",
          domains.size(), total_pending_retired(), max_epoch_lag(),
          any_stalled() ? "true" : "false");
  for (const DomainRow& d : domains) {
    appendf(out, "    domain[%" PRIu64 "]: epoch=%" PRIu64 " lag=%" PRIu64
                 " pending=%zu backlog_peak=%zu heat=%" PRIu64
                 " stalled=%s\n",
            d.uid, d.epoch, d.epoch_lag, d.pending_retired, d.backlog_peak,
            d.contention_events, d.stalled_now ? "true" : "false");
  }
  appendf(out, "  pool: slabs=%" PRIu64 " huge_chunks=%" PRIu64
               " allocs=%" PRIu64 " frees=%" PRIu64
               " remote_frees=%" PRIu64 " harvests=%" PRIu64 "\n",
          ebr.pool.slabs, ebr.pool.huge_chunks, ebr.pool.allocs,
          ebr.pool.frees, ebr.pool.remote_frees, ebr.pool.harvests);
  appendf(out, "  pool: fallback=%" PRIu64 "/%" PRIu64 " caches=%" PRIu64
               "+%" PRIu64 " adopted; live_nodes=%" PRIu64 "\n",
          ebr.pool.fallback_allocs, ebr.pool.fallback_frees,
          ebr.pool.caches_created, ebr.pool.caches_adopted, live_nodes);
  return out;
}

std::string Snapshot::to_json() const {
  std::string out;
  out += "{\n  \"schema\": \"lot-obs-v1\",\n";
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    appendf(out, "%s\"%s\": %" PRIu64, i == 0 ? "" : ", ",
            counter_name(static_cast<Counter>(i)), counters[i]);
  }
  out += "},\n";
  appendf(out, "  \"contains_restarts\": %lld,\n",
          static_cast<long long>(contains_restarts()));
  out += "  \"latency_ns\": {";
  for (std::size_t i = 0; i < kOpKindCount; ++i) {
    const HistogramStats& h = latency[i];
    appendf(out,
            "%s\"%s\": {\"count\": %" PRIu64 ", \"p50\": %.1f, "
            "\"p90\": %.1f, \"p99\": %.1f, \"max\": %" PRIu64
            ", \"mean\": %.1f}",
            i == 0 ? "" : ", ", op_kind_name(static_cast<OpKind>(i)), h.count,
            h.p50_ns, h.p90_ns, h.p99_ns, h.max_ns, h.mean_ns);
  }
  out += "},\n";
  out += "  \"gauges\": {";
  appendf(out, "\"epoch\": %" PRIu64 ", \"min_pinned_epoch\": %" PRIu64
               ", \"epoch_lag\": %" PRIu64 ", \"pending_retired\": %zu, "
               "\"backlog_peak\": %zu, \"records_in_use\": %zu, "
               "\"record_capacity\": %zu, ",
          ebr.epoch, ebr.min_pinned_epoch, ebr.epoch_lag, ebr.pending_retired,
          ebr.backlog_peak, ebr.records_in_use, ebr.record_capacity);
  appendf(out, "\"pool_growths\": %" PRIu64 ", \"backpressure_hits\": %" PRIu64
               ", \"backpressure_throttled\": %" PRIu64
               ", \"backlog_steals\": %" PRIu64 ", \"emergency_leaks\": %" PRIu64
               ", \"stall_watchdog_fires\": %" PRIu64 ", \"stalled_now\": %s"
               ", \"fallback_outstanding\": %" PRIu64 ", ",
          ebr.pool_growths, ebr.backpressure_hits, ebr.backpressure_throttled,
          ebr.backlog_steals, ebr.emergency_leaks, ebr.stall_watchdog_fires,
          ebr.stalled_now ? "true" : "false",
          ebr.pool.fallback_outstanding());
  appendf(out, "\"pool_slabs\": %" PRIu64 ", \"pool_huge_chunks\": %" PRIu64
               ", \"pool_allocs\": %" PRIu64
               ", \"pool_frees\": %" PRIu64 ", \"pool_remote_frees\": %" PRIu64
               ", \"pool_harvests\": %" PRIu64 ", \"pool_fallback_allocs\": %" PRIu64
               ", \"pool_fallback_frees\": %" PRIu64
               ", \"pool_caches_created\": %" PRIu64
               ", \"pool_caches_adopted\": %" PRIu64
               ", \"live_nodes\": %" PRIu64 "},\n",
          ebr.pool.slabs, ebr.pool.huge_chunks, ebr.pool.allocs,
          ebr.pool.frees, ebr.pool.remote_frees, ebr.pool.harvests,
          ebr.pool.fallback_allocs,
          ebr.pool.fallback_frees, ebr.pool.caches_created,
          ebr.pool.caches_adopted, live_nodes);
  appendf(out, "  \"domains_total_pending_retired\": %zu,\n"
               "  \"domains_max_epoch_lag\": %" PRIu64 ",\n"
               "  \"domains_any_stalled\": %s,\n",
          total_pending_retired(), max_epoch_lag(),
          any_stalled() ? "true" : "false");
  out += "  \"domains\": [";
  for (std::size_t i = 0; i < domains.size(); ++i) {
    const DomainRow& d = domains[i];
    appendf(out,
            "%s{\"uid\": %" PRIu64 ", \"epoch\": %" PRIu64
            ", \"epoch_lag\": %" PRIu64 ", \"pending_retired\": %zu"
            ", \"backlog_peak\": %zu, \"contention_events\": %" PRIu64
            ", \"stalled_now\": %s}",
            i == 0 ? "" : ", ", d.uid, d.epoch, d.epoch_lag,
            d.pending_retired, d.backlog_peak, d.contention_events,
            d.stalled_now ? "true" : "false");
  }
  out += "]\n}\n";
  return out;
}

}  // namespace lot::obs
