// Shared scaffolding for the table benchmarks: runs one throughput series
// (threads sweep) per implementation per (mix, key-range) cell and prints
// the same rows the paper's Tables 1 and 2 plot.
//
// With --repeats=N (N > 1) each cell reports the median across repeats
// with the min..max spread — medians survive the scheduling noise of small
// machines far better than means, which matters when the effect being
// measured (e.g. the allocator ablation) is a single-digit percentage.
// Pass --json=<path> to additionally dump every cell as one JSON row
// (schema lot-bench-v1), which scripts/bench_snapshot.sh uses to commit
// perf trajectories (BENCH_*.json).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "workload/driver.hpp"
#include "workload/spec.hpp"

namespace lot::bench {

struct TableConfig {
  std::vector<std::int64_t> threads;
  std::vector<std::int64_t> key_ranges;
  std::vector<workload::Mix> mixes;
  double secs = 0.3;
  int repeats = 1;
  std::uint64_t seed = 42;
  // --obs: per-cell telemetry column — sampled latency quantiles, restart
  // counters and the contains_restarts audit ride along in the table and
  // the JSON rows.
  bool obs = false;
  unsigned obs_sample = 64;  // --obs-sample=N: time 1 op in N

  static TableConfig from_cli(const util::Cli& cli) {
    TableConfig cfg;
    if (cli.has("paper")) {
      // The paper's full grid: 1..256 threads, 5 s trials, 8 repeats,
      // ranges 2e4 / 2e5 / 2e6. Expect hours of runtime.
      cfg.threads = {1, 2, 4, 8, 16, 32, 64, 128, 256};
      cfg.key_ranges = workload::paper_key_ranges();
      cfg.secs = 5.0;
      cfg.repeats = 8;
    } else {
      cfg.threads = {1, 2, 4, 8};
      cfg.key_ranges = {20'000, 200'000};
    }
    cfg.threads = cli.get_int_list("threads", cfg.threads);
    cfg.key_ranges = cli.get_int_list("ranges", cfg.key_ranges);
    cfg.secs = cli.get_double("secs", cfg.secs);
    cfg.repeats = static_cast<int>(cli.get_int("repeats", cfg.repeats));
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
    cfg.obs = cli.has("obs");
    cfg.obs_sample =
        static_cast<unsigned>(cli.get_int("obs-sample", cfg.obs_sample));
    return cfg;
  }
};

/// Telemetry column of one cell (populated when the run passed --obs;
/// otherwise `enabled` stays false and neither the table nor the JSON emit
/// it).
struct ObsCell {
  bool enabled = false;
  std::int64_t contains_restarts = 0;  // the derived audit over the cell
  std::uint64_t insert_restarts = 0;
  std::uint64_t erase_restarts = 0;
  std::uint64_t locate_resumes = 0;        // in-place resumes (no descent)
  std::uint64_t validation_fallbacks = 0;  // budget exhausted -> re-descent
  std::uint64_t rotations = 0;
  obs::HistogramStats contains_lat{};
  obs::HistogramStats insert_lat{};
};

/// One (implementation, thread-count) cell: the median throughput across
/// repeats plus the spread, with the raw samples kept for the JSON dump.
struct Cell {
  double median = 0;
  double min = 0;
  double max = 0;
  std::vector<double> samples;
  ObsCell obs;
};

/// One implementation's cells across the thread sweep.
using Series = std::vector<Cell>;

template <typename MapT>
Series run_series(const workload::Spec& spec, const TableConfig& cfg) {
  Series out;
  workload::Spec cell_spec = spec;
  if (cfg.obs) cell_spec.latency_sample_every = cfg.obs_sample;
  for (const auto threads : cfg.threads) {
    Cell cell;
    if (cfg.obs) obs::reset_latency_histograms();
    const obs::Snapshot before = obs::Registry::instance().snapshot();
    for (int rep = 0; rep < cfg.repeats; ++rep) {
      MapT map;
      const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(rep);
      workload::prefill(map, cell_spec, static_cast<unsigned>(threads), seed);
      const auto r = workload::run_trial(
          map, cell_spec, static_cast<unsigned>(threads), cfg.secs, seed + 1);
      cell.samples.push_back(r.mops_per_sec);
    }
    if (cfg.obs) {
      const obs::Snapshot after = obs::Registry::instance().snapshot();
      const auto d = [&](obs::Counter c) {
        return after.counter(c) - before.counter(c);
      };
      cell.obs.enabled = true;
      cell.obs.contains_restarts =
          obs::Snapshot::contains_restarts_between(before, after);
      cell.obs.insert_restarts = d(obs::Counter::kInsertRestarts);
      cell.obs.erase_restarts = d(obs::Counter::kEraseRestarts);
      cell.obs.locate_resumes = d(obs::Counter::kLocateResumes);
      cell.obs.validation_fallbacks = d(obs::Counter::kValidationFallbacks);
      cell.obs.rotations = d(obs::Counter::kRotations);
      cell.obs.contains_lat = after.latency[static_cast<std::size_t>(
          obs::OpKind::kContains)];
      cell.obs.insert_lat =
          after.latency[static_cast<std::size_t>(obs::OpKind::kInsert)];
    }
    const auto s = util::summarize(cell.samples);
    cell.median = util::percentile(cell.samples, 50.0);
    cell.min = s.min;
    cell.max = s.max;
    out.push_back(std::move(cell));
  }
  return out;
}

inline void print_cell_header(const std::string& table,
                              const workload::Spec& spec) {
  std::printf("\n=== %s | workload %s | key range %lld | prefill %lld ===\n",
              table.c_str(), spec.name.c_str(),
              static_cast<long long>(spec.key_range),
              static_cast<long long>(spec.prefill_target()));
}

/// Medians in the main table; one spread block underneath when the run had
/// repeats (so single-repeat smoke runs print exactly as before).
inline void print_series_table(
    const std::vector<std::int64_t>& threads,
    const std::vector<std::pair<std::string, Series>>& series) {
  std::printf("%8s", "threads");
  for (const auto& [name, _] : series) std::printf("  %26s", name.c_str());
  std::printf("\n");
  for (std::size_t i = 0; i < threads.size(); ++i) {
    std::printf("%8lld", static_cast<long long>(threads[i]));
    for (const auto& [_, cells] : series) {
      std::printf("  %20.3f Mop/s", cells[i].median);
    }
    std::printf("\n");
  }
  bool any_spread = false;
  for (const auto& [_, cells] : series) {
    for (const auto& c : cells) {
      if (c.samples.size() > 1) any_spread = true;
    }
  }
  if (any_spread) {
    std::printf("  spread (min..max over repeats):\n");
    for (std::size_t i = 0; i < threads.size(); ++i) {
      std::printf("%8lld", static_cast<long long>(threads[i]));
      for (const auto& [_, cells] : series) {
        std::printf("  %12.3f..%-12.3f", cells[i].min, cells[i].max);
      }
      std::printf("\n");
    }
  }
  bool any_obs = false;
  for (const auto& [_, cells] : series) {
    for (const auto& c : cells) {
      if (c.obs.enabled) any_obs = true;
    }
  }
  if (!any_obs) return;
  std::printf(
      "  obs (sampled contains p50/p99 ns | restarts i/e | resumes/fallbacks "
      "| audit):\n");
  for (std::size_t i = 0; i < threads.size(); ++i) {
    std::printf("%8lld", static_cast<long long>(threads[i]));
    for (const auto& [_, cells] : series) {
      const ObsCell& o = cells[i].obs;
      if (!o.enabled) {
        std::printf("  %28s", "-");
        continue;
      }
      std::printf("  %7.0f/%-7.0f %6llu/%-6llu %6llu/%-6llu cr=%lld",
                  o.contains_lat.p50_ns, o.contains_lat.p99_ns,
                  static_cast<unsigned long long>(o.insert_restarts),
                  static_cast<unsigned long long>(o.erase_restarts),
                  static_cast<unsigned long long>(o.locate_resumes),
                  static_cast<unsigned long long>(o.validation_fallbacks),
                  static_cast<long long>(o.contains_restarts));
    }
    std::printf("\n");
  }
}

/// Accumulates benchmark cells and writes them as a flat JSON row list —
/// schema lot-bench-v1: one row per (table, workload, range, impl,
/// threads) with median/min/max Mop/s and the raw samples.
class JsonReport {
 public:
  void add(const std::string& table, const workload::Spec& spec,
           const TableConfig& cfg, const std::string& impl,
           const Series& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      Row row;
      row.table = table;
      row.workload = spec.name;
      row.key_range = spec.key_range;
      row.impl = impl;
      row.threads = cfg.threads[i];
      row.secs = cfg.secs;
      row.cell = cells[i];
      rows_.push_back(std::move(row));
    }
  }

  /// Writes the report; returns false (with a message) if the file cannot
  /// be opened. No external JSON dependency — the schema is flat enough to
  /// emit by hand, and every string it embeds is a controlled identifier.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"schema\": \"lot-bench-v1\",\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(
          f,
          "    {\"table\": \"%s\", \"workload\": \"%s\", "
          "\"key_range\": %lld, \"impl\": \"%s\", \"threads\": %lld, "
          "\"secs\": %.3f, \"median_mops\": %.4f, \"min_mops\": %.4f, "
          "\"max_mops\": %.4f, \"samples\": [",
          r.table.c_str(), r.workload.c_str(),
          static_cast<long long>(r.key_range), r.impl.c_str(),
          static_cast<long long>(r.threads), r.secs, r.cell.median,
          r.cell.min, r.cell.max);
      for (std::size_t j = 0; j < r.cell.samples.size(); ++j) {
        std::fprintf(f, "%s%.4f", j == 0 ? "" : ", ", r.cell.samples[j]);
      }
      std::fprintf(f, "]");
      if (r.cell.obs.enabled) {
        const ObsCell& o = r.cell.obs;
        std::fprintf(
            f,
            ", \"obs\": {\"contains_restarts\": %lld, "
            "\"insert_restarts\": %llu, \"erase_restarts\": %llu, "
            "\"locate_resumes\": %llu, \"validation_fallbacks\": %llu, "
            "\"rotations\": %llu, "
            "\"contains_p50_ns\": %.1f, "
            "\"contains_p99_ns\": %.1f, \"insert_p50_ns\": %.1f, "
            "\"insert_p99_ns\": %.1f, \"lat_samples\": %llu}",
            static_cast<long long>(o.contains_restarts),
            static_cast<unsigned long long>(o.insert_restarts),
            static_cast<unsigned long long>(o.erase_restarts),
            static_cast<unsigned long long>(o.locate_resumes),
            static_cast<unsigned long long>(o.validation_fallbacks),
            static_cast<unsigned long long>(o.rotations),
            o.contains_lat.p50_ns, o.contains_lat.p99_ns,
            o.insert_lat.p50_ns, o.insert_lat.p99_ns,
            static_cast<unsigned long long>(o.contains_lat.count +
                                            o.insert_lat.count));
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

  bool empty() const { return rows_.empty(); }

 private:
  struct Row {
    std::string table;
    std::string workload;
    std::int64_t key_range = 0;
    std::string impl;
    std::int64_t threads = 0;
    double secs = 0;
    Cell cell;
  };
  std::vector<Row> rows_;
};

/// --json=<path> handling shared by the bench mains.
inline void maybe_write_json(const util::Cli& cli, const JsonReport& report) {
  const std::string path = cli.get_string("json", "");
  if (path.empty()) return;
  if (report.write(path)) {
    std::printf("\nwrote %s\n", path.c_str());
  }
}

}  // namespace lot::bench
