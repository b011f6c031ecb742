// Example: a concurrent limit order book.
//
// Price levels are the classic ordered-map workload the paper's intro
// motivates: hot inserts and removals of price levels (heavy 2-children
// removals as mid-book levels empty), while market-data threads stream
// best-bid/best-ask — which must never block behind book updates. The
// logical-ordering tree's lock-free min()/max() (one pred/succ read,
// paper §4.7) is exactly that.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "lo/avl.hpp"
#include "obs/obs.hpp"
#include "util/random.hpp"

namespace {

using Price = std::int64_t;   // ticks
using Volume = std::int64_t;  // shares at this level

struct OrderBook {
  // One tree per side. Bids: best = max price; asks: best = min price.
  lot::lo::AvlMap<Price, Volume> bids;
  lot::lo::AvlMap<Price, Volume> asks;

  void post_bid(Price p, Volume v) { bids.insert(p, v); }
  void post_ask(Price p, Volume v) { asks.insert(p, v); }
  void cancel_bid(Price p) { bids.erase(p); }
  void cancel_ask(Price p) { asks.erase(p); }

  // Lock-free top-of-book: never blocks behind posting/cancelling.
  std::optional<Price> best_bid() const {
    const auto m = bids.max();
    if (!m) return std::nullopt;
    return m->first;
  }
  std::optional<Price> best_ask() const {
    const auto m = asks.min();
    if (!m) return std::nullopt;
    return m->first;
  }
};

}  // namespace

int main() {
  OrderBook book;
  constexpr Price kMid = 10'000;
  constexpr Price kDepth = 2'000;

  // Seed both sides around the mid price.
  for (Price p = kMid - kDepth; p < kMid; p += 2) book.post_bid(p, 100);
  for (Price p = kMid + 1; p < kMid + kDepth; p += 2) book.post_ask(p, 100);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> quotes{0};
  std::atomic<std::uint64_t> crossed{0};

  // Market-data threads: stream top-of-book continuously.
  std::vector<std::thread> md;
  for (int t = 0; t < 2; ++t) {
    md.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto bb = book.best_bid();
        const auto ba = book.best_ask();
        quotes.fetch_add(1, std::memory_order_relaxed);
        if (bb && ba && *bb >= *ba) {
          // A transiently crossed book is possible (the two sides are
          // independent maps); count it, a real engine would arbitrate.
          crossed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Risk thread: consistent depth totals via MVCC snapshots (DESIGN.md
  // §16). The live range() is per-key weakly consistent — fine for
  // display, wrong for margin: a volume sum taken while traders move
  // levels can mix two instants of the book. snapshot() pins one cut, so
  // each tick's total is the ask side at a single point in time.
  std::atomic<std::uint64_t> risk_ticks{0};
  std::thread risk([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = book.asks.snapshot();
      auto cur = snap.cursor();          // best ask *of the cut*
      if (const auto touch = cur.next()) {
        Volume banded = 0;
        snap.range(touch->first, touch->first + 16,
                   [&](Price, Volume v) { banded += v; });
        if (banded >= touch->second) {   // touch level is inside its band
          risk_ticks.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  // Trading threads: post and cancel levels on both sides.
  std::vector<std::thread> traders;
  for (int t = 0; t < 3; ++t) {
    traders.emplace_back([&, t] {
      lot::util::Xoshiro256 rng(17 + t);
      for (int i = 0; i < 150'000; ++i) {
        const bool bid_side = rng.percent(50);
        const Price off = static_cast<Price>(rng.next_below(kDepth));
        if (bid_side) {
          const Price p = kMid - 1 - off;
          if (rng.percent(55)) {
            book.post_bid(p, 100 + off);
          } else {
            book.cancel_bid(p);
          }
        } else {
          const Price p = kMid + 1 + off;
          if (rng.percent(55)) {
            book.post_ask(p, 100 + off);
          } else {
            book.cancel_ask(p);
          }
        }
      }
    });
  }
  for (auto& th : traders) th.join();
  stop = true;
  for (auto& th : md) th.join();
  risk.join();

  std::printf("order book settled: %zu bid levels, %zu ask levels\n",
              book.bids.size_slow(), book.asks.size_slow());
  std::printf("best bid %lld / best ask %lld (mid %lld)\n",
              static_cast<long long>(book.best_bid().value_or(-1)),
              static_cast<long long>(book.best_ask().value_or(-1)),
              static_cast<long long>(kMid));
  std::printf("market data served %llu lock-free top-of-book quotes "
              "(%llu transiently crossed)\n",
              static_cast<unsigned long long>(quotes.load()),
              static_cast<unsigned long long>(crossed.load()));

  std::printf("risk engine computed %llu consistent depth snapshots\n",
              static_cast<unsigned long long>(risk_ticks.load()));

  // Depth report within a fixed band of the touch, through a snapshot
  // view: band contents and totals are the book side at one instant.
  constexpr Price kBand = 12;
  const auto ask_side = book.asks.snapshot();
  const auto bid_side = book.bids.snapshot();
  if (const auto ba = book.best_ask()) {
    std::printf("ask depth [%lld, %lld):", static_cast<long long>(*ba),
                static_cast<long long>(*ba + kBand));
    Volume total = 0;
    ask_side.range(*ba, *ba + kBand, [&](Price p, Volume v) {
      total += v;
      std::printf("  %lld x%lld", static_cast<long long>(p),
                  static_cast<long long>(v));
    });
    std::printf("  (=%lld shares)\n", static_cast<long long>(total));
  }
  if (const auto bb = book.best_bid()) {
    std::printf("bid depth (%lld, %lld]:", static_cast<long long>(*bb - kBand),
                static_cast<long long>(*bb));
    Volume total = 0;
    bid_side.range(*bb - kBand + 1, *bb + 1, [&](Price p, Volume v) {
      total += v;
      std::printf("  %lld x%lld", static_cast<long long>(p),
                  static_cast<long long>(v));
    });
    std::printf("  (=%lld shares)\n", static_cast<long long>(total));
  }

  // first/last_in_range answer "cheapest ask (deepest bid) inside a
  // band" without materializing the band.
  if (const auto lvl = book.asks.first_in_range(kMid, kMid + kDepth)) {
    std::printf("first ask level at/above mid: %lld x%lld\n",
                static_cast<long long>(lvl->first),
                static_cast<long long>(lvl->second));
  }
  if (const auto lvl = book.bids.last_in_range(kMid - kDepth, kMid)) {
    std::printf("last bid level below mid:     %lld x%lld\n",
                static_cast<long long>(lvl->first),
                static_cast<long long>(lvl->second));
  }

  // What the run cost, from the tree's own telemetry (obs/ layer): insert
  // and erase restart rates, rotations, EBR/pool gauges (expected: no
  // stalled record and a backlog far below the high-water mark) — and
  // the derived contains_restarts audit, which must read 0 because
  // min()/max() and range() never re-descend.
  std::printf("\n");
  std::fputs(lot::obs::Registry::instance().snapshot().to_text().c_str(),
             stdout);
  return 0;
}
