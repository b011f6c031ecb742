// The trees are templates; nothing in them may assume integer keys or
// trivially-copyable values (except the documented partially-external /
// Bronson / CF value-slot constraint). Exercised here with string keys,
// string values, a custom comparator, and a heavier aggregate value.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "adapters/map_concept.hpp"
#include "baselines/efrb/efrb.hpp"
#include "baselines/skiplist/skiplist.hpp"
#include "lo/avl.hpp"
#include "lo/bst.hpp"
#include "lo/partial.hpp"
#include "lo/validate.hpp"
#include "util/random.hpp"

namespace {

// Compile-time guard for the tightened OrderedMap concept (the full
// ordered surface: min/max, for_each, range, first/last_in_range). The
// on-time maps must satisfy it for *any* value type, including
// non-trivially-copyable ones; the logical-removing maps hold values in a
// std::atomic<V> slot for revive-in-place, so they satisfy it only for
// trivially-copyable V — that constraint is theirs alone, not the
// concept's.
static_assert(lot::adapters::OrderedMap<
              lot::lo::AvlMap<std::int64_t, std::string>>);
static_assert(lot::adapters::OrderedMap<
              lot::lo::BstMap<std::string, std::vector<int>>>);
static_assert(lot::adapters::OrderedMap<
              lot::lo::PartialAvlMap<std::int64_t, std::int64_t>>);
static_assert(lot::adapters::OrderedMap<
              lot::lo::PartialBstMap<std::int64_t, double>>);
static_assert(lot::adapters::OrderedMap<
              lot::baselines::SkipListMap<std::string, std::string>>);

TEST(GenericTypes, StringKeysAndValues) {
  lot::lo::AvlMap<std::string, std::string> m;
  EXPECT_TRUE(m.insert("kiwi", "fruit"));
  EXPECT_TRUE(m.insert("apple", "fruit"));
  EXPECT_TRUE(m.insert("zebra", "animal"));
  EXPECT_FALSE(m.insert("apple", "pie"));
  EXPECT_EQ(m.get("zebra").value(), "animal");
  EXPECT_EQ(m.min().value().first, "apple");
  EXPECT_EQ(m.max().value().first, "zebra");

  std::vector<std::string> keys;
  m.for_each([&](const std::string& k, const std::string&) {
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"apple", "kiwi", "zebra"}));

  // The ordered surface is fully generic too: range over string keys.
  keys.clear();
  m.range("aardvark", "kiwi", [&](const std::string& k, const std::string&) {
    keys.push_back(k);
  });
  EXPECT_EQ(keys, (std::vector<std::string>{"apple"}));
  EXPECT_EQ(m.first_in_range("a", "z").value().first, "apple");
  EXPECT_EQ(m.last_in_range("a", "z").value().first, "kiwi");  // "z" < "zebra"
  EXPECT_EQ(m.last_in_range("a", "zz").value().first, "zebra");

  EXPECT_TRUE(m.erase("kiwi"));
  EXPECT_FALSE(m.contains("kiwi"));
  const auto rep = lot::lo::validate(m, true);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST(GenericTypes, CustomComparatorReversesOrder) {
  lot::lo::AvlMap<std::int64_t, std::int64_t, std::greater<std::int64_t>> m;
  for (std::int64_t k : {1, 5, 3, 9, 7}) ASSERT_TRUE(m.insert(k, k));
  // With greater<> the "smallest" element is the numerically largest.
  EXPECT_EQ(m.min().value().first, 9);
  EXPECT_EQ(m.max().value().first, 1);
  std::vector<std::int64_t> keys;
  m.for_each([&](std::int64_t k, std::int64_t) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<std::int64_t>{9, 7, 5, 3, 1}));
  EXPECT_TRUE(m.erase(9));
  EXPECT_EQ(m.min().value().first, 7);
}

struct Payload {
  std::string name;
  std::vector<int> history;
  bool operator==(const Payload&) const = default;
};

TEST(GenericTypes, AggregateValues) {
  lot::lo::AvlMap<std::int64_t, Payload> m;
  ASSERT_TRUE(m.insert(1, Payload{"alpha", {1, 2, 3}}));
  ASSERT_TRUE(m.insert(2, Payload{"beta", {4}}));
  const auto v = m.get(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->name, "alpha");
  EXPECT_EQ(v->history, (std::vector<int>{1, 2, 3}));
}

TEST(GenericTypes, StringKeysConcurrent) {
  lot::lo::AvlMap<std::string, std::int64_t> m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      lot::util::Xoshiro256 rng(t);
      for (int i = 0; i < 10'000; ++i) {
        const auto key =
            "key-" + std::to_string(t) + "-" +
            std::to_string(rng.next_below(200));
        if (rng.percent(60)) {
          m.insert(key, i);
        } else {
          m.erase(key);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  m.repair_balance();  // repair heights stale from abandoned climbs
  const auto rep = lot::lo::validate(m, true);
  EXPECT_TRUE(rep.ok) << rep.to_string();
  std::string last;
  m.for_each([&](const std::string& k, std::int64_t) {
    EXPECT_LT(last, k);
    last = k;
  });
}

TEST(GenericTypes, BaselinesWithStringKeys) {
  lot::baselines::SkipListMap<std::string, std::int64_t> sl;
  lot::baselines::EfrbMap<std::string, std::int64_t> efrb;
  for (auto* step : {"one", "two", "three"}) {
    EXPECT_TRUE(sl.insert(step, 1));
    EXPECT_TRUE(efrb.insert(step, 1));
  }
  EXPECT_TRUE(sl.contains("two"));
  EXPECT_TRUE(efrb.contains("two"));
  EXPECT_TRUE(sl.erase("two"));
  EXPECT_TRUE(efrb.erase("two"));
  EXPECT_FALSE(sl.contains("two"));
  EXPECT_FALSE(efrb.contains("two"));
  EXPECT_EQ(sl.min().value().first, "one");
  EXPECT_EQ(efrb.min().value().first, "one");
}

}  // namespace
