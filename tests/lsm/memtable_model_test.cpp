// The arena memtable against a std::map model: after every step of a long
// seeded sequence of puts, erases and overwrites (values that shrink, grow
// past their slot, go back to empty, or take an allocation of their own),
// gets, lower_bound seeks, full ordered walks and clear() cycles, the
// table holds exactly the model's entries and approximate_bytes() equals
// the flush trigger's formula (key.size() + 16 per key plus the live value
// bytes), which pins every flush point.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "kv/slice.h"
#include "lsm/memtable.h"
#include "util/rng.h"

namespace damkit::lsm {
namespace {

// nullopt = tombstone.
using Model = std::map<std::string, std::optional<std::string>>;

uint64_t model_bytes(const Model& model) {
  uint64_t bytes = 0;
  for (const auto& [key, value] : model) {
    bytes += key.size() + 16 + (value ? value->size() : 0);
  }
  return bytes;
}

void expect_entry(const MemTable::Map::const_iterator& it,
                  const Model::const_iterator& want) {
  EXPECT_EQ(it->first, want->first);
  EXPECT_EQ(it->second.tombstone, !want->second.has_value());
  EXPECT_EQ(it->second.value, want->second.value_or(""));
}

void expect_same_walk(const MemTable& table, const Model& model) {
  ASSERT_EQ(table.entries().size(), model.size());
  auto want = model.begin();
  for (auto it = table.entries().begin(); it != table.entries().end();
       ++it, ++want) {
    expect_entry(it, want);
  }
}

// Keys of 0-24 bytes over a small alphabet with 0x00 and 0xff, so they
// share prefixes and cross the comparator's 8-byte words.
std::vector<std::string> make_keys(Rng& rng, size_t n) {
  static constexpr char kAlphabet[] = {'a', 'b', '\0', '\xff'};
  std::vector<std::string> keys(n);
  for (std::string& key : keys) {
    key.resize(rng.uniform(25));
    for (char& c : key) c = kAlphabet[rng.uniform(4)];
  }
  return keys;
}

std::string make_value(Rng& rng) {
  // Mostly short; sometimes past a quarter arena block (its own
  // allocation).
  static constexpr size_t kLengths[] = {0, 1, 7, 8, 30, 100, 101, 300, 20000};
  const size_t len = rng.uniform(50) == 0 ? kLengths[8]
                                          : kLengths[rng.uniform(8)];
  return kv::make_value(rng.next(), len);
}

TEST(MemTableTest, MatchesMapModelThroughOverwritesSeeksAndClears) {
  Rng rng(2029);
  const std::vector<std::string> keys = make_keys(rng, 400);
  MemTable table;
  Model model;
  constexpr int kSteps = 40000;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(step);
    const std::string& key = keys[rng.uniform(keys.size())];
    const uint64_t op = rng.uniform(1000);
    if (op < 450) {
      const std::string value = make_value(rng);
      table.put(key, value);
      model[key] = value;
    } else if (op < 600) {
      table.erase(key);
      model[key] = std::nullopt;
    } else if (op < 800) {
      const std::optional<EntryView> hit = table.get(key);
      const auto want = model.find(key);
      ASSERT_EQ(hit.has_value(), want != model.end());
      if (hit) {
        EXPECT_EQ(hit->key, key);
        EXPECT_EQ(hit->tombstone, !want->second.has_value());
        EXPECT_EQ(hit->value, want->second.value_or(""));
      }
    } else if (op < 990) {
      // Seek, then walk a few entries in step with the model.
      auto it = table.entries().lower_bound(key);
      auto want = model.lower_bound(key);
      for (int i = 0; i < 4 && want != model.end(); ++i, ++it, ++want) {
        ASSERT_NE(it, table.entries().end());
        expect_entry(it, want);
      }
      if (want == model.end()) {
        EXPECT_EQ(it, table.entries().end());
      }
    } else if (op < 999) {
      expect_same_walk(table, model);
    } else {
      table.clear();
      model.clear();
    }
    if (step % 10000 == 9999) {
      expect_same_walk(table, model);
      table.clear();
      model.clear();
    }
    ASSERT_EQ(table.approximate_bytes(), model_bytes(model));
    ASSERT_EQ(table.entry_count(), model.size());
    ASSERT_EQ(table.empty(), model.empty());
  }
  expect_same_walk(table, model);
}

}  // namespace
}  // namespace damkit::lsm
