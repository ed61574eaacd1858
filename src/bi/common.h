// Internal helpers shared by the BI query implementations. Not part of the
// public API.

#ifndef SNB_BI_COMMON_H_
#define SNB_BI_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bi/cancel.h"
#include "engine/morsel.h"
#include "storage/graph.h"
#include "storage/scan_stats.h"
#include "util/thread_pool.h"

namespace snb::bi::internal {

using storage::Graph;
using storage::kNoIdx;

/// Elements per morsel when each element expands an adjacency list (person
/// message scans, neighbourhood probes) rather than reading flat columns.
constexpr size_t kExpandMorselSize = 256;

/// engine::ParallelAggregate with the calling thread's ambient CancelToken
/// and ScanStats sink re-installed around every morsel, so the PollCancel()
/// each fold makes per morsel sees the caller's deadline on any executor,
/// and every slot's zone-skip/bound-skip counts land in the caller's
/// (atomic) ScanStats. The engine layer cannot depend on bi/cancel.h or the
/// ambient storage sinks (bi links against engine), so the bridge lives
/// here. A deadline fired mid-query surfaces as QueryCancelled on the
/// calling thread after all executors joined.
template <typename Init, typename Fold, typename Merge>
auto Aggregate(util::ThreadPool* pool, size_t n, Init&& init, Fold&& fold,
               Merge&& merge, size_t morsel_size = engine::kDefaultMorselSize) {
  const CancelToken* token = CurrentCancelToken();
  storage::ScanStats* stats = storage::CurrentScanStats();
  return engine::ParallelAggregate(
      pool, n, std::forward<Init>(init),
      [&](auto& state, size_t begin, size_t end) {
        ScopedCancelToken token_guard(token);
        storage::ScopedScanStats stats_guard(stats);
        fold(state, begin, end);
      },
      std::forward<Merge>(merge), morsel_size);
}

/// Tag bitmap (size NumTags) of tags whose class is `class_name`;
/// `transitive` includes descendant classes. All-false when the class is
/// unknown.
inline std::vector<bool> TagsOfClass(const Graph& graph,
                                     const std::string& class_name,
                                     bool transitive) {
  std::vector<bool> mask(graph.NumTags(), false);
  uint32_t root = graph.TagClassByName(class_name);
  if (root == kNoIdx) return mask;
  std::vector<uint32_t> classes{root};
  if (transitive) {
    for (size_t i = 0; i < classes.size(); ++i) {
      graph.TagClassChildren().ForEach(
          classes[i], [&](uint32_t child) { classes.push_back(child); });
    }
  }
  for (uint32_t tc : classes) {
    graph.TagClassTags().ForEach(tc, [&](uint32_t t) { mask[t] = true; });
  }
  return mask;
}

/// Country place index by name; kNoIdx when absent or not a country.
inline uint32_t CountryIdx(const Graph& graph, const std::string& name) {
  uint32_t place = graph.PlaceByName(name);
  if (place == kNoIdx ||
      graph.PlaceAt(place).type != core::PlaceType::kCountry) {
    return kNoIdx;
  }
  return place;
}

/// Bitmap (size NumPersons) of persons located in the given country place.
inline std::vector<bool> PersonsOfCountry(const Graph& graph,
                                          uint32_t country) {
  std::vector<bool> mask(graph.NumPersons(), false);
  if (country == kNoIdx) return mask;
  graph.CountryPersons().ForEach(country,
                                 [&](uint32_t p) { mask[p] = true; });
  return mask;
}

/// Continent place index of a country (kNoIdx-safe).
inline uint32_t ContinentOfCountry(const Graph& graph, uint32_t country) {
  return country == kNoIdx ? kNoIdx : graph.PlacePartOf(country);
}

/// Likes a message has received over live like edges (equal to the raw
/// liker degree on graphs without tombstones).
inline int64_t MessageLikeCount(const Graph& graph, uint32_t msg) {
  return graph.LiveLikeCount(msg);
}

/// Forum of a message: a post's container, a comment's thread-root's
/// container — one probe of the materialized endpoint column either way.
inline uint32_t ForumOfMessage(const Graph& graph, uint32_t msg) {
  return graph.MessageForum(msg);
}

/// Packs an ordered person pair into a hash key.
inline uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

/// BI 1's message length buckets: 0:[0,40) 1:[40,80) 2:[80,160) 3:[160,∞).
inline int32_t Bi1LengthCategory(int32_t length) {
  if (length < 40) return 0;   // short
  if (length < 80) return 1;   // one-liner
  if (length < 160) return 2;  // tweet
  return 3;                    // long
}

/// BI 1's group key with its output order (year ↓, posts first, category ↑).
struct Bi1Key {
  int32_t year;
  bool is_comment;
  int32_t category;
  bool operator<(const Bi1Key& o) const {
    if (year != o.year) return year > o.year;
    if (is_comment != o.is_comment) return !is_comment;
    return category < o.category;
  }
};

struct Bi1Group {
  int64_t count = 0;
  int64_t sum_length = 0;
};

/// BI 2's (country, month, gender, ageGroup, tag) group key.
struct Bi2Key {
  uint32_t country;  // place index
  int32_t month;
  bool gender_female;
  int32_t age_group;
  uint32_t tag;

  bool operator==(const Bi2Key&) const = default;
};

struct Bi2KeyHash {
  size_t operator()(const Bi2Key& k) const {
    uint64_t h = k.country;
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(k.month);
    h = h * 0x9e3779b97f4a7c15ULL + (k.gender_female ? 1 : 2);
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(k.age_group);
    h = h * 0x9e3779b97f4a7c15ULL + k.tag;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

}  // namespace snb::bi::internal

#endif  // SNB_BI_COMMON_H_
