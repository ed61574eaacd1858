// Internal helpers shared by the BI query implementations. Not part of the
// public API.

#ifndef SNB_BI_COMMON_H_
#define SNB_BI_COMMON_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bi/cancel.h"
#include "engine/claim_bitmap.h"
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

/// Tags whose class is `class_name`, class by class; `transitive` includes
/// descendant classes. Empty when the class is unknown.
inline std::vector<uint32_t> ClassTagList(const Graph& graph,
                                          const std::string& class_name,
                                          bool transitive) {
  std::vector<uint32_t> tags;
  uint32_t root = graph.TagClassByName(class_name);
  if (root == kNoIdx) return tags;
  std::vector<uint32_t> classes{root};
  if (transitive) {
    for (size_t i = 0; i < classes.size(); ++i) {
      graph.TagClassChildren().ForEach(
          classes[i], [&](uint32_t child) { classes.push_back(child); });
    }
  }
  for (uint32_t tc : classes) {
    graph.TagClassTags().ForEach(tc, [&](uint32_t t) { tags.push_back(t); });
  }
  return tags;
}

/// ClassTagList as a tag bitmap (size NumTags).
inline std::vector<bool> TagsOfClass(const Graph& graph,
                                     const std::string& class_name,
                                     bool transitive) {
  std::vector<bool> mask(graph.NumTags(), false);
  for (uint32_t t : ClassTagList(graph, class_name, transitive)) {
    mask[t] = true;
  }
  return mask;
}

/// The tag→message posting lists (TagPosts, and unless posts-only
/// TagComments) of a set of tags as one position space — each tag's posts,
/// then its comments, tag by tag — so BI 9/20/24 start from the selective
/// side, tag class → tags → messages (CP-2.1), instead of scanning every
/// message. Disjoint position slices of [0, size()) partition one walk,
/// each list read through AdjacencyList::ForEachSlice (sorted base, then
/// the insert-overflow chain), as BI 6 slices one tag's list.
///
/// ForEach visits every live message on the lists exactly once over the
/// whole walk, however it is sliced and by however many threads: a message
/// reached through several tags — or listed twice under one tag — is
/// claimed in a seen bitmap by its first visit. Kernels slice the walk in
/// morsels of kPostingMorselSize positions.
class ClassPostings {
 public:
  enum class Messages { kPostsAndComments, kPostsOnly };

  ClassPostings(const Graph& graph, const std::vector<uint32_t>& tags,
                Messages messages);
  ClassPostings(const ClassPostings&) = delete;
  ClassPostings& operator=(const ClassPostings&) = delete;

  /// Posting-list length: the sum of the tags' list degrees (a message is
  /// counted once per list entry, so this bounds the distinct messages).
  size_t size() const { return size_; }

  /// size() of the walk over `tags`, without building its seen bitmap.
  static size_t Length(const Graph& graph, const std::vector<uint32_t>& tags,
                       Messages messages);

  /// Visits f(msg) for the live messages at positions [begin, end) that no
  /// earlier visit of this walk claimed.
  template <typename F>
  void ForEach(size_t begin, size_t end, F&& f) {
    ForEach(
        begin, end, [&f](uint32_t post) { f(Graph::MessageOfPost(post)); },
        [&f](uint32_t comment) { f(Graph::MessageOfComment(comment)); });
  }

  /// Per-family form, the one the other wraps: on_post(post row) and
  /// on_comment(comment row), so a kernel reads each family's columns
  /// without a per-message family branch.
  template <typename PostFn, typename CommentFn>
  void ForEach(size_t begin, size_t end, PostFn&& on_post,
               CommentFn&& on_comment) {
    auto seg = std::upper_bound(
        segments_.begin(), segments_.end(), begin,
        [](size_t pos, const Segment& s) { return pos < s.end; });
    for (; seg != segments_.end() && seg->begin < end; ++seg) {
      const size_t lo = std::max(begin, seg->begin) - seg->begin;
      const size_t hi = std::min(end, seg->end) - seg->begin;
      if (seg->comments) {
        graph_.TagComments().ForEachSlice(
            seg->tag, lo, hi, [&](uint32_t comment) {
              if (graph_.CommentAlive(comment) &&
                  seen_.Claim(graph_.NumPosts() + comment)) {
                on_comment(comment);
              }
            });
      } else {
        graph_.TagPosts().ForEachSlice(seg->tag, lo, hi, [&](uint32_t post) {
          if (graph_.PostAlive(post) && seen_.Claim(post)) on_post(post);
        });
      }
    }
  }

 private:
  /// One tag's post or comment list at positions [begin, end).
  struct Segment {
    uint32_t tag;
    bool comments;
    size_t begin;
    size_t end;
  };

  /// The non-empty lists of `tags` laid end to end.
  static std::vector<Segment> Segments(const Graph& graph,
                                       const std::vector<uint32_t>& tags,
                                       Messages messages);

  const Graph& graph_;
  std::vector<Segment> segments_;
  size_t size_ = 0;
  engine::ClaimBitmap seen_;  // posts, then comments
};

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
