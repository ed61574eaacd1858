#include "validate/validator.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <utility>

#include "storage/consistency.h"

namespace snb::validate {

namespace {

using storage::AdjacencyList;
using storage::Graph;
using storage::MessageDateIndex;

/// Accumulates violations with a per-invariant cap so a corrupted bulk load
/// cannot balloon the report.
class Recorder {
 public:
  Recorder(ValidationReport& report, size_t cap)
      : report_(report), cap_(cap) {}

  void BeginInvariant(const std::string& name) {
    name_ = name;
    recorded_ = 0;
    ++report_.invariants_checked;
  }

  void Add(const std::string& detail) {
    if (recorded_ < cap_) {
      report_.violations.push_back({name_, detail});
    } else {
      ++report_.suppressed;
    }
    ++recorded_;
  }

  template <typename... Args>
  void Addf(Args&&... args) {
    if (recorded_ >= cap_) {  // cheap path: don't format suppressed entries
      ++report_.suppressed;
      ++recorded_;
      return;
    }
    std::ostringstream os;
    (os << ... << args);
    Add(os.str());
  }

 private:
  ValidationReport& report_;
  size_t cap_;
  std::string name_;
  size_t recorded_ = 0;
};

/// One relation under test: the list plus its target-domain size and, for
/// relations whose targets are message references, a flag switching target
/// validation to the post/comment split domain.
struct Relation {
  const char* name;
  const AdjacencyList* adj;
  size_t expected_nodes;  // source-domain size
  size_t target_domain;   // ignored when targets_are_messages
  bool targets_are_messages = false;
};

std::vector<Relation> AllRelations(const Graph& g) {
  const size_t p = g.NumPersons(), f = g.NumForums(), po = g.NumPosts(),
               c = g.NumComments(), t = g.NumTags(), tc = g.NumTagClasses(),
               pl = g.NumPlaces();
  return {
      {"knows", &g.Knows(), p, p},
      {"person-posts", &g.PersonPosts(), p, po},
      {"person-comments", &g.PersonComments(), p, c},
      {"person-likes", &g.PersonLikes(), p, 0, /*messages=*/true},
      {"post-likers", &g.PostLikers(), po, p},
      {"comment-likers", &g.CommentLikers(), c, p},
      {"forum-members", &g.ForumMembers(), f, p},
      {"person-forums", &g.PersonForums(), p, f},
      {"forum-posts", &g.ForumPosts(), f, po},
      {"person-moderates", &g.PersonModerates(), p, f},
      {"post-replies", &g.PostReplies(), po, c},
      {"comment-replies", &g.CommentReplies(), c, c},
      {"post-tags", &g.PostTags(), po, t},
      {"comment-tags", &g.CommentTags(), c, t},
      {"forum-tags", &g.ForumTags(), f, t},
      {"person-interests", &g.PersonInterests(), p, t},
      {"tag-posts", &g.TagPosts(), t, po},
      {"tag-comments", &g.TagComments(), t, c},
      {"tag-forums", &g.TagForums(), t, f},
      {"tag-persons", &g.TagPersons(), t, p},
      {"country-persons", &g.CountryPersons(), pl, p},
      {"tag-class-children", &g.TagClassChildren(), tc, tc},
      {"tag-class-tags", &g.TagClassTags(), tc, t},
  };
}

bool ValidMessageRef(const Graph& g, uint32_t msg) {
  return Graph::IsPost(msg) ? msg < g.NumPosts()
                            : Graph::AsComment(msg) < g.NumComments();
}

// ---- edge-endpoints ---------------------------------------------------------

void CheckEdgeEndpoints(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("edge-endpoints");
  for (const Relation& r : AllRelations(g)) {
    if (r.adj->num_nodes() != r.expected_nodes) {
      rec.Addf(r.name, ": ", r.adj->num_nodes(), " source nodes, expected ",
               r.expected_nodes);
      continue;
    }
    for (uint32_t node = 0; node < r.adj->num_nodes(); ++node) {
      r.adj->ForEach(node, [&](uint32_t target) {
        const bool ok = r.targets_are_messages
                            ? ValidMessageRef(g, target)
                            : target < r.target_domain;
        if (!ok) {
          rec.Addf(r.name, ": node ", node, " -> dangling target ", target,
                   r.targets_are_messages
                       ? " (invalid message ref)"
                       : "");
        }
      });
    }
  }
}

// ---- message-author ---------------------------------------------------------

void CheckMessageAuthor(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("message-author");
  for (uint32_t i = 0; i < g.NumPosts(); ++i) {
    if (g.PostCreator(i) >= g.NumPersons()) {
      rec.Addf("post ", i, ": creator ", g.PostCreator(i), " >= ",
               g.NumPersons(), " persons");
    }
    if (g.PostForum(i) >= g.NumForums()) {
      rec.Addf("post ", i, ": container forum ", g.PostForum(i), " >= ",
               g.NumForums(), " forums");
    }
  }
  for (uint32_t i = 0; i < g.NumComments(); ++i) {
    if (g.CommentCreator(i) >= g.NumPersons()) {
      rec.Addf("comment ", i, ": creator ", g.CommentCreator(i), " >= ",
               g.NumPersons(), " persons");
    }
    if (!ValidMessageRef(g, g.CommentReplyOf(i))) {
      rec.Addf("comment ", i, ": replyOf is an invalid message ref");
    }
    if (g.CommentRootPost(i) >= g.NumPosts()) {
      rec.Addf("comment ", i, ": root post ", g.CommentRootPost(i), " >= ",
               g.NumPosts(), " posts");
    }
  }
}

// ---- adjacency-sorted / adjacency-dedup -------------------------------------

void CheckAdjacencyOrder(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("adjacency-sorted");
  for (const Relation& r : AllRelations(g)) {
    const size_t nodes = std::min<size_t>(r.adj->num_nodes(),
                                          r.expected_nodes);
    for (uint32_t node = 0; node < nodes; ++node) {
      uint32_t prev = 0;
      size_t k = 0;
      bool reported = false;
      r.adj->ForEachBase(node, [&](uint32_t target) {
        if (k > 0 && prev > target && !reported) {
          rec.Addf(r.name, ": node ", node, " base span unsorted at offset ",
                   k, " (", prev, " > ", target, ")");
          reported = true;  // one finding per span is enough
        }
        prev = target;
        ++k;
      });
    }
  }
}

void CheckAdjacencyDedup(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("adjacency-dedup");
  std::vector<uint32_t> all;  // one buffer: no allocation per node
  for (const Relation& r : AllRelations(g)) {
    const size_t nodes = std::min<size_t>(r.adj->num_nodes(),
                                          r.expected_nodes);
    for (uint32_t node = 0; node < nodes; ++node) {
      // Merged list (base + overflow): every relation is semantically a set.
      all.clear();
      r.adj->ForEach(node, [&all](uint32_t t) { all.push_back(t); });
      std::sort(all.begin(), all.end());
      auto dup = std::adjacent_find(all.begin(), all.end());
      if (dup != all.end()) {
        rec.Addf(r.name, ": node ", node, " lists neighbour ", *dup,
                 " more than once");
      }
    }
  }
}

// ---- message-index-order / zone-map-coverage --------------------------------

void CheckMessageIndex(const Graph& g, Recorder& rec) {
  const MessageDateIndex& idx = g.MessageIndex();

  rec.BeginInvariant("message-index-order");
  if (idx.size() != g.NumMessages()) {
    rec.Addf("index holds ", idx.size(), " entries but the store has ",
             g.NumMessages(), " messages");
  }
  std::vector<bool> seen(g.NumMessages());  // posts, then comments
  auto first_sight = [&](uint32_t msg) {
    const size_t at = Graph::IsPost(msg) ? msg
                                         : g.NumPosts() + Graph::AsComment(msg);
    const bool first = !seen[at];
    seen[at] = true;
    return first;
  };
  std::pair<core::DateTime, uint32_t> prev;
  idx.ForEachBase([&](size_t i, uint32_t msg, core::DateTime date) {
    if (!ValidMessageRef(g, msg)) {
      rec.Addf("base[", i, "]: invalid message ref");
      return;
    }
    if (!first_sight(msg)) {
      rec.Addf("base[", i, "]: message indexed twice");
    }
    if (date != g.MessageCreationDate(msg)) {
      rec.Addf("base[", i, "]: cached date ", date,
               " != message creationDate ", g.MessageCreationDate(msg));
    }
    const auto cur = std::make_pair(date, msg);
    if (i > 0 && !(prev < cur)) {
      rec.Addf("base[", i, "]: (date, ref) order violated: (", prev.first,
               ", ", prev.second, ") !< (", cur.first, ", ", cur.second, ")");
    }
    prev = cur;
  });
  for (size_t i = 0; i < idx.tail_size(); ++i) {
    const uint32_t msg = idx.TailAt(i);
    if (!ValidMessageRef(g, msg)) {
      rec.Addf("tail[", i, "]: invalid message ref");
      continue;
    }
    if (!first_sight(msg)) {
      rec.Addf("tail[", i, "]: message indexed twice");
    }
    if (idx.TailDateAt(i) != g.MessageCreationDate(msg)) {
      rec.Addf("tail[", i, "]: cached date ", idx.TailDateAt(i),
               " != message creationDate ", g.MessageCreationDate(msg));
    }
  }

  rec.BeginInvariant("zone-map-coverage");
  const size_t want_blocks =
      (idx.tail_size() + MessageDateIndex::kTailBlock - 1) /
      MessageDateIndex::kTailBlock;
  if (idx.NumTailBlocks() != want_blocks) {
    rec.Addf("tail of ", idx.tail_size(), " entries has ",
             idx.NumTailBlocks(), " zone blocks, expected ", want_blocks);
    return;  // block geometry is broken; per-block checks would misreport
  }
  for (size_t b = 0; b < idx.NumTailBlocks(); ++b) {
    const MessageDateIndex::Zone z = idx.TailZoneAt(b);
    const size_t lo = b * MessageDateIndex::kTailBlock;
    const size_t hi = std::min(lo + MessageDateIndex::kTailBlock,
                               idx.tail_size());
    for (size_t i = lo; i < hi; ++i) {
      const core::DateTime d = idx.TailDateAt(i);
      if (d < z.min || d > z.max) {
        rec.Addf("tail block ", b, ": entry ", i, " date ", d,
                 " outside zone [", z.min, ", ", z.max,
                 "] — range scans would skip it");
        break;
      }
    }
  }
}

// ---- dictionary-code-in-range -----------------------------------------------

void CheckDictionaryCodes(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("dictionary-code-in-range");
  const size_t bound = g.Dict().size();
  for (uint32_t p = 0; p < g.NumPersons(); ++p) {
    if (g.PersonGenderCode(p) >= bound || g.PersonBrowserCode(p) >= bound) {
      rec.Addf("person[", p, "]: gender/browser code >= dictionary size ",
               bound);
    }
  }
  for (uint32_t i = 0; i < g.NumPosts(); ++i) {
    const uint32_t m = Graph::MessageOfPost(i);
    if (g.MessageBrowserCode(m) >= bound || g.PostLanguageCode(i) >= bound) {
      rec.Addf("post[", i, "]: browser/language code >= dictionary size ",
               bound);
    }
  }
  for (uint32_t i = 0; i < g.NumComments(); ++i) {
    const uint32_t m = Graph::MessageOfComment(i);
    if (g.MessageBrowserCode(m) >= bound ||
        g.CommentRootLanguageCode(i) >= bound) {
      rec.Addf("comment[", i,
               "]: browser/root-language code >= dictionary size ", bound);
    }
  }
}

// ---- block-zone-covers-contents ---------------------------------------------

void CheckColumnZones(const snb::storage::columnar::ZonedColumn& col,
                      const char* what, Recorder& rec,
                      std::vector<uint64_t>& scratch) {
  for (size_t b = 0; b < col.num_blocks(); ++b) {
    scratch.clear();
    col.block(b).DecodeAll(&scratch);
    const auto [mn, mx] = std::minmax_element(scratch.begin(), scratch.end());
    if (*mn != col.block(b).zone_min() || *mx != col.block(b).zone_max()) {
      rec.Addf(what, ": block ", b, " zone [", col.block(b).zone_min(), ", ",
               col.block(b).zone_max(), "] != contents [", *mn, ", ", *mx,
               "] — zone pruning would mis-skip");
    }
  }
}

void CheckBlockZones(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("block-zone-covers-contents");
  std::vector<uint64_t> scratch;
  scratch.reserve(snb::storage::columnar::ColumnBlock::kMaxValues);
  std::string label;
  for (const Relation& r : AllRelations(g)) {
    const auto& csr = r.adj->csr();
    label = std::string(r.name) + ".targets";
    CheckColumnZones(csr.targets(), label.c_str(), rec, scratch);
    label = std::string(r.name) + ".offsets";
    CheckColumnZones(csr.offsets(), label.c_str(), rec, scratch);
    if (csr.with_dates()) {
      label = std::string(r.name) + ".dates";
      CheckColumnZones(csr.dates(), label.c_str(), rec, scratch);
    }
  }
  CheckColumnZones(g.MessageIndex().BaseDateColumn(), "message-index.dates",
                   rec, scratch);
}

// ---- hot-column-endpoints ---------------------------------------------------

// The pushdown kernels read materialized endpoint columns (comment → thread
// forum, post/comment-root language codes) instead of chasing the 2-hop
// pointers at scan time. A stale endpoint silently changes query results, so
// every entry is re-derived from the pointer chain it caches.
void CheckHotColumnEndpoints(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("hot-column-endpoints");
  const size_t dict = g.Dict().size();
  for (uint32_t i = 0; i < g.NumPosts(); ++i) {
    const uint32_t code = g.PostLanguageCode(i);
    if (code >= dict) {
      rec.Addf("post ", i, ": language code ", code, " >= dictionary size ",
               dict);
    }
  }
  for (uint32_t c = 0; c < g.NumComments(); ++c) {
    const uint32_t root = g.CommentRootPost(c);
    if (root >= g.NumPosts()) continue;  // message-author reports this
    if (g.CommentForum(c) != g.PostForum(root)) {
      rec.Addf("comment ", c, ": forum column ", g.CommentForum(c),
               " != root post's forum ", g.PostForum(root));
    }
    if (g.CommentRootLanguageCode(c) != g.PostLanguageCode(root)) {
      rec.Addf("comment ", c, ": root-language column ",
               g.CommentRootLanguageCode(c),
               " != root post's language code ", g.PostLanguageCode(root));
    }
  }
}

// ---- like-zone-bounds -------------------------------------------------------

// Bound pushdown skips whole index blocks whose like-count zone max cannot
// beat the current top-k bound, and whole persons whose message-date zone
// misses the scan window. Either zone understating its contents makes the
// skip drop real candidates, so each is checked against the raw degrees and
// dates it summarizes.
void CheckLikeZoneBounds(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("like-zone-bounds");
  const MessageDateIndex& idx = g.MessageIndex();
  const size_t block_values = snb::storage::columnar::ColumnBlock::kMaxValues;
  auto likes_of = [&](uint32_t msg) -> size_t {
    return Graph::IsPost(msg)
               ? g.PostLikers().Degree(msg)
               : g.CommentLikers().Degree(Graph::AsComment(msg));
  };
  auto creator_of = [&](uint32_t msg) -> uint32_t {
    return Graph::IsPost(msg) ? g.PostCreator(msg)
                              : g.CommentCreator(Graph::AsComment(msg));
  };
  auto check_person_zone = [&](const char* where, size_t i, uint32_t msg,
                               core::DateTime date) {
    // Dead rows are exempt: the cascade collapses a dead person's zone on
    // purpose so scans skip them (tombstone-zone-bounds covers live rows).
    if (!g.MessageAlive(msg)) return;
    const uint32_t p = creator_of(msg);
    if (p >= g.NumPersons()) return;  // message-author reports this
    if (!g.PersonAlive(p)) return;
    if (!g.PersonHasMessagesIn(p, date, date + 1)) {
      rec.Addf(where, "[", i, "]: creation date ", date,
               " outside creator ", p,
               "'s message-date zone — person pruning would skip it");
    }
  };
  idx.ForEachBase([&](size_t i, uint32_t msg, core::DateTime date) {
    if (!ValidMessageRef(g, msg)) return;  // message-index-order reports this
    const size_t block = i / block_values;
    const size_t likes = likes_of(msg);
    if (likes > idx.BaseBlockMaxLikes(block)) {
      rec.Addf("base block ", block, ": entry ", i, " has ", likes,
               " likes > zone max ", idx.BaseBlockMaxLikes(block),
               " — bound pruning would skip a top-k candidate");
    }
    check_person_zone("base", i, msg, date);
  });
  for (size_t b = 0; b < idx.NumTailBlocks(); ++b) {
    const MessageDateIndex::Zone z = idx.TailZoneAt(b);
    const size_t lo = b * MessageDateIndex::kTailBlock;
    const size_t hi = std::min(lo + MessageDateIndex::kTailBlock,
                               idx.tail_size());
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t msg = idx.TailAt(i);
      if (!ValidMessageRef(g, msg)) continue;
      const size_t likes = likes_of(msg);
      if (likes > z.max_likes) {
        rec.Addf("tail block ", b, ": entry ", i, " has ", likes,
                 " likes > zone max ", z.max_likes,
                 " — bound pruning would skip a top-k candidate");
      }
      check_person_zone("tail", i, msg, idx.TailDateAt(i));
    }
  }
}

// ---- tombstone-dangling -----------------------------------------------------

// Cascade completeness: nothing live may reference a tombstoned vertex. The
// cascade (graph.cc RunCascade) kills a dead person's forums, messages and
// the whole reply subtree of every dead message, so a live entity whose
// creator / container / reply target is dead means a cascade stopped partway
// through — exactly the torn state recovery must never publish. Checked by
// walking *from* each dead vertex: everything downstream must be dead too.
void CheckTombstoneDangling(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("tombstone-dangling");
  if (!g.HasTombstones()) return;  // trivially holds on insert-only graphs
  for (uint32_t p = 0; p < g.NumPersons(); ++p) {
    if (g.PersonAlive(p)) continue;
    g.PersonModerates().ForEach(p, [&](uint32_t f) {
      if (g.ForumAlive(f)) {
        rec.Addf("forum ", f, " alive but its moderator person ", p,
                 " is tombstoned");
      }
    });
    g.PersonPosts().ForEach(p, [&](uint32_t post) {
      if (g.PostAlive(post)) {
        rec.Addf("post ", post, " alive but its creator person ", p,
                 " is tombstoned");
      }
    });
    g.PersonComments().ForEach(p, [&](uint32_t c) {
      if (g.CommentAlive(c)) {
        rec.Addf("comment ", c, " alive but its creator person ", p,
                 " is tombstoned");
      }
    });
  }
  for (uint32_t f = 0; f < g.NumForums(); ++f) {
    if (g.ForumAlive(f)) continue;
    g.ForumPosts().ForEach(f, [&](uint32_t post) {
      if (g.PostAlive(post)) {
        rec.Addf("post ", post, " alive but its forum ", f, " is tombstoned");
      }
    });
  }
  for (uint32_t post = 0; post < g.NumPosts(); ++post) {
    if (g.PostAlive(post)) continue;
    g.PostReplies().ForEach(post, [&](uint32_t c) {
      if (g.CommentAlive(c)) {
        rec.Addf("comment ", c, " alive but replies to tombstoned post ",
                 post);
      }
    });
  }
  for (uint32_t c = 0; c < g.NumComments(); ++c) {
    if (g.CommentAlive(c)) continue;
    g.CommentReplies().ForEach(c, [&](uint32_t reply) {
      if (g.CommentAlive(reply)) {
        rec.Addf("comment ", reply, " alive but replies to tombstoned "
                 "comment ", c);
      }
    });
  }
}

// ---- tombstone-index-agreement ----------------------------------------------

// The bitmaps, the live-count bookkeeping (the like-count column and the
// dead-reply delta map) must tell one story: NumLive* equals a from-scratch
// census, LiveLikeCount / LiveReplyCount of every live message equals a
// recount over its actual live edges, and a dead person's message-date zone is collapsed to the
// sentinel so person-granular pruning skips them.
void CheckTombstoneIndexAgreement(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("tombstone-index-agreement");
  size_t live_p = 0, live_f = 0, live_po = 0, live_c = 0;
  for (uint32_t i = 0; i < g.NumPersons(); ++i) live_p += g.PersonAlive(i);
  for (uint32_t i = 0; i < g.NumForums(); ++i) live_f += g.ForumAlive(i);
  for (uint32_t i = 0; i < g.NumPosts(); ++i) live_po += g.PostAlive(i);
  for (uint32_t i = 0; i < g.NumComments(); ++i) live_c += g.CommentAlive(i);
  if (live_p != g.NumLivePersons()) {
    rec.Addf("NumLivePersons() = ", g.NumLivePersons(), " but ", live_p,
             " persons test alive");
  }
  if (live_f != g.NumLiveForums()) {
    rec.Addf("NumLiveForums() = ", g.NumLiveForums(), " but ", live_f,
             " forums test alive");
  }
  if (live_po != g.NumLivePosts()) {
    rec.Addf("NumLivePosts() = ", g.NumLivePosts(), " but ", live_po,
             " posts test alive");
  }
  if (live_c != g.NumLiveComments()) {
    rec.Addf("NumLiveComments() = ", g.NumLiveComments(), " but ", live_c,
             " comments test alive");
  }
  g.ForEachMessage([&](uint32_t msg) {  // visits live messages only
    int64_t likes = 0;
    if (Graph::IsPost(msg)) {
      g.PostLikers().ForEach(msg, [&](uint32_t p) {
        likes += g.LikeAlive(p, msg);
      });
    } else {
      g.CommentLikers().ForEach(Graph::AsComment(msg), [&](uint32_t p) {
        likes += g.LikeAlive(p, msg);
      });
    }
    if (likes != g.LiveLikeCount(msg)) {
      rec.Addf("message ", msg, ": LiveLikeCount = ", g.LiveLikeCount(msg),
               " but ", likes, " live like edges exist");
    }
    int64_t replies = 0;
    if (Graph::IsPost(msg)) {
      g.PostReplies().ForEach(msg, [&](uint32_t c) {
        replies += g.CommentAlive(c);
      });
    } else {
      g.CommentReplies().ForEach(Graph::AsComment(msg), [&](uint32_t c) {
        replies += g.CommentAlive(c);
      });
    }
    if (replies != g.LiveReplyCount(msg)) {
      rec.Addf("message ", msg, ": LiveReplyCount = ", g.LiveReplyCount(msg),
               " but ", replies, " live replies exist");
    }
  });
  for (uint32_t p = 0; p < g.NumPersons(); ++p) {
    if (g.PersonAlive(p)) continue;
    if (g.PersonHasMessagesIn(p, storage::kMinMessageDate,
                              storage::kMaxMessageDate)) {
      rec.Addf("dead person ", p, ": message-date zone not collapsed — "
               "person pruning would still visit them");
    }
  }
}

// ---- tombstone-zone-bounds --------------------------------------------------

// After deletes, zone maxima are computed over *all* rows (dead included),
// so they must still upper-bound every live row — live likes can only be
// fewer than raw likes, and a live message's date zone is untouched. If a
// compaction rebuilt the zones and got this wrong, bound pushdown would
// skip live top-k candidates. Only live rows are held to the bound; dead
// rows are unreachable through the pruned scans.
void CheckTombstoneZoneBounds(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("tombstone-zone-bounds");
  const MessageDateIndex& idx = g.MessageIndex();
  const size_t block_values = snb::storage::columnar::ColumnBlock::kMaxValues;
  idx.ForEachBase([&](size_t i, uint32_t msg, core::DateTime date) {
    (void)date;
    if (!ValidMessageRef(g, msg) || !g.MessageAlive(msg)) return;
    const size_t block = i / block_values;
    const int64_t live = g.LiveLikeCount(msg);
    if (live > static_cast<int64_t>(idx.BaseBlockMaxLikes(block))) {
      rec.Addf("base block ", block, ": live message ", msg, " has ", live,
               " live likes > zone max ", idx.BaseBlockMaxLikes(block));
    }
  });
  for (size_t b = 0; b < idx.NumTailBlocks(); ++b) {
    const MessageDateIndex::Zone z = idx.TailZoneAt(b);
    const size_t lo = b * MessageDateIndex::kTailBlock;
    const size_t hi = std::min(lo + MessageDateIndex::kTailBlock,
                               idx.tail_size());
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t msg = idx.TailAt(i);
      if (!ValidMessageRef(g, msg) || !g.MessageAlive(msg)) continue;
      const int64_t live = g.LiveLikeCount(msg);
      if (live > static_cast<int64_t>(z.max_likes)) {
        rec.Addf("tail block ", b, ": live message ", msg, " has ", live,
                 " live likes > zone max ", z.max_likes);
      }
    }
  }
}

// ---- unique-id --------------------------------------------------------------

template <typename GetId>
void CheckUniqueIds(Recorder& rec, const char* table, size_t n, GetId&& id) {
  // Sorted pairs, not a hash set: no per-row node in a fragmented heap.
  std::vector<std::pair<core::Id, uint32_t>> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = {id(i), i};
  std::sort(rows.begin(), rows.end());
  for (size_t k = 1; k < n; ++k) {
    if (rows[k].first == rows[k - 1].first) {
      rec.Addf(table, " ", rows[k].second, ": duplicate external id ",
               rows[k].first);
    }
  }
}

void CheckUniqueId(const Graph& g, Recorder& rec) {
  rec.BeginInvariant("unique-id");
  CheckUniqueIds(rec, "person", g.NumPersons(),
                 [&](uint32_t i) { return g.PersonId(i); });
  CheckUniqueIds(rec, "forum", g.NumForums(),
                 [&](uint32_t i) { return g.ForumId(i); });
  CheckUniqueIds(rec, "post", g.NumPosts(),
                 [&](uint32_t i) { return g.PostId(i); });
  CheckUniqueIds(rec, "comment", g.NumComments(),
                 [&](uint32_t i) { return g.CommentId(i); });
  CheckUniqueIds(rec, "tag", g.NumTags(),
                 [&](uint32_t i) { return g.TagAt(i).id; });
}

// ---- cardinality ------------------------------------------------------------

void CheckCardinality(const Graph& g, const core::ScaleFactorInfo& sf,
                      Recorder& rec) {
  rec.BeginInvariant("cardinality");
  if (g.NumPersons() != sf.num_persons) {
    rec.Addf("store has ", g.NumPersons(), " persons but SF", sf.name,
             " (Table 2.12) fixes ", sf.num_persons);
  }
  // The datagen never produces an all-quiet network: every SF row implies
  // forums and message activity. Catch truncated loads.
  if (sf.num_persons > 0) {
    if (g.NumForums() == 0) rec.Add("store has persons but zero forums");
    if (g.NumMessages() == 0) rec.Add("store has persons but zero messages");
  }
}

}  // namespace

size_t ValidationReport::CountFor(const std::string& invariant) const {
  size_t n = 0;
  for (const Violation& v : violations) {
    if (v.invariant == invariant) ++n;
  }
  return n;
}

std::string ValidationReport::ToString() const {
  if (ok()) return "";
  std::ostringstream os;
  os << violations.size() << " invariant violation(s)";
  if (suppressed > 0) os << " (+" << suppressed << " suppressed)";
  os << ":\n";
  for (const Violation& v : violations) {
    os << "  [" << v.invariant << "] " << v.detail << "\n";
  }
  return os.str();
}

ValidationReport ValidateGraph(const storage::Graph& graph,
                               const ValidatorOptions& options) {
  ValidationReport report;
  Recorder rec(report, options.max_violations_per_invariant);

  CheckEdgeEndpoints(graph, rec);
  CheckMessageAuthor(graph, rec);
  CheckAdjacencyOrder(graph, rec);
  CheckAdjacencyDedup(graph, rec);
  CheckMessageIndex(graph, rec);
  CheckDictionaryCodes(graph, rec);
  CheckBlockZones(graph, rec);
  CheckHotColumnEndpoints(graph, rec);
  CheckLikeZoneBounds(graph, rec);
  CheckTombstoneDangling(graph, rec);
  CheckTombstoneIndexAgreement(graph, rec);
  CheckTombstoneZoneBounds(graph, rec);
  CheckUniqueId(graph, rec);
  if (options.expect_sf.has_value()) {
    CheckCardinality(graph, *options.expect_sf, rec);
  }
  if (options.run_store_consistency) {
    rec.BeginInvariant("store-consistency");
    for (const std::string& problem : storage::CheckGraphConsistency(graph)) {
      rec.Add(problem);
    }
  }
  return report;
}

}  // namespace snb::validate
