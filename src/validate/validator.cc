#include "validate/validator.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <utility>

namespace snb::validate {

namespace {

using storage::AdjacencyList;
using storage::Graph;
using storage::MessageDateIndex;
using storage::columnar::ColumnBlock;
using storage::columnar::ZonedColumn;

enum Invariant : uint8_t {
  kEdgeEndpoints,
  kMessageAuthor,
  kAdjacencySorted,
  kAdjacencyDedup,
  kMessageIndexOrder,
  kZoneMapCoverage,
  kDictionaryCode,
  kBlockZone,
  kHotColumn,
  kLikeZone,
  kTombstoneDangling,
  kTombstoneIndex,
  kTombstoneZone,
  kUniqueId,
  kStoreConsistency,
  kCardinality,  // last: the one class run only on request
  kNumInvariants
};

constexpr const char* kInvariantNames[kNumInvariants] = {
    "edge-endpoints",
    "message-author",
    "adjacency-sorted",
    "adjacency-dedup",
    "message-index-order",
    "zone-map-coverage",
    "dictionary-code-in-range",
    "block-zone-covers-contents",
    "hot-column-endpoints",
    "like-zone-bounds",
    "tombstone-dangling",
    "tombstone-index-agreement",
    "tombstone-zone-bounds",
    "unique-id",
    "store-consistency",
    "cardinality",
};

/// Accumulates violations with a per-invariant cap so a corrupted bulk load
/// cannot balloon the report. The cap counts per invariant, not per check:
/// one pass records findings of several invariants interleaved.
class Recorder {
 public:
  explicit Recorder(ValidationReport& report) : report_(report) {}

  template <typename... Args>
  void Add(Invariant invariant, Args&&... args) {
    if (recorded_[invariant]++ >= kMaxViolationsPerInvariant) {
      ++report_.suppressed;  // cheap path: don't format suppressed entries
      return;
    }
    std::ostringstream os;
    (os << ... << args);
    report_.violations.push_back({kInvariantNames[invariant], os.str()});
  }

 private:
  ValidationReport& report_;
  std::array<size_t, kNumInvariants> recorded_{};
};

bool ValidMessageRef(const Graph& g, uint32_t msg) {
  return Graph::IsPost(msg) ? msg < g.NumPosts()
                            : Graph::AsComment(msg) < g.NumComments();
}

/// Position of a valid message reference with posts first, then comments.
size_t FlatMessage(const Graph& g, uint32_t msg) {
  return Graph::IsPost(msg) ? msg : g.NumPosts() + Graph::AsComment(msg);
}

uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

// ---- Entity tables ----------------------------------------------------------
// One walk per table: unique-id (the id-table round trip: a duplicate id
// maps back to only one of its rows), message-author,
// dictionary-code-in-range, hot-column-endpoints, the tombstone census and
// the per-row store-consistency checks.

void CheckIdRow(Recorder& rec, const char* table, uint32_t row, core::Id id,
                uint32_t found) {
  if (found != row) {
    rec.Add(kUniqueId, table, " ", row, ": external id ", id,
            " maps back to row ", found, " (duplicate id or stale id table)");
  }
}

void CheckLiveCount(Recorder& rec, const char* table, size_t census,
                    size_t counter) {
  if (census != counter) {
    rec.Add(kTombstoneIndex, "NumLive ", table, " = ", counter, " but ",
            census, " ", table, " test alive");
  }
}

void CheckPersons(const Graph& g, Recorder& rec) {
  const size_t dict = g.Dict().size();
  size_t live = 0;
  for (uint32_t p = 0; p < g.NumPersons(); ++p) {
    CheckIdRow(rec, "person", p, g.PersonId(p), g.PersonIdx(g.PersonId(p)));
    if (g.PersonGenderCode(p) >= dict || g.PersonBrowserCode(p) >= dict) {
      rec.Add(kDictionaryCode, "person[", p,
              "]: gender/browser code >= dictionary size ", dict);
    }
    const uint32_t city = g.PersonCity(p);
    if (city >= g.NumPlaces() ||
        g.PlaceAt(city).type != core::PlaceType::kCity ||
        g.PlacePartOf(city) != g.PersonCountry(p)) {
      rec.Add(kStoreConsistency, "person ", p, ": country ",
              g.PersonCountry(p), " disagrees with the place hierarchy of "
              "city ", city);
    }
    if (g.PersonAlive(p)) {
      ++live;
    } else if (g.PersonHasMessagesIn(p, storage::kMinMessageDate,
                                     storage::kMaxMessageDate)) {
      rec.Add(kTombstoneIndex, "dead person ", p, ": message-date zone not "
              "collapsed — person pruning would still visit them");
    }
  }
  CheckLiveCount(rec, "persons", live, g.NumLivePersons());
}

void CheckForumsAndTags(const Graph& g, Recorder& rec) {
  size_t live = 0;
  for (uint32_t f = 0; f < g.NumForums(); ++f) {
    CheckIdRow(rec, "forum", f, g.ForumId(f), g.ForumIdx(g.ForumId(f)));
    live += g.ForumAlive(f);
  }
  CheckLiveCount(rec, "forums", live, g.NumLiveForums());
  for (uint32_t t = 0; t < g.NumTags(); ++t) {
    CheckIdRow(rec, "tag", t, g.TagAt(t).id, g.TagIdx(g.TagAt(t).id));
  }
}

void CheckPosts(const Graph& g, Recorder& rec) {
  const size_t dict = g.Dict().size();
  size_t live = 0;
  for (uint32_t i = 0; i < g.NumPosts(); ++i) {
    CheckIdRow(rec, "post", i, g.PostId(i), g.PostIdx(g.PostId(i)));
    if (g.PostCreator(i) >= g.NumPersons()) {
      rec.Add(kMessageAuthor, "post ", i, ": creator ", g.PostCreator(i),
              " >= ", g.NumPersons(), " persons");
    }
    if (g.PostForum(i) >= g.NumForums()) {
      rec.Add(kMessageAuthor, "post ", i, ": container forum ",
              g.PostForum(i), " >= ", g.NumForums(), " forums");
    }
    if (g.MessageBrowserCode(Graph::MessageOfPost(i)) >= dict ||
        g.PostLanguageCode(i) >= dict) {
      rec.Add(kDictionaryCode, "post[", i,
              "]: browser/language code >= dictionary size ", dict);
    }
    live += g.PostAlive(i);
  }
  CheckLiveCount(rec, "posts", live, g.NumLivePosts());
}

// The pushdown kernels read materialized endpoint columns (comment → thread
// forum, comment-root language code) instead of chasing the 2-hop pointers
// at scan time. A stale endpoint silently changes query results, so every
// entry is re-derived from the pointer chain it caches. The root column
// itself is checked one hop at a time: a comment replies to a post or to an
// earlier comment, and its root is its parent's — which, by induction over
// the comment table, makes every root the end of its reply chain.
void CheckComments(const Graph& g, Recorder& rec) {
  const size_t dict = g.Dict().size();
  size_t live = 0;
  for (uint32_t c = 0; c < g.NumComments(); ++c) {
    CheckIdRow(rec, "comment", c, g.CommentId(c),
               g.CommentIdx(g.CommentId(c)));
    live += g.CommentAlive(c);
    if (g.CommentCreator(c) >= g.NumPersons()) {
      rec.Add(kMessageAuthor, "comment ", c, ": creator ",
              g.CommentCreator(c), " >= ", g.NumPersons(), " persons");
    }
    const uint32_t reply = g.CommentReplyOf(c);
    const bool valid_reply = ValidMessageRef(g, reply);
    if (!valid_reply) {
      rec.Add(kMessageAuthor, "comment ", c,
              ": replyOf is an invalid message ref");
    }
    if (g.MessageBrowserCode(Graph::MessageOfComment(c)) >= dict ||
        g.CommentRootLanguageCode(c) >= dict) {
      rec.Add(kDictionaryCode, "comment[", c,
              "]: browser/root-language code >= dictionary size ", dict);
    }
    const uint32_t root = g.CommentRootPost(c);
    if (root >= g.NumPosts()) {
      rec.Add(kMessageAuthor, "comment ", c, ": root post ", root, " >= ",
              g.NumPosts(), " posts");
      continue;
    }
    if (g.CommentForum(c) != g.PostForum(root)) {
      rec.Add(kHotColumn, "comment ", c, ": forum column ", g.CommentForum(c),
              " != root post's forum ", g.PostForum(root));
    }
    if (g.CommentRootLanguageCode(c) != g.PostLanguageCode(root)) {
      rec.Add(kHotColumn, "comment ", c, ": root-language column ",
              g.CommentRootLanguageCode(c), " != root post's language code ",
              g.PostLanguageCode(root));
    }
    if (!valid_reply) continue;
    uint32_t parent_root = reply;
    if (!Graph::IsPost(reply)) {
      const uint32_t parent = Graph::AsComment(reply);
      if (parent >= c) {
        rec.Add(kStoreConsistency, "comment ", c, " replies to comment ",
                parent, ", which is not an earlier one");
        continue;
      }
      parent_root = g.CommentRootPost(parent);
    }
    if (parent_root != root) {
      rec.Add(kStoreConsistency, "comment ", c, ": precomputed root post ",
              root, " but its parent's thread root is ", parent_root);
    }
  }
  CheckLiveCount(rec, "comments", live, g.NumLiveComments());
}

// ---- Relations --------------------------------------------------------------

/// One relation under test: its list and the sizes of the tables it joins.
struct Relation {
  const char* name;
  const AdjacencyList& adj;
  size_t sources;
  size_t targets;    // ignored when to_messages
  bool to_messages;  // targets are message references
};

/// What the relation passes gather for the cross-checks; the message
/// vectors are indexed by FlatMessage.
struct Tally {
  explicit Tally(const Graph& g)
      : likers(g.NumMessages()),
        live_likers(g.HasTombstones() ? g.NumMessages() : 0),
        live_replies(g.NumMessages()) {}

  std::vector<uint32_t> likers;        // raw likers degree
  std::vector<uint32_t> live_likers;   // live like edges, with tombstones only
  std::vector<uint32_t> live_replies;  // live direct replies
  // Knows edges as (lower, higher) person pairs, one vector per direction.
  std::vector<uint64_t> knows_up, knows_down;
};

/// Reads a column front to back, decoding each block once, when the walk
/// reaches it, and checking the block's zone against what it decoded
/// (block-zone-covers-contents).
class ColumnReader {
 public:
  ColumnReader(const ZonedColumn& column, const char* owner, const char* name,
               Recorder& rec)
      : column_(column), owner_(owner), name_(name), rec_(rec) {}

  /// The next value; the caller reads at most column.size() values.
  uint64_t Next() {
    while (pos_ == values_.size()) Decode();
    return values_[pos_++];
  }

  /// Decodes and checks every block the walk did not reach.
  void Finish() {
    while (block_ < column_.num_blocks()) Decode();
  }

 private:
  void Decode() {
    SNB_CHECK_LT(block_, column_.num_blocks());
    const ColumnBlock& b = column_.block(block_);
    values_.clear();
    pos_ = 0;
    b.DecodeAll(&values_);
    if (!values_.empty()) {
      const auto [mn, mx] = std::minmax_element(values_.begin(), values_.end());
      if (*mn != b.zone_min() || *mx != b.zone_max()) {
        rec_.Add(kBlockZone, owner_, ".", name_, ": block ", block_, " zone [",
                 b.zone_min(), ", ", b.zone_max(), "] != contents [", *mn,
                 ", ", *mx, "] — zone pruning would mis-skip");
      }
    }
    ++block_;
  }

  const ZonedColumn& column_;
  const char* owner_;
  const char* name_;
  Recorder& rec_;
  std::vector<uint64_t> values_;
  size_t pos_ = 0;
  size_t block_ = 0;
};

/// The one pass over a relation: every offset, target and date block is
/// decoded once and zone-checked; every edge is endpoint-checked; a base
/// span's order and duplicates are checked by comparing neighbours; and
/// each appended edge is searched in its node's base span and, after the
/// walk, compared with the other appended edges in one sort of the whole
/// overflow. `on_edge(node, target)` sees every edge whose target is in
/// range.
template <typename OnEdge>
void WalkRelation(const Graph& g, const Relation& r, Recorder& rec,
                  OnEdge&& on_edge) {
  const AdjacencyList& adj = r.adj;
  const storage::columnar::CompressedCsr& csr = adj.csr();
  ColumnReader offsets(csr.offsets(), r.name, "offsets", rec);
  ColumnReader targets(csr.targets(), r.name, "targets", rec);
  if (csr.with_dates()) {
    ColumnReader(csr.dates(), r.name, "dates", rec).Finish();
  }
  if (adj.num_nodes() != r.sources) {
    rec.Add(kEdgeEndpoints, r.name, ": ", adj.num_nodes(),
            " source nodes, expected ", r.sources);
  }
  const size_t nodes = std::min(adj.num_nodes(), r.sources);
  size_t base_nodes = std::min(csr.num_nodes(), nodes);
  uint64_t begin = base_nodes > 0 ? offsets.Next() : 0;
  auto visit = [&](uint32_t node, uint32_t target) {
    if (r.to_messages ? ValidMessageRef(g, target) : target < r.targets) {
      on_edge(node, target);
    } else {
      rec.Add(kEdgeEndpoints, r.name, ": node ", node, " -> dangling target ",
              target, r.to_messages ? " (invalid message ref)" : "");
    }
  };
  std::vector<uint32_t> span;
  std::vector<uint64_t> overflow;  // PairKey(node, target) per appended edge
  for (uint32_t node = 0; node < nodes; ++node) {
    span.clear();
    if (node < base_nodes) {
      const uint64_t end = offsets.Next();
      if (end < begin || end > csr.num_edges()) {
        rec.Add(kEdgeEndpoints, r.name, ": node ", node, " span [", begin,
                ", ", end, ") outside the ", csr.num_edges(), " base edges");
        base_nodes = node;  // the rest of the base cannot be located
      } else {
        for (; begin < end; ++begin) {
          span.push_back(static_cast<uint32_t>(targets.Next()));
        }
      }
    }
    bool unsorted = false;
    for (size_t k = 0; k < span.size(); ++k) {
      if (k > 0 && span[k - 1] == span[k]) {
        rec.Add(kAdjacencyDedup, r.name, ": node ", node, " lists neighbour ",
                span[k], " more than once");
      } else if (k > 0 && span[k - 1] > span[k] && !unsorted) {
        rec.Add(kAdjacencySorted, r.name, ": node ", node,
                " base span unsorted at offset ", k, " (", span[k - 1], " > ",
                span[k], ")");
        unsorted = true;  // one finding per span is enough
      }
      visit(node, span[k]);
    }
    adj.ForEachOverflow(node, [&](uint32_t target) {
      if (std::binary_search(span.begin(), span.end(), target)) {
        rec.Add(kAdjacencyDedup, r.name, ": node ", node, " lists neighbour ",
                target, " in its base and its overflow");
      }
      overflow.push_back(PairKey(node, target));
      visit(node, target);
    });
  }
  offsets.Finish();
  targets.Finish();
  std::sort(overflow.begin(), overflow.end());
  for (size_t k = 1; k < overflow.size(); ++k) {
    if (overflow[k] == overflow[k - 1]) {
      rec.Add(kAdjacencyDedup, r.name, ": node ", overflow[k] >> 32,
              " appends neighbour ", static_cast<uint32_t>(overflow[k]),
              " more than once");
    }
  }
}

size_t TableSize(const Graph& g, Graph::Table table) {
  switch (table) {
    case Graph::Table::kPerson: return g.NumPersons();
    case Graph::Table::kForum: return g.NumForums();
    case Graph::Table::kPost: return g.NumPosts();
    case Graph::Table::kComment: return g.NumComments();
    case Graph::Table::kMessage: return g.NumMessages();
    case Graph::Table::kTag: return g.NumTags();
    case Graph::Table::kPlace: return g.NumPlaces();
  }
  return 0;
}

// Graph::Relations() plus the two static tag-class relations, each walked
// once. The relations the cross-checks read get an edge hook: the
// tombstone-dangling checks (cascade completeness: everything downstream of
// a dead person, forum or message must be dead too, or a cascade stopped
// partway through — the torn state recovery must never publish), the
// live-count recounts and the per-edge store-consistency checks.
void CheckRelations(const Graph& g, Tally& t, Recorder& rec) {
  const bool tombstones = g.HasTombstones();
  const auto no_hook = [](uint32_t, uint32_t) {};
  for (const Graph::NamedRelation& named : Graph::Relations()) {
    const AdjacencyList& adj = g.*named.list;
    const Relation r{named.name, adj, TableSize(g, named.source),
                     TableSize(g, named.target),
                     named.target == Graph::Table::kMessage};
    if (&adj == &g.Knows()) {
      WalkRelation(g, r, rec, [&](uint32_t p, uint32_t q) {
        if (p < q) t.knows_up.push_back(PairKey(p, q));
        if (q < p) t.knows_down.push_back(PairKey(q, p));
      });
    } else if (&adj == &g.PersonPosts()) {
      WalkRelation(g, r, rec, [&](uint32_t p, uint32_t post) {
        if (g.PostCreator(post) != p) {
          rec.Add(kStoreConsistency, "post ", post, " is filed under person ",
                  p, " but its creator is ", g.PostCreator(post));
        }
        if (tombstones && !g.PersonAlive(p) && g.PostAlive(post)) {
          rec.Add(kTombstoneDangling, "post ", post,
                  " alive but its creator person ", p, " is tombstoned");
        }
      });
    } else if (&adj == &g.PersonComments()) {
      WalkRelation(g, r, rec, [&](uint32_t p, uint32_t c) {
        if (tombstones && !g.PersonAlive(p) && g.CommentAlive(c)) {
          rec.Add(kTombstoneDangling, "comment ", c,
                  " alive but its creator person ", p, " is tombstoned");
        }
      });
    } else if (&adj == &g.PersonModerates()) {
      WalkRelation(g, r, rec, [&](uint32_t p, uint32_t f) {
        if (tombstones && !g.PersonAlive(p) && g.ForumAlive(f)) {
          rec.Add(kTombstoneDangling, "forum ", f,
                  " alive but its moderator person ", p, " is tombstoned");
        }
      });
    } else if (&adj == &g.ForumPosts()) {
      WalkRelation(g, r, rec, [&](uint32_t f, uint32_t post) {
        if (tombstones && !g.ForumAlive(f) && g.PostAlive(post)) {
          rec.Add(kTombstoneDangling, "post ", post, " alive but its forum ",
                  f, " is tombstoned");
        }
      });
    } else if (&adj == &g.PostReplies() || &adj == &g.CommentReplies()) {
      const bool posts = &adj == &g.PostReplies();
      WalkRelation(g, r, rec, [&](uint32_t row, uint32_t c) {
        const uint32_t msg =
            posts ? Graph::MessageOfPost(row) : Graph::MessageOfComment(row);
        const bool alive = g.CommentAlive(c);
        t.live_replies[FlatMessage(g, msg)] += alive;
        if (tombstones && alive && !g.MessageAlive(msg)) {
          rec.Add(kTombstoneDangling, "comment ", c,
                  " alive but replies to tombstoned ",
                  posts ? "post " : "comment ", row);
        }
      });
    } else if (&adj == &g.PostLikers() || &adj == &g.CommentLikers()) {
      const bool posts = &adj == &g.PostLikers();
      WalkRelation(g, r, rec, [&](uint32_t row, uint32_t p) {
        const uint32_t msg =
            posts ? Graph::MessageOfPost(row) : Graph::MessageOfComment(row);
        const size_t at = FlatMessage(g, msg);
        ++t.likers[at];
        if (tombstones) t.live_likers[at] += g.LikeAlive(p, msg);
      });
    } else if (&adj == &g.CountryPersons()) {
      WalkRelation(g, r, rec, [&](uint32_t place, uint32_t p) {
        if (g.PersonCountry(p) != place) {
          rec.Add(kStoreConsistency, "country→persons files person ", p,
                  " under place ", place, " but their country is ",
                  g.PersonCountry(p));
        }
      });
    } else {
      WalkRelation(g, r, rec, no_hook);
    }
  }
  WalkRelation(g,
               {"adj/tag-class-children", g.TagClassChildren(),
                g.NumTagClasses(), g.NumTagClasses(), false},
               rec, no_hook);
  WalkRelation(g,
               {"adj/tag-class-tags", g.TagClassTags(), g.NumTagClasses(),
                g.NumTags(), false},
               rec, no_hook);
}

// ---- Cross-checks -----------------------------------------------------------

// Forward and reverse relations hold as many edges, country → persons files
// every person once, and knows is symmetric: the edges stored in each
// direction, as (lower, higher) pairs, are the same multiset.
void CheckStoreConsistency(const Graph& g, Tally& t, Recorder& rec) {
  auto agree = [&rec](const char* what, size_t forward, size_t reverse) {
    if (forward != reverse) {
      rec.Add(kStoreConsistency, what, ": ", forward, " != ", reverse);
    }
  };
  agree("person→posts edges vs posts", g.PersonPosts().num_edges(),
        g.NumPosts());
  agree("person→comments edges vs comments", g.PersonComments().num_edges(),
        g.NumComments());
  agree("person→likes vs message→likers edges", g.PersonLikes().num_edges(),
        g.PostLikers().num_edges() + g.CommentLikers().num_edges());
  agree("forum→members vs person→forums edges", g.ForumMembers().num_edges(),
        g.PersonForums().num_edges());
  agree("message→tags vs tag→messages edges",
        g.PostTags().num_edges() + g.CommentTags().num_edges(),
        g.TagPosts().num_edges() + g.TagComments().num_edges());
  agree("country→persons edges vs persons", g.CountryPersons().num_edges(),
        g.NumPersons());

  std::sort(t.knows_up.begin(), t.knows_up.end());
  std::sort(t.knows_down.begin(), t.knows_down.end());
  auto one_way = [&rec](uint64_t key, bool up) {
    const uint32_t lo = static_cast<uint32_t>(key >> 32);
    const uint32_t hi = static_cast<uint32_t>(key);
    rec.Add(kStoreConsistency, "knows edge ", up ? lo : hi, " -> ",
            up ? hi : lo, " has no reverse edge");
  };
  size_t i = 0, j = 0;
  while (i < t.knows_up.size() || j < t.knows_down.size()) {
    if (j == t.knows_down.size() ||
        (i < t.knows_up.size() && t.knows_up[i] < t.knows_down[j])) {
      one_way(t.knows_up[i++], true);
    } else if (i == t.knows_up.size() || t.knows_down[j] < t.knows_up[i]) {
      one_way(t.knows_down[j++], false);
    } else {
      ++i;
      ++j;
    }
  }
}

// The like-count column and the LiveReplyCount deltas of every live
// message agree with a recount of its live edges. The per-edge LikeAlive
// recount runs only on a graph with tombstones; without them every like is
// live.
void CheckLiveEdgeCounts(const Graph& g, const Tally& t, Recorder& rec) {
  const bool tombstones = g.HasTombstones();
  g.ForEachMessage([&](uint32_t msg) {  // visits live messages only
    const size_t at = FlatMessage(g, msg);
    const int64_t likes = tombstones ? t.live_likers[at] : t.likers[at];
    if (likes != g.LiveLikeCount(msg)) {
      rec.Add(kTombstoneIndex, "message ", msg, ": LiveLikeCount = ",
              g.LiveLikeCount(msg), " but ", likes, " live like edges exist");
    }
    if (t.live_replies[at] != g.LiveReplyCount(msg)) {
      rec.Add(kTombstoneIndex, "message ", msg, ": LiveReplyCount = ",
              g.LiveReplyCount(msg), " but ", t.live_replies[at],
              " live replies exist");
    }
  });
}

// ---- Message index ----------------------------------------------------------

// One walk over the base and the tail checks message-index-order,
// zone-map-coverage, the base date column's block zones and both like-zone
// invariants. Bound pushdown skips whole index blocks whose like-count zone
// max cannot beat the current top-k bound, and whole persons whose
// message-date zone misses the scan window; either zone understating its
// contents makes the skip drop real candidates. Zone maxima are computed
// over all rows, dead included, so they must bound both the raw likers
// degree and, for live rows, the live like count. Dead rows are exempt
// from the person zone: the cascade collapses a dead person's zone on
// purpose so scans skip them.
void CheckMessageIndex(const Graph& g, const Tally& t, Recorder& rec) {
  const MessageDateIndex& idx = g.MessageIndex();
  if (idx.size() != g.NumMessages()) {
    rec.Add(kMessageIndexOrder, "index holds ", idx.size(),
            " entries but the store has ", g.NumMessages(), " messages");
  }
  std::vector<bool> seen(g.NumMessages());  // by FlatMessage
  constexpr uint32_t kNoZone = UINT32_MAX;  // a tail entry past the zones
  auto check_entry = [&](const char* where, size_t i, uint32_t msg,
                         core::DateTime date, uint32_t zone_likes) {
    if (!ValidMessageRef(g, msg)) {
      rec.Add(kMessageIndexOrder, where, "[", i, "]: invalid message ref");
      return;
    }
    const size_t at = FlatMessage(g, msg);
    if (seen[at]) {
      rec.Add(kMessageIndexOrder, where, "[", i, "]: message indexed twice");
    }
    seen[at] = true;
    if (date != g.MessageCreationDate(msg)) {
      rec.Add(kMessageIndexOrder, where, "[", i, "]: cached date ", date,
              " != message creationDate ", g.MessageCreationDate(msg));
    }
    if (t.likers[at] > zone_likes) {
      rec.Add(kLikeZone, where, "[", i, "]: ", t.likers[at],
              " likes > zone max ", zone_likes,
              " — bound pruning would skip a top-k candidate");
    }
    if (!g.MessageAlive(msg)) return;
    const uint32_t p = g.MessageCreator(msg);
    if (p < g.NumPersons() && g.PersonAlive(p) &&
        !g.PersonHasMessagesIn(p, date, date + 1)) {
      rec.Add(kLikeZone, where, "[", i, "]: creation date ", date,
              " outside creator ", p,
              "'s message-date zone — person pruning would skip it");
    }
    if (g.LiveLikeCount(msg) > static_cast<int64_t>(zone_likes)) {
      rec.Add(kTombstoneZone, where, "[", i, "]: live message ", msg,
              " has ", g.LiveLikeCount(msg), " live likes > zone max ",
              zone_likes);
    }
  };

  ColumnReader base_dates(idx.BaseDateColumn(), "message-index", "dates",
                          rec);
  std::pair<core::DateTime, uint32_t> prev;
  for (size_t i = 0; i < idx.base_size(); ++i) {
    const auto cur = std::make_pair(
        MessageDateIndex::DateOfKey(base_dates.Next()), idx.BaseAt(i));
    if (i > 0 && !(prev < cur)) {
      rec.Add(kMessageIndexOrder, "base[", i, "]: (date, ref) order "
              "violated: (", prev.first, ", ", prev.second, ") !< (",
              cur.first, ", ", cur.second, ")");
    }
    prev = cur;
    check_entry("base", i, cur.second, cur.first,
                idx.BaseBlockMaxLikes(i / ColumnBlock::kMaxValues));
  }
  base_dates.Finish();

  const size_t kTailBlock = MessageDateIndex::kTailBlock;
  const size_t want_blocks = (idx.tail_size() + kTailBlock - 1) / kTailBlock;
  const bool zoned = idx.NumTailBlocks() == want_blocks;
  if (!zoned) {
    rec.Add(kZoneMapCoverage, "tail of ", idx.tail_size(), " entries has ",
            idx.NumTailBlocks(), " zone blocks, expected ", want_blocks);
  }
  size_t reported_block = SIZE_MAX;  // one coverage finding per block
  for (size_t i = 0; i < idx.tail_size(); ++i) {
    const size_t b = i / kTailBlock;
    const core::DateTime date = idx.TailDateAt(i);
    uint32_t zone_likes = kNoZone;
    if (b < idx.NumTailBlocks()) {
      const MessageDateIndex::Zone z = idx.TailZoneAt(b);
      zone_likes = z.max_likes;
      if (zoned && (date < z.min || date > z.max) && b != reported_block) {
        rec.Add(kZoneMapCoverage, "tail block ", b, ": entry ", i, " date ",
                date, " outside zone [", z.min, ", ", z.max,
                "] — range scans would skip it");
        reported_block = b;
      }
    }
    check_entry("tail", i, idx.TailAt(i), date, zone_likes);
  }
}

// ---- cardinality ------------------------------------------------------------

void CheckCardinality(const Graph& g, const core::ScaleFactorInfo& sf,
                      Recorder& rec) {
  if (g.NumPersons() != sf.num_persons) {
    rec.Add(kCardinality, "store has ", g.NumPersons(), " persons but SF",
            sf.name, " (Table 2.12) fixes ", sf.num_persons);
  }
  // The datagen never produces an all-quiet network: every SF row implies
  // forums and message activity. Catch truncated loads.
  if (sf.num_persons > 0) {
    if (g.NumForums() == 0) {
      rec.Add(kCardinality, "store has persons but zero forums");
    }
    if (g.NumMessages() == 0) {
      rec.Add(kCardinality, "store has persons but zero messages");
    }
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
  Recorder rec(report);
  CheckPersons(graph, rec);
  CheckForumsAndTags(graph, rec);
  CheckPosts(graph, rec);
  CheckComments(graph, rec);
  Tally tally(graph);
  CheckRelations(graph, tally, rec);
  CheckStoreConsistency(graph, tally, rec);
  CheckLiveEdgeCounts(graph, tally, rec);
  CheckMessageIndex(graph, tally, rec);
  report.invariants_checked = kCardinality;  // every class before it
  if (options.expect_sf.has_value()) {
    CheckCardinality(graph, *options.expect_sf, rec);
    ++report.invariants_checked;
  }
  return report;
}

}  // namespace snb::validate
