// Compaction: Graph::Compact() builds a frozen graph straight from this
// graph's own columns — the point where deep deletes become physical.
//
// Each dynamic table (persons, forums, posts, comments) gets an old → new
// row map over its live rows. Every per-row, string and list column is
// gathered through the maps and every reference column is remapped; each
// relation's live edges are remapped and built into a fresh CSR base, with
// the overflow folded in. The maps are monotone and the build follows the
// bulk build's order throughout, so the result is laid out exactly as
// Graph(ExportNetwork(g), epoch) — the test oracle — lays it out: the two
// write byte-identical checkpoint images. With no tombstones every map is
// the identity and compaction only freezes the graph: adjacency overflow,
// the message-index tail and the string tails all fold into fresh bases.

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "storage/graph.h"
#include "util/check.h"

namespace snb::storage {

namespace {

static_assert(kNoIdx == AdjacencyList::kDropped,
              "a dead row maps to what AdjacencyList::Remapped drops");

/// The live rows of one table: `rows` holds their old indices in order
/// (new → old) and `to` maps an old row to its new one, kNoIdx when dead.
struct RowMap {
  std::vector<uint32_t> rows;
  std::vector<uint32_t> to;

  explicit RowMap(const TombstoneBitmap& dead) : to(dead.size(), kNoIdx) {
    rows.reserve(dead.size() - dead.count());
    for (uint32_t i = 0; i < dead.size(); ++i) {
      if (dead.Test(i)) continue;
      to[i] = static_cast<uint32_t>(rows.size());
      rows.push_back(i);
    }
  }

  size_t size() const { return rows.size(); }
};

/// f(`column`[r]) for the live rows r of `map`, sized exactly.
template <typename T, typename F>
std::vector<T> Gather(const std::vector<T>& column, const RowMap& map, F f) {
  std::vector<T> out;
  out.reserve(map.size());
  for (uint32_t r : map.rows) out.push_back(f(column[r]));
  return out;
}

template <typename T>
std::vector<T> Gather(const std::vector<T>& column, const RowMap& map) {
  return Gather(column, map, [](const T& v) { return v; });
}

/// The live rows of a string column as a fresh frozen base, sized exactly.
columnar::StringColumn GatherStrings(const columnar::StringColumn& column,
                                     const RowMap& map) {
  size_t chars = 0;
  for (uint32_t r : map.rows) chars += column.At(r).size();
  columnar::StringColumn out;
  out.Reserve(map.size(), chars);
  for (uint32_t r : map.rows) out.Append(column.At(r));
  out.Freeze();
  return out;
}

}  // namespace

std::unique_ptr<Graph> Graph::Compact() const {
  const RowMap persons(person_dead_), forums(forum_dead_), posts(post_dead_),
      comments(comment_dead_);
  auto to_message = [&](uint32_t msg) {
    if (IsPost(msg)) return posts.to[msg];
    const uint32_t c = comments.to[AsComment(msg)];
    return c == kNoIdx ? kNoIdx : MessageOfComment(c);
  };
  // A live row references only live rows (the cascade kills whatever
  // references a dead one), so every reference remap hits.
  auto mapped = [](const RowMap& map) {
    return [&map](uint32_t row) {
      SNB_DCHECK(map.to[row] != kNoIdx);
      return map.to[row];
    };
  };

  std::unique_ptr<Graph> out(new Graph());
  Graph& g = *out;
  g.static_ = static_;
  g.compaction_epoch_ = compaction_epoch_ + (HasTombstones() ? 1 : 0);

  // The dictionary is re-encoded in the bulk build's first-use order (the
  // order of its Append*Row calls: each person's gender then browser, each
  // post's browser then language, each comment's browser), so strings
  // only dead rows used drop out.
  std::vector<uint32_t> codes(dict_.size(), columnar::Dictionary::kNoCode);
  auto recode = [&](uint32_t code) {
    uint32_t& c = codes[code];
    if (c == columnar::Dictionary::kNoCode) {
      c = g.dict_.GetOrAdd(dict_.Decode(code));
    }
    return c;
  };

  // ---- Persons --------------------------------------------------------------
  g.person_id_ = Gather(person_id_, persons);
  g.person_birthday_ = Gather(person_birthday_, persons);
  g.person_creation_ = Gather(person_creation_, persons);
  g.person_city_ = Gather(person_city_, persons);
  g.person_country_ = Gather(person_country_, persons);
  g.person_first_name_ = GatherStrings(person_first_name_, persons);
  g.person_last_name_ = GatherStrings(person_last_name_, persons);
  g.person_location_ip_ = GatherStrings(person_location_ip_, persons);
  g.person_gender_code_.reserve(persons.size());
  g.person_browser_code_.reserve(persons.size());
  for (uint32_t r : persons.rows) {
    g.person_gender_code_.push_back(recode(person_gender_code_[r]));
    g.person_browser_code_.push_back(recode(person_browser_code_[r]));
    g.person_emails_.AppendRow(person_emails_, r);
    g.person_speaks_.AppendRow(person_speaks_, r);
    g.person_study_at_.AppendRow(person_study_at_, r);
    g.person_work_at_.AppendRow(person_work_at_, r);
  }

  // ---- Forums ---------------------------------------------------------------
  g.forum_id_ = Gather(forum_id_, forums);
  g.forum_title_ = GatherStrings(forum_title_, forums);
  g.forum_creation_ = Gather(forum_creation_, forums);
  g.forum_moderator_ = Gather(forum_moderator_, forums, mapped(persons));
  g.forum_kind_ = Gather(forum_kind_, forums);

  // ---- Posts ----------------------------------------------------------------
  g.post_id_ = Gather(post_id_, posts);
  g.post_length_ = Gather(post_length_, posts);
  g.post_content_ = GatherStrings(post_content_, posts);
  g.post_image_file_ = GatherStrings(post_image_file_, posts);
  g.post_location_ip_ = GatherStrings(post_location_ip_, posts);
  g.post_creation_ = Gather(post_creation_, posts);
  g.post_creator_ = Gather(post_creator_, posts, mapped(persons));
  g.post_forum_ = Gather(post_forum_, posts, mapped(forums));
  g.post_country_ = Gather(post_country_, posts);
  g.post_browser_code_.reserve(posts.size());
  g.post_language_code_.reserve(posts.size());
  for (uint32_t r : posts.rows) {
    g.post_browser_code_.push_back(recode(post_browser_code_[r]));
    g.post_language_code_.push_back(recode(post_language_code_[r]));
  }
  g.post_like_count_ = Gather(post_like_count_, posts);

  // ---- Comments -------------------------------------------------------------
  g.comment_id_ = Gather(comment_id_, comments);
  g.comment_length_ = Gather(comment_length_, comments);
  g.comment_content_ = GatherStrings(comment_content_, comments);
  g.comment_location_ip_ = GatherStrings(comment_location_ip_, comments);
  g.comment_creation_ = Gather(comment_creation_, comments);
  g.comment_creator_ = Gather(comment_creator_, comments, mapped(persons));
  g.comment_country_ = Gather(comment_country_, comments);
  g.comment_reply_of_ = Gather(comment_reply_of_, comments, to_message);
  g.comment_root_post_ = Gather(comment_root_post_, comments, mapped(posts));
  g.comment_forum_ = Gather(comment_forum_, comments, mapped(forums));
  g.comment_browser_code_ = Gather(comment_browser_code_, comments, recode);
  // The root post's language was coded with the posts.
  g.comment_root_language_code_ =
      Gather(comment_root_language_code_, comments, recode);
  g.comment_like_count_ = Gather(comment_like_count_, comments);

  // ---- Id tables, tombstone bitmaps, message-date zones ---------------------
  auto index = [](columnar::FlatIdTable& table,
                  const std::vector<core::Id>& ids, TombstoneBitmap& dead) {
    table.Reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      table.Insert(ids[i], static_cast<uint32_t>(i));
      dead.Append();
    }
  };
  index(g.person_idx_, g.person_id_, g.person_dead_);
  index(g.forum_idx_, g.forum_id_, g.forum_dead_);
  index(g.post_idx_, g.post_id_, g.post_dead_);
  index(g.comment_idx_, g.comment_id_, g.comment_dead_);
  // Recomputed from the live messages: this graph's zones still cover its
  // deleted ones.
  g.person_msg_date_min_.assign(persons.size(), kMaxMessageDate);
  g.person_msg_date_max_.assign(persons.size(), kMinMessageDate);
  for (size_t i = 0; i < posts.size(); ++i) {
    g.NoteMessageDate(g.post_creator_[i], g.post_creation_[i]);
  }
  for (size_t i = 0; i < comments.size(); ++i) {
    g.NoteMessageDate(g.comment_creator_[i], g.comment_creation_[i]);
  }

  // ---- Relations ------------------------------------------------------------
  // Each relation's live edges, remapped, become a fresh base. The maps
  // are monotone, so base spans stay sorted and only the spans that took
  // appends can need sorting.
  auto to = [&](Table t, uint32_t row) {
    switch (t) {
      case Table::kPerson: return persons.to[row];
      case Table::kForum: return forums.to[row];
      case Table::kPost: return posts.to[row];
      case Table::kComment: return comments.to[row];
      case Table::kMessage: return to_message(row);
      case Table::kTag:
      case Table::kPlace: return row;
    }
    return kNoIdx;
  };
  auto rows_of = [&](Table t) {
    switch (t) {
      case Table::kPerson: return persons.size();
      case Table::kForum: return forums.size();
      case Table::kPost: return posts.size();
      case Table::kComment: return comments.size();
      case Table::kTag: return NumTags();
      case Table::kPlace: return NumPlaces();
      case Table::kMessage: break;  // never a source
    }
    return size_t{0};
  };
  for (const NamedRelation& r : Relations()) {
    const AdjacencyList& in = this->*r.list;
    // `deleted(s, t)`: edge s → t (old rows) was deleted on its own.
    auto rewrite = [&](auto deleted) {
      g.*r.list = in.Remapped(
          rows_of(r.source), [&](uint32_t s) { return to(r.source, s); },
          [&](uint32_t t) { return to(r.target, t); }, deleted);
    };
    // `deleted(s, t)` over a relation's own edge tombstones (DEL 2/3/5/8):
    // `keys`, keyed by key_of(s, t). Only the edges out of a row that half
    // of some key names pay a hash lookup.
    auto tombstoned = [&in](const std::unordered_set<uint64_t>& keys,
                            auto key_of) {
      std::vector<bool> named(in.num_nodes());
      for (uint64_t key : keys) {
        for (uint32_t row : {static_cast<uint32_t>(key >> 32),
                             MessageRow(static_cast<uint32_t>(key))}) {
          if (row < named.size()) named[row] = true;
        }
      }
      return [&keys, key_of, named = std::move(named)](uint32_t s,
                                                       uint32_t t) {
        return named[s] && keys.count(key_of(s, t)) != 0;
      };
    };
    if (r.list == &Graph::knows_) {
      // The export keeps one row per undirected edge (p < q), which also
      // drops self-loops.
      auto deleted = tombstoned(deleted_knows_, &UnorderedEdgeKey);
      rewrite([&deleted](uint32_t s, uint32_t t) {
        return s == t || deleted(s, t);
      });
    } else if (r.list == &Graph::person_likes_) {
      rewrite(tombstoned(deleted_likes_, &EdgeKey));
    } else if (r.list == &Graph::post_likers_) {
      rewrite(tombstoned(deleted_likes_, [](uint32_t s, uint32_t t) {
        return EdgeKey(t, MessageOfPost(s));
      }));
    } else if (r.list == &Graph::comment_likers_) {
      rewrite(tombstoned(deleted_likes_, [](uint32_t s, uint32_t t) {
        return EdgeKey(t, MessageOfComment(s));
      }));
    } else if (r.list == &Graph::forum_members_) {
      rewrite(tombstoned(deleted_memberships_, [](uint32_t s, uint32_t t) {
        return EdgeKey(t, s);
      }));
    } else if (r.list == &Graph::person_forums_) {
      rewrite(tombstoned(deleted_memberships_, &EdgeKey));
    } else {
      rewrite([](uint32_t, uint32_t) { return false; });
    }
  }

  // ---- Creation-date message index ------------------------------------------
  g.message_index_.Build(g.post_creation_, g.comment_creation_);
  g.message_index_.BuildLikeZones([&g](uint32_t ref) -> uint32_t {
    return static_cast<uint32_t>(g.LiveLikeCount(ref));
  });
  return out;
}

}  // namespace snb::storage
