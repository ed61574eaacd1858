#include "storage/graph.h"

#include <algorithm>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>

#include "util/check.h"
#include "util/failpoint.h"

namespace snb::storage {

namespace {

template <typename T>
columnar::FlatIdTable IndexById(const std::vector<T>& rows) {
  columnar::FlatIdTable table;
  table.Reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const bool inserted = table.Insert(rows[i].id, static_cast<uint32_t>(i));
    SNB_CHECK(inserted);  // ids must be unique within an entity type
  }
  return table;
}

/// Rows of `records` ordered by name. The sort is stable, so the last row
/// of a repeated name ends its run: FindByName returns it.
template <typename T>
std::vector<uint32_t> OrderByName(const std::vector<T>& records) {
  std::vector<uint32_t> rows(records.size());
  std::iota(rows.begin(), rows.end(), 0u);
  std::stable_sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
    return records[a].name < records[b].name;
  });
  return rows;
}

template <typename T>
uint32_t FindByName(const std::vector<uint32_t>& by_name,
                    const std::vector<T>& records, const std::string& name) {
  auto it = std::upper_bound(
      by_name.begin(), by_name.end(), name,
      [&](const std::string& n, uint32_t row) { return n < records[row].name; });
  if (it == by_name.begin() || records[*(it - 1)].name != name) return kNoIdx;
  return *(it - 1);
}

// Heap accounting for Graph::Memory().

template <typename T>
size_t VecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Heap block of a string past the small-string buffer (libstdc++: 15 B).
size_t StringHeap(const std::string& s) {
  return s.capacity() > 15 ? s.capacity() + 1 : 0;
}

/// Bucket array plus one node per element: next pointer and value.
template <typename Table>
size_t HashBytes(const Table& t) {
  return t.bucket_count() * sizeof(void*) +
         t.size() * (sizeof(void*) + sizeof(typename Table::value_type));
}

}  // namespace

Graph::StaticSegment::StaticSegment(core::SocialNetwork& net)
    : tags(std::move(net.tags)),
      tag_classes(std::move(net.tag_classes)),
      places(std::move(net.places)),
      organisations(std::move(net.organisations)),
      tag_idx(IndexById(tags)),
      tag_class_idx(IndexById(tag_classes)),
      place_idx(IndexById(places)),
      organisation_idx(IndexById(organisations)),
      place_by_name(OrderByName(places)),
      tag_by_name(OrderByName(tags)),
      tag_class_by_name(OrderByName(tag_classes)) {
  place_part_of.resize(places.size());
  for (size_t i = 0; i < places.size(); ++i) {
    place_part_of[i] = places[i].part_of == core::kNoId
                           ? kNoIdx
                           : place_idx.Find(places[i].part_of);
  }
  tag_class_parent.resize(tag_classes.size());
  {
    std::vector<EdgeInput> child_edges;
    for (size_t i = 0; i < tag_classes.size(); ++i) {
      if (tag_classes[i].parent == core::kNoId) {
        tag_class_parent[i] = kNoIdx;
      } else {
        tag_class_parent[i] = tag_class_idx.Find(tag_classes[i].parent);
        child_edges.push_back({tag_class_parent[i], static_cast<uint32_t>(i)});
      }
    }
    tag_class_children.Build(tag_classes.size(), std::move(child_edges),
                             false);
  }
  tag_class_of_tag.resize(tags.size());
  {
    std::vector<EdgeInput> class_tags;
    for (size_t i = 0; i < tags.size(); ++i) {
      tag_class_of_tag[i] = tag_class_idx.Find(tags[i].tag_class);
      class_tags.push_back({tag_class_of_tag[i], static_cast<uint32_t>(i)});
    }
    tag_class_tags.Build(tag_classes.size(), std::move(class_tags), false);
  }
}

size_t Graph::StaticSegment::ByteSize() const {
  size_t bytes = VecBytes(places) + VecBytes(organisations) + VecBytes(tags) +
                 VecBytes(tag_classes);
  auto named = [&bytes](const auto& rows) {
    for (const auto& r : rows) bytes += StringHeap(r.name) + StringHeap(r.url);
  };
  named(places);
  named(organisations);
  named(tags);
  named(tag_classes);
  return bytes + tag_idx.ByteSize() + tag_class_idx.ByteSize() +
         place_idx.ByteSize() + organisation_idx.ByteSize() +
         VecBytes(place_by_name) + VecBytes(tag_by_name) +
         VecBytes(tag_class_by_name) + VecBytes(place_part_of) +
         VecBytes(tag_class_parent) + VecBytes(tag_class_of_tag) +
         tag_class_children.ByteSize() + tag_class_tags.ByteSize();
}

Graph::Graph(core::SocialNetwork net, uint32_t compaction_epoch)
    : static_(std::make_shared<const StaticSegment>(net)),
      compaction_epoch_(compaction_epoch) {
  // Exact-size the string columns, the bulk of a row's bytes, and the
  // per-row columns: the bulk-loaded snapshot then holds no growth slack,
  // so its Memory() is what a copy of it allocates.
  auto reserve = [](columnar::StringColumn& col, const auto& rows, auto field) {
    size_t chars = 0;
    for (const auto& row : rows) chars += (row.*field).size();
    col.Reserve(rows.size(), chars);
  };
  auto reserve_rows = [](size_t rows, auto&... cols) {
    (cols.reserve(rows), ...);
  };
  // Frees the consumed person and forum records at once, so the build's
  // later allocations reuse their chunks instead of leaving them as holes
  // between live ones (which slowed every later refresh copy).
  auto release = [](auto& rows) { std::decay_t<decltype(rows)>().swap(rows); };

  // ---- Persons --------------------------------------------------------------
  reserve(person_first_name_, net.persons, &core::Person::first_name);
  reserve(person_last_name_, net.persons, &core::Person::last_name);
  reserve(person_location_ip_, net.persons, &core::Person::location_ip);
  person_idx_.Reserve(net.persons.size());
  reserve_rows(net.persons.size(), person_id_, person_birthday_,
               person_creation_, person_city_, person_country_,
               person_gender_code_, person_browser_code_,
               person_msg_date_min_, person_msg_date_max_);
  {
    std::vector<EdgeInput> country_persons, interests;
    for (const core::Person& p : net.persons) {
      const uint32_t city = PlaceIdx(p.city);
      const uint32_t country = CountryOfCity(city);
      SNB_CHECK_NE(country, kNoIdx);
      const uint32_t i = AppendPersonRow(p, city, country);
      for (core::Id t : p.interests) interests.push_back({i, TagIdx(t)});
      country_persons.push_back({country, i});
    }
    release(net.persons);
    country_persons_.Build(NumPlaces(), std::move(country_persons), false);
    std::vector<EdgeInput> interests_rev;
    interests_rev.reserve(interests.size());
    for (const EdgeInput& e : interests) {
      interests_rev.push_back({e.dst, e.src});
    }
    person_interests_.Build(NumPersons(), std::move(interests), false);
    tag_persons_.Build(NumTags(), std::move(interests_rev), false);
  }

  // ---- Knows ----------------------------------------------------------------
  {
    std::vector<EdgeInput> edges;
    edges.reserve(net.knows.size() * 2);
    for (const core::Knows& k : net.knows) {
      uint32_t a = PersonIdx(k.person1);
      uint32_t b = PersonIdx(k.person2);
      SNB_CHECK(a != kNoIdx && b != kNoIdx);
      edges.push_back({a, b, k.creation_date});
      edges.push_back({b, a, k.creation_date});
    }
    knows_.Build(NumPersons(), std::move(edges), true);
  }

  // ---- Forums ----------------------------------------------------------------
  reserve(forum_title_, net.forums, &core::Forum::title);
  forum_idx_.Reserve(net.forums.size());
  reserve_rows(net.forums.size(), forum_id_, forum_creation_,
               forum_moderator_, forum_kind_);
  {
    std::vector<EdgeInput> moderates, ftags, tag_forums;
    for (const core::Forum& f : net.forums) {
      const uint32_t mod = PersonIdx(f.moderator);
      SNB_CHECK_NE(mod, kNoIdx);
      const uint32_t i = AppendForumRow(f, mod);
      moderates.push_back({mod, i});
      for (core::Id t : f.tags) {
        const uint32_t tag = TagIdx(t);
        ftags.push_back({i, tag});
        tag_forums.push_back({tag, i});
      }
    }
    release(net.forums);
    person_moderates_.Build(NumPersons(), std::move(moderates), false);
    forum_tags_.Build(NumForums(), std::move(ftags), false);
    tag_forums_.Build(NumTags(), std::move(tag_forums), false);

    std::vector<EdgeInput> members, member_of;
    members.reserve(net.memberships.size());
    member_of.reserve(net.memberships.size());
    for (const core::ForumMembership& m : net.memberships) {
      uint32_t f = ForumIdx(m.forum);
      uint32_t p = PersonIdx(m.person);
      SNB_CHECK(f != kNoIdx && p != kNoIdx);
      members.push_back({f, p, m.join_date});
      member_of.push_back({p, f, m.join_date});
    }
    forum_members_.Build(NumForums(), std::move(members), true);
    person_forums_.Build(NumPersons(), std::move(member_of), true);
  }

  // ---- Posts -----------------------------------------------------------------
  reserve(post_content_, net.posts, &core::Post::content);
  reserve(post_image_file_, net.posts, &core::Post::image_file);
  reserve(post_location_ip_, net.posts, &core::Post::location_ip);
  reserve(comment_content_, net.comments, &core::Comment::content);
  reserve(comment_location_ip_, net.comments, &core::Comment::location_ip);
  post_idx_.Reserve(net.posts.size());
  reserve_rows(net.posts.size(), post_id_, post_creation_, post_length_,
               post_browser_code_, post_language_code_, post_creator_,
               post_forum_, post_country_, post_like_count_);
  {
    std::vector<EdgeInput> person_posts, forum_posts, ptags, tag_posts;
    for (const core::Post& p : net.posts) {
      const uint32_t creator = PersonIdx(p.creator);
      const uint32_t forum = ForumIdx(p.forum);
      SNB_CHECK(creator != kNoIdx && forum != kNoIdx);
      const uint32_t i = AppendPostRow(p, creator, forum, PlaceIdx(p.country));
      person_posts.push_back({creator, i});
      forum_posts.push_back({forum, i});
      for (core::Id t : p.tags) {
        const uint32_t tag = TagIdx(t);
        ptags.push_back({i, tag});
        tag_posts.push_back({tag, i});
      }
    }
    person_posts_.Build(NumPersons(), std::move(person_posts), false);
    forum_posts_.Build(NumForums(), std::move(forum_posts), false);
    post_tags_.Build(NumPosts(), std::move(ptags), false);
    tag_posts_.Build(NumTags(), std::move(tag_posts), false);
  }

  // ---- Comments --------------------------------------------------------------
  comment_idx_.Reserve(net.comments.size());
  reserve_rows(net.comments.size(), comment_id_, comment_creation_,
               comment_length_, comment_browser_code_, comment_creator_,
               comment_country_, comment_reply_of_, comment_root_post_,
               comment_forum_, comment_root_language_code_,
               comment_like_count_);
  {
    std::vector<EdgeInput> person_comments, post_replies, comment_replies,
        ctags, tag_comments;
    for (const core::Comment& c : net.comments) {
      const uint32_t creator = PersonIdx(c.creator);
      // Replies always follow their target (datagen emits comments in
      // thread order), so the target is already indexed.
      const uint32_t reply_of = ReplyTarget(c);
      SNB_CHECK(creator != kNoIdx && reply_of != kNoIdx);
      const uint32_t i =
          AppendCommentRow(c, creator, PlaceIdx(c.country), reply_of);
      (IsPost(reply_of) ? post_replies : comment_replies)
          .push_back({MessageRow(reply_of), i});
      person_comments.push_back({creator, i});
      for (core::Id t : c.tags) {
        const uint32_t tag = TagIdx(t);
        ctags.push_back({i, tag});
        tag_comments.push_back({tag, i});
      }
    }
    person_comments_.Build(NumPersons(), std::move(person_comments), false);
    post_replies_.Build(NumPosts(), std::move(post_replies), false);
    comment_replies_.Build(NumComments(), std::move(comment_replies), false);
    comment_tags_.Build(NumComments(), std::move(ctags), false);
    tag_comments_.Build(NumTags(), std::move(tag_comments), false);
  }

  // ---- Likes -----------------------------------------------------------------
  {
    std::vector<EdgeInput> person_likes, post_likers, comment_likers;
    person_likes.reserve(net.likes.size());
    for (const core::Like& l : net.likes) {
      const uint32_t person = PersonIdx(l.person);
      const uint32_t msg = l.is_post ? MessageOfPost(PostIdx(l.message))
                                     : MessageOfComment(CommentIdx(l.message));
      SNB_CHECK(person != kNoIdx && msg != kNoIdx);
      person_likes.push_back({person, msg, l.creation_date});
      (l.is_post ? post_likers : comment_likers)
          .push_back({MessageRow(msg), person, l.creation_date});
      // A bulk-loaded graph has no tombstones: every like is live.
      ++(l.is_post ? post_like_count_ : comment_like_count_)[MessageRow(msg)];
    }
    person_likes_.Build(NumPersons(), std::move(person_likes), true);
    post_likers_.Build(NumPosts(), std::move(post_likers), true);
    comment_likers_.Build(NumComments(), std::move(comment_likers), true);
  }

  // ---- Creation-date message index -------------------------------------------
  message_index_.Build(post_creation_, comment_creation_);
  // Like-count zones over the sorted base, from the bulk-loaded like
  // counts (the update path maintains them through NoteLike).
  message_index_.BuildLikeZones([this](uint32_t ref) -> uint32_t {
    return static_cast<uint32_t>(LiveLikeCount(ref));
  });

  // The bulk-loaded strings become shared bases, as the CSR bases and the
  // index base already are: copies of this snapshot share them.
  for (const FrozenString& s : FrozenStrings()) (this->*s.column).Freeze();
}

std::span<const Graph::NamedRelation> Graph::Relations() {
  static constexpr NamedRelation kRelations[] = {
      {"adj/knows", &Graph::knows_},
      {"adj/person-posts", &Graph::person_posts_},
      {"adj/person-comments", &Graph::person_comments_},
      {"adj/person-likes", &Graph::person_likes_},
      {"adj/post-likers", &Graph::post_likers_},
      {"adj/comment-likers", &Graph::comment_likers_},
      {"adj/forum-members", &Graph::forum_members_},
      {"adj/person-forums", &Graph::person_forums_},
      {"adj/forum-posts", &Graph::forum_posts_},
      {"adj/person-moderates", &Graph::person_moderates_},
      {"adj/post-replies", &Graph::post_replies_},
      {"adj/comment-replies", &Graph::comment_replies_},
      {"adj/post-tags", &Graph::post_tags_},
      {"adj/comment-tags", &Graph::comment_tags_},
      {"adj/forum-tags", &Graph::forum_tags_},
      {"adj/person-interests", &Graph::person_interests_},
      {"adj/tag-posts", &Graph::tag_posts_},
      {"adj/tag-comments", &Graph::tag_comments_},
      {"adj/tag-forums", &Graph::tag_forums_},
      {"adj/tag-persons", &Graph::tag_persons_},
      {"adj/country-persons", &Graph::country_persons_},
  };
  return kRelations;
}

std::span<const Graph::FrozenString> Graph::FrozenStrings() {
  static constexpr FrozenString kFrozen[] = {
      {"strings/person", "first-name", &Graph::person_first_name_},
      {"strings/person", "last-name", &Graph::person_last_name_},
      {"strings/person", "location-ip", &Graph::person_location_ip_},
      {"strings/forum", "title", &Graph::forum_title_},
      {"strings/message", "post-content", &Graph::post_content_},
      {"strings/message", "post-image-file", &Graph::post_image_file_},
      {"strings/message", "post-location-ip", &Graph::post_location_ip_},
      {"strings/message", "comment-content", &Graph::comment_content_},
      {"strings/message", "comment-location-ip",
       &Graph::comment_location_ip_},
  };
  return kFrozen;
}

columnar::MemoryBreakdown Graph::Memory() const {
  columnar::MemoryBreakdown mb;
  auto add = [&mb](const char* name, size_t bytes, size_t raw_bytes,
                   size_t items, size_t shared_bytes = 0) {
    mb.families.push_back({name, bytes, raw_bytes, items, shared_bytes});
  };
  for (const NamedRelation& r : Relations()) {
    const AdjacencyList& adj = this->*r.list;
    add(r.name, adj.ByteSize(), adj.RawByteSize(), adj.num_edges(),
        adj.SharedByteSize());
    mb.edge_bytes += adj.ByteSize();
    mb.edge_raw_bytes += adj.RawByteSize();
    mb.num_edges += adj.num_edges();
  }
  // Per-message hot columns: same flat layout in both representations.
  const size_t hot = VecBytes(post_creation_) + VecBytes(post_creator_) +
                     VecBytes(post_forum_) + VecBytes(post_country_) +
                     VecBytes(comment_creation_) + VecBytes(comment_creator_) +
                     VecBytes(comment_country_) + VecBytes(comment_reply_of_) +
                     VecBytes(comment_root_post_);
  add("index/message-date", message_index_.ByteSize(),
      message_index_.RawByteSize(), message_index_.size(),
      message_index_.SharedByteSize());
  add("cols/message", hot, hot, NumMessages());
  mb.message_bytes = message_index_.ByteSize() + hot;
  mb.message_raw_bytes = message_index_.RawByteSize() + hot;
  mb.num_messages = NumMessages();

  // Pure additions over the seed layout (raw 0): the dictionary, its
  // message code columns, the comment → thread forum endpoint, the live
  // like counts and the per-person message-date zones.
  add("dict", dict_.ByteSize(), 0, dict_.size());
  add("cols/codes",
      VecBytes(post_browser_code_) + VecBytes(comment_browser_code_) +
          VecBytes(post_language_code_) +
          VecBytes(comment_root_language_code_),
      0, NumMessages() * 2);
  add("cols/comment-forum", VecBytes(comment_forum_), 0,
      comment_forum_.size());
  add("cols/like-count",
      VecBytes(post_like_count_) + VecBytes(comment_like_count_), 0,
      NumMessages());
  add("cols/person-msg-zones",
      VecBytes(person_msg_date_min_) + VecBytes(person_msg_date_max_), 0,
      NumPersons());

  // Everything else has one layout only (raw == bytes) and sits outside
  // both headline densities.
  auto add_plain = [&add](const char* name, size_t bytes, size_t items,
                          size_t shared_bytes = 0) {
    add(name, bytes, bytes, items, shared_bytes);
  };
  // The string columns of one family, and the part of them in shared
  // bases.
  auto strings = [this](std::string_view family) {
    std::pair<size_t, size_t> bytes_shared{0, 0};
    for (const FrozenString& s : FrozenStrings()) {
      if (family != s.family) continue;
      bytes_shared.first += (this->*s.column).ByteSize();
      bytes_shared.second += (this->*s.column).SharedByteSize();
    }
    return bytes_shared;
  };
  add_plain("cols/message-attrs",
            VecBytes(post_id_) + VecBytes(comment_id_) +
                VecBytes(post_length_) + VecBytes(comment_length_),
            NumMessages());
  const auto [message_strings, message_shared] = strings("strings/message");
  add_plain("strings/message", message_strings, NumMessages(),
            message_shared);
  add_plain("cols/person",
            VecBytes(person_id_) + VecBytes(person_birthday_) +
                VecBytes(person_creation_) + VecBytes(person_city_) +
                VecBytes(person_country_) + VecBytes(person_gender_code_) +
                VecBytes(person_browser_code_) + person_study_at_.ByteSize() +
                person_work_at_.ByteSize(),
            NumPersons());
  const auto [person_strings, person_shared] = strings("strings/person");
  add_plain("strings/person",
            person_strings + person_emails_.ByteSize() +
                person_speaks_.ByteSize(),
            NumPersons(), person_shared);
  add_plain("cols/forum",
            VecBytes(forum_id_) + VecBytes(forum_creation_) +
                VecBytes(forum_moderator_) + VecBytes(forum_kind_),
            NumForums());
  const auto [forum_strings, forum_shared] = strings("strings/forum");
  add_plain("strings/forum", forum_strings, NumForums(), forum_shared);
  // The id tables at their allocated capacity (load factor ≤ 1/2).
  add_plain("maps/id",
            person_idx_.ByteSize() + forum_idx_.ByteSize() +
                post_idx_.ByteSize() + comment_idx_.ByteSize(),
            NumPersons() + NumForums() + NumMessages());
  // The static segment: records with their string heap, id tables, name
  // indices, structure columns and tag-class adjacency. Every copy of a
  // snapshot shares it, so a copy allocates none of these bytes.
  add_plain(kStaticFamily, static_->ByteSize(),
            NumPlaces() + NumOrganisations() + NumTags() + NumTagClasses(),
            static_->ByteSize());
  add_plain("tombstones",
            person_dead_.ByteSize() + forum_dead_.ByteSize() +
                post_dead_.ByteSize() + comment_dead_.ByteSize() +
                HashBytes(deleted_likes_) + HashBytes(deleted_memberships_) +
                HashBytes(deleted_knows_) + HashBytes(dead_replies_per_msg_),
            person_dead_.count() + forum_dead_.count() + post_dead_.count() +
                comment_dead_.count() + deleted_likes_.size() +
                deleted_memberships_.size() + deleted_knows_.size());

  return mb;
}

bool Graph::ResolveTags(const std::vector<core::Id>& ids,
                        std::vector<uint32_t>* tags) const {
  tags->clear();
  for (core::Id id : ids) {
    const uint32_t tag = TagIdx(id);
    if (tag == kNoIdx) return false;
    tags->push_back(tag);
  }
  return true;
}

uint32_t Graph::AppendPersonRow(const core::Person& person, uint32_t city,
                                uint32_t country) {
  const uint32_t idx = static_cast<uint32_t>(NumPersons());
  const bool inserted = person_idx_.Insert(person.id, idx);
  SNB_CHECK(inserted);  // ids must be unique within an entity type
  person_id_.push_back(person.id);
  person_dead_.Append();
  person_first_name_.Append(person.first_name);
  person_last_name_.Append(person.last_name);
  person_gender_code_.push_back(dict_.GetOrAdd(person.gender));
  person_birthday_.push_back(person.birthday);
  person_creation_.push_back(person.creation_date);
  person_location_ip_.Append(person.location_ip);
  person_browser_code_.push_back(dict_.GetOrAdd(person.browser_used));
  person_city_.push_back(city);
  person_country_.push_back(country);
  person_emails_.Append(person.emails);
  person_speaks_.Append(person.speaks);
  person_study_at_.Append(person.study_at);
  person_work_at_.Append(person.work_at);
  // The empty message-date zone (min above max) overlaps no window.
  person_msg_date_min_.push_back(kMaxMessageDate);
  person_msg_date_max_.push_back(kMinMessageDate);
  return idx;
}

uint32_t Graph::AppendForumRow(const core::Forum& forum, uint32_t moderator) {
  const uint32_t idx = static_cast<uint32_t>(NumForums());
  const bool inserted = forum_idx_.Insert(forum.id, idx);
  SNB_CHECK(inserted);  // ids must be unique within an entity type
  forum_id_.push_back(forum.id);
  forum_dead_.Append();
  forum_title_.Append(forum.title);
  forum_creation_.push_back(forum.creation_date);
  forum_moderator_.push_back(moderator);
  forum_kind_.push_back(forum.kind);
  return idx;
}

uint32_t Graph::AppendPostRow(const core::Post& post, uint32_t creator,
                              uint32_t forum, uint32_t country) {
  const uint32_t idx = static_cast<uint32_t>(NumPosts());
  const bool inserted = post_idx_.Insert(post.id, idx);
  SNB_CHECK(inserted);  // ids must be unique within an entity type
  post_id_.push_back(post.id);
  post_dead_.Append();
  post_creation_.push_back(post.creation_date);
  post_length_.push_back(post.length);
  post_content_.Append(post.content);
  post_image_file_.Append(post.image_file);
  post_location_ip_.Append(post.location_ip);
  post_browser_code_.push_back(dict_.GetOrAdd(post.browser_used));
  post_language_code_.push_back(dict_.GetOrAdd(post.language));
  post_creator_.push_back(creator);
  post_forum_.push_back(forum);
  post_country_.push_back(country);
  post_like_count_.push_back(0);
  NoteMessageDate(creator, post.creation_date);
  return idx;
}

uint32_t Graph::AppendCommentRow(const core::Comment& comment,
                                 uint32_t creator, uint32_t country,
                                 uint32_t reply_of) {
  const uint32_t root_post =
      IsPost(reply_of) ? reply_of : comment_root_post_[AsComment(reply_of)];
  const uint32_t idx = static_cast<uint32_t>(NumComments());
  const bool inserted = comment_idx_.Insert(comment.id, idx);
  SNB_CHECK(inserted);  // ids must be unique within an entity type
  comment_id_.push_back(comment.id);
  comment_dead_.Append();
  comment_creation_.push_back(comment.creation_date);
  comment_length_.push_back(comment.length);
  comment_content_.Append(comment.content);
  comment_location_ip_.Append(comment.location_ip);
  comment_browser_code_.push_back(dict_.GetOrAdd(comment.browser_used));
  comment_creator_.push_back(creator);
  comment_country_.push_back(country);
  comment_reply_of_.push_back(reply_of);
  comment_root_post_.push_back(root_post);
  comment_forum_.push_back(post_forum_[root_post]);
  comment_root_language_code_.push_back(post_language_code_[root_post]);
  comment_like_count_.push_back(0);
  NoteMessageDate(creator, comment.creation_date);
  return idx;
}

uint32_t Graph::PlaceByName(const std::string& name) const {
  return FindByName(static_->place_by_name, static_->places, name);
}

uint32_t Graph::TagByName(const std::string& name) const {
  return FindByName(static_->tag_by_name, static_->tags, name);
}

uint32_t Graph::TagClassByName(const std::string& name) const {
  return FindByName(static_->tag_class_by_name, static_->tag_classes, name);
}

// ---------------------------------------------------------------------------
// Mutators (IU 1–8)
// ---------------------------------------------------------------------------

uint32_t Graph::AddPerson(const core::Person& person) {
  const uint32_t city = PlaceIdx(person.city);
  const uint32_t country = CountryOfCity(city);
  std::vector<uint32_t> interests;
  if (PersonIdx(person.id) != kNoIdx || country == kNoIdx ||
      !ResolveTags(person.interests, &interests)) {
    return kNoIdx;
  }
  const uint32_t idx = AppendPersonRow(person, city, country);
  country_persons_.Append(country, idx);
  knows_.AddNodes(1);
  person_posts_.AddNodes(1);
  person_comments_.AddNodes(1);
  person_likes_.AddNodes(1);
  person_forums_.AddNodes(1);
  person_moderates_.AddNodes(1);
  person_interests_.AddNodes(1);
  for (uint32_t tag : interests) {
    person_interests_.Append(idx, tag);
    tag_persons_.Append(tag, idx);
  }
  return idx;
}

void Graph::AddLike(uint32_t p, uint32_t msg, core::DateTime date) {
  if (p == kNoIdx || msg == kNoIdx || !PersonAlive(p) || !MessageAlive(msg)) {
    return;
  }
  AdjacencyList& likers = IsPost(msg) ? post_likers_ : comment_likers_;
  const uint32_t row = MessageRow(msg);
  ++(IsPost(msg) ? post_like_count_ : comment_like_count_)[row];
  person_likes_.Append(p, msg, date);
  likers.Append(row, p, date);
  // The zone bounds the raw likers degree, which is never below the live
  // count (validator like-zone-bounds).
  message_index_.NoteLike(msg, MessageCreationDate(msg),
                          static_cast<uint32_t>(likers.Degree(row)));
}

void Graph::AddLikePost(core::Id person, core::Id post, core::DateTime date) {
  AddLike(PersonIdx(person), MessageOfPost(PostIdx(post)), date);
}

void Graph::AddLikeComment(core::Id person, core::Id comment,
                           core::DateTime date) {
  AddLike(PersonIdx(person), MessageOfComment(CommentIdx(comment)), date);
}

uint32_t Graph::AddForum(const core::Forum& forum) {
  const uint32_t mod = PersonIdx(forum.moderator);
  std::vector<uint32_t> tags;
  if (ForumIdx(forum.id) != kNoIdx || mod == kNoIdx || !PersonAlive(mod) ||
      !ResolveTags(forum.tags, &tags)) {
    return kNoIdx;
  }
  const uint32_t idx = AppendForumRow(forum, mod);
  forum_members_.AddNodes(1);
  forum_posts_.AddNodes(1);
  forum_tags_.AddNodes(1);
  person_moderates_.Append(mod, idx);
  for (uint32_t tag : tags) {
    forum_tags_.Append(idx, tag);
    tag_forums_.Append(tag, idx);
  }
  return idx;
}

void Graph::AddMembership(core::Id person, core::Id forum,
                          core::DateTime join_date) {
  uint32_t p = PersonIdx(person);
  uint32_t f = ForumIdx(forum);
  if (p == kNoIdx || f == kNoIdx || !PersonAlive(p) || !ForumAlive(f)) return;
  forum_members_.Append(f, p, join_date);
  person_forums_.Append(p, f, join_date);
}

uint32_t Graph::AddPost(const core::Post& post) {
  const uint32_t creator = PersonIdx(post.creator);
  const uint32_t forum = ForumIdx(post.forum);
  const uint32_t country = PlaceIdx(post.country);
  std::vector<uint32_t> tags;
  if (PostIdx(post.id) != kNoIdx || creator == kNoIdx ||
      !PersonAlive(creator) || forum == kNoIdx || !ForumAlive(forum) ||
      country == kNoIdx || !ResolveTags(post.tags, &tags)) {
    return kNoIdx;
  }
  const uint32_t idx = AppendPostRow(post, creator, forum, country);
  person_posts_.Append(creator, idx);
  forum_posts_.Append(forum, idx);
  post_tags_.AddNodes(1);
  post_replies_.AddNodes(1);
  post_likers_.AddNodes(1);
  for (uint32_t tag : tags) {
    post_tags_.Append(idx, tag);
    tag_posts_.Append(tag, idx);
  }
  message_index_.Append(MessageOfPost(idx), post.creation_date);
  return idx;
}

uint32_t Graph::AddComment(const core::Comment& comment) {
  const uint32_t creator = PersonIdx(comment.creator);
  const uint32_t country = PlaceIdx(comment.country);
  const uint32_t reply_of = ReplyTarget(comment);
  std::vector<uint32_t> tags;
  if (CommentIdx(comment.id) != kNoIdx || creator == kNoIdx ||
      !PersonAlive(creator) || country == kNoIdx || reply_of == kNoIdx ||
      !MessageAlive(reply_of) || !ResolveTags(comment.tags, &tags)) {
    return kNoIdx;
  }
  const uint32_t idx = AppendCommentRow(comment, creator, country, reply_of);
  person_comments_.Append(creator, idx);
  comment_tags_.AddNodes(1);
  comment_replies_.AddNodes(1);
  comment_likers_.AddNodes(1);
  (IsPost(reply_of) ? post_replies_ : comment_replies_)
      .Append(MessageRow(reply_of), idx);
  for (uint32_t tag : tags) {
    comment_tags_.Append(idx, tag);
    tag_comments_.Append(tag, idx);
  }
  message_index_.Append(MessageOfComment(idx), comment.creation_date);
  return idx;
}

void Graph::AddKnows(core::Id person1, core::Id person2, core::DateTime date) {
  uint32_t a = PersonIdx(person1);
  uint32_t b = PersonIdx(person2);
  if (a == kNoIdx || b == kNoIdx || !PersonAlive(a) || !PersonAlive(b)) return;
  knows_.Append(a, b, date);
  knows_.Append(b, a, date);
}

// ---------------------------------------------------------------------------
// Mutators (DEL 1–8) — the five-stage cascade
// ---------------------------------------------------------------------------

void Graph::MarkMessageDead(uint32_t msg, std::vector<uint32_t>* work) {
  // Already dead: cascades are idempotent.
  if (!(IsPost(msg) ? post_dead_ : comment_dead_).Set(MessageRow(msg))) return;
  work->push_back(msg);
  if (!IsPost(msg)) {
    // The parent's live-reply delta only matters while the parent itself is
    // alive; a dead parent's counters are frozen and never read.
    const uint32_t parent = comment_reply_of_[AsComment(msg)];
    if (MessageAlive(parent)) ++dead_replies_per_msg_[parent];
  }
}

util::Status Graph::RunCascade(CascadeTargets targets) {
  // Stage 1: person tombstones.
  SNB_FAILPOINT_STATUS("graph.delete.person");
  std::vector<uint32_t> new_dead_persons;
  for (uint32_t p : targets.persons) {
    if (person_dead_.Set(p)) new_dead_persons.push_back(p);
  }

  // Stage 2: forum tombstones — explicit targets plus every forum moderated
  // by a newly dead person (the person's walls/albums/groups go with them).
  SNB_FAILPOINT_STATUS("graph.delete.forums");
  std::vector<uint32_t> new_dead_forums;
  for (uint32_t f : targets.forums) {
    if (forum_dead_.Set(f)) new_dead_forums.push_back(f);
  }
  for (uint32_t p : new_dead_persons) {
    person_moderates_.ForEach(p, [&](uint32_t f) {
      if (forum_dead_.Set(f)) new_dead_forums.push_back(f);
    });
  }

  // Stage 3: message tombstones — explicit roots, dead persons' authored
  // messages, dead forums' posts; then BFS through the reply subtrees
  // (deleting a message deletes every transitive reply).
  SNB_FAILPOINT_STATUS("graph.delete.messages");
  std::vector<uint32_t> work;
  for (uint32_t m : targets.message_roots) MarkMessageDead(m, &work);
  for (uint32_t p : new_dead_persons) {
    person_posts_.ForEach(
        p, [&](uint32_t post) { MarkMessageDead(MessageOfPost(post), &work); });
    person_comments_.ForEach(p, [&](uint32_t c) {
      MarkMessageDead(MessageOfComment(c), &work);
    });
  }
  for (uint32_t f : new_dead_forums) {
    forum_posts_.ForEach(
        f, [&](uint32_t post) { MarkMessageDead(MessageOfPost(post), &work); });
  }
  for (size_t i = 0; i < work.size(); ++i) {
    const uint32_t msg = work[i];
    const AdjacencyList& replies =
        IsPost(msg) ? post_replies_ : comment_replies_;
    replies.ForEach(MessageRow(msg), [&](uint32_t c) {
      MarkMessageDead(MessageOfComment(c), &work);
    });
  }

  // Stage 4: edge tombstones — explicit DEL 2/3/5/8 targets plus the dead
  // persons' outgoing likes (their like no longer counts toward any live
  // message). Explicitly-deleted likes are excluded to avoid double counting.
  // A like on a live message leaves its like count; a dead message's count
  // is frozen and never read.
  SNB_FAILPOINT_STATUS("graph.delete.likes");
  auto unlike = [this](uint32_t msg) {
    --(IsPost(msg) ? post_like_count_ : comment_like_count_)[MessageRow(msg)];
  };
  for (uint64_t key : targets.like_keys) {
    if (deleted_likes_.insert(key).second) unlike(static_cast<uint32_t>(key));
  }
  for (uint64_t key : targets.membership_keys) {
    deleted_memberships_.insert(key);
  }
  for (uint64_t key : targets.knows_keys) deleted_knows_.insert(key);
  for (uint32_t p : new_dead_persons) {
    person_likes_.ForEach(p, [&](uint32_t msg) {
      if (MessageAlive(msg) &&
          deleted_likes_.find(EdgeKey(p, msg)) == deleted_likes_.end()) {
        unlike(msg);
      }
    });
  }

  // Stage 5: index maintenance — dead persons' message-date zones collapse
  // to the empty sentinel so person-granular pruning skips them, then the
  // epoch bump publishes cascade completion.
  SNB_FAILPOINT_STATUS("graph.delete.index");
  for (uint32_t p : new_dead_persons) {
    person_msg_date_min_[p] = kMaxMessageDate;
    person_msg_date_max_[p] = kMinMessageDate;
  }
  ++tombstone_epoch_;
  return util::Status::Ok();
}

util::Status Graph::DeletePerson(core::Id person) {
  const uint32_t p = PersonIdx(person);
  if (p == kNoIdx || !PersonAlive(p)) return util::Status::Ok();
  CascadeTargets targets;
  targets.persons.push_back(p);
  return RunCascade(std::move(targets));
}

util::Status Graph::DeleteLike(uint32_t p, uint32_t msg) {
  if (p == kNoIdx || msg == kNoIdx) return util::Status::Ok();
  if (!PersonAlive(p) || !MessageAlive(msg)) return util::Status::Ok();
  const uint64_t key = EdgeKey(p, msg);
  if (deleted_likes_.find(key) != deleted_likes_.end()) {
    return util::Status::Ok();
  }
  bool found = false;
  person_likes_.ForEach(p, [&](uint32_t ref) { found |= ref == msg; });
  if (!found) return util::Status::Ok();  // replayed after compaction
  CascadeTargets targets;
  targets.like_keys.push_back(key);
  return RunCascade(std::move(targets));
}

util::Status Graph::DeleteLikePost(core::Id person, core::Id post) {
  return DeleteLike(PersonIdx(person), MessageOfPost(PostIdx(post)));
}

util::Status Graph::DeleteLikeComment(core::Id person, core::Id comment) {
  return DeleteLike(PersonIdx(person), MessageOfComment(CommentIdx(comment)));
}

util::Status Graph::DeleteForum(core::Id forum) {
  const uint32_t f = ForumIdx(forum);
  if (f == kNoIdx || !ForumAlive(f)) return util::Status::Ok();
  CascadeTargets targets;
  targets.forums.push_back(f);
  return RunCascade(std::move(targets));
}

util::Status Graph::DeleteMembership(core::Id person, core::Id forum) {
  const uint32_t p = PersonIdx(person);
  const uint32_t f = ForumIdx(forum);
  if (p == kNoIdx || f == kNoIdx) return util::Status::Ok();
  if (!PersonAlive(p) || !ForumAlive(f)) return util::Status::Ok();
  const uint64_t key = EdgeKey(p, f);
  if (deleted_memberships_.find(key) != deleted_memberships_.end()) {
    return util::Status::Ok();
  }
  bool found = false;
  person_forums_.ForEach(p, [&](uint32_t ref) { found |= ref == f; });
  if (!found) return util::Status::Ok();
  CascadeTargets targets;
  targets.membership_keys.push_back(key);
  return RunCascade(std::move(targets));
}

util::Status Graph::DeletePost(core::Id post) {
  const uint32_t m = PostIdx(post);
  if (m == kNoIdx || !PostAlive(m)) return util::Status::Ok();
  CascadeTargets targets;
  targets.message_roots.push_back(MessageOfPost(m));
  return RunCascade(std::move(targets));
}

util::Status Graph::DeleteComment(core::Id comment) {
  const uint32_t m = CommentIdx(comment);
  if (m == kNoIdx || !CommentAlive(m)) return util::Status::Ok();
  CascadeTargets targets;
  targets.message_roots.push_back(MessageOfComment(m));
  return RunCascade(std::move(targets));
}

util::Status Graph::DeleteKnows(core::Id person1, core::Id person2) {
  const uint32_t a = PersonIdx(person1);
  const uint32_t b = PersonIdx(person2);
  if (a == kNoIdx || b == kNoIdx) return util::Status::Ok();
  if (!PersonAlive(a) || !PersonAlive(b)) return util::Status::Ok();
  const uint64_t key = UnorderedEdgeKey(a, b);
  if (deleted_knows_.find(key) != deleted_knows_.end()) {
    return util::Status::Ok();
  }
  bool found = false;
  knows_.ForEach(a, [&](uint32_t ref) { found |= ref == b; });
  if (!found) return util::Status::Ok();
  CascadeTargets targets;
  targets.knows_keys.push_back(key);
  return RunCascade(std::move(targets));
}

}  // namespace snb::storage
