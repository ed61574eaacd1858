#include "storage/graph.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/failpoint.h"

namespace snb::storage {

namespace {

template <typename T>
std::unordered_map<core::Id, uint32_t> IndexById(const std::vector<T>& rows) {
  std::unordered_map<core::Id, uint32_t> map;
  map.reserve(rows.size() * 2);
  for (size_t i = 0; i < rows.size(); ++i) {
    bool inserted =
        map.emplace(rows[i].id, static_cast<uint32_t>(i)).second;
    SNB_CHECK(inserted);  // ids must be unique within an entity type
  }
  return map;
}

}  // namespace

Graph::Graph(core::SocialNetwork net, uint32_t compaction_epoch)
    : persons_(std::move(net.persons)),
      forums_(std::move(net.forums)),
      posts_(std::move(net.posts)),
      comments_(std::move(net.comments)),
      tags_(std::move(net.tags)),
      tag_classes_(std::move(net.tag_classes)),
      places_(std::move(net.places)),
      organisations_(std::move(net.organisations)),
      compaction_epoch_(compaction_epoch) {
  person_dead_.Resize(persons_.size());
  forum_dead_.Resize(forums_.size());
  post_dead_.Resize(posts_.size());
  comment_dead_.Resize(comments_.size());
  person_idx_ = IndexById(persons_);
  forum_idx_ = IndexById(forums_);
  post_idx_ = IndexById(posts_);
  comment_idx_ = IndexById(comments_);
  tag_idx_ = IndexById(tags_);
  tag_class_idx_ = IndexById(tag_classes_);
  place_idx_ = IndexById(places_);
  organisation_idx_ = IndexById(organisations_);

  place_name_code_.resize(places_.size());
  for (size_t i = 0; i < places_.size(); ++i) {
    place_by_name_[places_[i].name] = static_cast<uint32_t>(i);
    place_name_code_[i] = dict_.GetOrAdd(places_[i].name);
  }
  tag_name_code_.resize(tags_.size());
  for (size_t i = 0; i < tags_.size(); ++i) {
    tag_by_name_[tags_[i].name] = static_cast<uint32_t>(i);
    tag_name_code_[i] = dict_.GetOrAdd(tags_[i].name);
  }
  for (size_t i = 0; i < tag_classes_.size(); ++i) {
    tag_class_by_name_[tag_classes_[i].name] = static_cast<uint32_t>(i);
  }

  // ---- Static structure columns -------------------------------------------
  place_part_of_.resize(places_.size());
  for (size_t i = 0; i < places_.size(); ++i) {
    place_part_of_[i] =
        places_[i].part_of == core::kNoId ? kNoIdx : PlaceIdx(places_[i].part_of);
  }
  tag_class_parent_.resize(tag_classes_.size());
  {
    std::vector<EdgeInput> child_edges;
    for (size_t i = 0; i < tag_classes_.size(); ++i) {
      if (tag_classes_[i].parent == core::kNoId) {
        tag_class_parent_[i] = kNoIdx;
      } else {
        tag_class_parent_[i] = TagClassIdx(tag_classes_[i].parent);
        child_edges.push_back(
            {tag_class_parent_[i], static_cast<uint32_t>(i)});
      }
    }
    tag_class_children_.Build(tag_classes_.size(), std::move(child_edges),
                              false);
  }
  tag_class_of_tag_.resize(tags_.size());
  {
    std::vector<EdgeInput> class_tags;
    for (size_t i = 0; i < tags_.size(); ++i) {
      tag_class_of_tag_[i] = TagClassIdx(tags_[i].tag_class);
      class_tags.push_back({tag_class_of_tag_[i], static_cast<uint32_t>(i)});
    }
    tag_class_tags_.Build(tag_classes_.size(), std::move(class_tags), false);
  }

  // ---- Person columns -------------------------------------------------------
  person_creation_.resize(persons_.size());
  person_city_.resize(persons_.size());
  person_country_.resize(persons_.size());
  person_is_female_.resize(persons_.size());
  {
    std::vector<EdgeInput> country_persons, interests;
    person_gender_code_.resize(persons_.size());
    person_browser_code_.resize(persons_.size());
    for (size_t i = 0; i < persons_.size(); ++i) {
      person_creation_[i] = persons_[i].creation_date;
      person_is_female_[i] = persons_[i].gender == "female" ? 1 : 0;
      person_gender_code_[i] = dict_.GetOrAdd(persons_[i].gender);
      person_browser_code_[i] = dict_.GetOrAdd(persons_[i].browser_used);
      person_city_[i] = PlaceIdx(persons_[i].city);
      SNB_CHECK_NE(person_city_[i], kNoIdx);
      person_country_[i] = CountryOfPlace(person_city_[i]);
      country_persons.push_back(
          {person_country_[i], static_cast<uint32_t>(i)});
      for (core::Id t : persons_[i].interests) {
        interests.push_back({static_cast<uint32_t>(i), TagIdx(t)});
      }
    }
    country_persons_.Build(places_.size(), std::move(country_persons), false);
    std::vector<EdgeInput> interests_rev;
    interests_rev.reserve(interests.size());
    for (const EdgeInput& e : interests) {
      interests_rev.push_back({e.dst, e.src});
    }
    person_interests_.Build(persons_.size(), std::move(interests), false);
    tag_persons_.Build(tags_.size(), std::move(interests_rev), false);
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
    knows_.Build(persons_.size(), std::move(edges), true);
  }

  // ---- Forums ----------------------------------------------------------------
  {
    std::vector<EdgeInput> moderates, ftags, tag_forums;
    for (size_t i = 0; i < forums_.size(); ++i) {
      uint32_t mod = PersonIdx(forums_[i].moderator);
      SNB_CHECK_NE(mod, kNoIdx);
      moderates.push_back({mod, static_cast<uint32_t>(i)});
      for (core::Id t : forums_[i].tags) {
        uint32_t tag = TagIdx(t);
        ftags.push_back({static_cast<uint32_t>(i), tag});
        tag_forums.push_back({tag, static_cast<uint32_t>(i)});
      }
    }
    person_moderates_.Build(persons_.size(), std::move(moderates), false);
    forum_tags_.Build(forums_.size(), std::move(ftags), false);
    tag_forums_.Build(tags_.size(), std::move(tag_forums), false);

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
    forum_members_.Build(forums_.size(), std::move(members), true);
    person_forums_.Build(persons_.size(), std::move(member_of), true);
  }

  // ---- Posts -----------------------------------------------------------------
  post_creation_.resize(posts_.size());
  post_creator_.resize(posts_.size());
  post_forum_.resize(posts_.size());
  post_country_.resize(posts_.size());
  // Per-person message-date zones start at the empty sentinel (min above
  // max), so persons without messages overlap no window.
  person_msg_date_min_.assign(persons_.size(), kMaxMessageDate);
  person_msg_date_max_.assign(persons_.size(), kMinMessageDate);
  {
    std::vector<EdgeInput> person_posts, forum_posts, ptags, tag_posts;
    post_browser_code_.resize(posts_.size());
    post_length_class_code_.resize(posts_.size());
    post_language_code_.resize(posts_.size());
    for (size_t i = 0; i < posts_.size(); ++i) {
      const core::Post& p = posts_[i];
      post_creation_[i] = p.creation_date;
      post_browser_code_[i] = dict_.GetOrAdd(p.browser_used);
      post_length_class_code_[i] = dict_.GetOrAdd(LengthClassName(p.length));
      post_language_code_[i] = dict_.GetOrAdd(p.language);
      post_creator_[i] = PersonIdx(p.creator);
      post_forum_[i] = ForumIdx(p.forum);
      post_country_[i] = PlaceIdx(p.country);
      SNB_CHECK_NE(post_creator_[i], kNoIdx);
      SNB_CHECK_NE(post_forum_[i], kNoIdx);
      person_msg_date_min_[post_creator_[i]] =
          std::min(person_msg_date_min_[post_creator_[i]], p.creation_date);
      person_msg_date_max_[post_creator_[i]] =
          std::max(person_msg_date_max_[post_creator_[i]], p.creation_date);
      person_posts.push_back({post_creator_[i], static_cast<uint32_t>(i)});
      forum_posts.push_back({post_forum_[i], static_cast<uint32_t>(i)});
      for (core::Id t : p.tags) {
        uint32_t tag = TagIdx(t);
        ptags.push_back({static_cast<uint32_t>(i), tag});
        tag_posts.push_back({tag, static_cast<uint32_t>(i)});
      }
    }
    person_posts_.Build(persons_.size(), std::move(person_posts), false);
    forum_posts_.Build(forums_.size(), std::move(forum_posts), false);
    post_tags_.Build(posts_.size(), std::move(ptags), false);
    tag_posts_.Build(tags_.size(), std::move(tag_posts), false);
  }

  // ---- Comments --------------------------------------------------------------
  comment_creation_.resize(comments_.size());
  comment_creator_.resize(comments_.size());
  comment_country_.resize(comments_.size());
  comment_reply_of_.resize(comments_.size());
  comment_root_post_.resize(comments_.size());
  {
    std::vector<EdgeInput> person_comments, post_replies, comment_replies,
        ctags, tag_comments;
    comment_browser_code_.resize(comments_.size());
    comment_length_class_code_.resize(comments_.size());
    comment_root_language_code_.resize(comments_.size());
    for (size_t i = 0; i < comments_.size(); ++i) {
      const core::Comment& c = comments_[i];
      comment_creation_[i] = c.creation_date;
      comment_browser_code_[i] = dict_.GetOrAdd(c.browser_used);
      comment_length_class_code_[i] =
          dict_.GetOrAdd(LengthClassName(c.length));
      comment_creator_[i] = PersonIdx(c.creator);
      comment_country_[i] = PlaceIdx(c.country);
      SNB_CHECK_NE(comment_creator_[i], kNoIdx);
      person_msg_date_min_[comment_creator_[i]] =
          std::min(person_msg_date_min_[comment_creator_[i]], c.creation_date);
      person_msg_date_max_[comment_creator_[i]] =
          std::max(person_msg_date_max_[comment_creator_[i]], c.creation_date);
      person_comments.push_back(
          {comment_creator_[i], static_cast<uint32_t>(i)});
      if (c.reply_of_post != core::kNoId) {
        uint32_t post = PostIdx(c.reply_of_post);
        SNB_CHECK_NE(post, kNoIdx);
        comment_reply_of_[i] = MessageOfPost(post);
        comment_root_post_[i] = post;
        post_replies.push_back({post, static_cast<uint32_t>(i)});
      } else {
        uint32_t parent = CommentIdx(c.reply_of_comment);
        SNB_CHECK_NE(parent, kNoIdx);
        // Datagen emits comments in thread order, but loaded data may not be
        // ordered; resolve roots transitively afterwards when needed.
        SNB_CHECK_LT(parent, i);  // replies always follow their target
        comment_reply_of_[i] = MessageOfComment(parent);
        comment_root_post_[i] = comment_root_post_[parent];
        comment_replies.push_back({parent, static_cast<uint32_t>(i)});
      }
      comment_root_language_code_[i] =
          post_language_code_[comment_root_post_[i]];
      for (core::Id t : c.tags) {
        uint32_t tag = TagIdx(t);
        ctags.push_back({static_cast<uint32_t>(i), tag});
        tag_comments.push_back({tag, static_cast<uint32_t>(i)});
      }
    }
    person_comments_.Build(persons_.size(), std::move(person_comments),
                           false);
    post_replies_.Build(posts_.size(), std::move(post_replies), false);
    comment_replies_.Build(comments_.size(), std::move(comment_replies),
                           false);
    comment_tags_.Build(comments_.size(), std::move(ctags), false);
    tag_comments_.Build(tags_.size(), std::move(tag_comments), false);
  }
  {
    // Materialize the comment → forum 2-hop endpoint (via the thread's root
    // post) as a bit-packed column: the hot loops of BI 4/5/25-style forum
    // joins become one probe instead of two dependent loads.
    std::vector<uint32_t> forums(comments_.size());
    for (size_t i = 0; i < comments_.size(); ++i) {
      forums[i] = post_forum_[comment_root_post_[i]];
    }
    comment_forum_ = columnar::AppendableU32Column(forums);
  }

  // ---- Likes -----------------------------------------------------------------
  {
    std::vector<EdgeInput> person_likes, post_likers, comment_likers;
    person_likes.reserve(net.likes.size());
    for (const core::Like& l : net.likes) {
      uint32_t person = PersonIdx(l.person);
      SNB_CHECK_NE(person, kNoIdx);
      if (l.is_post) {
        uint32_t post = PostIdx(l.message);
        SNB_CHECK_NE(post, kNoIdx);
        person_likes.push_back({person, MessageOfPost(post), l.creation_date});
        post_likers.push_back({post, person, l.creation_date});
      } else {
        uint32_t comment = CommentIdx(l.message);
        SNB_CHECK_NE(comment, kNoIdx);
        person_likes.push_back(
            {person, MessageOfComment(comment), l.creation_date});
        comment_likers.push_back({comment, person, l.creation_date});
      }
    }
    person_likes_.Build(persons_.size(), std::move(person_likes), true);
    post_likers_.Build(posts_.size(), std::move(post_likers), true);
    comment_likers_.Build(comments_.size(), std::move(comment_likers), true);
  }

  // ---- Creation-date message index -------------------------------------------
  message_index_.Build(post_creation_, comment_creation_);
  // Like-count zones over the sorted base, from the bulk-loaded like
  // degrees (the update path maintains them through NoteLike).
  message_index_.BuildLikeZones([this](uint32_t ref) -> uint32_t {
    return static_cast<uint32_t>(
        IsPost(ref) ? post_likers_.Degree(ref)
                    : comment_likers_.Degree(AsComment(ref)));
  });
}

columnar::MemoryBreakdown Graph::Memory() const {
  columnar::MemoryBreakdown mb;

  const std::pair<const char*, const AdjacencyList*> relations[] = {
      {"adj/knows", &knows_},
      {"adj/person-posts", &person_posts_},
      {"adj/person-comments", &person_comments_},
      {"adj/person-likes", &person_likes_},
      {"adj/post-likers", &post_likers_},
      {"adj/comment-likers", &comment_likers_},
      {"adj/forum-members", &forum_members_},
      {"adj/person-forums", &person_forums_},
      {"adj/forum-posts", &forum_posts_},
      {"adj/person-moderates", &person_moderates_},
      {"adj/post-replies", &post_replies_},
      {"adj/comment-replies", &comment_replies_},
      {"adj/post-tags", &post_tags_},
      {"adj/comment-tags", &comment_tags_},
      {"adj/forum-tags", &forum_tags_},
      {"adj/person-interests", &person_interests_},
      {"adj/tag-posts", &tag_posts_},
      {"adj/tag-comments", &tag_comments_},
      {"adj/tag-forums", &tag_forums_},
      {"adj/tag-persons", &tag_persons_},
      {"adj/country-persons", &country_persons_},
      {"adj/tag-class-children", &tag_class_children_},
      {"adj/tag-class-tags", &tag_class_tags_},
  };
  for (const auto& [name, adj] : relations) {
    columnar::MemoryFamily f;
    f.name = name;
    f.bytes = adj->ByteSize();
    f.raw_bytes = adj->RawByteSize();
    f.items = adj->num_edges();
    mb.edge_bytes += f.bytes;
    mb.edge_raw_bytes += f.raw_bytes;
    mb.num_edges += f.items;
    mb.families.push_back(std::move(f));
  }

  {
    columnar::MemoryFamily f;
    f.name = "index/message-date";
    f.bytes = message_index_.ByteSize();
    f.raw_bytes = message_index_.RawByteSize();
    f.items = message_index_.size();
    mb.message_bytes += f.bytes;
    mb.message_raw_bytes += f.raw_bytes;
    mb.families.push_back(std::move(f));
  }
  {
    // Per-message hot columns: same flat layout in both representations.
    columnar::MemoryFamily f;
    f.name = "cols/message";
    auto vec_bytes = [](const auto& v) {
      return v.capacity() * sizeof(v[0]);
    };
    f.bytes = vec_bytes(post_creation_) + vec_bytes(post_creator_) +
              vec_bytes(post_forum_) + vec_bytes(post_country_) +
              vec_bytes(comment_creation_) + vec_bytes(comment_creator_) +
              vec_bytes(comment_country_) + vec_bytes(comment_reply_of_) +
              vec_bytes(comment_root_post_);
    f.raw_bytes = f.bytes;
    f.items = NumMessages();
    mb.message_bytes += f.bytes;
    mb.message_raw_bytes += f.raw_bytes;
    mb.families.push_back(std::move(f));
  }
  mb.num_messages = NumMessages();

  {
    columnar::MemoryFamily f;
    f.name = "dict";
    f.bytes = dict_.ByteSize();
    // Raw equivalent: the strings stay inline in the entity structs either
    // way (SSO); the dictionary itself is pure addition, so raw is zero.
    f.raw_bytes = 0;
    f.items = dict_.size();
    mb.families.push_back(std::move(f));
  }
  {
    columnar::MemoryFamily f;
    f.name = "cols/codes";
    auto vec_bytes = [](const std::vector<uint32_t>& v) {
      return v.capacity() * sizeof(uint32_t);
    };
    f.bytes = vec_bytes(person_gender_code_) +
              vec_bytes(person_browser_code_) + vec_bytes(post_browser_code_) +
              vec_bytes(comment_browser_code_) +
              vec_bytes(post_length_class_code_) +
              vec_bytes(comment_length_class_code_) +
              vec_bytes(tag_name_code_) + vec_bytes(place_name_code_) +
              vec_bytes(post_language_code_) +
              vec_bytes(comment_root_language_code_);
    f.raw_bytes = 0;  // pure addition over the seed layout
    f.items = persons_.size() * 2 + posts_.size() * 3 + comments_.size() * 3 +
              tags_.size() + places_.size();
    mb.families.push_back(std::move(f));
  }
  {
    // Materialized 2-hop endpoint: comment → thread's forum, bit-packed.
    columnar::MemoryFamily f;
    f.name = "cols/comment-forum";
    f.bytes = comment_forum_.ByteSize();
    f.raw_bytes = 0;  // pure addition over the seed layout
    f.items = comment_forum_.size();
    mb.families.push_back(std::move(f));
  }
  {
    // Per-person message-date zones (scan pruning at person granularity).
    columnar::MemoryFamily f;
    f.name = "cols/person-msg-zones";
    f.bytes = person_msg_date_min_.capacity() * sizeof(core::DateTime) +
              person_msg_date_max_.capacity() * sizeof(core::DateTime);
    f.raw_bytes = 0;  // pure addition over the seed layout
    f.items = persons_.size();
    mb.families.push_back(std::move(f));
  }

  return mb;
}

uint32_t Graph::CountryOfPlace(uint32_t place) const {
  // Walks city → country; a country maps to itself.
  if (places_[place].type == core::PlaceType::kCountry) return place;
  uint32_t parent = place_part_of_[place];
  SNB_CHECK_NE(parent, kNoIdx);
  return parent;
}

uint32_t Graph::PlaceByName(const std::string& name) const {
  auto it = place_by_name_.find(name);
  return it == place_by_name_.end() ? kNoIdx : it->second;
}

uint32_t Graph::TagByName(const std::string& name) const {
  auto it = tag_by_name_.find(name);
  return it == tag_by_name_.end() ? kNoIdx : it->second;
}

uint32_t Graph::TagClassByName(const std::string& name) const {
  auto it = tag_class_by_name_.find(name);
  return it == tag_class_by_name_.end() ? kNoIdx : it->second;
}

// ---------------------------------------------------------------------------
// Mutators (IU 1–8)
// ---------------------------------------------------------------------------

uint32_t Graph::AddPerson(const core::Person& person) {
  SNB_CHECK_EQ(PersonIdx(person.id), kNoIdx);
  uint32_t idx = static_cast<uint32_t>(persons_.size());
  persons_.push_back(person);
  person_dead_.Append();
  person_idx_[person.id] = idx;
  person_creation_.push_back(person.creation_date);
  person_is_female_.push_back(person.gender == "female" ? 1 : 0);
  person_gender_code_.push_back(dict_.GetOrAdd(person.gender));
  person_browser_code_.push_back(dict_.GetOrAdd(person.browser_used));
  uint32_t city = PlaceIdx(person.city);
  SNB_CHECK_NE(city, kNoIdx);
  person_city_.push_back(city);
  uint32_t country = CountryOfPlace(city);
  person_country_.push_back(country);
  country_persons_.Append(country, idx);
  person_msg_date_min_.push_back(kMaxMessageDate);  // empty zone sentinel
  person_msg_date_max_.push_back(kMinMessageDate);

  knows_.AddNodes(1);
  person_posts_.AddNodes(1);
  person_comments_.AddNodes(1);
  person_likes_.AddNodes(1);
  person_forums_.AddNodes(1);
  person_moderates_.AddNodes(1);
  person_interests_.AddNodes(1);
  for (core::Id t : person.interests) {
    uint32_t tag = TagIdx(t);
    SNB_CHECK_NE(tag, kNoIdx);
    person_interests_.Append(idx, tag);
    tag_persons_.Append(tag, idx);
  }
  return idx;
}

void Graph::AddLikePost(core::Id person, core::Id post, core::DateTime date) {
  uint32_t p = PersonIdx(person);
  uint32_t m = PostIdx(post);
  if (p == kNoIdx || m == kNoIdx || !PersonAlive(p) || !PostAlive(m)) return;
  // Raise the like-count zone max *before* the like becomes visible, so a
  // concurrent bound-pruned scan never sees a degree above its block's zone.
  message_index_.NoteLike(
      MessageOfPost(m), post_creation_[m],
      static_cast<uint32_t>(post_likers_.Degree(m)) + 1);
  person_likes_.Append(p, MessageOfPost(m), date);
  post_likers_.Append(m, p, date);
}

void Graph::AddLikeComment(core::Id person, core::Id comment,
                           core::DateTime date) {
  uint32_t p = PersonIdx(person);
  uint32_t m = CommentIdx(comment);
  if (p == kNoIdx || m == kNoIdx || !PersonAlive(p) || !CommentAlive(m)) {
    return;
  }
  message_index_.NoteLike(
      MessageOfComment(m), comment_creation_[m],
      static_cast<uint32_t>(comment_likers_.Degree(m)) + 1);
  person_likes_.Append(p, MessageOfComment(m), date);
  comment_likers_.Append(m, p, date);
}

uint32_t Graph::AddForum(const core::Forum& forum) {
  SNB_CHECK_EQ(ForumIdx(forum.id), kNoIdx);
  uint32_t idx = static_cast<uint32_t>(forums_.size());
  forums_.push_back(forum);
  forum_dead_.Append();
  forum_idx_[forum.id] = idx;
  forum_members_.AddNodes(1);
  forum_posts_.AddNodes(1);
  forum_tags_.AddNodes(1);
  uint32_t mod = PersonIdx(forum.moderator);
  SNB_CHECK_NE(mod, kNoIdx);
  person_moderates_.Append(mod, idx);
  for (core::Id t : forum.tags) {
    uint32_t tag = TagIdx(t);
    SNB_CHECK_NE(tag, kNoIdx);
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
  SNB_CHECK_EQ(PostIdx(post.id), kNoIdx);
  uint32_t idx = static_cast<uint32_t>(posts_.size());
  posts_.push_back(post);
  post_dead_.Append();
  post_idx_[post.id] = idx;
  post_creation_.push_back(post.creation_date);
  post_browser_code_.push_back(dict_.GetOrAdd(post.browser_used));
  post_length_class_code_.push_back(
      dict_.GetOrAdd(LengthClassName(post.length)));
  post_language_code_.push_back(dict_.GetOrAdd(post.language));
  uint32_t creator = PersonIdx(post.creator);
  uint32_t forum = ForumIdx(post.forum);
  uint32_t country = PlaceIdx(post.country);
  SNB_CHECK(creator != kNoIdx && forum != kNoIdx && country != kNoIdx);
  post_creator_.push_back(creator);
  post_forum_.push_back(forum);
  post_country_.push_back(country);
  person_msg_date_min_[creator] =
      std::min(person_msg_date_min_[creator], post.creation_date);
  person_msg_date_max_[creator] =
      std::max(person_msg_date_max_[creator], post.creation_date);
  person_posts_.Append(creator, idx);
  forum_posts_.Append(forum, idx);
  post_tags_.AddNodes(1);
  post_replies_.AddNodes(1);
  post_likers_.AddNodes(1);
  for (core::Id t : post.tags) {
    uint32_t tag = TagIdx(t);
    SNB_CHECK_NE(tag, kNoIdx);
    post_tags_.Append(idx, tag);
    tag_posts_.Append(tag, idx);
  }
  message_index_.Append(MessageOfPost(idx), post.creation_date);
  return idx;
}

uint32_t Graph::AddComment(const core::Comment& comment) {
  SNB_CHECK_EQ(CommentIdx(comment.id), kNoIdx);
  uint32_t idx = static_cast<uint32_t>(comments_.size());
  comments_.push_back(comment);
  comment_dead_.Append();
  comment_idx_[comment.id] = idx;
  comment_creation_.push_back(comment.creation_date);
  comment_browser_code_.push_back(dict_.GetOrAdd(comment.browser_used));
  comment_length_class_code_.push_back(
      dict_.GetOrAdd(LengthClassName(comment.length)));
  uint32_t creator = PersonIdx(comment.creator);
  uint32_t country = PlaceIdx(comment.country);
  SNB_CHECK(creator != kNoIdx && country != kNoIdx);
  comment_creator_.push_back(creator);
  comment_country_.push_back(country);
  person_msg_date_min_[creator] =
      std::min(person_msg_date_min_[creator], comment.creation_date);
  person_msg_date_max_[creator] =
      std::max(person_msg_date_max_[creator], comment.creation_date);
  person_comments_.Append(creator, idx);
  comment_tags_.AddNodes(1);
  comment_replies_.AddNodes(1);
  comment_likers_.AddNodes(1);
  if (comment.reply_of_post != core::kNoId) {
    uint32_t post = PostIdx(comment.reply_of_post);
    SNB_CHECK_NE(post, kNoIdx);
    comment_reply_of_.push_back(MessageOfPost(post));
    comment_root_post_.push_back(post);
    post_replies_.Append(post, idx);
  } else {
    uint32_t parent = CommentIdx(comment.reply_of_comment);
    SNB_CHECK_NE(parent, kNoIdx);
    comment_reply_of_.push_back(MessageOfComment(parent));
    comment_root_post_.push_back(comment_root_post_[parent]);
    comment_replies_.Append(parent, idx);
  }
  comment_forum_.Append(post_forum_[comment_root_post_.back()]);
  comment_root_language_code_.push_back(
      post_language_code_[comment_root_post_.back()]);
  for (core::Id t : comment.tags) {
    uint32_t tag = TagIdx(t);
    SNB_CHECK_NE(tag, kNoIdx);
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
  TombstoneBitmap& bitmap = IsPost(msg) ? post_dead_ : comment_dead_;
  const uint32_t row = IsPost(msg) ? msg : AsComment(msg);
  if (!bitmap.Set(row)) return;  // already dead: cascades are idempotent
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
    replies.ForEach(IsPost(msg) ? msg : AsComment(msg), [&](uint32_t c) {
      MarkMessageDead(MessageOfComment(c), &work);
    });
  }

  // Stage 4: edge tombstones — explicit DEL 2/3/5/8 targets plus the dead
  // persons' outgoing likes (their like no longer counts toward any live
  // message). Explicitly-deleted likes are excluded to avoid double counting.
  SNB_FAILPOINT_STATUS("graph.delete.likes");
  for (uint64_t key : targets.like_keys) {
    if (deleted_likes_.insert(key).second) {
      ++dead_likes_per_msg_[static_cast<uint32_t>(key)];
    }
  }
  for (uint64_t key : targets.membership_keys) {
    deleted_memberships_.insert(key);
  }
  for (uint64_t key : targets.knows_keys) deleted_knows_.insert(key);
  for (uint32_t p : new_dead_persons) {
    person_likes_.ForEach(p, [&](uint32_t msg) {
      if (MessageAlive(msg) &&
          deleted_likes_.find(EdgeKey(p, msg)) == deleted_likes_.end()) {
        ++dead_likes_per_msg_[msg];
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

util::Status Graph::DeleteLikePost(core::Id person, core::Id post) {
  const uint32_t p = PersonIdx(person);
  const uint32_t m = PostIdx(post);
  if (p == kNoIdx || m == kNoIdx) return util::Status::Ok();
  if (!PersonAlive(p) || !PostAlive(m)) return util::Status::Ok();
  const uint32_t msg = MessageOfPost(m);
  if (deleted_likes_.find(EdgeKey(p, msg)) != deleted_likes_.end()) {
    return util::Status::Ok();
  }
  bool found = false;
  person_likes_.ForEach(p, [&](uint32_t ref) { found |= ref == msg; });
  if (!found) return util::Status::Ok();  // replayed after compaction
  CascadeTargets targets;
  targets.like_keys.push_back(EdgeKey(p, msg));
  return RunCascade(std::move(targets));
}

util::Status Graph::DeleteLikeComment(core::Id person, core::Id comment) {
  const uint32_t p = PersonIdx(person);
  const uint32_t m = CommentIdx(comment);
  if (p == kNoIdx || m == kNoIdx) return util::Status::Ok();
  if (!PersonAlive(p) || !CommentAlive(m)) return util::Status::Ok();
  const uint32_t msg = MessageOfComment(m);
  if (deleted_likes_.find(EdgeKey(p, msg)) != deleted_likes_.end()) {
    return util::Status::Ok();
  }
  bool found = false;
  person_likes_.ForEach(p, [&](uint32_t ref) { found |= ref == msg; });
  if (!found) return util::Status::Ok();
  CascadeTargets targets;
  targets.like_keys.push_back(EdgeKey(p, msg));
  return RunCascade(std::move(targets));
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
