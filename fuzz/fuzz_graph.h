// The small fixed graph that fuzz_update_event applies parsed events to,
// and the ids it holds. make_seed_corpus writes seed lines naming these
// ids, so mutations of them reach the IU and DEL mutators' live paths
// (inserts that land, cascades that run), not only their missing-id
// no-ops.

#ifndef SNB_FUZZ_FUZZ_GRAPH_H_
#define SNB_FUZZ_FUZZ_GRAPH_H_

#include "core/schema.h"

namespace snb::fuzz {

constexpr core::Id kContinent = 1, kCountry = 55, kCity = 655;
constexpr core::Id kTagClass = 3, kTagA = 10, kTagB = 20, kTagC = 30;
constexpr core::Id kModerator = 1234, kMember = 5678, kFriend = 4321;
constexpr core::Id kForum = 8800;
constexpr core::Id kPost = 777000, kComment = 777001;

/// Three persons in one city, one forum moderated by kModerator with
/// kMember in it, one post in that forum, one comment replying to it, a
/// like on each message and one knows edge.
inline core::SocialNetwork MakeFuzzNetwork() {
  core::SocialNetwork net;
  net.places = {{kContinent, "Europe", "u", core::PlaceType::kContinent,
                 core::kNoId},
                {kCountry, "Poland", "u", core::PlaceType::kCountry,
                 kContinent},
                {kCity, "Warsaw", "u", core::PlaceType::kCity, kCountry}};
  net.tag_classes = {{kTagClass, "Thing", "u", core::kNoId}};
  net.tags = {{kTagA, "a", "u", kTagClass},
              {kTagB, "b", "u", kTagClass},
              {kTagC, "c", "u", kTagClass}};
  for (core::Id id : {kModerator, kMember, kFriend}) {
    core::Person p;
    p.id = id;
    p.gender = "female";
    p.city = kCity;
    p.interests = {kTagA};
    net.persons.push_back(p);
  }
  net.knows = {{kMember, kFriend, 0}};
  core::Forum forum;
  forum.id = kForum;
  forum.moderator = kModerator;
  forum.tags = {kTagA};
  net.forums = {forum};
  net.memberships = {{kForum, kMember, 0}};
  core::Post post;
  post.id = kPost;
  post.content = "hello";
  post.length = 5;
  post.creator = kModerator;
  post.forum = kForum;
  post.country = kCountry;
  post.tags = {kTagA};
  net.posts = {post};
  core::Comment comment;
  comment.id = kComment;
  comment.content = "hi";
  comment.length = 2;
  comment.creator = kMember;
  comment.country = kCountry;
  comment.reply_of_post = kPost;
  comment.tags = {kTagB};
  net.comments = {comment};
  net.likes = {{kMember, kPost, true, 0}, {kFriend, kComment, false, 0}};
  return net;
}

}  // namespace snb::fuzz

#endif  // SNB_FUZZ_FUZZ_GRAPH_H_
