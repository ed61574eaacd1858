// The Business Intelligence workload, reads BI 1–25 (spec §5.1, version
// 0.3.3 / GRADES-NDA 2018 draft).
//
// Every query is a pure function of (graph, params) returning typed rows in
// the spec's sort order, truncated to the spec's limit. Queries whose full
// card appears only as an untranscribed figure in the supplied text are
// reconstructed from the official 0.3.3 reference definitions; each such
// reconstruction is documented at its declaration (see DESIGN.md).
//
// The scan-dominated templates (BI 1, 2, 3, 6, 9, 12, 13, 14, 17, 20, 23,
// 24) take an optional intra-query pool: each is one init/fold/merge kernel
// over engine::ParallelAggregate, partitioned into morsels of its scan
// domain. A null pool runs one slot inline on the calling thread; any pool
// size returns bit-identical rows. BI 9, 20 and 24 scan the tag→message
// posting lists of their tag classes, not the message table.
//
// A naive tuple-at-a-time baseline of every query lives in bi/naive.h with
// (pool-less) signatures; tests cross-validate the engines on generated
// networks.

#ifndef SNB_BI_BI_H_
#define SNB_BI_BI_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/date_time.h"
#include "storage/graph.h"

namespace snb::util {
class ThreadPool;
}  // namespace snb::util

namespace snb::bi {

using storage::Graph;

/// Positions per morsel of the tag→message posting-list walks (BI 6, and
/// the tag-class walks of BI 9/20/24).
inline constexpr size_t kPostingMorselSize = 1024;

// ---------------------------------------------------------------------------
// BI 1 — Posting summary.
// Messages created before $date, grouped by (year, isComment,
// lengthCategory 0:[0,40) 1:[40,80) 2:[80,160) 3:[160,∞)).
// Sort: year ↓, isComment ↑ (posts first), lengthCategory ↑. No limit.
// ---------------------------------------------------------------------------

struct Bi1Params {
  core::Date date = 0;
};

struct Bi1Row {
  int32_t year = 0;
  bool is_comment = false;
  int32_t length_category = 0;
  int64_t message_count = 0;
  double average_message_length = 0;
  int64_t sum_message_length = 0;
  double percentage_of_messages = 0;

  bool operator==(const Bi1Row&) const = default;
};

std::vector<Bi1Row> RunBi1(const Graph& graph, const Bi1Params& params,
                           util::ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// BI 2 — Top tags for country, age, gender, time. [reconstructed]
// Messages in [startDate, endDate] whose creator lives in $country1 or
// $country2; group by (country, month(creation), creator gender, ageGroup,
// tag) where ageGroup = floor(years between creator birthday and the
// simulation end / 5). Keep groups with messageCount > $threshold (official
// draft uses a fixed 100; exposed as a parameter so micro scale factors
// produce results). Sort: messageCount ↓, tag ↑, gender ↑, ageGroup ↑,
// month ↑, country ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi2Params {
  core::Date start_date = 0;
  core::Date end_date = 0;
  std::string country1;
  std::string country2;
  core::Date simulation_end = 0;  // for the age-group calculation
  int64_t threshold = 100;
};

struct Bi2Row {
  std::string country;
  int32_t month = 0;
  std::string gender;
  int32_t age_group = 0;
  std::string tag;
  int64_t message_count = 0;

  bool operator==(const Bi2Row&) const = default;
};

std::vector<Bi2Row> RunBi2(const Graph& graph, const Bi2Params& params,
                           util::ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// BI 3 — Tag evolution. [reconstructed]
// Compare per-tag message volume between month ($year,$month) and the next
// month. Sort: |diff| ↓, tag ↑. Limit 100. Tags active in either month.
// ---------------------------------------------------------------------------

struct Bi3Params {
  int32_t year = 0;
  int32_t month = 0;  // 1..12
};

struct Bi3Row {
  std::string tag;
  int64_t count_month1 = 0;
  int64_t count_month2 = 0;
  int64_t diff = 0;  // |count1 - count2|

  bool operator==(const Bi3Row&) const = default;
};

std::vector<Bi3Row> RunBi3(const Graph& graph, const Bi3Params& params,
                           util::ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// BI 4 — Popular topics in a country. [reconstructed]
// Forums whose moderator lives in $country, counting the forum's posts whose
// tag belongs to $tagClass (direct class, not descendants). Forums with at
// least one such post. Sort: postCount ↓, forum.id ↑. Limit 20.
// ---------------------------------------------------------------------------

struct Bi4Params {
  std::string tag_class;
  std::string country;
};

struct Bi4Row {
  core::Id forum_id = 0;
  std::string forum_title;
  core::DateTime forum_creation_date = 0;
  core::Id moderator_id = 0;
  int64_t post_count = 0;

  bool operator==(const Bi4Row&) const = default;
};

std::vector<Bi4Row> RunBi4(const Graph& graph, const Bi4Params& params);

// ---------------------------------------------------------------------------
// BI 5 — Top posters in a country. [reconstructed]
// The 100 most popular forums of $country (popularity = number of members
// living in the country; ties by forum id ↑). For every member of any of
// those forums, count the posts they created in those forums (0 allowed).
// Sort: postCount ↓, person.id ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi5Params {
  std::string country;
};

struct Bi5Row {
  core::Id person_id = 0;
  std::string first_name;
  std::string last_name;
  core::DateTime creation_date = 0;
  int64_t post_count = 0;

  bool operator==(const Bi5Row&) const = default;
};

std::vector<Bi5Row> RunBi5(const Graph& graph, const Bi5Params& params);

// ---------------------------------------------------------------------------
// BI 6 — Most active posters of a given topic. [reconstructed]
// Persons who created a message with $tag: messageCount (their messages with
// the tag), likeCount (likes received on those), replyCount (direct reply
// comments to those); score = messageCount + 2·replyCount + 10·likeCount.
// Sort: score ↓, person.id ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi6Params {
  std::string tag;
};

struct Bi6Row {
  core::Id person_id = 0;
  int64_t reply_count = 0;
  int64_t like_count = 0;
  int64_t message_count = 0;
  int64_t score = 0;

  bool operator==(const Bi6Row&) const = default;
};

std::vector<Bi6Row> RunBi6(const Graph& graph, const Bi6Params& params,
                           util::ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// BI 7 — Most authoritative users on a given topic. [reconstructed]
// Persons who created a message with $tag. authorityScore = sum, over
// persons q who liked any of those messages, of q's popularity, where
// popularity(q) = total likes on any message q ever created. Each liker
// counts once per (author, liker) pair. Sort: authorityScore ↓,
// person.id ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi7Params {
  std::string tag;
};

struct Bi7Row {
  core::Id person_id = 0;
  int64_t authority_score = 0;

  bool operator==(const Bi7Row&) const = default;
};

std::vector<Bi7Row> RunBi7(const Graph& graph, const Bi7Params& params);

// ---------------------------------------------------------------------------
// BI 8 — Related topics. [reconstructed]
// Tags of comments that directly reply to posts tagged $tag, excluding the
// tag itself; count the reply comments carrying each related tag.
// Sort: count ↓, relatedTag ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi8Params {
  std::string tag;
};

struct Bi8Row {
  std::string related_tag;
  int64_t count = 0;

  bool operator==(const Bi8Row&) const = default;
};

std::vector<Bi8Row> RunBi8(const Graph& graph, const Bi8Params& params);

// ---------------------------------------------------------------------------
// BI 9 — Forum with related tags. [reconstructed]
// Forums with more than $threshold members: count their posts whose tag is
// of $tagClass1 (count1) and of $tagClass2 (count2), direct classes.
// Sort: count1 ↓, count2 ↓, forum.id ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi9Params {
  std::string tag_class1;
  std::string tag_class2;
  int64_t threshold = 0;
};

struct Bi9Row {
  core::Id forum_id = 0;
  int64_t count1 = 0;
  int64_t count2 = 0;

  bool operator==(const Bi9Row&) const = default;
};

std::vector<Bi9Row> RunBi9(const Graph& graph, const Bi9Params& params,
                           util::ThreadPool* pool = nullptr);

/// Positions RunBi9 walks: the posts-only posting-list length of each
/// distinct class's tags. The scheduler prices its dispatch with it, as for
/// Bi20Work and Bi24Work.
size_t Bi9Work(const Graph& graph, const Bi9Params& params);

// ---------------------------------------------------------------------------
// BI 10 — Central person for a tag. [reconstructed]
// score(p) = 100·[p has interest $tag] + |p's messages with $tag created
// after $date|. friendsScore = Σ score(friend). Persons with score > 0 or
// friendsScore > 0. Sort: score + friendsScore ↓, person.id ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi10Params {
  std::string tag;
  core::Date date = 0;
};

struct Bi10Row {
  core::Id person_id = 0;
  int64_t score = 0;
  int64_t friends_score = 0;

  bool operator==(const Bi10Row&) const = default;
};

std::vector<Bi10Row> RunBi10(const Graph& graph, const Bi10Params& params);

// ---------------------------------------------------------------------------
// BI 11 — Unrelated replies. [reconstructed]
// Reply comments by persons in $country to posts, where the comment shares
// no tag with the parent post and contains none of the $blacklist words.
// Group by (person, tag of the comment): replyCount, likeCount (likes on
// the qualifying comments carrying the tag).
// Sort: likeCount ↓, person.id ↑, tag ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi11Params {
  std::string country;
  std::vector<std::string> blacklist;
};

struct Bi11Row {
  core::Id person_id = 0;
  std::string tag;
  int64_t like_count = 0;
  int64_t reply_count = 0;

  bool operator==(const Bi11Row&) const = default;
};

std::vector<Bi11Row> RunBi11(const Graph& graph, const Bi11Params& params);

// ---------------------------------------------------------------------------
// BI 12 — Trending posts.
// Messages created after $date (exclusive — interpreted, as in IC 2's
// "excluding that day", as strictly after the given calendar day) with more
// than $likeThreshold likes. Post and Comment ids live in separate id
// spaces, so the id tie-break is refined by creationDate.
// Sort: likeCount ↓, message.id ↑, creationDate ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi12Params {
  core::Date date = 0;
  int64_t like_threshold = 0;
};

struct Bi12Row {
  core::Id message_id = 0;
  core::DateTime creation_date = 0;
  std::string creator_first_name;
  std::string creator_last_name;
  int64_t like_count = 0;

  bool operator==(const Bi12Row&) const = default;
};

std::vector<Bi12Row> RunBi12(const Graph& graph, const Bi12Params& params,
                             util::ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// BI 13 — Popular tags per month in a country.
// Messages located in $country grouped by creation (year, month); for each
// group the 5 most popular tags (by message count within the group; ties by
// tag name ↑). Groups without tagged messages appear with an empty list.
// Sort: year ↓, month ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi13Params {
  std::string country;
};

struct Bi13Row {
  int32_t year = 0;
  int32_t month = 0;
  std::vector<std::pair<std::string, int64_t>> popular_tags;

  bool operator==(const Bi13Row&) const = default;
};

std::vector<Bi13Row> RunBi13(const Graph& graph, const Bi13Params& params,
                             util::ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// BI 14 — Top thread initiators.
// threadCount = posts by the person in [begin, end]; messageCount = those
// posts plus all comments in their reply trees created in [begin, end].
// Persons with threadCount > 0. Sort: messageCount ↓, person.id ↑.
// Limit 100.
// ---------------------------------------------------------------------------

struct Bi14Params {
  core::Date begin = 0;
  core::Date end = 0;  // inclusive, converted to < end+1day
};

struct Bi14Row {
  core::Id person_id = 0;
  std::string first_name;
  std::string last_name;
  int64_t thread_count = 0;
  int64_t message_count = 0;

  bool operator==(const Bi14Row&) const = default;
};

std::vector<Bi14Row> RunBi14(const Graph& graph, const Bi14Params& params,
                             util::ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// BI 15 — Social normals. [reconstructed]
// Among persons of $country: average number of friends who also live in
// $country (over the country's persons); report persons whose same-country
// friend count equals floor(average). Sort: person.id ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi15Params {
  std::string country;
};

struct Bi15Row {
  core::Id person_id = 0;
  int64_t count = 0;

  bool operator==(const Bi15Row&) const = default;
};

std::vector<Bi15Row> RunBi15(const Graph& graph, const Bi15Params& params);

// ---------------------------------------------------------------------------
// BI 16 — Experts in social circle.
// Persons living in $country connected to $personId by a knows path of
// length in [minPathDistance, maxPathDistance]. Per the spec's own note,
// reference implementations admit persons also reachable on shorter paths;
// following them, a person qualifies when their shortest distance d
// satisfies 1 ≤ d ≤ maxPathDistance. For each, their messages carrying at
// least one tag of $tagClass (direct); group by (person, tag over *all*
// tags of those messages): messageCount.
// Sort: messageCount ↓, tag ↑, person.id ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi16Params {
  core::Id person_id = 0;
  std::string country;
  std::string tag_class;
  int32_t min_path_distance = 1;
  int32_t max_path_distance = 2;
};

struct Bi16Row {
  core::Id person_id = 0;
  std::string tag;
  int64_t message_count = 0;

  bool operator==(const Bi16Row&) const = default;
};

std::vector<Bi16Row> RunBi16(const Graph& graph, const Bi16Params& params);

// ---------------------------------------------------------------------------
// BI 17 — Friend triangles. [reconstructed]
// The number of distinct person triples {a, b, c}, all living in $country,
// with knows edges a–b, b–c, c–a. Single-row result.
// ---------------------------------------------------------------------------

struct Bi17Params {
  std::string country;
};

struct Bi17Row {
  int64_t count = 0;

  bool operator==(const Bi17Row&) const = default;
};

std::vector<Bi17Row> RunBi17(const Graph& graph, const Bi17Params& params,
                             util::ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// BI 18 — How many persons have a given number of messages.
// messageCount(p) = p's messages with non-empty content, length <
// $lengthThreshold, creationDate > $date, and thread-root-post language in
// $languages (a post's language is its own attribute; a comment inherits
// the root post's). Every person counts, including those with 0 qualifying
// messages. Result: (messageCount, personCount).
// Sort: personCount ↓, messageCount ↓.
// ---------------------------------------------------------------------------

struct Bi18Params {
  core::Date date = 0;
  int32_t length_threshold = 0;
  std::vector<std::string> languages;
};

struct Bi18Row {
  int64_t message_count = 0;
  int64_t person_count = 0;

  bool operator==(const Bi18Row&) const = default;
};

std::vector<Bi18Row> RunBi18(const Graph& graph, const Bi18Params& params);

// ---------------------------------------------------------------------------
// BI 19 — Stranger's interaction. [reconstructed]
// Strangers: persons who are members of at least one forum tagged with a tag
// of $tagClass1 AND of at least one forum tagged with a tag of $tagClass2.
// For persons born after $date: comments they wrote that transitively reply
// to a message created by a stranger they do not know (and are not
// themselves). Count distinct strangers and total such comments.
// Sort: interactionCount ↓, person.id ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi19Params {
  core::Date date = 0;
  std::string tag_class1;
  std::string tag_class2;
};

struct Bi19Row {
  core::Id person_id = 0;
  int64_t stranger_count = 0;
  int64_t interaction_count = 0;

  bool operator==(const Bi19Row&) const = default;
};

std::vector<Bi19Row> RunBi19(const Graph& graph, const Bi19Params& params);

// ---------------------------------------------------------------------------
// BI 20 — High-level topics.
// For each $tagClasses entry: messages with a tag whose class is the given
// class or any descendant. Sort: messageCount ↓, tagClass ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi20Params {
  std::vector<std::string> tag_classes;
};

struct Bi20Row {
  std::string tag_class;
  int64_t message_count = 0;

  bool operator==(const Bi20Row&) const = default;
};

std::vector<Bi20Row> RunBi20(const Graph& graph, const Bi20Params& params,
                             util::ThreadPool* pool = nullptr);

/// Positions RunBi20 walks: per class, the posting-list length (posts and
/// comments) of its transitive tags, summed over the classes.
size_t Bi20Work(const Graph& graph, const Bi20Params& params);

// ---------------------------------------------------------------------------
// BI 21 — Zombies in a country.
// Zombies: persons of $country created before $endDate averaging < 1 message
// per month between their creation and $endDate (months counted inclusively
// on both partial ends). zombieLikeCount counts likes from zombie profiles
// created before $endDate; totalLikeCount counts likes from any profile
// created before $endDate; zombieScore = ratio (0.0 when no likes). Only
// likes to messages created before $endDate by the zombie are considered.
// Sort: zombieScore ↓, zombie.id ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi21Params {
  std::string country;
  core::Date end_date = 0;
};

struct Bi21Row {
  core::Id zombie_id = 0;
  int64_t zombie_like_count = 0;
  int64_t total_like_count = 0;
  double zombie_score = 0;

  bool operator==(const Bi21Row&) const = default;
};

std::vector<Bi21Row> RunBi21(const Graph& graph, const Bi21Params& params);

// ---------------------------------------------------------------------------
// BI 22 — International dialog. [reconstructed]
// For person pairs (p1 of $country1, p2 of $country2), score =
// 4·|direct replies between them (either direction)| + 10·[p1 knows p2] +
// 1·|likes between them (either direction)|. Pairs with score > 0; the city
// reported is p1's. Sort: score ↓, p1.id ↑, p2.id ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi22Params {
  std::string country1;
  std::string country2;
};

struct Bi22Row {
  core::Id person1_id = 0;
  core::Id person2_id = 0;
  std::string city1;
  int64_t score = 0;

  bool operator==(const Bi22Row&) const = default;
};

std::vector<Bi22Row> RunBi22(const Graph& graph, const Bi22Params& params);

// ---------------------------------------------------------------------------
// BI 23 — Holiday destinations. [reconstructed]
// Messages by persons living in $country but located in a different country
// ("travel posts"), grouped by (destination country, month of creation).
// Sort: messageCount ↓, destination ↑, month ↑. Limit 100.
// ---------------------------------------------------------------------------

struct Bi23Params {
  std::string country;
};

struct Bi23Row {
  int64_t message_count = 0;
  std::string destination;
  int32_t month = 0;

  bool operator==(const Bi23Row&) const = default;
};

std::vector<Bi23Row> RunBi23(const Graph& graph, const Bi23Params& params,
                             util::ThreadPool* pool = nullptr);

// ---------------------------------------------------------------------------
// BI 24 — Messages by topic and continent. [reconstructed]
// Messages with a tag of $tagClass (direct), grouped by (year, month,
// continent of the message's location): messageCount and likeCount (likes
// received by those messages). Sort: year ↑, month ↑, continent ↑.
// Limit 100.
// ---------------------------------------------------------------------------

struct Bi24Params {
  std::string tag_class;
};

struct Bi24Row {
  int64_t message_count = 0;
  int64_t like_count = 0;
  int32_t year = 0;
  int32_t month = 0;
  std::string continent;

  bool operator==(const Bi24Row&) const = default;
};

std::vector<Bi24Row> RunBi24(const Graph& graph, const Bi24Params& params,
                             util::ThreadPool* pool = nullptr);

/// Positions RunBi24 walks: the posting-list length (posts and comments) of
/// the class's direct tags.
size_t Bi24Work(const Graph& graph, const Bi24Params& params);

// ---------------------------------------------------------------------------
// BI 25 — Trusted connection paths. [reconstructed]
// All shortest knows-paths between $person1 and $person2, weighted by the
// interactions of consecutive pairs *restricted to forums created in
// [startDate, endDate]*: each direct reply to a post +1.0, each direct reply
// to a comment +0.5 (both directions; a comment's forum is its thread
// root's). Sort: weight ↓, then the path's person-id sequence ↑ (the spec
// leaves equal-weight order unspecified; lexicographic keeps it
// deterministic). No limit.
// ---------------------------------------------------------------------------

struct Bi25Params {
  core::Id person1_id = 0;
  core::Id person2_id = 0;
  core::Date start_date = 0;
  core::Date end_date = 0;
};

struct Bi25Row {
  std::vector<core::Id> person_ids;
  double weight = 0;

  bool operator==(const Bi25Row&) const = default;
};

std::vector<Bi25Row> RunBi25(const Graph& graph, const Bi25Params& params);

}  // namespace snb::bi

#endif  // SNB_BI_BI_H_
