// The LDBC SNB data schema (spec §2.3.2, Figure 2.1, Tables 2.2–2.10) as
// plain "raw" record structs.
//
// These structs are the interchange format between the data generator, the
// CSV serializers and the columnar graph store. IDs follow the spec's ID
// type: 64-bit, unique within one entity type only (a Forum and a Post may
// share an ID).

#ifndef SNB_CORE_SCHEMA_H_
#define SNB_CORE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/date_time.h"

namespace snb::core {

using Id = int64_t;
constexpr Id kNoId = -1;

// ---------------------------------------------------------------------------
// Static entities
// ---------------------------------------------------------------------------

enum class PlaceType : uint8_t { kCity = 0, kCountry = 1, kContinent = 2 };

/// City / Country / Continent (Table 2.6). `part_of` links City→Country and
/// Country→Continent; kNoId for continents.
struct Place {
  Id id = kNoId;
  std::string name;
  std::string url;
  PlaceType type = PlaceType::kCity;
  Id part_of = kNoId;

  bool operator==(const Place&) const = default;
};

enum class OrganisationType : uint8_t { kUniversity = 0, kCompany = 1 };

/// University / Company (Table 2.4). Universities are located in a City,
/// companies in a Country.
struct Organisation {
  Id id = kNoId;
  OrganisationType type = OrganisationType::kUniversity;
  std::string name;
  std::string url;
  Id place = kNoId;

  bool operator==(const Organisation&) const = default;
};

/// Topic tag (Table 2.8), typed by exactly one TagClass.
struct Tag {
  Id id = kNoId;
  std::string name;
  std::string url;
  Id tag_class = kNoId;

  bool operator==(const Tag&) const = default;
};

/// Node of the tag-class hierarchy (Table 2.9); kNoId parent for the root.
struct TagClass {
  Id id = kNoId;
  std::string name;
  std::string url;
  Id parent = kNoId;

  bool operator==(const TagClass&) const = default;
};

// ---------------------------------------------------------------------------
// Dynamic entities
// ---------------------------------------------------------------------------

/// Person.studyAt edge payload (Table 2.10).
struct StudyAt {
  Id university = kNoId;
  int32_t class_year = 0;

  bool operator==(const StudyAt&) const = default;
};

/// Person.workAt edge payload (Table 2.10).
struct WorkAt {
  Id company = kNoId;
  int32_t work_from = 0;

  bool operator==(const WorkAt&) const = default;
};

/// Person (Table 2.5) with its 1-to-N attribute edges inlined.
struct Person {
  Id id = kNoId;
  std::string first_name;
  std::string last_name;
  std::string gender;
  Date birthday = 0;
  DateTime creation_date = 0;
  std::string location_ip;
  std::string browser_used;
  Id city = kNoId;
  std::vector<std::string> emails;
  std::vector<std::string> speaks;
  std::vector<Id> interests;    // hasInterest → Tag
  std::vector<StudyAt> study_at;
  std::vector<WorkAt> work_at;

  bool operator==(const Person&) const = default;
};

/// Undirected knows edge with creationDate payload (Table 2.10).
struct Knows {
  Id person1 = kNoId;
  Id person2 = kNoId;
  DateTime creation_date = 0;

  bool operator==(const Knows&) const = default;
};

enum class ForumKind : uint8_t { kWall = 0, kGroup = 1, kAlbum = 2 };

/// Forum (Table 2.2). The three forum kinds (wall, group, album) are
/// distinguished by title prefix in the spec; we also carry the kind
/// explicitly for the generator's own use.
struct Forum {
  Id id = kNoId;
  std::string title;
  DateTime creation_date = 0;
  Id moderator = kNoId;
  std::vector<Id> tags;
  ForumKind kind = ForumKind::kWall;

  bool operator==(const Forum&) const = default;
};

/// Forum hasMember edge with joinDate payload.
struct ForumMembership {
  Id forum = kNoId;
  Id person = kNoId;
  DateTime join_date = 0;

  bool operator==(const ForumMembership&) const = default;
};

/// Post (Tables 2.3 + 2.7). Exactly one of content / image_file is nonempty.
struct Post {
  Id id = kNoId;
  std::string image_file;
  DateTime creation_date = 0;
  std::string location_ip;
  std::string browser_used;
  std::string language;
  std::string content;
  int32_t length = 0;
  Id creator = kNoId;
  Id forum = kNoId;
  Id country = kNoId;
  std::vector<Id> tags;

  bool operator==(const Post&) const = default;
};

/// Comment (Table 2.3). Exactly one of reply_of_post / reply_of_comment is
/// set; the other is kNoId.
struct Comment {
  Id id = kNoId;
  DateTime creation_date = 0;
  std::string location_ip;
  std::string browser_used;
  std::string content;
  int32_t length = 0;
  Id creator = kNoId;
  Id country = kNoId;
  Id reply_of_post = kNoId;
  Id reply_of_comment = kNoId;
  std::vector<Id> tags;

  bool operator==(const Comment&) const = default;
};

/// Person likes Post/Comment edge with creationDate payload.
struct Like {
  Id person = kNoId;
  Id message = kNoId;
  bool is_post = true;
  DateTime creation_date = 0;

  bool operator==(const Like&) const = default;
};

// ---------------------------------------------------------------------------
// Whole-network container
// ---------------------------------------------------------------------------

/// A complete generated social network: the bulk-load dataset (~90 % of the
/// simulated activity; spec §2.3.4) in raw record form.
struct SocialNetwork {
  // Static part.
  std::vector<Place> places;
  std::vector<Organisation> organisations;
  std::vector<TagClass> tag_classes;
  std::vector<Tag> tags;

  // Dynamic part.
  std::vector<Person> persons;
  std::vector<Knows> knows;
  std::vector<Forum> forums;
  std::vector<ForumMembership> memberships;
  std::vector<Post> posts;
  std::vector<Comment> comments;
  std::vector<Like> likes;

  /// Record-by-record equality: two exports compare equal exactly when
  /// their datasets are identical.
  bool operator==(const SocialNetwork&) const = default;

  /// Total node count across all entity types (for Table 2.12 statistics).
  size_t NumNodes() const {
    return places.size() + organisations.size() + tag_classes.size() +
           tags.size() + persons.size() + forums.size() + posts.size() +
           comments.size();
  }

  /// Total edge count across all relation types, counting attribute edges
  /// the way the spec's Table 2.12 does (each relation row once).
  size_t NumEdges() const;
};

}  // namespace snb::core

#endif  // SNB_CORE_SCHEMA_H_
