#include "datagen/serializer.h"

#include <filesystem>
#include <utility>

#include "core/date_time.h"
#include "util/check.h"
#include "util/csv.h"

namespace snb::datagen {

using core::SocialNetwork;
using util::CsvWriter;
using util::Status;

namespace {

std::string PlaceTypeName(core::PlaceType t) {
  switch (t) {
    case core::PlaceType::kCity:
      return "city";
    case core::PlaceType::kCountry:
      return "country";
    case core::PlaceType::kContinent:
      return "continent";
  }
  return "city";
}

std::string OrgTypeName(core::OrganisationType t) {
  return t == core::OrganisationType::kUniversity ? "university" : "company";
}

std::string I(core::Id id) { return std::to_string(id); }
std::string N(int64_t v) { return std::to_string(v); }

/// Opens `<dir>/<sub>/<stem>_0_0.csv` with the given header.
Status OpenFile(CsvWriter& w, const std::string& dir, const std::string& sub,
                const std::string& stem,
                const std::vector<std::string>& header) {
  std::error_code ec;
  std::filesystem::create_directories(dir + "/" + sub, ec);
  if (ec) return Status::IoError("cannot create directory " + dir);
  return w.Open(dir + "/" + sub + "/" + stem + "_0_0.csv", header);
}

/// Header row of one CsvBasic file (Table 2.13).
const std::vector<std::string>& CsvBasicHeader(const std::string& stem) {
  static const auto* kHeaders = new std::vector<
      std::pair<std::string, std::vector<std::string>>>{
      {"organisation", {"id", "type", "name", "url"}},
      {"organisation_isLocatedIn_place", {"Organisation.id", "Place.id"}},
      {"place", {"id", "name", "url", "type"}},
      {"place_isPartOf_place", {"Place.id", "Place.id"}},
      {"tag", {"id", "name", "url"}},
      {"tag_hasType_tagclass", {"Tag.id", "TagClass.id"}},
      {"tagclass", {"id", "name", "url"}},
      {"tagclass_isSubclassOf_tagclass", {"TagClass.id", "TagClass.id"}},
      {"comment",
       {"id", "creationDate", "locationIP", "browserUsed", "content",
        "length"}},
      {"comment_hasCreator_person", {"Comment.id", "Person.id"}},
      {"comment_hasTag_tag", {"Comment.id", "Tag.id"}},
      {"comment_isLocatedIn_place", {"Comment.id", "Place.id"}},
      {"comment_replyOf_comment", {"Comment.id", "Comment.id"}},
      {"comment_replyOf_post", {"Comment.id", "Post.id"}},
      {"forum", {"id", "title", "creationDate"}},
      {"forum_containerOf_post", {"Forum.id", "Post.id"}},
      {"forum_hasMember_person", {"Forum.id", "Person.id", "joinDate"}},
      {"forum_hasModerator_person", {"Forum.id", "Person.id"}},
      {"forum_hasTag_tag", {"Forum.id", "Tag.id"}},
      {"person",
       {"id", "firstName", "lastName", "gender", "birthday", "creationDate",
        "locationIP", "browserUsed"}},
      {"person_email_emailaddress", {"Person.id", "email"}},
      {"person_hasInterest_tag", {"Person.id", "Tag.id"}},
      {"person_isLocatedIn_place", {"Person.id", "Place.id"}},
      {"person_knows_person", {"Person.id", "Person.id", "creationDate"}},
      {"person_likes_comment", {"Person.id", "Comment.id", "creationDate"}},
      {"person_likes_post", {"Person.id", "Post.id", "creationDate"}},
      {"person_speaks_language", {"Person.id", "language"}},
      {"person_studyAt_organisation",
       {"Person.id", "Organisation.id", "classYear"}},
      {"person_workAt_organisation",
       {"Person.id", "Organisation.id", "workFrom"}},
      {"post",
       {"id", "imageFile", "creationDate", "locationIP", "browserUsed",
        "language", "content", "length"}},
      {"post_hasCreator_person", {"Post.id", "Person.id"}},
      {"post_hasTag_tag", {"Post.id", "Tag.id"}},
      {"post_isLocatedIn_place", {"Post.id", "Place.id"}},
  };
  for (const auto& [name, header] : *kHeaders) {
    if (name == stem) return header;
  }
  SNB_CHECK_MSG(false, "unknown CsvBasic stem");
  static const std::vector<std::string> kEmpty;
  return kEmpty;
}

/// Opens `<dir>/<sub>/<stem>_0_0.csv` with the stem's CsvBasic header.
Status OpenCsvBasicFile(CsvWriter& writer, const std::string& dir,
                        const std::string& sub, const std::string& stem) {
  return OpenFile(writer, dir, sub, stem, CsvBasicHeader(stem));
}

/// Rows of the dynamic entity files; ids must already be final.
namespace csv_rows {

std::vector<std::string> Person(const core::Person& p) {
  return {I(p.id), p.first_name, p.last_name, p.gender,
          core::FormatDate(p.birthday),
          core::FormatDateTime(p.creation_date), p.location_ip,
          p.browser_used};
}

std::vector<std::string> Forum(const core::Forum& f) {
  return {I(f.id), util::SanitizeField(f.title),
          core::FormatDateTime(f.creation_date)};
}

std::vector<std::string> Post(const core::Post& p) {
  return {I(p.id), p.image_file, core::FormatDateTime(p.creation_date),
          p.location_ip, p.browser_used, p.language,
          util::SanitizeField(p.content), N(p.length)};
}

std::vector<std::string> Comment(const core::Comment& c) {
  return {I(c.id), core::FormatDateTime(c.creation_date), c.location_ip,
          c.browser_used, util::SanitizeField(c.content), N(c.length)};
}

std::vector<std::string> Knows(const core::Knows& k) {
  return {I(k.person1), I(k.person2),
          core::FormatDateTime(k.creation_date)};
}

std::vector<std::string> Membership(const core::ForumMembership& m) {
  return {I(m.forum), I(m.person), core::FormatDateTime(m.join_date)};
}

std::vector<std::string> Like(const core::Like& l) {
  return {I(l.person), I(l.message), core::FormatDateTime(l.creation_date)};
}

}  // namespace csv_rows

}  // namespace

const std::vector<std::string>& CsvBasicFileStems() {
  static const std::vector<std::string>* kStems = new std::vector<std::string>{
      // Static part (Table 2.13 order).
      "organisation",
      "organisation_isLocatedIn_place",
      "place",
      "place_isPartOf_place",
      "tag",
      "tag_hasType_tagclass",
      "tagclass",
      "tagclass_isSubclassOf_tagclass",
      // Dynamic part.
      "comment",
      "comment_hasCreator_person",
      "comment_hasTag_tag",
      "comment_isLocatedIn_place",
      "comment_replyOf_comment",
      "comment_replyOf_post",
      "forum",
      "forum_containerOf_post",
      "forum_hasMember_person",
      "forum_hasModerator_person",
      "forum_hasTag_tag",
      "person",
      "person_email_emailaddress",
      "person_hasInterest_tag",
      "person_isLocatedIn_place",
      "person_knows_person",
      "person_likes_comment",
      "person_likes_post",
      "person_speaks_language",
      "person_studyAt_organisation",
      "person_workAt_organisation",
      "post",
      "post_hasCreator_person",
      "post_hasTag_tag",
      "post_isLocatedIn_place",
  };
  return *kStems;
}

const std::vector<std::string>& CsvMergeForeignFileStems() {
  static const std::vector<std::string>* kStems = new std::vector<std::string>{
      "organisation",
      "place",
      "tag",
      "tagclass",
      "comment",
      "comment_hasTag_tag",
      "forum",
      "forum_hasMember_person",
      "forum_hasTag_tag",
      "person",
      "person_email_emailaddress",
      "person_hasInterest_tag",
      "person_knows_person",
      "person_likes_comment",
      "person_likes_post",
      "person_speaks_language",
      "person_studyAt_organisation",
      "person_workAt_organisation",
      "post",
      "post_hasTag_tag",
  };
  return *kStems;
}

Status WriteCsvBasic(const SocialNetwork& net, const std::string& dir) {
  CsvWriter w;

  // ---- static ----
  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "static", "organisation"));
  for (const auto& o : net.organisations) {
    w.WriteRow({I(o.id), OrgTypeName(o.type), o.name, o.url});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(
      OpenCsvBasicFile(w, dir, "static", "organisation_isLocatedIn_place"));
  for (const auto& o : net.organisations) w.WriteRow({I(o.id), I(o.place)});
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "static", "place"));
  for (const auto& p : net.places) {
    w.WriteRow({I(p.id), p.name, p.url, PlaceTypeName(p.type)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(
      OpenCsvBasicFile(w, dir, "static", "place_isPartOf_place"));
  for (const auto& p : net.places) {
    if (p.part_of != core::kNoId) w.WriteRow({I(p.id), I(p.part_of)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "static", "tag"));
  for (const auto& t : net.tags) w.WriteRow({I(t.id), t.name, t.url});
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(
      OpenCsvBasicFile(w, dir, "static", "tag_hasType_tagclass"));
  for (const auto& t : net.tags) w.WriteRow({I(t.id), I(t.tag_class)});
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "static", "tagclass"));
  for (const auto& tc : net.tag_classes) {
    w.WriteRow({I(tc.id), tc.name, tc.url});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "static",
                                       "tagclass_isSubclassOf_tagclass"));
  for (const auto& tc : net.tag_classes) {
    if (tc.parent != core::kNoId) w.WriteRow({I(tc.id), I(tc.parent)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  // ---- dynamic ----
  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "comment"));
  for (const auto& c : net.comments) w.WriteRow(csv_rows::Comment(c));
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(
      OpenCsvBasicFile(w, dir, "dynamic", "comment_hasCreator_person"));
  for (const auto& c : net.comments) w.WriteRow({I(c.id), I(c.creator)});
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "comment_hasTag_tag"));
  for (const auto& c : net.comments) {
    for (core::Id t : c.tags) w.WriteRow({I(c.id), I(t)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(
      OpenCsvBasicFile(w, dir, "dynamic", "comment_isLocatedIn_place"));
  for (const auto& c : net.comments) w.WriteRow({I(c.id), I(c.country)});
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(
      OpenCsvBasicFile(w, dir, "dynamic", "comment_replyOf_comment"));
  for (const auto& c : net.comments) {
    if (c.reply_of_comment != core::kNoId) {
      w.WriteRow({I(c.id), I(c.reply_of_comment)});
    }
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(
      OpenCsvBasicFile(w, dir, "dynamic", "comment_replyOf_post"));
  for (const auto& c : net.comments) {
    if (c.reply_of_post != core::kNoId) {
      w.WriteRow({I(c.id), I(c.reply_of_post)});
    }
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "forum"));
  for (const auto& f : net.forums) w.WriteRow(csv_rows::Forum(f));
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(
      OpenCsvBasicFile(w, dir, "dynamic", "forum_containerOf_post"));
  for (const auto& p : net.posts) w.WriteRow({I(p.forum), I(p.id)});
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(
      OpenCsvBasicFile(w, dir, "dynamic", "forum_hasMember_person"));
  for (const auto& m : net.memberships) w.WriteRow(csv_rows::Membership(m));
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(
      OpenCsvBasicFile(w, dir, "dynamic", "forum_hasModerator_person"));
  for (const auto& f : net.forums) w.WriteRow({I(f.id), I(f.moderator)});
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "forum_hasTag_tag"));
  for (const auto& f : net.forums) {
    for (core::Id t : f.tags) w.WriteRow({I(f.id), I(t)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "person"));
  for (const auto& p : net.persons) w.WriteRow(csv_rows::Person(p));
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "person_email_emailaddress"));
  for (const auto& p : net.persons) {
    for (const std::string& e : p.emails) w.WriteRow({I(p.id), e});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "person_hasInterest_tag"));
  for (const auto& p : net.persons) {
    for (core::Id t : p.interests) w.WriteRow({I(p.id), I(t)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "person_isLocatedIn_place"));
  for (const auto& p : net.persons) w.WriteRow({I(p.id), I(p.city)});
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "person_knows_person"));
  for (const auto& k : net.knows) w.WriteRow(csv_rows::Knows(k));
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "person_likes_comment"));
  for (const auto& l : net.likes) {
    if (!l.is_post) w.WriteRow(csv_rows::Like(l));
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "person_likes_post"));
  for (const auto& l : net.likes) {
    if (l.is_post) w.WriteRow(csv_rows::Like(l));
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "person_speaks_language"));
  for (const auto& p : net.persons) {
    for (const std::string& lang : p.speaks) w.WriteRow({I(p.id), lang});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "person_studyAt_organisation"));
  for (const auto& p : net.persons) {
    for (const core::StudyAt& s : p.study_at) {
      w.WriteRow({I(p.id), I(s.university), N(s.class_year)});
    }
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "person_workAt_organisation"));
  for (const auto& p : net.persons) {
    for (const core::WorkAt& wk : p.work_at) {
      w.WriteRow({I(p.id), I(wk.company), N(wk.work_from)});
    }
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "post"));
  for (const auto& p : net.posts) w.WriteRow(csv_rows::Post(p));
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "post_hasCreator_person"));
  for (const auto& p : net.posts) w.WriteRow({I(p.id), I(p.creator)});
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "post_hasTag_tag"));
  for (const auto& p : net.posts) {
    for (core::Id t : p.tags) w.WriteRow({I(p.id), I(t)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenCsvBasicFile(w, dir, "dynamic", "post_isLocatedIn_place"));
  for (const auto& p : net.posts) w.WriteRow({I(p.id), I(p.country)});
  SNB_RETURN_IF_ERROR(w.Close());

  return Status::Ok();
}

Status WriteCsvMergeForeign(const SocialNetwork& net, const std::string& dir) {
  CsvWriter w;
  auto opt = [](core::Id id) {
    return id == core::kNoId ? std::string() : std::to_string(id);
  };

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "static", "organisation",
                               {"id", "type", "name", "url", "place"}));
  for (const auto& o : net.organisations) {
    w.WriteRow({I(o.id), OrgTypeName(o.type), o.name, o.url, I(o.place)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "static", "place",
                               {"id", "name", "url", "type", "isPartOf"}));
  for (const auto& p : net.places) {
    w.WriteRow(
        {I(p.id), p.name, p.url, PlaceTypeName(p.type), opt(p.part_of)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "static", "tag",
                               {"id", "name", "url", "hasType"}));
  for (const auto& t : net.tags) {
    w.WriteRow({I(t.id), t.name, t.url, I(t.tag_class)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "static", "tagclass",
                               {"id", "name", "url", "isSubclassOf"}));
  for (const auto& tc : net.tag_classes) {
    w.WriteRow({I(tc.id), tc.name, tc.url, opt(tc.parent)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(
      w, dir, "dynamic", "comment",
      {"id", "creationDate", "locationIP", "browserUsed", "content", "length",
       "creator", "place", "replyOfPost", "replyOfComment"}));
  for (const auto& c : net.comments) {
    w.WriteRow({I(c.id), core::FormatDateTime(c.creation_date), c.location_ip,
                c.browser_used, util::SanitizeField(c.content), N(c.length),
                I(c.creator), I(c.country), opt(c.reply_of_post),
                opt(c.reply_of_comment)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "comment_hasTag_tag",
                               {"Comment.id", "Tag.id"}));
  for (const auto& c : net.comments) {
    for (core::Id t : c.tags) w.WriteRow({I(c.id), I(t)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "forum",
                               {"id", "title", "creationDate", "moderator"}));
  for (const auto& f : net.forums) {
    w.WriteRow({I(f.id), util::SanitizeField(f.title),
                core::FormatDateTime(f.creation_date), I(f.moderator)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "forum_hasMember_person",
                               {"Forum.id", "Person.id", "joinDate"}));
  for (const auto& m : net.memberships) {
    w.WriteRow({I(m.forum), I(m.person), core::FormatDateTime(m.join_date)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "forum_hasTag_tag",
                               {"Forum.id", "Tag.id"}));
  for (const auto& f : net.forums) {
    for (core::Id t : f.tags) w.WriteRow({I(f.id), I(t)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(
      w, dir, "dynamic", "person",
      {"id", "firstName", "lastName", "gender", "birthday", "creationDate",
       "locationIP", "browserUsed", "place"}));
  for (const auto& p : net.persons) {
    w.WriteRow({I(p.id), p.first_name, p.last_name, p.gender,
                core::FormatDate(p.birthday),
                core::FormatDateTime(p.creation_date), p.location_ip,
                p.browser_used, I(p.city)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "person_email_emailaddress",
                               {"Person.id", "email"}));
  for (const auto& p : net.persons) {
    for (const std::string& e : p.emails) w.WriteRow({I(p.id), e});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "person_hasInterest_tag",
                               {"Person.id", "Tag.id"}));
  for (const auto& p : net.persons) {
    for (core::Id t : p.interests) w.WriteRow({I(p.id), I(t)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "person_knows_person",
                               {"Person.id", "Person.id", "creationDate"}));
  for (const auto& k : net.knows) w.WriteRow(csv_rows::Knows(k));
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "person_likes_comment",
                               {"Person.id", "Comment.id", "creationDate"}));
  for (const auto& l : net.likes) {
    if (!l.is_post) w.WriteRow(csv_rows::Like(l));
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "person_likes_post",
                               {"Person.id", "Post.id", "creationDate"}));
  for (const auto& l : net.likes) {
    if (l.is_post) w.WriteRow(csv_rows::Like(l));
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "person_speaks_language",
                               {"Person.id", "language"}));
  for (const auto& p : net.persons) {
    for (const std::string& lang : p.speaks) w.WriteRow({I(p.id), lang});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "person_studyAt_organisation",
                               {"Person.id", "Organisation.id", "classYear"}));
  for (const auto& p : net.persons) {
    for (const core::StudyAt& s : p.study_at) {
      w.WriteRow({I(p.id), I(s.university), N(s.class_year)});
    }
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "person_workAt_organisation",
                               {"Person.id", "Organisation.id", "workFrom"}));
  for (const auto& p : net.persons) {
    for (const core::WorkAt& wk : p.work_at) {
      w.WriteRow({I(p.id), I(wk.company), N(wk.work_from)});
    }
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(
      w, dir, "dynamic", "post",
      {"id", "imageFile", "creationDate", "locationIP", "browserUsed",
       "language", "content", "length", "creator", "Forum.id", "place"}));
  for (const auto& p : net.posts) {
    w.WriteRow({I(p.id), p.image_file, core::FormatDateTime(p.creation_date),
                p.location_ip, p.browser_used, p.language,
                util::SanitizeField(p.content), N(p.length), I(p.creator),
                I(p.forum), I(p.country)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  SNB_RETURN_IF_ERROR(OpenFile(w, dir, "dynamic", "post_hasTag_tag",
                               {"Post.id", "Tag.id"}));
  for (const auto& p : net.posts) {
    for (core::Id t : p.tags) w.WriteRow({I(p.id), I(t)});
  }
  SNB_RETURN_IF_ERROR(w.Close());

  return Status::Ok();
}

}  // namespace snb::datagen
