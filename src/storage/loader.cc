#include "storage/loader.h"

#include <algorithm>
#include <charconv>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/date_time.h"
#include "storage/columnar/flat_id_table.h"
#include "util/csv.h"
#include "util/failpoint.h"

namespace snb::storage {

using core::SocialNetwork;
using util::CsvTable;
using util::Status;
using util::StatusOr;

namespace {

StatusOr<CsvTable> Read(const std::string& dir, const std::string& sub,
                        const std::string& stem) {
  return util::ReadCsv(dir + "/" + sub + "/" + stem + "_0_0.csv");
}

/// Parses a whole field as a decimal integer: an empty field, a trailing
/// character or an overflow is Corruption (strtoll would have read 0).
template <typename Int>
Status ParseInt(const std::string& text, const std::string& file, Int* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return Status::Corruption(file + ": bad integer '" + text + "'");
  }
  return Status::Ok();
}

Status ParseDateField(const std::string& text, core::Date* out) {
  if (!core::ParseDate(text, out)) {
    return Status::Corruption("bad date: " + text);
  }
  return Status::Ok();
}

Status ParseDateTimeField(const std::string& text, core::DateTime* out) {
  if (!core::ParseDateTime(text, out)) {
    return Status::Corruption("bad datetime: " + text);
  }
  return Status::Ok();
}

/// Id → row of one entity file. Strict both ways: an id the entity file
/// repeats is Corruption (it would abort the Graph build), and so is a
/// relation row naming an id the entity file lacks (operator[] would have
/// attached it to row 0).
class RowIndex {
 public:
  explicit RowIndex(std::string file) : file_(std::move(file)) {}

  Status Add(core::Id id, size_t row) {
    if (!rows_.Insert(id, static_cast<uint32_t>(row))) {
      return Status::Corruption(file_ + ": duplicate id " +
                                std::to_string(id));
    }
    return Status::Ok();
  }

  /// Parses `field` of `rel_file` as an id of this entity file into
  /// `*id`; Corruption when no row has that id.
  Status Resolve(const std::string& field, const std::string& rel_file,
                 core::Id* id) const {
    uint32_t row = 0;
    return Resolve(field, rel_file, id, &row);
  }

  /// Sets `*row` to the row of the id in `field` of `rel_file`.
  Status Row(const std::string& field, const std::string& rel_file,
             uint32_t* row) const {
    core::Id id = 0;
    return Resolve(field, rel_file, &id, row);
  }

 private:
  Status Resolve(const std::string& field, const std::string& rel_file,
                 core::Id* id, uint32_t* row) const {
    SNB_RETURN_IF_ERROR(ParseInt(field, rel_file, id));
    *row = rows_.Find(*id);
    if (*row == columnar::FlatIdTable::kNoRow) {
      return Status::Corruption(rel_file + ": " + file_ + " id " +
                                std::to_string(*id) + " does not exist");
    }
    return Status::Ok();
  }

  std::string file_;
  columnar::FlatIdTable rows_;
};

}  // namespace

StatusOr<SocialNetwork> LoadCsvBasic(const std::string& dir) {
  SNB_FAILPOINT_STATUS("loader.load_csv");
  SocialNetwork net;

#define SNB_LOAD(var, sub, stem)                \
  const std::string var##_file = stem;          \
  auto var##_or = Read(dir, sub, var##_file);   \
  if (!var##_or.ok()) return var##_or.status(); \
  CsvTable& var = var##_or.value()

  // Every id column is resolved against the entity file it names.
  RowIndex place_rows("place"), organisation_rows("organisation"),
      tagclass_rows("tagclass"), tag_rows("tag"), person_rows("person"),
      forum_rows("forum"), post_rows("post"), comment_rows("comment");

  // ---- static ----
  {
    SNB_LOAD(t, "static", "place");
    for (auto& row : t.rows) {
      core::Place p;
      SNB_RETURN_IF_ERROR(ParseInt(row[0], t_file, &p.id));
      SNB_RETURN_IF_ERROR(place_rows.Add(p.id, net.places.size()));
      p.name = row[1];
      p.url = row[2];
      p.type = row[3] == "city"      ? core::PlaceType::kCity
               : row[3] == "country" ? core::PlaceType::kCountry
                                     : core::PlaceType::kContinent;
      net.places.push_back(std::move(p));
    }
    SNB_LOAD(rel, "static", "place_isPartOf_place");
    for (auto& row : rel.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(place_rows.Row(row[0], rel_file, &r));
      SNB_RETURN_IF_ERROR(
          place_rows.Resolve(row[1], rel_file, &net.places[r].part_of));
    }
  }
  {
    SNB_LOAD(t, "static", "organisation");
    for (auto& row : t.rows) {
      core::Organisation o;
      SNB_RETURN_IF_ERROR(ParseInt(row[0], t_file, &o.id));
      SNB_RETURN_IF_ERROR(
          organisation_rows.Add(o.id, net.organisations.size()));
      o.type = row[1] == "university" ? core::OrganisationType::kUniversity
                                      : core::OrganisationType::kCompany;
      o.name = row[2];
      o.url = row[3];
      net.organisations.push_back(std::move(o));
    }
    SNB_LOAD(rel, "static", "organisation_isLocatedIn_place");
    for (auto& row : rel.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(organisation_rows.Row(row[0], rel_file, &r));
      SNB_RETURN_IF_ERROR(
          place_rows.Resolve(row[1], rel_file, &net.organisations[r].place));
    }
  }
  {
    SNB_LOAD(t, "static", "tagclass");
    for (auto& row : t.rows) {
      core::TagClass tc;
      SNB_RETURN_IF_ERROR(ParseInt(row[0], t_file, &tc.id));
      SNB_RETURN_IF_ERROR(tagclass_rows.Add(tc.id, net.tag_classes.size()));
      tc.name = row[1];
      tc.url = row[2];
      net.tag_classes.push_back(std::move(tc));
    }
    SNB_LOAD(rel, "static", "tagclass_isSubclassOf_tagclass");
    for (auto& row : rel.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(tagclass_rows.Row(row[0], rel_file, &r));
      SNB_RETURN_IF_ERROR(
          tagclass_rows.Resolve(row[1], rel_file, &net.tag_classes[r].parent));
    }
  }
  {
    SNB_LOAD(t, "static", "tag");
    for (auto& row : t.rows) {
      core::Tag tag;
      SNB_RETURN_IF_ERROR(ParseInt(row[0], t_file, &tag.id));
      SNB_RETURN_IF_ERROR(tag_rows.Add(tag.id, net.tags.size()));
      tag.name = row[1];
      tag.url = row[2];
      net.tags.push_back(std::move(tag));
    }
    SNB_LOAD(rel, "static", "tag_hasType_tagclass");
    for (auto& row : rel.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(tag_rows.Row(row[0], rel_file, &r));
      SNB_RETURN_IF_ERROR(
          tagclass_rows.Resolve(row[1], rel_file, &net.tags[r].tag_class));
    }
  }

  // ---- persons ----
  {
    SNB_LOAD(t, "dynamic", "person");
    for (auto& row : t.rows) {
      core::Person p;
      SNB_RETURN_IF_ERROR(ParseInt(row[0], t_file, &p.id));
      SNB_RETURN_IF_ERROR(person_rows.Add(p.id, net.persons.size()));
      p.first_name = row[1];
      p.last_name = row[2];
      p.gender = row[3];
      SNB_RETURN_IF_ERROR(ParseDateField(row[4], &p.birthday));
      SNB_RETURN_IF_ERROR(ParseDateTimeField(row[5], &p.creation_date));
      p.location_ip = row[6];
      p.browser_used = row[7];
      net.persons.push_back(std::move(p));
    }
    std::vector<core::Person>& persons = net.persons;
    SNB_LOAD(city, "dynamic", "person_isLocatedIn_place");
    for (auto& row : city.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(person_rows.Row(row[0], city_file, &r));
      SNB_RETURN_IF_ERROR(
          place_rows.Resolve(row[1], city_file, &persons[r].city));
    }
    SNB_LOAD(email, "dynamic", "person_email_emailaddress");
    for (auto& row : email.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(person_rows.Row(row[0], email_file, &r));
      persons[r].emails.push_back(row[1]);
    }
    SNB_LOAD(speaks, "dynamic", "person_speaks_language");
    for (auto& row : speaks.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(person_rows.Row(row[0], speaks_file, &r));
      persons[r].speaks.push_back(row[1]);
    }
    SNB_LOAD(interest, "dynamic", "person_hasInterest_tag");
    for (auto& row : interest.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(person_rows.Row(row[0], interest_file, &r));
      core::Id tag = 0;
      SNB_RETURN_IF_ERROR(tag_rows.Resolve(row[1], interest_file, &tag));
      persons[r].interests.push_back(tag);
    }
    SNB_LOAD(study, "dynamic", "person_studyAt_organisation");
    for (auto& row : study.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(person_rows.Row(row[0], study_file, &r));
      core::StudyAt s;
      SNB_RETURN_IF_ERROR(
          organisation_rows.Resolve(row[1], study_file, &s.university));
      SNB_RETURN_IF_ERROR(ParseInt(row[2], study_file, &s.class_year));
      persons[r].study_at.push_back(s);
    }
    SNB_LOAD(work, "dynamic", "person_workAt_organisation");
    for (auto& row : work.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(person_rows.Row(row[0], work_file, &r));
      core::WorkAt w;
      SNB_RETURN_IF_ERROR(
          organisation_rows.Resolve(row[1], work_file, &w.company));
      SNB_RETURN_IF_ERROR(ParseInt(row[2], work_file, &w.work_from));
      persons[r].work_at.push_back(w);
    }
    SNB_LOAD(knows, "dynamic", "person_knows_person");
    for (auto& row : knows.rows) {
      core::Knows k;
      SNB_RETURN_IF_ERROR(person_rows.Resolve(row[0], knows_file, &k.person1));
      SNB_RETURN_IF_ERROR(person_rows.Resolve(row[1], knows_file, &k.person2));
      SNB_RETURN_IF_ERROR(ParseDateTimeField(row[2], &k.creation_date));
      net.knows.push_back(k);
    }
  }

  // ---- forums ----
  {
    SNB_LOAD(t, "dynamic", "forum");
    for (auto& row : t.rows) {
      core::Forum f;
      SNB_RETURN_IF_ERROR(ParseInt(row[0], t_file, &f.id));
      SNB_RETURN_IF_ERROR(forum_rows.Add(f.id, net.forums.size()));
      f.title = row[1];
      SNB_RETURN_IF_ERROR(ParseDateTimeField(row[2], &f.creation_date));
      f.kind = f.title.rfind("Wall", 0) == 0    ? core::ForumKind::kWall
               : f.title.rfind("Album", 0) == 0 ? core::ForumKind::kAlbum
                                                : core::ForumKind::kGroup;
      net.forums.push_back(std::move(f));
    }
    std::vector<core::Forum>& forums = net.forums;
    SNB_LOAD(mod, "dynamic", "forum_hasModerator_person");
    for (auto& row : mod.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(forum_rows.Row(row[0], mod_file, &r));
      SNB_RETURN_IF_ERROR(
          person_rows.Resolve(row[1], mod_file, &forums[r].moderator));
    }
    SNB_LOAD(ftag, "dynamic", "forum_hasTag_tag");
    for (auto& row : ftag.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(forum_rows.Row(row[0], ftag_file, &r));
      core::Id tag = 0;
      SNB_RETURN_IF_ERROR(tag_rows.Resolve(row[1], ftag_file, &tag));
      forums[r].tags.push_back(tag);
    }
    SNB_LOAD(member, "dynamic", "forum_hasMember_person");
    for (auto& row : member.rows) {
      core::ForumMembership m;
      SNB_RETURN_IF_ERROR(forum_rows.Resolve(row[0], member_file, &m.forum));
      SNB_RETURN_IF_ERROR(
          person_rows.Resolve(row[1], member_file, &m.person));
      SNB_RETURN_IF_ERROR(ParseDateTimeField(row[2], &m.join_date));
      net.memberships.push_back(m);
    }
  }

  // ---- posts ----
  {
    SNB_LOAD(t, "dynamic", "post");
    for (auto& row : t.rows) {
      core::Post p;
      SNB_RETURN_IF_ERROR(ParseInt(row[0], t_file, &p.id));
      SNB_RETURN_IF_ERROR(post_rows.Add(p.id, net.posts.size()));
      p.image_file = row[1];
      SNB_RETURN_IF_ERROR(ParseDateTimeField(row[2], &p.creation_date));
      p.location_ip = row[3];
      p.browser_used = row[4];
      p.language = row[5];
      p.content = row[6];
      SNB_RETURN_IF_ERROR(ParseInt(row[7], t_file, &p.length));
      net.posts.push_back(std::move(p));
    }
    std::vector<core::Post>& posts = net.posts;
    SNB_LOAD(creator, "dynamic", "post_hasCreator_person");
    for (auto& row : creator.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(post_rows.Row(row[0], creator_file, &r));
      SNB_RETURN_IF_ERROR(
          person_rows.Resolve(row[1], creator_file, &posts[r].creator));
    }
    SNB_LOAD(container, "dynamic", "forum_containerOf_post");
    for (auto& row : container.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(post_rows.Row(row[1], container_file, &r));
      SNB_RETURN_IF_ERROR(
          forum_rows.Resolve(row[0], container_file, &posts[r].forum));
    }
    SNB_LOAD(loc, "dynamic", "post_isLocatedIn_place");
    for (auto& row : loc.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(post_rows.Row(row[0], loc_file, &r));
      SNB_RETURN_IF_ERROR(
          place_rows.Resolve(row[1], loc_file, &posts[r].country));
    }
    SNB_LOAD(ptag, "dynamic", "post_hasTag_tag");
    for (auto& row : ptag.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(post_rows.Row(row[0], ptag_file, &r));
      core::Id tag = 0;
      SNB_RETURN_IF_ERROR(tag_rows.Resolve(row[1], ptag_file, &tag));
      posts[r].tags.push_back(tag);
    }
  }

  // ---- comments ----
  {
    SNB_LOAD(t, "dynamic", "comment");
    for (auto& row : t.rows) {
      core::Comment c;
      SNB_RETURN_IF_ERROR(ParseInt(row[0], t_file, &c.id));
      SNB_RETURN_IF_ERROR(comment_rows.Add(c.id, net.comments.size()));
      SNB_RETURN_IF_ERROR(ParseDateTimeField(row[1], &c.creation_date));
      c.location_ip = row[2];
      c.browser_used = row[3];
      c.content = row[4];
      SNB_RETURN_IF_ERROR(ParseInt(row[5], t_file, &c.length));
      net.comments.push_back(std::move(c));
    }
    std::vector<core::Comment>& comments = net.comments;
    SNB_LOAD(creator, "dynamic", "comment_hasCreator_person");
    for (auto& row : creator.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(comment_rows.Row(row[0], creator_file, &r));
      SNB_RETURN_IF_ERROR(
          person_rows.Resolve(row[1], creator_file, &comments[r].creator));
    }
    SNB_LOAD(loc, "dynamic", "comment_isLocatedIn_place");
    for (auto& row : loc.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(comment_rows.Row(row[0], loc_file, &r));
      SNB_RETURN_IF_ERROR(
          place_rows.Resolve(row[1], loc_file, &comments[r].country));
    }
    SNB_LOAD(rp, "dynamic", "comment_replyOf_post");
    for (auto& row : rp.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(comment_rows.Row(row[0], rp_file, &r));
      SNB_RETURN_IF_ERROR(
          post_rows.Resolve(row[1], rp_file, &comments[r].reply_of_post));
    }
    SNB_LOAD(rc, "dynamic", "comment_replyOf_comment");
    for (auto& row : rc.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(comment_rows.Row(row[0], rc_file, &r));
      SNB_RETURN_IF_ERROR(
          comment_rows.Resolve(row[1], rc_file, &comments[r].reply_of_comment));
    }
    SNB_LOAD(ctag, "dynamic", "comment_hasTag_tag");
    for (auto& row : ctag.rows) {
      uint32_t r = 0;
      SNB_RETURN_IF_ERROR(comment_rows.Row(row[0], ctag_file, &r));
      core::Id tag = 0;
      SNB_RETURN_IF_ERROR(tag_rows.Resolve(row[1], ctag_file, &tag));
      comments[r].tags.push_back(tag);
    }
  }

  // ---- likes ----
  auto likes = [&](const CsvTable& rel, const std::string& file,
                   const RowIndex& messages, bool is_post) {
    for (const std::vector<std::string>& row : rel.rows) {
      core::Like l;
      l.is_post = is_post;
      SNB_RETURN_IF_ERROR(person_rows.Resolve(row[0], file, &l.person));
      SNB_RETURN_IF_ERROR(messages.Resolve(row[1], file, &l.message));
      SNB_RETURN_IF_ERROR(ParseDateTimeField(row[2], &l.creation_date));
      net.likes.push_back(l);
    }
    return Status::Ok();
  };
  {
    SNB_LOAD(lp, "dynamic", "person_likes_post");
    SNB_RETURN_IF_ERROR(likes(lp, lp_file, post_rows, true));
    SNB_LOAD(lc, "dynamic", "person_likes_comment");
    SNB_RETURN_IF_ERROR(likes(lc, lc_file, comment_rows, false));
  }

#undef SNB_LOAD

  // Graph construction requires comments ordered so that replies follow
  // their targets; creation-date order guarantees it.
  std::sort(net.comments.begin(), net.comments.end(),
            [](const core::Comment& a, const core::Comment& b) {
              return a.creation_date != b.creation_date
                         ? a.creation_date < b.creation_date
                         : a.id < b.id;
            });

  return net;
}

}  // namespace snb::storage
