#include "datagen/update_stream.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <string_view>

#include "core/date_time.h"
#include "util/check.h"
#include "util/csv.h"

namespace snb::datagen {

namespace {

constexpr char kPersonStreamFile[] = "/updateStream_0_0_person.csv";
constexpr char kForumStreamFile[] = "/updateStream_0_0_forum.csv";
// DEL 1–8 ride in their own stream file so insert-only consumers (and the
// streaming-datagen byte-identity oracle) never see a layout change: the
// file exists only when the generator actually emitted deletes.
constexpr char kDeleteStreamFile[] = "/updateStream_0_0_delete.csv";

void AppendInt(std::string* out, int64_t v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

/// A multi-valued field: `append_item(out, item)` per item, ';' between.
template <typename T, typename AppendItem>
void AppendList(std::string* out, const std::vector<T>& items,
                AppendItem&& append_item) {
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out->push_back(';');
    append_item(out, items[i]);
  }
}

}  // namespace

void AppendUpdateEventLine(const UpdateEvent& event, std::string* out) {
  AppendInt(out, event.timestamp);
  out->push_back('|');
  AppendInt(out, event.dependency);
  out->push_back('|');
  AppendInt(out, static_cast<int>(event.kind));
  // Every field is preceded by its '|'.
  auto id = [out](core::Id v) {
    out->push_back('|');
    AppendInt(out, v);
  };
  auto text = [out](std::string_view v) {
    out->push_back('|');
    out->append(v);
  };
  auto sanitized = [out](std::string_view v) {
    out->push_back('|');
    util::AppendSanitized(out, v);
  };
  auto date_time = [out](core::DateTime v) {
    out->push_back('|');
    core::AppendDateTime(out, v);
  };
  auto ids = [out](const std::vector<core::Id>& v) {
    out->push_back('|');
    AppendList(out, v, [](std::string* o, core::Id x) { AppendInt(o, x); });
  };
  auto strings = [out](const std::vector<std::string>& v) {
    out->push_back('|');
    AppendList(out, v,
               [](std::string* o, const std::string& x) { o->append(x); });
  };
  switch (event.kind) {
    case UpdateKind::kAddPerson: {
      const auto& p = std::get<core::Person>(event.payload);
      id(p.id);
      text(p.first_name);
      text(p.last_name);
      text(p.gender);
      out->push_back('|');
      core::AppendDate(out, p.birthday);
      date_time(p.creation_date);
      text(p.location_ip);
      text(p.browser_used);
      id(p.city);
      strings(p.speaks);
      strings(p.emails);
      ids(p.interests);
      out->push_back('|');
      AppendList(out, p.study_at, [](std::string* o, const core::StudyAt& s) {
        AppendInt(o, s.university);
        o->push_back(',');
        AppendInt(o, s.class_year);
      });
      out->push_back('|');
      AppendList(out, p.work_at, [](std::string* o, const core::WorkAt& w) {
        AppendInt(o, w.company);
        o->push_back(',');
        AppendInt(o, w.work_from);
      });
      return;
    }
    case UpdateKind::kAddLikePost:
    case UpdateKind::kAddLikeComment: {
      const auto& l = std::get<core::Like>(event.payload);
      id(l.person);
      id(l.message);
      date_time(l.creation_date);
      return;
    }
    case UpdateKind::kAddForum: {
      const auto& f = std::get<core::Forum>(event.payload);
      id(f.id);
      sanitized(f.title);
      date_time(f.creation_date);
      id(f.moderator);
      ids(f.tags);
      return;
    }
    case UpdateKind::kAddMembership: {
      const auto& m = std::get<core::ForumMembership>(event.payload);
      id(m.person);
      id(m.forum);
      date_time(m.join_date);
      return;
    }
    case UpdateKind::kAddPost: {
      const auto& p = std::get<core::Post>(event.payload);
      id(p.id);
      text(p.image_file);
      date_time(p.creation_date);
      text(p.location_ip);
      text(p.browser_used);
      text(p.language);
      sanitized(p.content);
      id(p.length);
      id(p.creator);
      id(p.forum);
      id(p.country);
      ids(p.tags);
      return;
    }
    case UpdateKind::kAddComment: {
      const auto& c = std::get<core::Comment>(event.payload);
      id(c.id);
      date_time(c.creation_date);
      text(c.location_ip);
      text(c.browser_used);
      sanitized(c.content);
      id(c.length);
      id(c.creator);
      id(c.country);
      id(c.reply_of_post);     // -1 when replying to a comment
      id(c.reply_of_comment);  // -1 when replying to a post
      ids(c.tags);
      return;
    }
    case UpdateKind::kAddKnows: {
      const auto& k = std::get<core::Knows>(event.payload);
      id(k.person1);
      id(k.person2);
      date_time(k.creation_date);
      return;
    }
    case UpdateKind::kDelPerson:
    case UpdateKind::kDelForum:
    case UpdateKind::kDelPost:
    case UpdateKind::kDelComment:
      id(std::get<Delete>(event.payload).a);
      return;
    case UpdateKind::kDelLikePost:
    case UpdateKind::kDelLikeComment:
    case UpdateKind::kDelMembership:
    case UpdateKind::kDelKnows: {
      const auto& d = std::get<Delete>(event.payload);
      id(d.a);
      id(d.b);
      return;
    }
  }
  SNB_UNREACHABLE();
}

std::string FormatUpdateEventLine(const UpdateEvent& event) {
  std::string line;
  AppendUpdateEventLine(event, &line);
  return line;
}

util::Status WriteUpdateStreams(const std::vector<UpdateEvent>& updates,
                                const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return util::Status::IoError("cannot create directory " + dir);

  std::FILE* person_stream =
      std::fopen((dir + kPersonStreamFile).c_str(), "w");
  if (person_stream == nullptr) {
    return util::Status::IoError("cannot open person update stream");
  }
  std::FILE* forum_stream =
      std::fopen((dir + kForumStreamFile).c_str(), "w");
  if (forum_stream == nullptr) {
    std::fclose(person_stream);
    return util::Status::IoError("cannot open forum update stream");
  }
  // Opened lazily: a delete-free stream set produces exactly the two
  // classic files, byte-identical to the pre-delete dialect.
  std::FILE* delete_stream = nullptr;

  for (const UpdateEvent& e : updates) {
    std::string line = FormatUpdateEventLine(e);
    line.push_back('\n');
    std::FILE* target;
    if (IsDeleteKind(e.kind)) {
      if (delete_stream == nullptr) {
        delete_stream = std::fopen((dir + kDeleteStreamFile).c_str(), "w");
        if (delete_stream == nullptr) {
          std::fclose(person_stream);
          std::fclose(forum_stream);
          return util::Status::IoError("cannot open delete update stream");
        }
      }
      target = delete_stream;
    } else {
      target =
          e.kind == UpdateKind::kAddPerson ? person_stream : forum_stream;
    }
    std::fwrite(line.data(), 1, line.size(), target);
  }

  int rc1 = std::fclose(person_stream);
  int rc2 = std::fclose(forum_stream);
  int rc3 = delete_stream != nullptr ? std::fclose(delete_stream) : 0;
  if (rc1 != 0 || rc2 != 0 || rc3 != 0) {
    return util::Status::IoError("fclose failed for update streams");
  }
  return util::Status::Ok();
}


namespace {

core::Id ParseId(const std::string& s) {
  return std::strtoll(s.c_str(), nullptr, 10);
}

int32_t ParseI32(const std::string& s) {
  return static_cast<int32_t>(std::strtol(s.c_str(), nullptr, 10));
}

std::vector<core::Id> ParseIds(const std::string& field) {
  std::vector<core::Id> out;
  for (const std::string& part : util::SplitMultiValued(field)) {
    out.push_back(ParseId(part));
  }
  return out;
}

util::Status ParseDateTimeOr(const std::string& text, core::DateTime* out) {
  if (!core::ParseDateTime(text, out)) {
    return util::Status::Corruption("bad datetime in update stream: " + text);
  }
  return util::Status::Ok();
}

}  // namespace

util::Status ParseUpdateEventLine(const std::string& line, UpdateEvent* out) {
  std::vector<std::string> f;
  size_t start = 0;
  while (true) {
    size_t pos = line.find('|', start);
    if (pos == std::string::npos) {
      f.push_back(line.substr(start));
      break;
    }
    f.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  if (f.size() < 4) return util::Status::Corruption("short stream line");
  out->timestamp = std::strtoll(f[0].c_str(), nullptr, 10);
  out->dependency = std::strtoll(f[1].c_str(), nullptr, 10);
  int op = ParseI32(f[2]);
  auto field = [&](size_t i) -> const std::string& { return f[3 + i]; };
  switch (op) {
    case 1: {
      if (f.size() != 3 + 14) return util::Status::Corruption("IU1 width");
      core::Person p;
      p.id = ParseId(field(0));
      p.first_name = field(1);
      p.last_name = field(2);
      p.gender = field(3);
      if (!core::ParseDate(field(4), &p.birthday)) {
        return util::Status::Corruption("bad birthday");
      }
      SNB_RETURN_IF_ERROR(ParseDateTimeOr(field(5), &p.creation_date));
      p.location_ip = field(6);
      p.browser_used = field(7);
      p.city = ParseId(field(8));
      p.speaks = util::SplitMultiValued(field(9));
      p.emails = util::SplitMultiValued(field(10));
      p.interests = ParseIds(field(11));
      for (const std::string& pair : util::SplitMultiValued(field(12))) {
        size_t comma = pair.find(',');
        p.study_at.push_back({ParseId(pair.substr(0, comma)),
                              ParseI32(pair.substr(comma + 1))});
      }
      for (const std::string& pair : util::SplitMultiValued(field(13))) {
        size_t comma = pair.find(',');
        p.work_at.push_back({ParseId(pair.substr(0, comma)),
                             ParseI32(pair.substr(comma + 1))});
      }
      out->kind = UpdateKind::kAddPerson;
      out->payload = std::move(p);
      return util::Status::Ok();
    }
    case 2:
    case 3: {
      if (f.size() != 3 + 3) return util::Status::Corruption("IU2/3 width");
      core::Like l;
      l.person = ParseId(field(0));
      l.message = ParseId(field(1));
      l.is_post = op == 2;
      SNB_RETURN_IF_ERROR(ParseDateTimeOr(field(2), &l.creation_date));
      out->kind = op == 2 ? UpdateKind::kAddLikePost
                          : UpdateKind::kAddLikeComment;
      out->payload = l;
      return util::Status::Ok();
    }
    case 4: {
      if (f.size() != 3 + 5) return util::Status::Corruption("IU4 width");
      core::Forum forum;
      forum.id = ParseId(field(0));
      forum.title = field(1);
      SNB_RETURN_IF_ERROR(ParseDateTimeOr(field(2), &forum.creation_date));
      forum.moderator = ParseId(field(3));
      forum.tags = ParseIds(field(4));
      forum.kind = forum.title.rfind("Wall", 0) == 0
                       ? core::ForumKind::kWall
                   : forum.title.rfind("Album", 0) == 0
                       ? core::ForumKind::kAlbum
                       : core::ForumKind::kGroup;
      out->kind = UpdateKind::kAddForum;
      out->payload = std::move(forum);
      return util::Status::Ok();
    }
    case 5: {
      if (f.size() != 3 + 3) return util::Status::Corruption("IU5 width");
      core::ForumMembership m;
      m.person = ParseId(field(0));
      m.forum = ParseId(field(1));
      SNB_RETURN_IF_ERROR(ParseDateTimeOr(field(2), &m.join_date));
      out->kind = UpdateKind::kAddMembership;
      out->payload = m;
      return util::Status::Ok();
    }
    case 6: {
      if (f.size() != 3 + 12) return util::Status::Corruption("IU6 width");
      core::Post p;
      p.id = ParseId(field(0));
      p.image_file = field(1);
      SNB_RETURN_IF_ERROR(ParseDateTimeOr(field(2), &p.creation_date));
      p.location_ip = field(3);
      p.browser_used = field(4);
      p.language = field(5);
      p.content = field(6);
      p.length = ParseI32(field(7));
      p.creator = ParseId(field(8));
      p.forum = ParseId(field(9));
      p.country = ParseId(field(10));
      p.tags = ParseIds(field(11));
      out->kind = UpdateKind::kAddPost;
      out->payload = std::move(p);
      return util::Status::Ok();
    }
    case 7: {
      if (f.size() != 3 + 11) return util::Status::Corruption("IU7 width");
      core::Comment c;
      c.id = ParseId(field(0));
      SNB_RETURN_IF_ERROR(ParseDateTimeOr(field(1), &c.creation_date));
      c.location_ip = field(2);
      c.browser_used = field(3);
      c.content = field(4);
      c.length = ParseI32(field(5));
      c.creator = ParseId(field(6));
      c.country = ParseId(field(7));
      c.reply_of_post = ParseId(field(8));
      c.reply_of_comment = ParseId(field(9));
      c.tags = ParseIds(field(10));
      out->kind = UpdateKind::kAddComment;
      out->payload = std::move(c);
      return util::Status::Ok();
    }
    case 8: {
      if (f.size() != 3 + 3) return util::Status::Corruption("IU8 width");
      core::Knows k;
      k.person1 = ParseId(field(0));
      k.person2 = ParseId(field(1));
      SNB_RETURN_IF_ERROR(ParseDateTimeOr(field(2), &k.creation_date));
      out->kind = UpdateKind::kAddKnows;
      out->payload = k;
      return util::Status::Ok();
    }
    case 9:   // DEL 1 remove person
    case 12:  // DEL 4 remove forum
    case 14:  // DEL 6 remove post
    case 15: {  // DEL 7 remove comment
      if (f.size() != 3 + 1) {
        return util::Status::Corruption("DEL vertex width");
      }
      Delete d;
      d.a = ParseId(field(0));
      out->kind = static_cast<UpdateKind>(op);
      out->payload = d;
      return util::Status::Ok();
    }
    case 10:  // DEL 2 remove like-post
    case 11:  // DEL 3 remove like-comment
    case 13:  // DEL 5 remove membership
    case 16: {  // DEL 8 remove friendship
      if (f.size() != 3 + 2) {
        return util::Status::Corruption("DEL edge width");
      }
      Delete d;
      d.a = ParseId(field(0));
      d.b = ParseId(field(1));
      out->kind = static_cast<UpdateKind>(op);
      out->payload = d;
      return util::Status::Ok();
    }
    default:
      return util::Status::Corruption("unknown opId " + f[2]);
  }
}

namespace {

util::Status ReadStreamFile(const std::string& path,
                            std::vector<UpdateEvent>* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return util::Status::IoError("cannot open " + path);
  }
  std::string buffer;
  char chunk[1 << 16];
  util::Status status = util::Status::Ok();
  while (std::fgets(chunk, sizeof(chunk), f) != nullptr) {
    buffer.append(chunk);
    if (buffer.empty() || buffer.back() != '\n') continue;
    buffer.pop_back();
    UpdateEvent event;
    status = ParseUpdateEventLine(buffer, &event);
    if (!status.ok()) break;
    out->push_back(std::move(event));
    buffer.clear();
  }
  std::fclose(f);
  return status;
}

}  // namespace

util::StatusOr<std::vector<UpdateEvent>> ReadUpdateStreams(
    const std::string& dir) {
  std::vector<UpdateEvent> events;
  SNB_RETURN_IF_ERROR(ReadStreamFile(dir + kPersonStreamFile, &events));
  SNB_RETURN_IF_ERROR(ReadStreamFile(dir + kForumStreamFile, &events));
  // The delete stream is optional: insert-only datasets never write it.
  if (std::filesystem::exists(dir + kDeleteStreamFile)) {
    SNB_RETURN_IF_ERROR(ReadStreamFile(dir + kDeleteStreamFile, &events));
  }
  // Stable merge: in-file order is generation order for equal keys. Kind is
  // the tie-break, so same-timestamp inserts (opIds 1–8) sort before the
  // deletes (9–16) that may reference them.
  std::stable_sort(events.begin(), events.end(),
                   [](const UpdateEvent& a, const UpdateEvent& b) {
                     if (a.timestamp != b.timestamp) {
                       return a.timestamp < b.timestamp;
                     }
                     return static_cast<int>(a.kind) <
                            static_cast<int>(b.kind);
                   });
  return events;
}

}  // namespace snb::datagen
