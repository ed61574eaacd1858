// Regenerates the checked-in seed corpora under fuzz/corpus/.
//
// Seeds are *valid* (or near-valid) inputs: the mutation engines — libFuzzer
// or the deterministic smoke driver — explore outward from them, which
// reaches the deep parser states (committed batches, multi-valued fields,
// every IU opcode) far faster than from an empty seed. The WAL seeds are
// produced by the real Wal writer so they track the format; rerun this tool
// after a format change and commit the new files:
//
//   build-fuzz/fuzz/make_seed_corpus fuzz/corpus

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/date_time.h"
#include "core/schema.h"
#include "datagen/datagen.h"
#include "datagen/update_stream.h"
#include "fuzz_graph.h"
#include "storage/columnar/column_block.h"
#include "storage/wal.h"
#include "util/check.h"

namespace {

using snb::datagen::UpdateEvent;
using snb::datagen::UpdateKind;

snb::core::DateTime Dt(const std::string& text) {
  snb::core::DateTime out = 0;
  SNB_CHECK(snb::core::ParseDateTime(text, &out));
  return out;
}

UpdateEvent Event(UpdateKind kind, auto payload) {
  UpdateEvent e;
  e.kind = kind;
  e.timestamp = Dt("2012-06-01T10:00:00.000+0000");
  e.dependency = Dt("2012-05-30T09:00:00.000+0000");
  e.payload = std::move(payload);
  return e;
}

/// One sample event per IU opcode, every optional field populated.
std::vector<UpdateEvent> SampleEvents() {
  std::vector<UpdateEvent> events;

  snb::core::Person p;
  p.id = 1234;
  p.first_name = "Jan";
  p.last_name = "Zak";
  p.gender = "female";
  SNB_CHECK(snb::core::ParseDate("1989-02-28", &p.birthday));
  p.creation_date = Dt("2012-05-31T11:22:33.444+0000");
  p.location_ip = "31.41.59.26";
  p.browser_used = "Firefox";
  p.city = 655;
  p.emails = {"jan@example.org", "jz@example.org"};
  p.speaks = {"pl", "en"};
  p.interests = {10, 20, 30};
  p.study_at = {{2040, 2008}};
  p.work_at = {{910, 2011}, {911, 2013}};
  events.push_back(Event(UpdateKind::kAddPerson, p));

  snb::core::Like like_post;
  like_post.person = 1234;
  like_post.message = 777000;
  like_post.is_post = true;
  like_post.creation_date = Dt("2012-06-01T10:00:01.000+0000");
  events.push_back(Event(UpdateKind::kAddLikePost, like_post));

  snb::core::Like like_comment = like_post;
  like_comment.message = 777001;
  like_comment.is_post = false;
  events.push_back(Event(UpdateKind::kAddLikeComment, like_comment));

  snb::core::Forum forum;
  forum.id = 8800;
  forum.title = "Wall of Jan Zak";
  forum.creation_date = Dt("2012-05-31T11:22:34.000+0000");
  forum.moderator = 1234;
  forum.tags = {10, 20};
  forum.kind = snb::core::ForumKind::kWall;
  events.push_back(Event(UpdateKind::kAddForum, forum));

  snb::core::ForumMembership membership;
  membership.person = 1234;
  membership.forum = 8800;
  membership.join_date = Dt("2012-06-01T09:59:59.999+0000");
  events.push_back(Event(UpdateKind::kAddMembership, membership));

  snb::core::Post post;
  post.id = 777002;
  post.image_file = "";  // content post: exactly one of the two is set
  post.creation_date = Dt("2012-06-01T10:00:02.000+0000");
  post.location_ip = "31.41.59.26";
  post.browser_used = "Firefox";
  post.language = "en";
  post.content = "About Heinrich Boll; the river.";
  post.length = 31;
  post.creator = 1234;
  post.forum = 8800;
  post.country = 55;
  post.tags = {10};
  events.push_back(Event(UpdateKind::kAddPost, post));

  snb::core::Comment comment;
  comment.id = 777003;
  comment.creation_date = Dt("2012-06-01T10:00:03.000+0000");
  comment.location_ip = "31.41.59.27";
  comment.browser_used = "Chrome";
  comment.content = "maybe";
  comment.length = 5;
  comment.creator = 1234;
  comment.country = 55;
  comment.reply_of_post = 777002;
  comment.reply_of_comment = snb::core::kNoId;
  comment.tags = {};
  events.push_back(Event(UpdateKind::kAddComment, comment));

  snb::core::Knows knows;
  knows.person1 = 1234;
  knows.person2 = 5678;
  knows.creation_date = Dt("2012-06-01T10:00:04.000+0000");
  events.push_back(Event(UpdateKind::kAddKnows, knows));

  return events;
}

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  SNB_CHECK(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  SNB_CHECK(out.good());
  std::printf("  wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SNB_CHECK(in.good());
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// One sample event per DEL opcode (deep deletes, Interactive v2 dialect).
std::vector<UpdateEvent> DeleteEvents() {
  std::vector<UpdateEvent> events;
  auto del = [&](UpdateKind kind, snb::core::Id a, snb::core::Id b) {
    snb::datagen::Delete d;
    d.a = a;
    d.b = b;
    events.push_back(Event(kind, d));
  };
  del(UpdateKind::kDelPerson, 1234, 0);
  del(UpdateKind::kDelLikePost, 1234, 777000);
  del(UpdateKind::kDelLikeComment, 1234, 777001);
  del(UpdateKind::kDelForum, 8800, 0);
  del(UpdateKind::kDelMembership, 1234, 8800);
  del(UpdateKind::kDelPost, 777002, 0);
  del(UpdateKind::kDelComment, 777003, 0);
  del(UpdateKind::kDelKnows, 1234, 5678);
  return events;
}

/// Events whose references all resolve in fuzz_update_event's fixed graph
/// (fuzz_graph.h), so the harness reaches the mutators' live paths: rows
/// and edges that land, replies to a post and to a comment, and cascades.
std::vector<UpdateEvent> LiveEvents() {
  namespace fz = snb::fuzz;
  std::vector<UpdateEvent> events;
  const snb::core::DateTime at = Dt("2012-06-01T10:00:05.000+0000");

  snb::core::Person p;
  p.id = 1235;
  p.gender = "male";
  p.creation_date = at;
  p.city = fz::kCity;
  p.interests = {fz::kTagB, fz::kTagC};
  events.push_back(Event(UpdateKind::kAddPerson, p));

  snb::core::Forum forum;
  forum.id = 8801;
  forum.title = "Group for b";
  forum.creation_date = at;
  forum.moderator = fz::kMember;
  forum.tags = {fz::kTagB};
  forum.kind = snb::core::ForumKind::kGroup;
  events.push_back(Event(UpdateKind::kAddForum, forum));

  snb::core::Post post;
  post.id = 777010;
  post.image_file = "photo777010.jpg";
  post.creation_date = at;
  post.location_ip = "31.41.59.28";
  post.browser_used = "Safari";
  post.creator = fz::kMember;
  post.forum = fz::kForum;
  post.country = fz::kCountry;
  post.tags = {fz::kTagC};
  events.push_back(Event(UpdateKind::kAddPost, post));

  snb::core::Comment comment;
  comment.id = 777011;
  comment.creation_date = at;
  comment.location_ip = "31.41.59.29";
  comment.browser_used = "Opera";
  comment.content = "ok";
  comment.length = 2;
  comment.creator = fz::kFriend;
  comment.country = fz::kCountry;
  comment.reply_of_post = fz::kPost;
  comment.tags = {fz::kTagA};
  events.push_back(Event(UpdateKind::kAddComment, comment));
  comment.id = 777012;
  comment.reply_of_post = snb::core::kNoId;
  comment.reply_of_comment = fz::kComment;
  events.push_back(Event(UpdateKind::kAddComment, comment));

  auto del = [&](UpdateKind kind, snb::core::Id a, snb::core::Id b) {
    snb::datagen::Delete d;
    d.a = a;
    d.b = b;
    events.push_back(Event(kind, d));
  };
  del(UpdateKind::kDelLikePost, fz::kMember, fz::kPost);
  del(UpdateKind::kDelLikeComment, fz::kFriend, fz::kComment);
  del(UpdateKind::kDelMembership, fz::kMember, fz::kForum);
  del(UpdateKind::kDelPost, fz::kPost, 0);
  del(UpdateKind::kDelComment, fz::kComment, 0);
  del(UpdateKind::kDelKnows, fz::kMember, fz::kFriend);
  del(UpdateKind::kDelPerson, fz::kMember, 0);
  return events;
}

void WriteUpdateEventCorpus(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const std::vector<UpdateEvent> events = SampleEvents();
  for (size_t i = 0; i < events.size(); ++i) {
    WriteFile(dir / ("iu" + std::to_string(i + 1) + ".txt"),
              snb::datagen::FormatUpdateEventLine(events[i]));
  }
  const std::vector<UpdateEvent> deletes = DeleteEvents();
  for (size_t i = 0; i < deletes.size(); ++i) {
    WriteFile(dir / ("del" + std::to_string(i + 1) + ".txt"),
              snb::datagen::FormatUpdateEventLine(deletes[i]));
  }
  const std::vector<UpdateEvent> live = LiveEvents();
  for (size_t i = 0; i < live.size(); ++i) {
    WriteFile(dir / ("live" + std::to_string(i + 1) + ".txt"),
              snb::datagen::FormatUpdateEventLine(live[i]));
  }
  WriteFile(dir / "short.txt", "123|456");
  WriteFile(dir / "unknown_op.txt", "123|456|99|x|y");
  // Malformed cascade lines: the parser must reject, never crash.
  WriteFile(dir / "del_missing_field.txt", "123|456|9");
  WriteFile(dir / "del_extra_field.txt", "123|456|10|1|2|3");
  WriteFile(dir / "del_bad_id.txt", "123|456|12|abc");
}

void WriteCsvCorpus(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  WriteFile(dir / "basic.csv", "id|name|value\n1|alpha|10\n2|beta|20\n");
  WriteFile(dir / "multivalued.csv",
            "id|emails|speaks\n7|a@x;b@y|en;de;pl\n8||\n");
  WriteFile(dir / "crlf_no_trailing_newline.csv",
            "id|name\r\n1|carriage\r\n2|return");
  WriteFile(dir / "width_mismatch.csv", "a|b|c\n1|2\n");
  WriteFile(dir / "header_only.csv", "lonely|header\n");
}

void WriteWalCorpus(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  // Build a real two-batch log with the production writer, then strip the
  // 8-byte magic (the harness re-adds it).
  const std::string tmp = (dir / ".scratch.wal").string();
  {
    snb::storage::Wal wal;
    SNB_CHECK(wal.Open(tmp, {snb::storage::WalSyncPolicy::kNone}).ok());
    const std::vector<UpdateEvent> events = SampleEvents();
    snb::core::Date day = 15000;
    size_t half = events.size() / 2;
    SNB_CHECK(wal.BatchBegin(day).ok());
    for (size_t i = 0; i < half; ++i) {
      SNB_CHECK(wal.Append(events[i]).ok());
    }
    SNB_CHECK(wal.BatchCommit(day).ok());
    const std::vector<UpdateEvent> deletes = DeleteEvents();
    SNB_CHECK(wal.BatchBegin(day + 1).ok());
    SNB_CHECK(wal.NoteDeleteBatch(
                     day + 1, static_cast<uint32_t>(deletes.size()))
                  .ok());
    for (const UpdateEvent& event : deletes) {
      SNB_CHECK(wal.Append(event).ok());
    }
    for (size_t i = half; i < events.size(); ++i) {
      SNB_CHECK(wal.Append(events[i]).ok());
    }
    SNB_CHECK(wal.BatchCommit(day + 1).ok());
    SNB_CHECK(wal.Close().ok());
  }
  std::string bytes = ReadFile(tmp);
  std::filesystem::remove(tmp);
  SNB_CHECK_GE(bytes.size(), 8u);
  const std::string records = bytes.substr(8);

  WriteFile(dir / "two_batches.bin", records);
  WriteFile(dir / "torn_tail.bin",
            records.substr(0, records.size() - records.size() / 3));
  std::string bad_crc = records;
  bad_crc[bad_crc.size() / 2] ^= 0x5a;
  WriteFile(dir / "bad_crc.bin", bad_crc);
  WriteFile(dir / "empty.bin", "");
}

void WriteColumnBlockCorpus(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  using snb::storage::columnar::ColumnBlock;

  // Valid blocks from both encoders, spanning the width extremes the
  // decoder's strictness re-derives (0-bit constant runs up to wide FOR).
  std::vector<uint64_t> dates;
  for (uint64_t i = 0; i < 300; ++i) {
    dates.push_back(1'300'000'000'000 + i * 61'000);
  }
  std::string delta_sorted;
  ColumnBlock::EncodeDelta(dates).SerializeTo(&delta_sorted);
  WriteFile(dir / "delta_sorted.bin", delta_sorted);

  std::vector<uint64_t> refs = {9, 2, 7, 2, 40, 11, 3, 3, 0, 25};
  std::string for_small;
  ColumnBlock::EncodeFor(refs).SerializeTo(&for_small);
  WriteFile(dir / "for_small.bin", for_small);

  std::vector<uint64_t> constant(64, 0xfeedface);
  std::string for_constant;
  ColumnBlock::EncodeFor(constant).SerializeTo(&for_constant);
  WriteFile(dir / "for_constant_zero_bits.bin", for_constant);

  std::vector<uint64_t> wide = {0, UINT64_MAX, 1, UINT64_MAX / 3};
  std::string for_wide;
  ColumnBlock::EncodeFor(wide).SerializeTo(&for_wide);
  WriteFile(dir / "for_wide.bin", for_wide);

  // Near-valid mutants: a truncated payload and a corrupted zone byte, the
  // two damage classes the strict decoder must reject (not crash on).
  WriteFile(dir / "truncated.bin",
            delta_sorted.substr(0, delta_sorted.size() / 2));
  std::string bad = for_small;
  bad[bad.size() / 2] ^= 0x5a;
  WriteFile(dir / "flipped_byte.bin", bad);
  WriteFile(dir / "empty.bin", "");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root-dir>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root = argv[1];
  WriteUpdateEventCorpus(root / "update_event");
  WriteCsvCorpus(root / "csv");
  WriteWalCorpus(root / "wal");
  WriteColumnBlockCorpus(root / "column_block");
  std::printf("seed corpora written under %s\n", root.c_str());
  return 0;
}
