// Recovery simulation (spec §6.3): checkpoint a mutated graph to disk as
// its binary image, "crash", decode it, and verify the last committed
// update is present and query results are unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>

#include "bi/bi.h"
#include "datagen/datagen.h"
#include "interactive/interactive.h"
#include "interactive/updates.h"
#include "params/parameter_curation.h"
#include "storage/checkpoint_image.h"
#include "storage/consistency.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "validate/validator.h"

namespace snb::storage {
namespace {

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Every field of every post and comment, in row order; tags as sorted sets
// (export emits them in adjacency order).
void ExpectSameMessages(const core::SocialNetwork& want,
                        const core::SocialNetwork& got) {
  ASSERT_EQ(got.posts.size(), want.posts.size());
  for (size_t i = 0; i < want.posts.size(); ++i) {
    const core::Post& w = want.posts[i];
    const core::Post& g = got.posts[i];
    SCOPED_TRACE(testing::Message() << "post row " << i << " id " << w.id);
    EXPECT_EQ(g.id, w.id);
    EXPECT_EQ(g.image_file, w.image_file);
    EXPECT_EQ(g.creation_date, w.creation_date);
    EXPECT_EQ(g.location_ip, w.location_ip);
    EXPECT_EQ(g.browser_used, w.browser_used);
    EXPECT_EQ(g.language, w.language);
    EXPECT_EQ(g.content, w.content);
    EXPECT_EQ(g.length, w.length);
    EXPECT_EQ(g.creator, w.creator);
    EXPECT_EQ(g.forum, w.forum);
    EXPECT_EQ(g.country, w.country);
    EXPECT_EQ(Sorted(g.tags), Sorted(w.tags));
  }
  ASSERT_EQ(got.comments.size(), want.comments.size());
  for (size_t i = 0; i < want.comments.size(); ++i) {
    const core::Comment& w = want.comments[i];
    const core::Comment& g = got.comments[i];
    SCOPED_TRACE(testing::Message() << "comment row " << i << " id " << w.id);
    EXPECT_EQ(g.id, w.id);
    EXPECT_EQ(g.creation_date, w.creation_date);
    EXPECT_EQ(g.location_ip, w.location_ip);
    EXPECT_EQ(g.browser_used, w.browser_used);
    EXPECT_EQ(g.content, w.content);
    EXPECT_EQ(g.length, w.length);
    EXPECT_EQ(g.creator, w.creator);
    EXPECT_EQ(g.country, w.country);
    EXPECT_EQ(g.reply_of_post, w.reply_of_post);
    EXPECT_EQ(g.reply_of_comment, w.reply_of_comment);
    EXPECT_EQ(Sorted(g.tags), Sorted(w.tags));
  }
}

// Every field of every person and forum, in row order: interests and forum
// tags as sets, the other lists in stored order (IC 1 returns emails and
// languages as stored), gender and browser as strings.
void ExpectSamePersonsAndForums(const core::SocialNetwork& want,
                                const core::SocialNetwork& got) {
  ASSERT_EQ(got.persons.size(), want.persons.size());
  for (size_t i = 0; i < want.persons.size(); ++i) {
    const core::Person& w = want.persons[i];
    const core::Person& g = got.persons[i];
    SCOPED_TRACE(testing::Message() << "person row " << i << " id " << w.id);
    EXPECT_EQ(g.id, w.id);
    EXPECT_EQ(g.first_name, w.first_name);
    EXPECT_EQ(g.last_name, w.last_name);
    EXPECT_EQ(g.gender, w.gender);
    EXPECT_EQ(g.birthday, w.birthday);
    EXPECT_EQ(g.creation_date, w.creation_date);
    EXPECT_EQ(g.location_ip, w.location_ip);
    EXPECT_EQ(g.browser_used, w.browser_used);
    EXPECT_EQ(g.city, w.city);
    EXPECT_EQ(g.emails, w.emails);
    EXPECT_EQ(g.speaks, w.speaks);
    EXPECT_EQ(Sorted(g.interests), Sorted(w.interests));
    ASSERT_EQ(g.study_at.size(), w.study_at.size());
    for (size_t j = 0; j < w.study_at.size(); ++j) {
      EXPECT_EQ(g.study_at[j].university, w.study_at[j].university);
      EXPECT_EQ(g.study_at[j].class_year, w.study_at[j].class_year);
    }
    ASSERT_EQ(g.work_at.size(), w.work_at.size());
    for (size_t j = 0; j < w.work_at.size(); ++j) {
      EXPECT_EQ(g.work_at[j].company, w.work_at[j].company);
      EXPECT_EQ(g.work_at[j].work_from, w.work_at[j].work_from);
    }
  }
  ASSERT_EQ(got.forums.size(), want.forums.size());
  for (size_t i = 0; i < want.forums.size(); ++i) {
    const core::Forum& w = want.forums[i];
    const core::Forum& g = got.forums[i];
    SCOPED_TRACE(testing::Message() << "forum row " << i << " id " << w.id);
    EXPECT_EQ(g.id, w.id);
    EXPECT_EQ(g.title, w.title);
    EXPECT_EQ(g.creation_date, w.creation_date);
    EXPECT_EQ(g.moderator, w.moderator);
    EXPECT_EQ(Sorted(g.tags), Sorted(w.tags));
    EXPECT_EQ(g.kind, w.kind);
  }
}

TEST(ExportTest, RoundTripPreservesEverything) {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 220;
  cfg.activity_scale = 0.4;
  datagen::GeneratedData data = datagen::Generate(cfg);
  core::SocialNetwork original = data.network;  // keep a copy
  Graph graph(std::move(data.network));

  core::SocialNetwork exported = ExportNetwork(graph);
  EXPECT_EQ(exported.persons.size(), original.persons.size());
  EXPECT_EQ(exported.knows.size(), original.knows.size());
  EXPECT_EQ(exported.likes.size(), original.likes.size());
  EXPECT_EQ(exported.memberships.size(), original.memberships.size());
  EXPECT_EQ(exported.NumEdges(), original.NumEdges());
  ExpectSameMessages(original, exported);
  ExpectSamePersonsAndForums(original, exported);

  // The re-built graph passes every representation invariant and answers
  // queries identically.
  Graph rebuilt(std::move(exported));
  validate::ValidationReport vr = validate::ValidateGraph(rebuilt);
  EXPECT_TRUE(vr.ok()) << vr.ToString();
  bi::Bi1Params probe{core::DateFromCivil(2013, 1, 1)};
  EXPECT_EQ(bi::RunBi1(rebuilt, probe), bi::RunBi1(graph, probe));

  // Appended rows (IU 1/4/6/7) export field by field too. The stream's
  // edge inserts go in as well.
  size_t inserted_vertices = 0, inserted_messages = 0;
  for (const datagen::UpdateEvent& e : data.updates) {
    if (datagen::IsDeleteKind(e.kind)) continue;
    ASSERT_TRUE(interactive::ApplyUpdate(graph, e).ok());
    if (e.kind == datagen::UpdateKind::kAddPerson) {
      original.persons.push_back(std::get<core::Person>(e.payload));
      ++inserted_vertices;
    } else if (e.kind == datagen::UpdateKind::kAddForum) {
      original.forums.push_back(std::get<core::Forum>(e.payload));
      ++inserted_vertices;
    } else if (e.kind == datagen::UpdateKind::kAddPost) {
      original.posts.push_back(std::get<core::Post>(e.payload));
      ++inserted_messages;
    } else if (e.kind == datagen::UpdateKind::kAddComment) {
      original.comments.push_back(std::get<core::Comment>(e.payload));
      ++inserted_messages;
    }
  }
  ASSERT_GT(inserted_vertices, 0u);
  ASSERT_GT(inserted_messages, 0u);
  const core::SocialNetwork updated = ExportNetwork(graph);
  ExpectSameMessages(original, updated);
  ExpectSamePersonsAndForums(original, updated);
}

TEST(RecoveryTest, CheckpointAfterUpdatesSurvivesCrash) {
  datagen::DatagenConfig cfg;
  cfg.num_persons = 220;
  cfg.activity_scale = 0.4;
  datagen::GeneratedData data = datagen::Generate(cfg);
  Graph live(std::move(data.network));

  // Apply the first half of the update stream ("measured run"), remember
  // the last committed operation.
  size_t half = data.updates.size() / 2;
  ASSERT_GT(half, 10u);
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(interactive::ApplyUpdate(live, data.updates[i]).ok());
  }
  const datagen::UpdateEvent& last = data.updates[half - 1];

  // Checkpoint (§6.3: at most every 10 minutes; here: on demand): the
  // graph's image, compacted since it holds updates.
  std::string image = ::testing::TempDir() + "/snb_recovery_checkpoint.img";
  ASSERT_TRUE(WriteGraphImage(live, image).ok());

  // "Power failure" — the live graph is gone; recover from the checkpoint.
  std::unique_ptr<Graph> decoded;
  util::Status decode = DecodeGraphImage(image, &decoded);
  ASSERT_TRUE(decode.ok()) << decode.ToString();
  std::filesystem::remove(image);
  Graph& recovered = *decoded;
  {
    validate::ValidationReport vr = validate::ValidateGraph(recovered);
    EXPECT_TRUE(vr.ok()) << vr.ToString();
  }

  // The last committed update is in the recovered database (§6.3's check).
  switch (last.kind) {
    case datagen::UpdateKind::kAddPerson:
      EXPECT_NE(recovered.PersonIdx(
                    std::get<core::Person>(last.payload).id),
                kNoIdx);
      break;
    case datagen::UpdateKind::kAddPost:
      EXPECT_NE(recovered.PostIdx(std::get<core::Post>(last.payload).id),
                kNoIdx);
      break;
    case datagen::UpdateKind::kAddComment:
      EXPECT_NE(
          recovered.CommentIdx(std::get<core::Comment>(last.payload).id),
          kNoIdx);
      break;
    case datagen::UpdateKind::kAddForum:
      EXPECT_NE(recovered.ForumIdx(std::get<core::Forum>(last.payload).id),
                kNoIdx);
      break;
    case datagen::UpdateKind::kAddKnows: {
      const core::Knows& k = std::get<core::Knows>(last.payload);
      uint32_t a = recovered.PersonIdx(k.person1);
      uint32_t b = recovered.PersonIdx(k.person2);
      ASSERT_TRUE(a != kNoIdx && b != kNoIdx);
      EXPECT_TRUE(recovered.Knows().Contains(a, b));
      break;
    }
    case datagen::UpdateKind::kAddLikePost:
    case datagen::UpdateKind::kAddLikeComment: {
      const core::Like& l = std::get<core::Like>(last.payload);
      uint32_t person = recovered.PersonIdx(l.person);
      ASSERT_NE(person, kNoIdx);
      bool found = false;
      recovered.PersonLikes().ForEachDated(
          person, [&](uint32_t msg, core::DateTime) {
            if (recovered.MessageId(msg) == l.message &&
                Graph::IsPost(msg) == l.is_post) {
              found = true;
            }
          });
      EXPECT_TRUE(found);
      break;
    }
    case datagen::UpdateKind::kAddMembership: {
      const core::ForumMembership& m =
          std::get<core::ForumMembership>(last.payload);
      uint32_t forum = recovered.ForumIdx(m.forum);
      uint32_t person = recovered.PersonIdx(m.person);
      ASSERT_TRUE(forum != kNoIdx && person != kNoIdx);
      EXPECT_TRUE(recovered.ForumMembers().Contains(forum, person));
      break;
    }
    case datagen::UpdateKind::kDelPerson:
    case datagen::UpdateKind::kDelLikePost:
    case datagen::UpdateKind::kDelLikeComment:
    case datagen::UpdateKind::kDelForum:
    case datagen::UpdateKind::kDelMembership:
    case datagen::UpdateKind::kDelPost:
    case datagen::UpdateKind::kDelComment:
    case datagen::UpdateKind::kDelKnows:
      FAIL() << "generator updates are insert-only";
      break;
  }

  // Resume the workload on the recovered graph; results must match the
  // never-crashed path.
  for (size_t i = half; i < data.updates.size(); ++i) {
    ASSERT_TRUE(interactive::ApplyUpdate(live, data.updates[i]).ok());
    ASSERT_TRUE(interactive::ApplyUpdate(recovered, data.updates[i]).ok());
  }
  {
    // Update replay on a recovered store must also preserve the invariants.
    validate::ValidationReport vr = validate::ValidateGraph(recovered);
    EXPECT_TRUE(vr.ok()) << vr.ToString();
  }
  bi::Bi1Params probe{core::DateFromCivil(2013, 6, 1)};
  EXPECT_EQ(bi::RunBi1(recovered, probe), bi::RunBi1(live, probe));
  bi::Bi12Params trending{core::DateFromCivil(2010, 1, 1), 1};
  EXPECT_EQ(bi::RunBi12(recovered, trending), bi::RunBi12(live, trending));
  interactive::Ic13Params path{live.PersonId(0), live.PersonId(50)};
  EXPECT_EQ(interactive::RunIc13(recovered, path),
            interactive::RunIc13(live, path));
}

}  // namespace
}  // namespace snb::storage
