// Interactive session: simulates one user's session against the store —
// profile loads, feed reads, friend lookups, a new post, a like — the
// user-centric scenario the Interactive workload models (spec §4).
//
//   ./interactive_session [num_persons]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "datagen/datagen.h"
#include "interactive/interactive.h"
#include "storage/graph.h"

int main(int argc, char** argv) {
  using namespace snb;  // NOLINT

  datagen::DatagenConfig config;
  config.num_persons = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 800;
  datagen::GeneratedData data = datagen::Generate(config);
  storage::Graph graph(std::move(data.network));

  // Log in as the best-connected person.
  uint32_t me_idx = 0;
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (graph.Knows().Degree(p) > graph.Knows().Degree(me_idx)) me_idx = p;
  }
  core::Id me = graph.PersonId(me_idx);

  auto profile = interactive::RunIs1(graph, me);
  std::printf("Logged in as %s %s (person %lld, %zu friends)\n",
              profile[0].first_name.c_str(), profile[0].last_name.c_str(),
              static_cast<long long>(me), graph.Knows().Degree(me_idx));

  std::printf("\n-- Friend list (IS 3, newest friendships first) --\n");
  auto friends = interactive::RunIs3(graph, me);
  for (size_t i = 0; i < friends.size() && i < 5; ++i) {
    std::printf("  %s %s (since %s)\n", friends[i].first_name.c_str(),
                friends[i].last_name.c_str(),
                core::FormatDateTime(friends[i].friendship_creation_date)
                    .c_str());
  }

  std::printf("\n-- News feed (IC 2: recent messages by friends) --\n");
  auto feed = interactive::RunIc2(graph, {me, core::DateFromCivil(2013, 1, 1)});
  for (size_t i = 0; i < feed.size() && i < 5; ++i) {
    std::printf("  [%s] %s %s: %.60s\n",
                core::FormatDateTime(feed[i].creation_date).c_str(),
                feed[i].first_name.c_str(), feed[i].last_name.c_str(),
                feed[i].content.c_str());
  }

  std::printf("\n-- Who liked my content? (IC 7: recent likers) --\n");
  for (const auto& liker : interactive::RunIc7(graph, {me})) {
    std::printf("  %s %s liked message %lld after %d minutes%s\n",
                liker.first_name.c_str(), liker.last_name.c_str(),
                static_cast<long long>(liker.message_id),
                liker.minutes_latency, liker.is_new ? "  [not a friend!]" : "");
    break;  // top one is enough for the demo
  }

  std::printf("\n-- Friend recommendations (IC 10) --\n");
  auto recs = interactive::RunIc10(graph, {me, 6});
  for (size_t i = 0; i < recs.size() && i < 3; ++i) {
    std::printf("  %s %s from %s (interest score %lld)\n",
                recs[i].first_name.c_str(), recs[i].last_name.c_str(),
                recs[i].city_name.c_str(),
                static_cast<long long>(recs[i].common_interest_score));
  }

  // Write path: post to my wall, then a friend likes it (IU 6 + IU 2).
  std::printf("\n-- Posting an update (IU 6) --\n");
  uint32_t wall = storage::kNoIdx;
  graph.PersonModerates().ForEach(me_idx, [&](uint32_t forum) {
    if (graph.ForumKind(forum) == core::ForumKind::kWall) wall = forum;
  });
  core::Post post;
  post.id = static_cast<core::Id>(graph.NumPosts()) + 1000000;
  post.creation_date = core::DateTimeFromCivil(2012, 12, 30, 12, 0, 0);
  post.creator = me;
  post.forum = graph.ForumId(wall);
  post.country = graph.PlaceAt(graph.PersonCountry(me_idx)).id;
  post.language = "en";
  post.content = "Trying out the new analytics dashboard!";
  post.length = static_cast<int32_t>(post.content.size());
  post.browser_used = profile[0].browser_used;
  post.location_ip = profile[0].location_ip;
  graph.AddPost(post);
  std::printf("  posted message %lld to \"%s\"\n",
              static_cast<long long>(post.id),
              std::string(graph.ForumTitle(wall)).c_str());

  if (!friends.empty()) {
    graph.AddLikePost(friends[0].person_id, post.id,
                      post.creation_date + core::kMillisPerHour);
    std::printf("  %s liked it an hour later (IU 2)\n",
                friends[0].first_name.c_str());
  }

  auto replies = interactive::RunIs7(graph, post.id, /*is_post=*/true);
  auto likers_check = interactive::RunIc7(graph, {me});
  std::printf("  post now visible through IS 7 (%zu replies) and IC 7 "
              "(top liker: %s)\n",
              replies.size(),
              likers_check.empty() ? "-"
                                   : likers_check[0].first_name.c_str());
  std::printf("\nSession complete.\n");
  return 0;
}
