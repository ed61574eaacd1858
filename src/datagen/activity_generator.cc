#include "datagen/activity_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "util/rng.h"

namespace snb::datagen {

namespace {

constexpr uint64_t kStreamForums = 501;
constexpr uint64_t kStreamPosts = 502;
constexpr uint64_t kStreamThreads = 503;

/// Message length sampler matching the BI 1 length categories:
/// short [0,40), one-liner [40,80), tweet [80,160), long [160, 2000].
int32_t SampleContentLength(util::Rng& rng) {
  double u = rng.NextDouble();
  if (u < 0.35) return static_cast<int32_t>(rng.UniformInt(10, 39));
  if (u < 0.65) return static_cast<int32_t>(rng.UniformInt(40, 79));
  if (u < 0.90) return static_cast<int32_t>(rng.UniformInt(80, 159));
  // Long messages: mostly moderate, rare essays up to the 2000-char cap.
  if (rng.Bernoulli(0.9)) {
    return static_cast<int32_t>(rng.UniformInt(160, 500));
  }
  return static_cast<int32_t>(rng.UniformInt(500, 2000));
}

/// Samples a message country: usually home, occasionally travelling.
core::Id MessageCountry(util::Rng& rng, const Dictionaries& dicts,
                        size_t home_country) {
  size_t c = home_country;
  if (rng.Bernoulli(0.1)) c = dicts.SampleCountry(rng);
  return dicts.places()[dicts.CountryPlace(c)].id;
}

/// Forum-phase output: everything the message stream needs to decide where
/// a person may post and who participates in a thread.
struct ForumPhase {
  std::vector<core::Forum> forums;
  std::vector<core::ForumMembership> memberships;
  /// Per forum: members and their join dates (moderator not included; the
  /// spec allows moderator posts regardless).
  std::vector<std::vector<std::pair<uint32_t, core::DateTime>>> members;
  /// Per person: forums they may post into, with the earliest post time.
  std::vector<std::vector<std::pair<uint32_t, core::DateTime>>> postable;
  /// Per person: their image albums (forum indices).
  std::vector<std::vector<uint32_t>> albums_of;
};

/// Phase A: forums + memberships.
ForumPhase GenerateForums(const DatagenConfig& config,
                          const Dictionaries& dicts,
                          const std::vector<PersonDraft>& drafts) {
  ForumPhase out;
  const size_t n = drafts.size();
  const core::DateTime sim_end = config.SimulationEnd();
  const double mean_degree =
      std::max(1.0, MeanDegreeForNetworkSize(config.num_persons));

  // Tag → interested persons index, used to fill interest groups.
  std::vector<std::vector<uint32_t>> interested(dicts.tags().size());
  for (size_t p = 0; p < n; ++p) {
    for (core::Id tag : drafts[p].record.interests) {
      interested[static_cast<size_t>(tag)].push_back(
          static_cast<uint32_t>(p));
    }
  }

  out.postable.resize(n);
  out.albums_of.resize(n);

  auto add_member = [&](uint32_t forum, uint32_t person,
                        core::DateTime join) {
    out.memberships.push_back(
        {static_cast<core::Id>(forum), static_cast<core::Id>(person), join});
    out.members[forum].emplace_back(person, join);
    out.postable[person].emplace_back(forum, join);
  };

  for (size_t p = 0; p < n; ++p) {
    util::Rng rng(config.seed, kStreamForums, p);
    const PersonDraft& d = drafts[p];
    const core::Person& person = d.record;

    // Personal wall.
    {
      core::Forum wall;
      wall.id = static_cast<core::Id>(out.forums.size());
      wall.title = "Wall of " + person.first_name + " " + person.last_name;
      wall.creation_date =
          person.creation_date + rng.UniformInt(0, core::kMillisPerHour);
      wall.moderator = static_cast<core::Id>(p);
      wall.kind = core::ForumKind::kWall;
      size_t num_tags =
          std::min<size_t>(person.interests.size(),
                           static_cast<size_t>(rng.UniformInt(1, 2)));
      for (size_t t = 0; t < num_tags; ++t) {
        wall.tags.push_back(person.interests[t]);
      }
      uint32_t wall_idx = static_cast<uint32_t>(out.forums.size());
      out.forums.push_back(std::move(wall));
      out.members.emplace_back();
      // The owner can always post (as moderator).
      out.postable[p].emplace_back(wall_idx,
                                   out.forums[wall_idx].creation_date);
      // Friends join the wall when the friendship forms.
      for (size_t f = 0; f < d.friends.size(); ++f) {
        core::DateTime join = std::max(d.friend_dates[f],
                                       out.forums[wall_idx].creation_date);
        add_member(wall_idx, d.friends[f], join);
      }
    }

    // Image albums (0–3).
    int num_albums = static_cast<int>(rng.UniformInt(0, 3));
    for (int a = 0; a < num_albums; ++a) {
      core::Forum album;
      album.id = static_cast<core::Id>(out.forums.size());
      album.title = "Album " + std::to_string(a + 1) + " of " +
                    person.first_name + " " + person.last_name;
      core::DateTime lower = person.creation_date;
      album.creation_date = lower + rng.UniformInt(0, sim_end - 1 - lower);
      album.moderator = static_cast<core::Id>(p);
      album.kind = core::ForumKind::kAlbum;
      album.tags.push_back(
          person.interests[static_cast<size_t>(rng.UniformInt(
              0, static_cast<int64_t>(person.interests.size()) - 1))]);
      uint32_t album_idx = static_cast<uint32_t>(out.forums.size());
      out.forums.push_back(std::move(album));
      out.members.emplace_back();
      out.albums_of[p].push_back(album_idx);
    }

    // Interest groups: activity scales with connectivity.
    double group_prob =
        std::min(0.9, 0.05 + 0.15 * static_cast<double>(d.friends.size()) /
                                 mean_degree);
    if (rng.Bernoulli(group_prob)) {
      size_t topic = d.main_interest;
      if (rng.Bernoulli(0.4)) {
        auto extra = dicts.SampleCorrelatedTags(rng, topic, 1);
        if (!extra.empty()) topic = extra[0];
      }
      core::Forum group;
      group.id = static_cast<core::Id>(out.forums.size());
      group.title = "Group for " + dicts.tags()[topic].name;
      core::DateTime lower = person.creation_date;
      group.creation_date = lower + rng.UniformInt(0, sim_end - 1 - lower);
      group.moderator = static_cast<core::Id>(p);
      group.kind = core::ForumKind::kGroup;
      group.tags.push_back(dicts.tags()[topic].id);
      for (size_t extra :
           dicts.SampleCorrelatedTags(rng, topic,
                                      static_cast<int>(rng.UniformInt(0, 2)))) {
        group.tags.push_back(dicts.tags()[extra].id);
      }
      uint32_t group_idx = static_cast<uint32_t>(out.forums.size());
      core::DateTime group_created = group.creation_date;
      out.forums.push_back(std::move(group));
      out.members.emplace_back();
      out.postable[p].emplace_back(group_idx, group_created);

      std::unordered_set<uint32_t> joined{static_cast<uint32_t>(p)};
      auto try_join = [&](uint32_t member, core::DateTime earliest) {
        if (joined.contains(member)) return;
        core::DateTime lo =
            std::max({earliest, group_created,
                      drafts[member].record.creation_date});
        if (lo >= sim_end - 1) return;
        double u = rng.NextDouble();
        core::DateTime join =
            lo + static_cast<core::DateTime>(
                     std::pow(u, 1.5) * static_cast<double>(sim_end - 1 - lo));
        joined.insert(member);
        add_member(group_idx, member, join);
      };
      // Friends of the moderator join eagerly…
      for (size_t f = 0; f < d.friends.size(); ++f) {
        if (rng.Bernoulli(0.6)) {
          try_join(d.friends[f], d.friend_dates[f]);
        }
      }
      // …plus strangers who share the group's interest.
      const std::vector<uint32_t>& pool = interested[topic];
      if (!pool.empty()) {
        size_t invites = std::min<size_t>(
            pool.size(),
            static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(2.0 * mean_degree))));
        for (size_t k = 0; k < invites; ++k) {
          uint32_t member = pool[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
          try_join(member, drafts[member].record.creation_date);
        }
      }
    }
  }
  return out;
}

/// Phases B+C fused: each person's posts, each post directly followed by
/// its comment thread and likes, appended to `out` in generation order.
/// Posts draw from per-person RNG streams and each thread from a per-post
/// stream keyed by the post's generation index.
void GenerateMessages(const DatagenConfig& config, const Dictionaries& dicts,
                      const std::vector<PersonDraft>& drafts,
                      const FlashmobSchedule& flashmobs, const ForumPhase& fp,
                      ActivityData& out) {
  const size_t n = drafts.size();
  const core::DateTime sim_end = config.SimulationEnd();
  const double comment_mean = 2.6 * config.activity_scale;
  const double post_like_mean = 2.2 * config.activity_scale;
  const double comment_like_mean = 0.6 * config.activity_scale;

  for (size_t p = 0; p < n; ++p) {
    util::Rng rng(config.seed, kStreamPosts, p);
    const PersonDraft& d = drafts[p];
    const core::Person& person = d.record;
    const std::string language =
        person.speaks[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(person.speaks.size()) - 1))];

    int budget = std::max(
        1, static_cast<int>(std::lround(config.activity_scale * 3.2 *
                                        static_cast<double>(
                                            d.friends.size()))));
    for (int b = 0; b < budget; ++b) {
      core::Post post;
      post.creator = static_cast<core::Id>(p);
      post.browser_used = person.browser_used;

      double kind_u = rng.NextDouble();
      bool image_post = false;
      uint32_t forum_idx;
      core::DateTime earliest;
      if (kind_u < 0.15 && !fp.albums_of[p].empty()) {
        forum_idx = fp.albums_of[p][static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(fp.albums_of[p].size()) - 1))];
        earliest = fp.forums[forum_idx].creation_date;
        image_post = true;
      } else {
        const auto& options = fp.postable[p];
        // options[0] is always the own wall; later entries are groups and
        // walls of friends joined.
        size_t pick = 0;
        if (options.size() > 1 && rng.Bernoulli(0.5)) {
          pick = static_cast<size_t>(rng.UniformInt(
              1, static_cast<int64_t>(options.size()) - 1));
        }
        forum_idx = options[pick].first;
        earliest = options[pick].second;
      }
      post.forum = static_cast<core::Id>(forum_idx);
      const core::Forum& forum = fp.forums[forum_idx];

      // Topic: forum tag most of the time, enriched via the tag matrix.
      size_t topic;
      if (!forum.tags.empty() && rng.Bernoulli(0.7)) {
        topic = static_cast<size_t>(forum.tags[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(forum.tags.size()) - 1))]);
      } else {
        topic = d.main_interest;
      }

      // Time: flashmob or uniform background.
      earliest = std::max(earliest, person.creation_date);
      if (earliest >= sim_end - 1) continue;
      bool is_flashmob =
          !image_post && rng.Bernoulli(config.flashmob_post_fraction);
      if (is_flashmob) {
        const FlashmobEvent& ev = flashmobs.SampleEvent(rng);
        post.creation_date = flashmobs.SamplePostTime(rng, ev, earliest);
        topic = ev.tag;
      } else {
        post.creation_date =
            earliest + rng.UniformInt(0, sim_end - 1 - earliest);
      }

      post.tags.push_back(dicts.tags()[topic].id);
      for (size_t extra : dicts.SampleCorrelatedTags(
               rng, topic, static_cast<int>(rng.UniformInt(0, 2)))) {
        post.tags.push_back(dicts.tags()[extra].id);
      }

      post.country = MessageCountry(rng, dicts, d.country);
      post.location_ip = person.location_ip;
      if (image_post) {
        post.image_file = "photo" + std::to_string(forum_idx) + "_" +
                          std::to_string(b) + ".jpg";
        post.length = 0;
      } else {
        post.language = language;
        post.length = SampleContentLength(rng);
        post.content = dicts.MakeText(rng, topic, post.length);
      }
      const uint32_t post_idx = static_cast<uint32_t>(out.posts.size());
      const core::DateTime post_date = post.creation_date;
      const core::Id lead_tag = post.tags.empty() ? core::kNoId : post.tags[0];
      out.posts.push_back(std::move(post));

      // --- The post's comment thread and likes (its own RNG stream) ------
      util::Rng trng(config.seed, kStreamThreads, post_idx);
      const uint32_t creator = static_cast<uint32_t>(p);

      // Participant pool: the post creator's friends plus forum members.
      std::vector<uint32_t> pool;
      pool.reserve(d.friends.size() + fp.members[forum_idx].size());
      for (uint32_t f : d.friends) pool.push_back(f);
      for (const auto& [member, join] : fp.members[forum_idx]) {
        if (member != creator) pool.push_back(member);
      }

      // Comments (none under image albums — photo streams get likes only).
      bool is_album = forum.kind == core::ForumKind::kAlbum;
      if (!pool.empty() && !is_album && comment_mean > 0) {
        int num_comments = static_cast<int>(
            trng.Geometric(1.0 / (1.0 + comment_mean)));
        core::DateTime clock = post_date;
        std::vector<uint32_t> thread;  // comment gen indices of this thread
        std::vector<core::DateTime> thread_dates;
        std::vector<uint32_t> thread_creators;
        for (int c = 0; c < num_comments; ++c) {
          double u = trng.NextDouble();
          if (u <= 0.0) u = 0x1.0p-53;
          clock += static_cast<core::DateTime>(
              -std::log(u) * 6.0 * core::kMillisPerHour) + 1;
          if (clock >= sim_end) break;
          uint32_t commenter = pool[static_cast<size_t>(
              trng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
          if (drafts[commenter].record.creation_date > clock) continue;

          core::Comment comment;
          comment.creator = static_cast<core::Id>(commenter);
          comment.creation_date = clock;
          if (thread.empty() || trng.Bernoulli(0.55)) {
            comment.reply_of_post = static_cast<core::Id>(post_idx);
          } else {
            size_t parent = static_cast<size_t>(trng.UniformInt(
                0, static_cast<int64_t>(thread.size()) - 1));
            comment.reply_of_comment = static_cast<core::Id>(thread[parent]);
          }
          comment.browser_used = drafts[commenter].record.browser_used;
          comment.location_ip = drafts[commenter].record.location_ip;
          comment.country =
              MessageCountry(trng, dicts, drafts[commenter].country);
          comment.length = SampleContentLength(trng);
          size_t topic2 = lead_tag == core::kNoId
                              ? drafts[commenter].main_interest
                              : static_cast<size_t>(lead_tag);
          comment.content = dicts.MakeText(trng, topic2, comment.length);
          if (trng.Bernoulli(0.3)) {
            comment.tags.push_back(dicts.tags()[topic2].id);
            for (size_t extra : dicts.SampleCorrelatedTags(
                     trng, topic2, trng.Bernoulli(0.3) ? 1 : 0)) {
              comment.tags.push_back(dicts.tags()[extra].id);
            }
          }
          thread.push_back(static_cast<uint32_t>(out.comments.size()));
          thread_dates.push_back(comment.creation_date);
          thread_creators.push_back(commenter);
          out.comments.push_back(std::move(comment));
        }

        // Likes on this thread's comments.
        for (size_t t = 0; t < thread.size(); ++t) {
          int num_likes = static_cast<int>(
              trng.Geometric(1.0 / (1.0 + comment_like_mean)));
          if (num_likes <= 0) continue;
          std::unordered_set<uint32_t> likers;
          for (int l = 0; l < num_likes && l < 32; ++l) {
            uint32_t liker = pool[static_cast<size_t>(
                trng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
            if (liker == thread_creators[t] || likers.contains(liker)) {
              continue;
            }
            core::DateTime when =
                std::max(thread_dates[t],
                         drafts[liker].record.creation_date) +
                trng.UniformInt(1, 2 * core::kMillisPerDay);
            if (when >= sim_end) continue;
            likers.insert(liker);
            out.likes.push_back({static_cast<core::Id>(liker),
                                 static_cast<core::Id>(thread[t]), false,
                                 when});
          }
        }
      }

      // Likes on the post itself.
      if (!pool.empty() && post_like_mean > 0) {
        int num_likes = static_cast<int>(
            trng.Geometric(1.0 / (1.0 + post_like_mean)));
        std::unordered_set<uint32_t> likers;
        for (int l = 0; l < num_likes && l < 64; ++l) {
          uint32_t liker = pool[static_cast<size_t>(
              trng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
          if (liker == creator || likers.contains(liker)) continue;
          core::DateTime when =
              std::max(post_date, drafts[liker].record.creation_date) +
              trng.UniformInt(1, 2 * core::kMillisPerDay);
          if (when >= sim_end) continue;
          likers.insert(liker);
          out.likes.push_back({static_cast<core::Id>(liker),
                               static_cast<core::Id>(post_idx), true, when});
        }
      }
    }
  }
}

}  // namespace

ActivityData GenerateActivity(const DatagenConfig& config,
                              const Dictionaries& dicts,
                              const std::vector<PersonDraft>& drafts,
                              const FlashmobSchedule& flashmobs) {
  ActivityData out;
  ForumPhase fp = GenerateForums(config, dicts, drafts);
  GenerateMessages(config, dicts, drafts, flashmobs, fp, out);
  out.forums = std::move(fp.forums);
  out.memberships = std::move(fp.memberships);
  return out;
}

}  // namespace snb::datagen
