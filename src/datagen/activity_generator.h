// Person-activity generation (spec Fig. 2.2, step "user activity"): forums
// (personal walls, interest groups, image albums), memberships, posts with
// flashmob/uniform time correlation, comment reply trees, likes, and
// tag assignments enriched through the tag-correlation matrix.
//
// People with more friends are more active (more posts, larger comment
// threads), reproducing the degree–activity correlation of §2.3.3.2.
//
// Two phases: forums (walls, albums, interest groups) and memberships for
// every person, then messages: each person's posts, every post directly
// followed by its comment thread and likes. Each person and each post
// draws from its own RNG stream, so the output depends on the config and
// seed alone.

#ifndef SNB_DATAGEN_ACTIVITY_GENERATOR_H_
#define SNB_DATAGEN_ACTIVITY_GENERATOR_H_

#include <vector>

#include "core/schema.h"
#include "datagen/config.h"
#include "datagen/dictionaries.h"
#include "datagen/flashmob.h"
#include "datagen/person_generator.h"

namespace snb::datagen {

/// Raw activity with generator-internal references:
///  - forum.moderator, membership.person, post.creator, comment.creator and
///    like.person hold *person indices*;
///  - membership.forum and post.forum hold *forum indices*;
///  - comment.reply_of_post / like on post hold *post indices*;
///  - comment.reply_of_comment / like on comment hold *comment indices*;
///  - all static references (tags, countries) hold final ids.
/// Final dynamic ids are assigned by the Datagen orchestrator.
struct ActivityData {
  std::vector<core::Forum> forums;
  std::vector<core::ForumMembership> memberships;
  std::vector<core::Post> posts;
  std::vector<core::Comment> comments;
  std::vector<core::Like> likes;
};

/// Runs the forum phase, then the message phase, and collects every
/// entity.
ActivityData GenerateActivity(const DatagenConfig& config,
                              const Dictionaries& dicts,
                              const std::vector<PersonDraft>& drafts,
                              const FlashmobSchedule& flashmobs);

}  // namespace snb::datagen

#endif  // SNB_DATAGEN_ACTIVITY_GENERATOR_H_
