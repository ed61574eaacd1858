// The in-memory social-network graph store.
//
// Persons, forums, posts and comments exist only as columns, dictionary
// codes and adjacency; only the static reference tables (places,
// organisations, tags, tag classes: never mutated after load) keep raw
// records. Every relation is materialized as forward and, where queries
// need it, reverse appendable-CSR adjacency (see adjacency.h). External
// spec ids map to dense uint32 indices through flat open-addressing id
// tables (columnar/flat_id_table.h); all traversal is index-based.
//
// What never changes after a build is held by shared_ptr<const>, so every
// copy of that snapshot shares it: the static reference data (the four
// static tables' records, id tables and name indices, and their structure
// columns and adjacency) as one segment, each relation's CSR base
// (adjacency.h), the message-date index's sorted base (message_index.h)
// and the bulk-loaded rows of every string column (string_column.h). Only
// a build — bulk load, compaction, recovery — makes new bases (compaction
// keeps sharing the static segment).
//
// Posts and comments are distinct tables; a *message reference* encodes
// either in one uint32: bit 31 clear → post index, bit 31 set → comment
// index. The encoding is stable under appends (updates can add posts and
// comments without invalidating existing references) and gives the unified
// "Message" view the BI workload queries over.
//
// Concurrency is by snapshot: a published Graph is immutable, and the
// refresh writer mutates a private member-wise copy (the explicit copy
// constructor: flat arrays plus pointers to the shared bases), which it
// then publishes whole. Readers and the writer never share a mutable
// Graph, so the store holds no locks. Add* mutators (the Interactive update
// operations IU 1–8) append to overflow regions without re-sorting or
// re-encoding the bulk-loaded columns and CSR spans.
//
// Deep deletes (DEL 1–8) are logical: Delete* mutators run a five-stage
// cascade (persons → forums → messages → likes → index) that marks rows dead
// in tombstone bitmaps (tombstone.h) without touching the physical layout.
// Scans filter through the bitmaps only when tombstones exist, so
// insert-only graphs keep their unfiltered fast paths. Physical reclamation
// is compaction (Compact()): the live rows are gathered column to column
// through old → new row maps into a fresh frozen Graph with a bumped
// compaction epoch.

#ifndef SNB_STORAGE_GRAPH_H_
#define SNB_STORAGE_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/schema.h"
#include "storage/adjacency.h"
#include "storage/columnar/dictionary.h"
#include "storage/columnar/flat_id_table.h"
#include "storage/columnar/list_column.h"
#include "storage/columnar/memory.h"
#include "storage/columnar/string_column.h"
#include "storage/message_index.h"
#include "storage/tombstone.h"
#include "util/status.h"

namespace snb::storage {

constexpr uint32_t kNoIdx = columnar::FlatIdTable::kNoRow;

class Graph {
 public:
  /// Builds all indexes from a raw network (consumed): the bulk load.
  /// `compaction_epoch` stamps the generation this graph belongs to: 0 for
  /// a bulk load, previous epoch + 1 when rebuilding a tombstoned graph's
  /// export (Compact()'s oracle).
  explicit Graph(core::SocialNetwork net, uint32_t compaction_epoch = 0);

  /// Member-wise copy — the refresh writer's private shadow of a published
  /// snapshot. Shares the immutable bases (static segment, CSR bases,
  /// index base, bulk string bases) by pointer, copies the other columns,
  /// id tables, overflow arenas and tails as they are (no re-sort, no
  /// re-encode, no rehash) and carries tombstones and both epochs over. Explicit, so a stray
  /// `auto g = *snapshot;` does not compile. Not assignable: queries hold
  /// references into the tables.
  explicit Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = delete;

  // ---- Entity tables ------------------------------------------------------

  size_t NumPersons() const { return person_id_.size(); }
  size_t NumForums() const { return forum_id_.size(); }
  size_t NumPosts() const { return post_id_.size(); }
  size_t NumComments() const { return comment_id_.size(); }
  size_t NumMessages() const { return NumPosts() + NumComments(); }
  size_t NumTags() const { return static_->tags.size(); }
  size_t NumTagClasses() const { return static_->tag_classes.size(); }
  size_t NumPlaces() const { return static_->places.size(); }
  size_t NumOrganisations() const { return static_->organisations.size(); }

  const core::Tag& TagAt(uint32_t i) const { return static_->tags[i]; }
  const core::TagClass& TagClassAt(uint32_t i) const {
    return static_->tag_classes[i];
  }
  const core::Place& PlaceAt(uint32_t i) const { return static_->places[i]; }
  const core::Organisation& OrganisationAt(uint32_t i) const {
    return static_->organisations[i];
  }

  // ---- Id ↔ index (kNoIdx when absent) -----------------------------------

  uint32_t PersonIdx(core::Id id) const { return person_idx_.Find(id); }
  uint32_t ForumIdx(core::Id id) const { return forum_idx_.Find(id); }
  uint32_t PostIdx(core::Id id) const { return post_idx_.Find(id); }
  uint32_t CommentIdx(core::Id id) const { return comment_idx_.Find(id); }
  uint32_t TagIdx(core::Id id) const { return static_->tag_idx.Find(id); }
  uint32_t TagClassIdx(core::Id id) const {
    return static_->tag_class_idx.Find(id);
  }
  uint32_t PlaceIdx(core::Id id) const { return static_->place_idx.Find(id); }
  uint32_t OrganisationIdx(core::Id id) const {
    return static_->organisation_idx.Find(id);
  }

  /// Name lookups for query parameters given by name (countries, tags,
  /// tag classes). Return kNoIdx when absent.
  uint32_t PlaceByName(const std::string& name) const;
  uint32_t TagByName(const std::string& name) const;
  uint32_t TagClassByName(const std::string& name) const;

  // ---- Message references --------------------------------------------------

  static constexpr uint32_t kCommentBit = 0x80000000u;

  static bool IsPost(uint32_t msg) { return (msg & kCommentBit) == 0; }
  static uint32_t AsPost(uint32_t msg) { return msg; }
  static uint32_t AsComment(uint32_t msg) { return msg & ~kCommentBit; }
  /// Row of a message reference within its own table (post or comment).
  static uint32_t MessageRow(uint32_t msg) { return msg & ~kCommentBit; }
  /// Both map kNoIdx to kNoIdx, so a failed id lookup stays kNoIdx.
  static uint32_t MessageOfPost(uint32_t post) { return post; }
  static uint32_t MessageOfComment(uint32_t comment) {
    return comment | kCommentBit;
  }

  // ---- Tombstones (deep deletes DEL 1–8) -----------------------------------

  bool PersonAlive(uint32_t p) const { return !person_dead_.Test(p); }
  bool ForumAlive(uint32_t f) const { return !forum_dead_.Test(f); }
  bool PostAlive(uint32_t i) const { return !post_dead_.Test(i); }
  bool CommentAlive(uint32_t i) const { return !comment_dead_.Test(i); }
  bool MessageAlive(uint32_t msg) const {
    return IsPost(msg) ? PostAlive(msg) : CommentAlive(AsComment(msg));
  }

  /// Edge liveness: an edge is live when both endpoints are alive and it was
  /// not explicitly tombstoned (DEL 2/3/5/8).
  bool KnowsAlive(uint32_t p, uint32_t q) const {
    return PersonAlive(p) && PersonAlive(q) &&
           deleted_knows_.find(UnorderedEdgeKey(p, q)) == deleted_knows_.end();
  }
  bool LikeAlive(uint32_t person, uint32_t msg) const {
    return PersonAlive(person) && MessageAlive(msg) &&
           deleted_likes_.find(EdgeKey(person, msg)) == deleted_likes_.end();
  }
  bool MembershipAlive(uint32_t person, uint32_t forum) const {
    return PersonAlive(person) && ForumAlive(forum) &&
           deleted_memberships_.find(EdgeKey(person, forum)) ==
               deleted_memberships_.end();
  }

  size_t NumLivePersons() const { return NumPersons() - person_dead_.count(); }
  size_t NumLiveForums() const { return NumForums() - forum_dead_.count(); }
  size_t NumLivePosts() const { return NumPosts() - post_dead_.count(); }
  size_t NumLiveComments() const {
    return NumComments() - comment_dead_.count();
  }

  /// True when any logical deletion exists (vertex or edge) — the signal for
  /// refresh/recovery to compact before publishing.
  bool HasTombstones() const {
    return HasDeadMessages() || person_dead_.count() > 0 ||
           forum_dead_.count() > 0 || !deleted_likes_.empty() ||
           !deleted_memberships_.empty() || !deleted_knows_.empty();
  }

  /// Completed-cascade counter: bumped once per finished Delete* cascade.
  /// A torn cascade (crash or injected fault mid-stage) leaves it unbumped.
  uint32_t TombstoneEpoch() const { return tombstone_epoch_; }
  /// Rebuild generation (0 for a bulk load; +1 per compaction).
  uint32_t CompactionEpoch() const { return compaction_epoch_; }

  /// Compaction: a frozen graph of this graph's live state, built from its
  /// columns (dead rows and deleted edges dropped, overflow and tails
  /// folded into fresh bases; see compact.cc). Its epoch is
  /// CompactionEpoch() + 1 when tombstones existed, else unchanged. Laid
  /// out exactly as Graph(ExportNetwork(*this), epoch), its test oracle:
  /// the two write byte-identical checkpoint images.
  std::unique_ptr<Graph> Compact() const;

  /// Number of likes whose target is `msg` and whose edge is still live —
  /// the delete-aware replacement for PostLikers()/CommentLikers() Degree.
  /// One read of the like-count column, which the bulk build, IU 2/3 and
  /// the DEL cascade maintain (only meaningful for live messages: a dead
  /// message's count is frozen at death).
  int64_t LiveLikeCount(uint32_t msg) const {
    return IsPost(msg) ? LivePostLikeCount(msg)
                       : LiveCommentLikeCount(AsComment(msg));
  }
  /// LiveLikeCount of a post / a comment row (per-family scans).
  int64_t LivePostLikeCount(uint32_t post) const {
    return post_like_count_[post];
  }
  int64_t LiveCommentLikeCount(uint32_t comment) const {
    return comment_like_count_[comment];
  }

  /// Live direct replies of `msg` (only meaningful for live messages: a dead
  /// parent's counter is not maintained past its own death).
  int64_t LiveReplyCount(uint32_t msg) const {
    return LiveDegree(IsPost(msg) ? post_replies_.Degree(msg)
                                  : comment_replies_.Degree(AsComment(msg)),
                      dead_replies_per_msg_, msg);
  }

  /// Visits every live message reference at flat positions [begin, end) of
  /// the unified message table — posts first, then comments — so disjoint
  /// slices of [0, NumMessages()) partition one full scan. Insert-only
  /// graphs take the unfiltered fast path.
  template <typename F>
  void ForEachMessage(size_t begin, size_t end, F&& f) const {
    const size_t num_posts = NumPosts();
    const uint32_t post_end = static_cast<uint32_t>(std::min(end, num_posts));
    const uint32_t comment_begin =
        static_cast<uint32_t>(begin > num_posts ? begin - num_posts : 0);
    const uint32_t comment_end =
        static_cast<uint32_t>(end > num_posts ? end - num_posts : 0);
    if (!HasDeadMessages()) {
      for (uint32_t i = static_cast<uint32_t>(begin); i < post_end; ++i) {
        f(MessageOfPost(i));
      }
      for (uint32_t i = comment_begin; i < comment_end; ++i) {
        f(MessageOfComment(i));
      }
      return;
    }
    for (uint32_t i = static_cast<uint32_t>(begin); i < post_end; ++i) {
      if (PostAlive(i)) f(MessageOfPost(i));
    }
    for (uint32_t i = comment_begin; i < comment_end; ++i) {
      if (CommentAlive(i)) f(MessageOfComment(i));
    }
  }

  /// Visits every live message reference: first posts, then comments.
  template <typename F>
  void ForEachMessage(F&& f) const {
    ForEachMessage(0, NumMessages(), f);
  }

  /// The live messages with creationDate in [start, end) as a
  /// position-partitioned scan over the creation-date index: the sorted
  /// base contributes a binary-searched slice, the unsorted update tail is
  /// zone-map filtered (CP-2.2/2.3), and tombstoned messages are filtered
  /// out. Scanning disjoint position slices of [0, size()) — from one
  /// thread or many — visits each message exactly once. Visit order is date
  /// order over the base followed by arrival order over the tail, with each
  /// decoded block's posts before its comments — callers must be
  /// order-insensitive.
  class MessageRangeView {
   public:
    /// Scan positions to partition: the base slice plus the whole tail.
    size_t size() const { return window_.size(); }

    /// Visits the window's live messages at positions [begin, end) as
    /// message references.
    template <typename F>
    void ForEach(size_t begin, size_t end, F&& f) const {
      ForEachBounded(begin, end, [](int64_t) { return false; }, f);
    }

    /// Per-family form: on_post(post row) and on_comment(comment row).
    template <typename PostFn, typename CommentFn>
    void ForEach(size_t begin, size_t end, PostFn&& on_post,
                 CommentFn&& on_comment) const {
      ForEachBounded(
          begin, end, [](int64_t) { return false; }, on_post, on_comment);
    }

    /// Bound-pushdown form (CP-1.3): before a zone-mapped block is decoded,
    /// `skip` is offered its like-count zone maximum — a true return prunes
    /// the whole block unseen. `skip(max)` must be monotone: true for a
    /// block max implies every member message (whose like count is ≤ max)
    /// would also be rejected, which is what keeps the pushdown engines
    /// bit-identical to the sort-everything oracle. Zone maxima are
    /// computed over all rows, so they still upper-bound live like counts
    /// after deletes: the skip stays safe (merely less selective) under
    /// tombstones.
    template <typename SkipFn, typename F>
    void ForEachBounded(size_t begin, size_t end, SkipFn&& skip,
                        F&& f) const {
      ForEachBounded(
          begin, end, skip, [&f](uint32_t post) { f(MessageOfPost(post)); },
          [&f](uint32_t comment) { f(MessageOfComment(comment)); });
    }

    /// Per-family bound-pushdown form, the one the others wrap: each
    /// decoded block hands its live posts to on_post(post row), then its
    /// live comments to on_comment(comment row) (see
    /// MessageDateIndex::ScanWindow), so a kernel reads each family's
    /// columns without a per-row family branch.
    template <typename SkipFn, typename PostFn, typename CommentFn>
    void ForEachBounded(size_t begin, size_t end, SkipFn&& skip,
                        PostFn&& on_post, CommentFn&& on_comment) const {
      const MessageDateIndex& index = graph_->message_index_;
      if (!graph_->HasDeadMessages()) {
        index.ScanWindow(window_, begin, end, skip, on_post, on_comment);
        return;
      }
      index.ScanWindow(
          window_, begin, end, skip,
          [this, &on_post](uint32_t post) {
            if (graph_->PostAlive(post)) on_post(post);
          },
          [this, &on_comment](uint32_t comment) {
            if (graph_->CommentAlive(comment)) on_comment(comment);
          });
    }

   private:
    friend class Graph;
    MessageRangeView(const Graph* graph, MessageDateIndex::Window window)
        : graph_(graph), window_(window) {}

    const Graph* graph_;
    MessageDateIndex::Window window_;
  };

  MessageRangeView MessageRange(core::DateTime start,
                                core::DateTime end) const {
    return {this, message_index_.ResolveWindow(start, end)};
  }

  /// The underlying creation-date index (zone-map introspection for tests
  /// and the bench report).
  const MessageDateIndex& MessageIndex() const { return message_index_; }

  core::DateTime MessageCreationDate(uint32_t msg) const {
    return IsPost(msg) ? post_creation_[msg]
                       : comment_creation_[AsComment(msg)];
  }
  uint32_t MessageCreator(uint32_t msg) const {
    return IsPost(msg) ? post_creator_[msg] : comment_creator_[AsComment(msg)];
  }
  /// Country *place index* of the message.
  uint32_t MessageCountry(uint32_t msg) const {
    return IsPost(msg) ? post_country_[msg] : comment_country_[AsComment(msg)];
  }
  int32_t MessageLength(uint32_t msg) const {
    return IsPost(msg) ? PostLength(msg) : CommentLength(AsComment(msg));
  }
  int32_t PostLength(uint32_t i) const { return post_length_[i]; }
  int32_t CommentLength(uint32_t i) const { return comment_length_[i]; }
  /// External ids, each in the id space of its entity type.
  core::Id PostId(uint32_t i) const { return post_id_[i]; }
  core::Id CommentId(uint32_t i) const { return comment_id_[i]; }
  core::Id MessageId(uint32_t msg) const {
    return IsPost(msg) ? post_id_[msg] : comment_id_[AsComment(msg)];
  }
  /// content for comments and text posts, imageFile for image posts. The
  /// string views returned here are invalidated by the next IU append.
  std::string_view MessageContent(uint32_t msg) const {
    if (IsPost(msg)) {
      return MessageHasContent(msg) ? post_content_.At(msg)
                                    : post_image_file_.At(msg);
    }
    return comment_content_.At(AsComment(msg));
  }
  /// False for image posts (and for any message with empty content).
  bool MessageHasContent(uint32_t msg) const {
    return IsPost(msg) ? PostHasContent(msg)
                       : CommentHasContent(AsComment(msg));
  }
  bool PostHasContent(uint32_t i) const { return !post_content_.At(i).empty(); }
  bool CommentHasContent(uint32_t i) const {
    return !comment_content_.At(i).empty();
  }
  /// The raw content / imageFile of a post (exactly one is nonempty).
  std::string_view PostContent(uint32_t i) const { return post_content_.At(i); }
  std::string_view PostImageFile(uint32_t i) const {
    return post_image_file_.At(i);
  }
  std::string_view MessageLocationIp(uint32_t msg) const {
    return IsPost(msg) ? post_location_ip_.At(msg)
                       : comment_location_ip_.At(AsComment(msg));
  }

  /// Visits the tag indices of a message.
  template <typename F>
  void ForEachMessageTag(uint32_t msg, F&& f) const {
    if (IsPost(msg)) {
      post_tags_.ForEach(msg, f);
    } else {
      comment_tags_.ForEach(AsComment(msg), f);
    }
  }

  // ---- Dictionary-encoded columns -------------------------------------------
  // One dictionary for the person genders and browsers and the message
  // browsers and languages: stable dense
  // uint32 codes assigned at load, O(1) decode, appended to — never
  // reassigned — by the IU path. The codes are the only copy of those
  // strings; the validator's dictionary-code-in-range invariant checks
  // every code column against Dict().size().

  const columnar::Dictionary& Dict() const { return dict_; }

  uint32_t MessageBrowserCode(uint32_t msg) const {
    return IsPost(msg) ? post_browser_code_[msg]
                       : comment_browser_code_[AsComment(msg)];
  }
  uint32_t PersonGenderCode(uint32_t p) const { return person_gender_code_[p]; }
  uint32_t PersonBrowserCode(uint32_t p) const {
    return person_browser_code_[p];
  }

  /// Per-family heap bytes of every member, the compressed families also
  /// with the seed layout's bytes, plus bytes/edge and bytes/message (see
  /// storage/columnar/memory.h). Each family's shared_bytes are the bytes
  /// in shared bases, which a copy does not allocate; the kStaticFamily
  /// family is the static segment, all shared.
  columnar::MemoryBreakdown Memory() const;
  static constexpr const char* kStaticFamily = "static (shared)";

  // ---- Person columns: the only copy of a person row ----------------------
  // The string views returned here are invalidated by the next IU append;
  // interests are PersonInterests().

  core::Id PersonId(uint32_t p) const { return person_id_[p]; }
  std::string_view PersonFirstName(uint32_t p) const {
    return person_first_name_.At(p);
  }
  std::string_view PersonLastName(uint32_t p) const {
    return person_last_name_.At(p);
  }
  /// Gender and browser round-trip as the loaded strings.
  const std::string& PersonGender(uint32_t p) const {
    return dict_.Decode(person_gender_code_[p]);
  }
  /// The BI group-bys only need the binary split: one code compare.
  bool PersonIsFemale(uint32_t p) const {
    return person_gender_code_[p] == female_code_;
  }
  core::Date PersonBirthday(uint32_t p) const { return person_birthday_[p]; }
  core::DateTime PersonCreation(uint32_t p) const {
    return person_creation_[p];
  }
  std::string_view PersonLocationIp(uint32_t p) const {
    return person_location_ip_.At(p);
  }
  const std::string& PersonBrowser(uint32_t p) const {
    return dict_.Decode(person_browser_code_[p]);
  }
  /// City place index of the person.
  uint32_t PersonCity(uint32_t p) const { return person_city_[p]; }
  /// Country place index of the person (city's parent, precomputed).
  uint32_t PersonCountry(uint32_t p) const { return person_country_[p]; }
  /// The list attributes, in stored order.
  std::vector<std::string> PersonEmails(uint32_t p) const {
    return person_emails_.At(p);
  }
  std::vector<std::string> PersonSpeaks(uint32_t p) const {
    return person_speaks_.At(p);
  }
  std::span<const core::StudyAt> PersonStudyAt(uint32_t p) const {
    return person_study_at_.At(p);
  }
  std::span<const core::WorkAt> PersonWorkAt(uint32_t p) const {
    return person_work_at_.At(p);
  }

  // ---- Forum columns: the only copy of a forum row ------------------------
  // Tags are ForumTags().

  core::Id ForumId(uint32_t f) const { return forum_id_[f]; }
  std::string_view ForumTitle(uint32_t f) const { return forum_title_.At(f); }
  core::DateTime ForumCreation(uint32_t f) const { return forum_creation_[f]; }
  /// Person index of the moderator.
  uint32_t ForumModerator(uint32_t f) const { return forum_moderator_[f]; }
  core::ForumKind ForumKind(uint32_t f) const { return forum_kind_[f]; }

  /// Per-person creation-date zone over the person's own messages: true
  /// when `p` created at least one message in [start, end). Sentinel zones
  /// (min = kMaxMessageDate, max = kMinMessageDate) make a person with no
  /// messages overlap nothing, so scans skip them without touching their
  /// adjacency (CP-2.3 pruning at person granularity).
  bool PersonHasMessagesIn(uint32_t p, core::DateTime start,
                           core::DateTime end) const {
    return person_msg_date_min_[p] < end && person_msg_date_max_[p] >= start;
  }

  core::DateTime PostCreation(uint32_t i) const { return post_creation_[i]; }
  uint32_t PostCreator(uint32_t i) const { return post_creator_[i]; }
  /// Country place index of a post / a comment (per-family MessageCountry).
  uint32_t PostCountry(uint32_t i) const { return post_country_[i]; }
  uint32_t CommentCountry(uint32_t i) const { return comment_country_[i]; }
  uint32_t PostForum(uint32_t i) const { return post_forum_[i]; }
  /// Dictionary code of the post's language (image posts carry the code of
  /// the empty string).
  uint32_t PostLanguageCode(uint32_t i) const {
    return post_language_code_[i];
  }

  core::DateTime CommentCreation(uint32_t i) const {
    return comment_creation_[i];
  }
  uint32_t CommentCreator(uint32_t i) const { return comment_creator_[i]; }
  /// Direct reply target as a message reference.
  uint32_t CommentReplyOf(uint32_t i) const { return comment_reply_of_[i]; }
  /// Post at the root of the comment's thread (precomputed).
  uint32_t CommentRootPost(uint32_t i) const { return comment_root_post_[i]; }
  /// Forum containing the comment's thread — the materialized 2-hop
  /// endpoint (comment → root post → forum), so the hot loop is one column
  /// probe instead of two dependent loads (TuGraph idiom).
  uint32_t CommentForum(uint32_t i) const { return comment_forum_[i]; }
  /// Language code of the comment's thread root post (2-hop endpoint).
  uint32_t CommentRootLanguageCode(uint32_t i) const {
    return comment_root_language_code_[i];
  }

  /// Forum of any message reference: the post's forum, or the containing
  /// thread's forum for a comment — one probe either way.
  uint32_t MessageForum(uint32_t msg) const {
    return IsPost(msg) ? post_forum_[msg] : comment_forum_[AsComment(msg)];
  }

  /// Parent place index (city→country, country→continent); kNoIdx for
  /// continents.
  uint32_t PlacePartOf(uint32_t place) const {
    return static_->place_part_of[place];
  }
  /// Parent tag-class index; kNoIdx at the root.
  uint32_t TagClassParent(uint32_t tc) const {
    return static_->tag_class_parent[tc];
  }
  /// Tag-class index of a tag.
  uint32_t TagClassOfTag(uint32_t t) const {
    return static_->tag_class_of_tag[t];
  }

  // ---- Adjacency ------------------------------------------------------------

  const AdjacencyList& Knows() const { return knows_; }                // dated
  const AdjacencyList& PersonPosts() const { return person_posts_; }
  const AdjacencyList& PersonComments() const { return person_comments_; }
  /// person → message references, dated with the like creation date.
  const AdjacencyList& PersonLikes() const { return person_likes_; }
  /// post/comment → liker person, dated.
  const AdjacencyList& PostLikers() const { return post_likers_; }
  const AdjacencyList& CommentLikers() const { return comment_likers_; }
  const AdjacencyList& ForumMembers() const { return forum_members_; }  // dated
  /// person → forums they are a member of, dated with joinDate.
  const AdjacencyList& PersonForums() const { return person_forums_; }
  const AdjacencyList& ForumPosts() const { return forum_posts_; }
  /// person → forums they moderate.
  const AdjacencyList& PersonModerates() const { return person_moderates_; }
  /// post → direct reply comments.
  const AdjacencyList& PostReplies() const { return post_replies_; }
  /// comment → direct reply comments.
  const AdjacencyList& CommentReplies() const { return comment_replies_; }
  const AdjacencyList& PostTags() const { return post_tags_; }
  const AdjacencyList& CommentTags() const { return comment_tags_; }
  const AdjacencyList& ForumTags() const { return forum_tags_; }
  const AdjacencyList& PersonInterests() const { return person_interests_; }
  const AdjacencyList& TagPosts() const { return tag_posts_; }
  const AdjacencyList& TagComments() const { return tag_comments_; }
  const AdjacencyList& TagForums() const { return tag_forums_; }
  const AdjacencyList& TagPersons() const { return tag_persons_; }
  /// country place index → persons located there.
  const AdjacencyList& CountryPersons() const { return country_persons_; }
  /// tag-class index → child class indices.
  const AdjacencyList& TagClassChildren() const {
    return static_->tag_class_children;
  }
  /// tag-class index → tags of that class.
  const AdjacencyList& TagClassTags() const { return static_->tag_class_tags; }

  /// The row space a relation's nodes or targets index; kMessage is the
  /// message-reference space (posts and comments).
  enum class Table : uint8_t {
    kPerson, kForum, kPost, kComment, kMessage, kTag, kPlace
  };

  /// Every relation but the two static tag-class ones, by its Memory()
  /// family name (with the tables it joins and whether it carries dates),
  /// and FrozenStrings(), each listed once: Memory(), Build, the checkpoint
  /// image, the validator and TestAccess::SharedBases walk these lists, so
  /// a relation or column added here is counted, shared, persisted and
  /// checked alike.
  struct NamedRelation {
    const char* name;
    AdjacencyList Graph::*list;
    Table source, target;
    bool dated;
  };
  static std::span<const NamedRelation> Relations();

  // ---- Mutators (Interactive updates IU 1–8) --------------------------------
  //
  // Every insert is a no-op when an entity it references is missing or
  // deleted, as the Delete* mutators are on missing targets: with
  // interleaved insert and delete streams an insert can name an entity that
  // an earlier cascade tombstoned or a compaction removed, and the new row
  // or edge would die with that entity anyway. The vertex inserts (IU
  // 1/4/6/7) resolve every reference before their first mutation, are also
  // no-ops when the new id exists, and then return kNoIdx.

  uint32_t AddPerson(const core::Person& person);              // IU 1
  void AddLikePost(core::Id person, core::Id post,
                   core::DateTime date);                       // IU 2
  void AddLikeComment(core::Id person, core::Id comment,
                      core::DateTime date);                    // IU 3
  uint32_t AddForum(const core::Forum& forum);                 // IU 4
  void AddMembership(core::Id person, core::Id forum,
                     core::DateTime join_date);                // IU 5
  uint32_t AddPost(const core::Post& post);                    // IU 6
  uint32_t AddComment(const core::Comment& comment);           // IU 7
  void AddKnows(core::Id person1, core::Id person2,
                core::DateTime date);                          // IU 8

  // ---- Mutators (deep deletes DEL 1–8) --------------------------------------
  //
  // Each runs the shared five-stage cascade (see RunCascade). Deleting a
  // person also removes every forum they moderate, every message they
  // authored, those messages' reply subtrees, and all their incident
  // likes/memberships/knows edges. Missing or already-dead targets are Ok
  // no-ops — that is what makes WAL replay and resume-after-crash
  // idempotent (a delete re-applied after compaction finds nothing).
  // A returned error (only from injected faults / failpoints) means the
  // cascade is torn: tombstones from completed stages are in place but the
  // epoch was not bumped, and the like counts and reply deltas of later
  // stages are not updated. A torn graph must be discarded — the refresh
  // path throws away its shadow copy and re-copies the published base;
  // recovery restarts replay from the WAL. (Re-calling the same Delete* is NOT a repair: the
  // root is already tombstoned, so it would no-op.)

  util::Status DeletePerson(core::Id person);                  // DEL 1
  util::Status DeleteLikePost(core::Id person, core::Id post);     // DEL 2
  util::Status DeleteLikeComment(core::Id person, core::Id comment);  // DEL 3
  util::Status DeleteForum(core::Id forum);                    // DEL 4
  util::Status DeleteMembership(core::Id person, core::Id forum);  // DEL 5
  util::Status DeletePost(core::Id post);                      // DEL 6
  util::Status DeleteComment(core::Id comment);                // DEL 7
  util::Status DeleteKnows(core::Id person1, core::Id person2);    // DEL 8

 private:
  friend struct TestAccess;  // corruption seeding in tests (test_access.h)
  friend struct ImageCodec;  // checkpoint image (checkpoint_image.cc)

  /// An empty graph for the image decoder to fill: no static segment yet,
  /// and a dictionary holding only the member initializer's "female".
  Graph() = default;

  /// The static reference data: built once per Graph(SocialNetwork) (or
  /// image decode) and never mutated after, so every copy and every
  /// compaction of that graph shares it.
  struct StaticSegment {
    std::vector<core::Tag> tags;
    std::vector<core::TagClass> tag_classes;
    std::vector<core::Place> places;
    std::vector<core::Organisation> organisations;
    columnar::FlatIdTable tag_idx, tag_class_idx, place_idx, organisation_idx;
    // Rows ordered by name (stable): the name lookups binary-search them.
    std::vector<uint32_t> place_by_name, tag_by_name, tag_class_by_name;
    std::vector<uint32_t> place_part_of;
    std::vector<uint32_t> tag_class_parent, tag_class_of_tag;
    AdjacencyList tag_class_children, tag_class_tags;

    /// Takes the static tables out of `net` and indexes them.
    explicit StaticSegment(core::SocialNetwork& net);
    size_t ByteSize() const;
  };

  /// Every string column that Build freezes into a shared base, by its
  /// family and name, each listed once (see Relations()).
  struct FrozenString {
    const char* family;
    const char* name;
    columnar::StringColumn Graph::*column;
  };
  static std::span<const FrozenString> FrozenStrings();

  /// A comment's reply target as a message reference; kNoIdx if missing.
  uint32_t ReplyTarget(const core::Comment& c) const {
    return c.reply_of_post != core::kNoId
               ? MessageOfPost(PostIdx(c.reply_of_post))
               : MessageOfComment(CommentIdx(c.reply_of_comment));
  }

  /// Tag indices of `ids`; false when any id names no tag.
  bool ResolveTags(const std::vector<core::Id>& ids,
                   std::vector<uint32_t>* tags) const;

  /// Widens `person`'s message-date zone to cover `date`.
  void NoteMessageDate(uint32_t person, core::DateTime date) {
    person_msg_date_min_[person] = std::min(person_msg_date_min_[person], date);
    person_msg_date_max_[person] = std::max(person_msg_date_max_[person], date);
  }

  /// Country of a City place; kNoIdx for anything else.
  uint32_t CountryOfCity(uint32_t city) const {
    return city != kNoIdx &&
                   static_->places[city].type == core::PlaceType::kCity
               ? static_->place_part_of[city]
               : kNoIdx;
  }

  // Fill a person, forum, post or comment row for the bulk build and IU
  // 1/4/6/7 alike; callers resolve the references and add the edges.

  uint32_t AppendPersonRow(const core::Person& person, uint32_t city,
                           uint32_t country);
  uint32_t AppendForumRow(const core::Forum& forum, uint32_t moderator);
  uint32_t AppendPostRow(const core::Post& post, uint32_t creator,
                         uint32_t forum, uint32_t country);
  uint32_t AppendCommentRow(const core::Comment& comment, uint32_t creator,
                            uint32_t country, uint32_t reply_of);

  // ---- Cascade machinery ----------------------------------------------------

  static uint64_t EdgeKey(uint32_t a, uint32_t b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }
  static uint64_t UnorderedEdgeKey(uint32_t a, uint32_t b) {
    return a < b ? EdgeKey(a, b) : EdgeKey(b, a);
  }

  /// A raw reply degree of `msg` minus its dead-reply delta.
  static int64_t LiveDegree(
      size_t degree, const std::unordered_map<uint32_t, uint32_t>& dead,
      uint32_t msg) {
    int64_t n = static_cast<int64_t>(degree);
    if (!dead.empty()) {
      auto it = dead.find(msg);
      if (it != dead.end()) n -= it->second;
    }
    return n;
  }

  bool HasDeadMessages() const {
    return post_dead_.count() + comment_dead_.count() > 0;
  }

  /// Root sets collected by the Delete* mutators before the cascade runs.
  struct CascadeTargets {
    std::vector<uint32_t> persons;        // person indices
    std::vector<uint32_t> forums;         // forum indices
    std::vector<uint32_t> message_roots;  // message references
    std::vector<uint64_t> like_keys;      // EdgeKey(person, message ref)
    std::vector<uint64_t> membership_keys;  // EdgeKey(person, forum)
    std::vector<uint64_t> knows_keys;       // UnorderedEdgeKey(person, person)
  };

  /// The five-stage cascade driver shared by all Delete* mutators:
  /// persons → forums → messages (reply-subtree BFS) → likes/edges → index.
  /// Each stage opens with one fail-point site (graph.delete.*); an injected
  /// fault returns mid-cascade, leaving a torn cascade for recovery to
  /// re-run or discard.
  util::Status RunCascade(CascadeTargets targets);

  /// The like insert/delete shared by IU 2/3 and DEL 2/3; `p` or `msg`
  /// kNoIdx when the id lookup failed.
  void AddLike(uint32_t p, uint32_t msg, core::DateTime date);
  util::Status DeleteLike(uint32_t p, uint32_t msg);

  /// Marks one message dead; appends it to `work` (the BFS frontier) when
  /// newly dead and maintains the parent's live-reply delta.
  void MarkMessageDead(uint32_t msg, std::vector<uint32_t>* work);

  // The static tables, shared by every copy (the dynamic entities have no
  // records: see the person, forum and message columns below).
  std::shared_ptr<const StaticSegment> static_;

  // Id tables of the dynamic entities.
  columnar::FlatIdTable person_idx_, forum_idx_, post_idx_, comment_idx_;

  // Person columns: the only copy of a person row.
  std::vector<core::Id> person_id_;
  std::vector<core::Date> person_birthday_;
  std::vector<core::DateTime> person_creation_;
  std::vector<uint32_t> person_city_, person_country_;
  columnar::StringColumn person_first_name_, person_last_name_,
      person_location_ip_;
  columnar::ListColumn<std::string> person_emails_, person_speaks_;
  columnar::ListColumn<core::StudyAt> person_study_at_;
  columnar::ListColumn<core::WorkAt> person_work_at_;
  // Forum columns: the only copy of a forum row.
  std::vector<core::Id> forum_id_;
  columnar::StringColumn forum_title_;
  std::vector<core::DateTime> forum_creation_;
  std::vector<uint32_t> forum_moderator_;  // person index
  std::vector<core::ForumKind> forum_kind_;
  // Message columns: the only copy of a post or comment row.
  std::vector<core::Id> post_id_, comment_id_;
  std::vector<int32_t> post_length_, comment_length_;
  columnar::StringColumn post_content_, post_image_file_, post_location_ip_;
  columnar::StringColumn comment_content_, comment_location_ip_;
  std::vector<core::DateTime> post_creation_;
  std::vector<uint32_t> post_creator_, post_forum_, post_country_;
  std::vector<core::DateTime> comment_creation_;
  std::vector<uint32_t> comment_creator_, comment_country_;
  std::vector<uint32_t> comment_reply_of_;   // message reference
  std::vector<uint32_t> comment_root_post_;  // post index

  // Shared dictionary + person and message code columns.
  columnar::Dictionary dict_;
  uint32_t female_code_ = dict_.GetOrAdd("female");
  std::vector<uint32_t> person_gender_code_, person_browser_code_;
  std::vector<uint32_t> post_browser_code_, comment_browser_code_;
  std::vector<uint32_t> post_language_code_, comment_root_language_code_;

  // Materialized hot endpoints + per-person message-date zones.
  std::vector<uint32_t> comment_forum_;  // comment → thread's forum
  // Live likes per post / comment: the likers degree at build, +1 per IU
  // 2/3, -1 per like the cascade kills on a live message (CP-6.1 reuse).
  std::vector<uint32_t> post_like_count_, comment_like_count_;
  std::vector<core::DateTime> person_msg_date_min_, person_msg_date_max_;

  // Adjacency.
  AdjacencyList knows_;
  AdjacencyList person_posts_, person_comments_, person_likes_;
  AdjacencyList post_likers_, comment_likers_;
  AdjacencyList forum_members_, person_forums_, forum_posts_,
      person_moderates_;
  AdjacencyList post_replies_, comment_replies_;
  AdjacencyList post_tags_, comment_tags_, forum_tags_, person_interests_;
  AdjacencyList tag_posts_, tag_comments_, tag_forums_, tag_persons_;
  AdjacencyList country_persons_;

  // Creation-date message index: sorted base + zone-mapped update tail.
  MessageDateIndex message_index_;

  // Tombstone state (deep deletes). Vertex bitmaps are sized with the
  // tables; edge tombstones are explicit key sets; the reply delta map
  // turns raw reply degrees into live counts without rewriting CSR spans
  // (live like counts are a maintained column above).
  // dead_replies_per_msg_ only tracks deltas for *live* target messages —
  // a dead target's counter is frozen at death and never read.
  TombstoneBitmap person_dead_, forum_dead_, post_dead_, comment_dead_;
  std::unordered_set<uint64_t> deleted_likes_;        // EdgeKey(person, msg)
  std::unordered_set<uint64_t> deleted_memberships_;  // EdgeKey(person, forum)
  std::unordered_set<uint64_t> deleted_knows_;        // UnorderedEdgeKey
  std::unordered_map<uint32_t, uint32_t> dead_replies_per_msg_;
  uint32_t tombstone_epoch_ = 0;
  uint32_t compaction_epoch_ = 0;
};

}  // namespace snb::storage

#endif  // SNB_STORAGE_GRAPH_H_
