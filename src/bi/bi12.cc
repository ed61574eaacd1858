#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/bound.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi12Row> RunBi12(const Graph& graph, const Bi12Params& params,
                             util::ThreadPool* pool) {
  const core::DateTime after =
      core::DateTimeFromDate(params.date) + core::kMillisPerDay;  // exclusive

  // Post and Comment ids live in separate id spaces, so two messages can
  // share an id; creationDate and the creator-name legs break residual ties
  // deterministically (the merge of per-slot top-k sets needs the same
  // total order — keep the naive engine's comparator in sync). WouldAccept
  // may see empty names, which only ever errs towards accepting; Add
  // re-checks with the projected row.
  auto better = [](const Bi12Row& a, const Bi12Row& b) {
    if (a.like_count != b.like_count) return a.like_count > b.like_count;
    if (a.message_id != b.message_id) return a.message_id < b.message_id;
    if (a.creation_date != b.creation_date) {
      return a.creation_date < b.creation_date;
    }
    if (a.creator_last_name != b.creator_last_name) {
      return a.creator_last_name < b.creator_last_name;
    }
    return a.creator_first_name < b.creator_first_name;
  };
  using Top = engine::TopK<Bi12Row, decltype(better)>;

  // CP-1.3 bound pushdown: the k-th like count, published once a slot's
  // heap is full, prunes whole zone-mapped blocks (block max ≤ threshold,
  // or strictly below the bound) and individual candidates before any id or
  // name is dereferenced. The bound is shared by every slot and prunes
  // against the tightest published value — safe under any interleaving: a
  // candidate strictly below some slot's full-heap k-th cannot enter the
  // merged top-100, and a stale read only loosens the bound. Ties on the
  // bound always pass through to the full comparator, so the result is
  // bit-identical to the oracle.
  engine::BoundRef bound;
  auto key_of = [](const Bi12Row& r) { return r.like_count; };

  // Index range scan over [date+1, ∞) instead of a full scan with a
  // per-message date filter. The per-family form reads each family's like
  // degree without a per-row post/comment branch; only the few candidates
  // that pass the threshold and the bound reach the unified accessors.
  const Graph::MessageRangeView range =
      graph.MessageRange(after, storage::kMaxMessageDate);
  Top top = internal::Aggregate(
      pool, range.size(), [&better] { return Top(100, better); },
      [&](Top& local, size_t begin, size_t end) {
        PollCancel();
        uint64_t rows_skipped = 0;  // counted once per morsel
        auto consider = [&](int64_t likes, uint32_t msg) {
          // Branch-free until a row can place: a row over the threshold
          // but under the bound is only counted.
          const bool over = likes > params.like_threshold;
          const bool placeable = !bound.CannotPlace(likes);
          rows_skipped += over & !placeable;
          if (!(over & placeable)) return;
          Bi12Row row;
          row.message_id = graph.MessageId(msg);
          row.like_count = likes;
          row.creation_date = graph.MessageCreationDate(msg);
          if (!local.WouldAccept(row)) return;  // skip the projection
          const uint32_t creator = graph.MessageCreator(msg);
          row.creator_first_name = graph.PersonFirstName(creator);
          row.creator_last_name = graph.PersonLastName(creator);
          if (local.Add(std::move(row))) local.PublishBound(bound, key_of);
        };
        range.ForEachBounded(
            begin, end,
            [&](int64_t block_max_likes) {
              return block_max_likes <= params.like_threshold ||
                     bound.CannotPlace(block_max_likes);
            },
            [&](uint32_t post) {
              consider(graph.LivePostLikeCount(post),
                       Graph::MessageOfPost(post));
            },
            [&](uint32_t comment) {
              consider(graph.LiveCommentLikeCount(comment),
                       Graph::MessageOfComment(comment));
            });
        storage::CountRowsSkippedBound(rows_skipped);
      },
      [](Top& into, Top& from) {
        for (Bi12Row& row : from.Take()) into.Add(std::move(row));
      });
  return top.Take();
}

}  // namespace snb::bi
