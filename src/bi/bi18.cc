#include <cstdint>
#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi18Row> RunBi18(const Graph& graph, const Bi18Params& params) {
  const core::DateTime after = core::DateTimeFromDate(params.date);

  // Dictionary-encode the language filter once, as a bitmap over the
  // dictionary's codes: an absent language has no code and sets no bit.
  std::vector<uint8_t> language_ok(graph.Dict().size(), 0);
  for (const std::string& lang : params.languages) {
    const uint32_t code = graph.Dict().Find(lang);
    if (code != storage::columnar::Dictionary::kNoCode) language_ok[code] = 1;
  }

  // messageCount per person over qualifying messages. creationDate > date
  // ⇔ the index range [date+1, ∞): the scan prunes everything older
  // through the sorted base + tail zone maps (CP-2.2/2.3) instead of
  // filtering full table scans. The per-family form checks each family's
  // columns without a per-row post/comment branch, and the language check
  // probes the dictionary-code hot columns (the comment side reads the
  // materialized thread-root language — a 2-hop endpoint column) rather
  // than comparing strings. Image posts have no content and never count.
  CancelPoller poll;
  std::vector<int64_t> message_count(graph.NumPersons(), 0);
  const Graph::MessageRangeView range =
      graph.MessageRange(after + 1, storage::kMaxMessageDate);
  range.ForEach(
      0, range.size(),
      [&](uint32_t post) {
        poll.Tick();
        const bool counts =
            (graph.PostLength(post) < params.length_threshold) &
            (language_ok[graph.PostLanguageCode(post)] != 0) &
            graph.PostHasContent(post);
        message_count[graph.PostCreator(post)] += counts;
      },
      [&](uint32_t comment) {
        poll.Tick();
        // A comment's language is the language of its thread's root post.
        const bool counts =
            (graph.CommentLength(comment) < params.length_threshold) &
            (language_ok[graph.CommentRootLanguageCode(comment)] != 0) &
            graph.CommentHasContent(comment);
        message_count[graph.CommentCreator(comment)] += counts;
      });

  // Histogram: persons per messageCount value — including zero — over
  // live persons only, as the compacted graph would count them.
  const bool tombstones = graph.HasTombstones();
  std::unordered_map<int64_t, int64_t> histogram;
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
    if (tombstones && !graph.PersonAlive(p)) continue;
    ++histogram[message_count[p]];
  }

  std::vector<Bi18Row> rows;
  rows.reserve(histogram.size());
  for (const auto& [messages, persons] : histogram) {
    rows.push_back({messages, persons});
  }
  engine::SortAndLimit(
      rows,
      [](const Bi18Row& a, const Bi18Row& b) {
        if (a.person_count != b.person_count) {
          return a.person_count > b.person_count;
        }
        return a.message_count > b.message_count;
      },
      0);
  return rows;
}

}  // namespace snb::bi
