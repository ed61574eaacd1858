#include <algorithm>
#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi18Row> RunBi18(const Graph& graph, const Bi18Params& params) {
  const core::DateTime after = core::DateTimeFromDate(params.date);

  // Dictionary-encode the language filter once: an absent language maps to
  // kNoCode, which no stored message carries, so it simply never matches.
  std::vector<uint32_t> language_codes;
  language_codes.reserve(params.languages.size());
  for (const std::string& lang : params.languages) {
    language_codes.push_back(graph.Dict().Find(lang));
  }
  auto language_ok = [&](uint32_t code) {
    return std::find(language_codes.begin(), language_codes.end(), code) !=
           language_codes.end();
  };

  // messageCount per person over qualifying messages. creationDate > date
  // ⇔ the index range [date+1, ∞): the scan prunes everything older
  // through the sorted base + tail zone maps (CP-2.2/2.3) instead of
  // filtering full table scans, and the language check probes the
  // dictionary-code hot columns (the comment side reads the materialized
  // thread-root language — a 2-hop endpoint column) rather than comparing
  // strings.
  CancelPoller poll;
  std::vector<int64_t> message_count(graph.NumPersons(), 0);
  graph.ForEachMessageInRange(
      after + 1, storage::kMaxMessageDate, [&](uint32_t msg) {
        poll.Tick();
        if (graph.MessageLength(msg) >= params.length_threshold) return;
        if (!graph.MessageHasContent(msg)) return;  // e.g. image posts
        if (Graph::IsPost(msg)) {
          if (!language_ok(graph.PostLanguageCode(msg))) return;
          ++message_count[graph.PostCreator(msg)];
        } else {
          const uint32_t comment = Graph::AsComment(msg);
          // A comment's language is the language of its thread's root post.
          if (!language_ok(graph.CommentRootLanguageCode(comment))) return;
          ++message_count[graph.CommentCreator(comment)];
        }
      });

  // Histogram: persons per messageCount value — including zero.
  std::unordered_map<int64_t, int64_t> histogram;
  for (uint32_t p = 0; p < graph.NumPersons(); ++p) {
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
