#include <algorithm>
#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/bound.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi2Row> RunBi2(const Graph& graph, const Bi2Params& params,
                           util::ThreadPool* pool) {
  using internal::Bi2Key;
  using internal::Bi2KeyHash;
  using internal::CountryIdx;
  const core::DateTime start = core::DateTimeFromDate(params.start_date);
  const core::DateTime end =
      core::DateTimeFromDate(params.end_date) + core::kMillisPerDay;
  const core::DateTime sim_end = core::DateTimeFromDate(params.simulation_end);

  // The scan domain: the persons of each distinct, known country, country
  // after country — positions [0, sizes[0]) then [sizes[0], sum).
  uint32_t countries[2] = {CountryIdx(graph, params.country1),
                           CountryIdx(graph, params.country2)};
  if (countries[1] == countries[0]) countries[1] = storage::kNoIdx;
  size_t sizes[2] = {0, 0};
  for (int c = 0; c < 2; ++c) {
    if (countries[c] != storage::kNoIdx) {
      sizes[c] = graph.CountryPersons().Degree(countries[c]);
    }
  }

  // Age group: whole 5-year buckets of the person's age at simulation end.
  auto age_group_of = [&](uint32_t person) {
    core::DateTime birth =
        core::DateTimeFromDate(graph.PersonBirthday(person));
    int64_t years = (sim_end - birth) / (365 * core::kMillisPerDay);
    return static_cast<int32_t>(years / 5);
  };

  using CountMap = std::unordered_map<Bi2Key, int64_t, Bi2KeyHash>;
  auto scan_person_messages = [&](CountMap& counts, uint32_t person,
                                  uint32_t country) {
    // Person-granularity date-zone pruning (CP-2.3): a person whose message
    // dates all miss the window contributes nothing — skip the expansion
    // before touching either adjacency list.
    if (!graph.PersonHasMessagesIn(person, start, end)) {
      storage::CountBlocksSkippedDate(1);
      return;
    }
    bool female = graph.PersonIsFemale(person);
    int32_t age_group = age_group_of(person);
    auto handle = [&](uint32_t msg) {
      storage::CountRowsDecoded(1);
      core::DateTime created = graph.MessageCreationDate(msg);
      if (created < start || created >= end) return;
      int32_t month = core::Month(created);
      graph.ForEachMessageTag(msg, [&](uint32_t tag) {
        ++counts[{country, month, female, age_group, tag}];
      });
    };
    graph.PersonPosts().ForEach(person, [&](uint32_t post) {
      handle(Graph::MessageOfPost(post));
    });
    graph.PersonComments().ForEach(person, [&](uint32_t comment) {
      handle(Graph::MessageOfComment(comment));
    });
  };

  const CountMap counts = internal::Aggregate(
      pool, sizes[0] + sizes[1], [] { return CountMap{}; },
      [&](CountMap& local, size_t begin, size_t domain_end) {
        PollCancel();
        size_t offset = 0;
        for (int c = 0; c < 2; ++c) {
          if (begin < offset + sizes[c] && domain_end > offset) {
            graph.CountryPersons().ForEachSlice(
                countries[c], begin > offset ? begin - offset : 0,
                std::min(domain_end - offset, sizes[c]), [&](uint32_t person) {
                  scan_person_messages(local, person, countries[c]);
                });
          }
          offset += sizes[c];
        }
      },
      [](CountMap& into, const CountMap& from) {
        for (const auto& [key, count] : from) into[key] += count;
      },
      internal::kExpandMorselSize);

  // Top-k finisher over integer-keyed candidates: the CP-1.3 bound on the
  // message count drops losing groups before any name string is built (the
  // tie-break legs dereference tag/place names lazily, and only the final
  // ≤100 rows materialize strings). The comparator mirrors the row
  // comparator exactly: "female" < "male", so female-first is the bool leg.
  struct Cand {
    Bi2Key key;
    int64_t count;
  };
  auto better = [&graph](const Cand& a, const Cand& b) {
    if (a.count != b.count) return a.count > b.count;
    const std::string& ta = graph.TagAt(a.key.tag).name;
    const std::string& tb = graph.TagAt(b.key.tag).name;
    if (ta != tb) return ta < tb;
    if (a.key.gender_female != b.key.gender_female) {
      return a.key.gender_female;
    }
    if (a.key.age_group != b.key.age_group) {
      return a.key.age_group < b.key.age_group;
    }
    if (a.key.month != b.key.month) return a.key.month < b.key.month;
    return graph.PlaceAt(a.key.country).name <
           graph.PlaceAt(b.key.country).name;
  };
  engine::BoundRef bound;
  auto key_of = [](const Cand& c) { return c.count; };
  engine::TopK<Cand, decltype(better)> top(100, better);
  for (const auto& [key, count] : counts) {
    if (count <= params.threshold) continue;
    if (bound.CannotPlace(count)) {
      storage::CountRowsSkippedBound(1);
      continue;
    }
    if (top.Add({key, count})) top.PublishBound(bound, key_of);
  }

  std::vector<Bi2Row> rows;
  for (const Cand& c : top.Take()) {
    Bi2Row row;
    row.country = graph.PlaceAt(c.key.country).name;
    row.month = c.key.month;
    row.gender = c.key.gender_female ? "female" : "male";
    row.age_group = c.key.age_group;
    row.tag = graph.TagAt(c.key.tag).name;
    row.message_count = c.count;
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace snb::bi
