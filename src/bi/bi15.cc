#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi15Row> RunBi15(const Graph& graph, const Bi15Params& params) {
  using internal::CountryIdx;
  std::vector<Bi15Row> rows;
  const uint32_t country = CountryIdx(graph, params.country);
  if (country == storage::kNoIdx) return rows;

  std::vector<uint32_t> locals;
  graph.CountryPersons().ForEach(country,
                                 [&](uint32_t p) { locals.push_back(p); });
  if (locals.empty()) return rows;

  // Same-country friend counts (shared by the average and the filter —
  // CP-5.3).
  CancelPoller poll;
  std::vector<int64_t> counts(locals.size(), 0);
  int64_t total = 0;
  for (size_t i = 0; i < locals.size(); ++i) {
    int64_t c = 0;
    graph.Knows().ForEach(locals[i], [&](uint32_t f) {
      poll.Tick();
      if (graph.PersonCountry(f) == country) ++c;
    });
    counts[i] = c;
    total += c;
  }
  const int64_t floor_avg = total / static_cast<int64_t>(locals.size());

  for (size_t i = 0; i < locals.size(); ++i) {
    if (counts[i] == floor_avg) {
      rows.push_back({graph.PersonId(locals[i]), counts[i]});
    }
  }
  engine::SortAndLimit(
      rows,
      [](const Bi15Row& a, const Bi15Row& b) {
        return a.person_id < b.person_id;
      },
      100);
  return rows;
}

}  // namespace snb::bi
