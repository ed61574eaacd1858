#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"

namespace snb::bi {

std::vector<Bi17Row> RunBi17(const Graph& graph, const Bi17Params& params,
                             util::ThreadPool* pool) {
  using internal::CountryIdx;
  using internal::PersonsOfCountry;
  const uint32_t country = CountryIdx(graph, params.country);
  if (country == storage::kNoIdx) return {{0}};
  const std::vector<bool> local = PersonsOfCountry(graph, country);
  const size_t num_persons = graph.NumPersons();

  // Triangle counting by edge iteration with a marked-neighbour bitmap:
  // for each a, mark a's in-country neighbours > a, then for each such
  // neighbour b scan b's neighbours c > b for marks. Partitioning by the
  // lowest vertex a finds each triangle {a<b<c} exactly once; every slot
  // carries its own bitmap.
  struct State {
    std::vector<uint8_t> marked;
    int64_t triangles = 0;
  };
  const State all = internal::Aggregate(
      pool, num_persons,
      [num_persons] { return State{std::vector<uint8_t>(num_persons, 0), 0}; },
      [&](State& s, size_t begin, size_t end) {
        PollCancel();
        std::vector<uint32_t> bs;
        for (size_t i = begin; i < end; ++i) {
          const uint32_t a = static_cast<uint32_t>(i);
          if (!local[a]) continue;
          bs.clear();
          graph.Knows().ForEach(a, [&](uint32_t b) {
            if (b > a && local[b]) {
              s.marked[b] = 1;
              bs.push_back(b);
            }
          });
          for (uint32_t b : bs) {
            graph.Knows().ForEach(b, [&](uint32_t c) {
              if (c > b && s.marked[c]) ++s.triangles;
            });
          }
          for (uint32_t b : bs) s.marked[b] = 0;
        }
      },
      [](State& into, const State& from) { into.triangles += from.triangles; },
      internal::kExpandMorselSize);
  return {{all.triangles}};
}

}  // namespace snb::bi
