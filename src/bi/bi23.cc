#include <unordered_map>

#include "bi/bi.h"
#include "bi/cancel.h"
#include "bi/common.h"
#include "engine/top_k.h"

namespace snb::bi {

std::vector<Bi23Row> RunBi23(const Graph& graph, const Bi23Params& params,
                             util::ThreadPool* pool) {
  using internal::CountryIdx;
  std::vector<Bi23Row> rows;
  const uint32_t home = CountryIdx(graph, params.country);
  if (home == storage::kNoIdx) return rows;

  // (destination country, month) → count.
  using CountMap = std::unordered_map<uint64_t, int64_t>;
  const CountMap counts = internal::Aggregate(
      pool, graph.NumMessages(), [] { return CountMap{}; },
      [&](CountMap& local, size_t begin, size_t end) {
        PollCancel();
        graph.ForEachMessage(begin, end, [&](uint32_t msg) {
          uint32_t creator = graph.MessageCreator(msg);
          if (graph.PersonCountry(creator) != home) return;
          uint32_t dest = graph.MessageCountry(msg);
          if (dest == home) return;
          int32_t month = core::Month(graph.MessageCreationDate(msg));
          ++local[internal::PairKey(dest, static_cast<uint32_t>(month))];
        });
      },
      [](CountMap& into, const CountMap& from) {
        for (const auto& [key, count] : from) into[key] += count;
      });

  rows.reserve(counts.size());
  for (const auto& [key, count] : counts) {
    uint32_t dest = static_cast<uint32_t>(key >> 32);
    int32_t month = static_cast<int32_t>(static_cast<uint32_t>(key));
    rows.push_back({count, graph.PlaceAt(dest).name, month});
  }
  engine::SortAndLimit(
      rows,
      [](const Bi23Row& a, const Bi23Row& b) {
        if (a.message_count != b.message_count) {
          return a.message_count > b.message_count;
        }
        if (a.destination != b.destination) {
          return a.destination < b.destination;
        }
        return a.month < b.month;
      },
      100);
  return rows;
}

}  // namespace snb::bi
