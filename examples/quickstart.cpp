// Quickstart: generate a social network, build the graph store, and run
// one BI query and one Interactive query through the public API.
//
//   ./quickstart [num_persons]

#include <cstdio>
#include <cstdlib>

#include "bi/bi.h"
#include "datagen/datagen.h"
#include "interactive/interactive.h"
#include "storage/graph.h"

int main(int argc, char** argv) {
  using namespace snb;  // NOLINT

  // 1. Generate a deterministic synthetic social network (spec §2.3.3).
  datagen::DatagenConfig config;
  config.num_persons = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1000;
  config.seed = 42;
  std::printf("Generating a network of %llu persons...\n",
              static_cast<unsigned long long>(config.num_persons));
  datagen::GeneratedData data = datagen::Generate(config);
  std::printf("  bulk dataset: %zu persons, %zu posts, %zu comments, "
              "%zu knows edges (+%zu update events)\n",
              data.network.persons.size(), data.network.posts.size(),
              data.network.comments.size(), data.network.knows.size(),
              data.updates.size());

  // 2. Build the in-memory graph store (CSR adjacency + reverse indexes).
  storage::Graph graph(std::move(data.network));

  // 3. A BI read: BI 1 "Posting summary".
  bi::Bi1Params bi1;
  bi1.date = core::DateFromCivil(2013, 1, 1);
  std::printf("\nBI 1 — posting summary before %s:\n",
              core::FormatDate(bi1.date).c_str());
  std::printf("%6s %10s %9s %9s %8s %7s\n", "year", "type", "lengthCat",
              "count", "avgLen", "pct");
  for (const bi::Bi1Row& row : bi::RunBi1(graph, bi1)) {
    std::printf("%6d %10s %9d %9lld %8.1f %6.1f%%\n", row.year,
                row.is_comment ? "comment" : "post", row.length_category,
                static_cast<long long>(row.message_count),
                row.average_message_length,
                100.0 * row.percentage_of_messages);
  }

  // 4. An Interactive read: IC 13 shortest path between two persons.
  core::Id a = graph.PersonId(0);
  core::Id b = graph.PersonId(static_cast<uint32_t>(graph.NumPersons() / 2));
  interactive::Ic13Row path = interactive::RunIc13(graph, {a, b});
  std::printf("\nIC 13 — shortest knows-path between person %lld and %lld: "
              "%d hops\n",
              static_cast<long long>(a), static_cast<long long>(b),
              path.shortest_path_length);
  return 0;
}
