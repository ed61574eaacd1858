// snb_datagen — bounded-memory streaming datagen CLI.
//
// Generates the CsvBasic dataset and update streams through
// datagen::GenerateStreaming: messages are never materialized; external
// merge-sort runs spill to --spill-dir under --budget-mb. Output is
// byte-identical to the in-memory pipeline at every budget.
//
//   snb_datagen <out_dir> [--persons <n>] [--seed <s>] [--budget-mb <mb>]
//               [--spill-dir <dir>]           default <out_dir>/.spill
//               [--verify-load]               load + build graph afterwards
//               [--max-bytes-per-edge <b>]    with --verify-load: fail when
//                                             the compressed store exceeds b
//               [--derive-deletes]            derive a DEL 1–8 stream from
//                                             the bulk dataset (opt-in; the
//                                             classic output is insert-only)
//               [--delete-days <n>]           spread deletes over n days
//
// Exit status: 0 on success, 1 on generation/load failure or a violated
// --max-bytes-per-edge budget, 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "datagen/delete_stream.h"
#include "datagen/streaming.h"
#include "datagen/update_stream.h"
#include "storage/graph.h"
#include "storage/loader.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <out_dir> [--persons <n>] [--seed <s>] "
               "[--budget-mb <mb>] [--spill-dir <dir>] [--verify-load] "
               "[--max-bytes-per-edge <b>] [--derive-deletes] "
               "[--delete-days <n>]\n",
               argv0);
  return 2;
}

// Appends the derived DEL stream as the optional third update-stream file.
// Writes only that file: the person/forum streams already on disk stay
// byte-identical to an insert-only run.
int WriteDeleteStream(const std::string& out_dir,
                      const std::vector<snb::datagen::UpdateEvent>& events) {
  const std::string path = out_dir + "/updateStream_0_0_delete.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  for (const auto& e : events) {
    std::string line = snb::datagen::FormatUpdateEventLine(e);
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), f);
  }
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "fclose failed for %s\n", path.c_str());
    return 1;
  }
  std::printf("derived %zu delete events -> %s\n", events.size(),
              path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snb;  // NOLINT

  if (argc < 2 || argv[1][0] == '-') return Usage(argv[0]);
  datagen::StreamingOptions options;
  options.out_dir = argv[1];
  options.spill_dir = options.out_dir + "/.spill";
  bool verify_load = false;
  double max_bytes_per_edge = 0;
  bool derive_deletes = false;
  int32_t delete_days = 7;

  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--persons") == 0 && i + 1 < argc) {
      options.datagen.num_persons = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--seed") == 0 && i + 1 < argc) {
      options.datagen.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(arg, "--budget-mb") == 0 && i + 1 < argc) {
      options.memory_budget_bytes =
          std::strtoull(argv[++i], nullptr, 10) << 20;
    } else if (std::strcmp(arg, "--spill-dir") == 0 && i + 1 < argc) {
      options.spill_dir = argv[++i];
    } else if (std::strcmp(arg, "--verify-load") == 0) {
      verify_load = true;
    } else if (std::strcmp(arg, "--max-bytes-per-edge") == 0 && i + 1 < argc) {
      max_bytes_per_edge = std::strtod(argv[++i], nullptr);
      verify_load = true;
    } else if (std::strcmp(arg, "--derive-deletes") == 0) {
      derive_deletes = true;
    } else if (std::strcmp(arg, "--delete-days") == 0 && i + 1 < argc) {
      delete_days = static_cast<int32_t>(std::strtol(argv[++i], nullptr, 10));
      derive_deletes = true;
    } else {
      return Usage(argv[0]);
    }
  }

  std::printf("streaming datagen: %llu persons, seed %llu, budget %zu MiB\n",
              static_cast<unsigned long long>(options.datagen.num_persons),
              static_cast<unsigned long long>(options.datagen.seed),
              options.memory_budget_bytes >> 20);
  datagen::StreamingStats stats;
  util::Status status = datagen::GenerateStreaming(options, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf(
      "  persons %zu, knows %zu, forums %zu, memberships %zu\n"
      "  posts %zu, comments %zu, likes %zu, update events %zu\n"
      "  spill runs %zu, orphans reclaimed %zu\n",
      stats.persons, stats.knows, stats.forums, stats.memberships,
      stats.posts, stats.comments, stats.likes, stats.update_events,
      stats.spill_runs, stats.orphans_reclaimed);

  if (derive_deletes) {
    auto bulk = storage::LoadCsvBasic(options.out_dir);
    if (!bulk.ok()) {
      std::fprintf(stderr, "load for delete derivation failed: %s\n",
                   bulk.status().ToString().c_str());
      return 1;
    }
    datagen::DeleteStreamOptions del;
    del.seed = options.datagen.seed;
    del.days = delete_days;
    std::vector<datagen::UpdateEvent> deletes =
        datagen::DeriveDeleteStream(bulk.value(), del);
    int rc = WriteDeleteStream(options.out_dir, deletes);
    if (rc != 0) return rc;
  }

  if (!verify_load) return 0;

  std::printf("verify-load: loading %s...\n", options.out_dir.c_str());
  auto loaded = storage::LoadCsvBasic(options.out_dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  storage::Graph graph(std::move(loaded.value()));
  storage::columnar::MemoryBreakdown mb = graph.Memory();
  std::printf("%s", mb.ToString().c_str());
  if (max_bytes_per_edge > 0 && mb.BytesPerEdge() > max_bytes_per_edge) {
    std::fprintf(stderr,
                 "FAIL: bytes/edge %.2f exceeds budget %.2f\n",
                 mb.BytesPerEdge(), max_bytes_per_edge);
    return 1;
  }
  return 0;
}
