// snb_datagen — datagen CLI.
//
// Generates the CsvBasic dataset and update streams (datagen::Generate,
// written out by WriteCsvBasic and WriteUpdateStreams) under <out_dir>.
//
//   snb_datagen <out_dir> [--persons <n>]     n >= 2, default 1500
//               [--seed <s>]
//               [--verify-load]               load + build graph afterwards
//               [--max-bytes-per-edge <b>]    with --verify-load: fail when
//                                             the compressed store exceeds b
//               [--derive-deletes]            derive a DEL 1–8 stream from
//                                             the bulk dataset (opt-in; the
//                                             classic output is insert-only)
//               [--delete-days <n>]           spread deletes over n >= 1 days
//
// Exit status: 0 on success, 1 on generation/load failure or a violated
// --max-bytes-per-edge budget, 2 on usage errors.

#include <charconv>
#include <cmath>
#include <cstdio>
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
               "[--verify-load] [--max-bytes-per-edge <b>] "
               "[--derive-deletes] [--delete-days <n>]\n"
               "  --persons n >= 2, --delete-days n >= 1, "
               "--max-bytes-per-edge b > 0\n",
               argv0);
  return 2;
}

// Parses all of `text` as a T: false on an empty string, trailing junk, a
// sign on an unsigned type, or overflow.
template <typename T>
bool ParseValue(const char* text, T* out) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, *out);
  return ec == std::errc() && ptr == end && ptr != text;
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
  bool verify_load = false;
  double max_bytes_per_edge = 0;
  bool derive_deletes = false;
  int32_t delete_days = 7;

  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = true;
    if (std::strcmp(arg, "--persons") == 0 && value != nullptr) {
      ok = ParseValue(value, &options.datagen.num_persons) &&
           options.datagen.num_persons >= 2;
      ++i;
    } else if (std::strcmp(arg, "--seed") == 0 && value != nullptr) {
      ok = ParseValue(value, &options.datagen.seed);
      ++i;
    } else if (std::strcmp(arg, "--verify-load") == 0) {
      verify_load = true;
    } else if (std::strcmp(arg, "--max-bytes-per-edge") == 0 &&
               value != nullptr) {
      ok = ParseValue(value, &max_bytes_per_edge) &&
           std::isfinite(max_bytes_per_edge) && max_bytes_per_edge > 0;
      verify_load = true;
      ++i;
    } else if (std::strcmp(arg, "--derive-deletes") == 0) {
      derive_deletes = true;
    } else if (std::strcmp(arg, "--delete-days") == 0 && value != nullptr) {
      ok = ParseValue(value, &delete_days) && delete_days >= 1;
      derive_deletes = true;
      ++i;
    } else {
      ok = false;
    }
    if (!ok) return Usage(argv[0]);
  }

  std::printf("datagen: %llu persons, seed %llu\n",
              static_cast<unsigned long long>(options.datagen.num_persons),
              static_cast<unsigned long long>(options.datagen.seed));
  datagen::StreamingStats stats;
  util::Status status = datagen::GenerateStreaming(options, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf(
      "  persons %zu, knows %zu, forums %zu, memberships %zu\n"
      "  posts %zu, comments %zu, likes %zu, update events %zu\n",
      stats.persons, stats.knows, stats.forums, stats.memberships,
      stats.posts, stats.comments, stats.likes, stats.update_events);

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
