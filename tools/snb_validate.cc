// snb_validate — standalone graph-invariant checker (the "arbitrary checks
// of the data" tool the audit workflow asks for, spec §6.1.3).
//
// Modes:
//   snb_validate --generate <sf>          datagen at the given scale factor
//                                         (default 0.003), build, validate
//   snb_validate --load <dir>             decode the checkpoint image
//                                         <dir>/graph.img when there is
//                                         one (a store's checkpoint/
//                                         directory), else load <dir> as
//                                         CsvBasic and build; validate
//   snb_validate ... --deletes <dir>      also read the update streams under
//                                         <dir> and apply their DEL 1–8
//                                         events (cascading), then validate
//                                         the tombstoned graph and print the
//                                         tombstone report
//   snb_validate ... --expect-sf <sf>     additionally check cardinalities
//                                         against the SF's Table 2.12 row
//
// Exit status: 0 when every invariant holds, 1 on violations (printed,
// grouped by invariant name — the tombstone-* classes cover delete
// invariants, so a torn cascade exits non-zero like any corruption), 2 on
// usage or load/apply errors.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/scale_factors.h"
#include "datagen/datagen.h"
#include "datagen/update_stream.h"
#include "interactive/updates.h"
#include "storage/checkpoint_image.h"
#include "storage/graph.h"
#include "storage/loader.h"
#include "validate/validator.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--generate <sf> | --load <dir>] [--deletes <dir>]"
               " [--expect-sf <sf>]\n",
               argv0);
  return 2;
}

/// Live-vs-tombstoned census of the graph, printed whenever the run applied
/// deletes (and on demand after any load that left tombstones behind).
void PrintTombstoneReport(const snb::storage::Graph& graph) {
  auto row = [](const char* name, size_t live, size_t total) {
    std::printf("  %-10s %zu live / %zu tombstoned\n", name, live,
                total - live);
  };
  std::printf("tombstones:\n");
  row("persons", graph.NumLivePersons(), graph.NumPersons());
  row("forums", graph.NumLiveForums(), graph.NumForums());
  row("posts", graph.NumLivePosts(), graph.NumPosts());
  row("comments", graph.NumLiveComments(), graph.NumComments());
  std::printf("  completed cascades (tombstone epoch): %u\n",
              graph.TombstoneEpoch());
  std::printf("  compaction epoch: %u\n", graph.CompactionEpoch());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snb;  // NOLINT

  std::string generate_sf = "0.003";
  std::string load_dir;
  std::string deletes_dir;
  std::string expect_sf;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--generate") == 0 && i + 1 < argc) {
      generate_sf = argv[++i];
    } else if (std::strcmp(arg, "--load") == 0 && i + 1 < argc) {
      load_dir = argv[++i];
    } else if (std::strcmp(arg, "--deletes") == 0 && i + 1 < argc) {
      deletes_dir = argv[++i];
    } else if (std::strcmp(arg, "--expect-sf") == 0 && i + 1 < argc) {
      expect_sf = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }

  validate::ValidatorOptions options;

  std::unique_ptr<storage::Graph> graph;
  const std::string image = load_dir + "/" + storage::kImageFileName;
  if (!load_dir.empty() && std::filesystem::exists(image)) {
    util::Status st = storage::DecodeGraphImage(image, &graph);
    if (!st.ok()) {
      std::fprintf(stderr, "snb_validate: image decode failed: %s\n",
                   st.ToString().c_str());
      return 2;
    }
  } else if (!load_dir.empty()) {
    auto loaded = storage::LoadCsvBasic(load_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "snb_validate: load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    graph = std::make_unique<storage::Graph>(std::move(loaded).value());
  } else {
    auto sf = core::FindScaleFactor(generate_sf);
    if (!sf.has_value()) {
      std::fprintf(stderr, "snb_validate: unknown scale factor '%s'\n",
                   generate_sf.c_str());
      return 2;
    }
    datagen::DatagenConfig cfg;
    cfg.num_persons = sf->num_persons;
    graph = std::make_unique<storage::Graph>(
        std::move(datagen::Generate(cfg).network));
    // A generated dataset's cardinality is checkable by construction.
    options.expect_sf = *sf;
  }

  if (!expect_sf.empty()) {
    auto sf = core::FindScaleFactor(expect_sf);
    if (!sf.has_value()) {
      std::fprintf(stderr, "snb_validate: unknown scale factor '%s'\n",
                   expect_sf.c_str());
      return 2;
    }
    options.expect_sf = *sf;
  }

  std::printf("snb_validate: %zu persons, %zu forums, %zu messages\n",
              graph->NumPersons(), graph->NumForums(), graph->NumMessages());

  if (!deletes_dir.empty()) {
    auto updates = datagen::ReadUpdateStreams(deletes_dir);
    if (!updates.ok()) {
      std::fprintf(stderr, "snb_validate: cannot read update streams: %s\n",
                   updates.status().ToString().c_str());
      return 2;
    }
    size_t applied = 0;
    for (const datagen::UpdateEvent& event : updates.value()) {
      if (!datagen::IsDeleteKind(event.kind)) continue;
      util::Status st = interactive::ApplyUpdate(*graph, event);
      if (!st.ok()) {
        std::fprintf(stderr,
                     "snb_validate: cascade failed (graph is torn): %s\n",
                     st.ToString().c_str());
        return 2;
      }
      ++applied;
    }
    std::printf("applied %zu delete events\n", applied);
  }
  if (!deletes_dir.empty() || graph->HasTombstones()) {
    PrintTombstoneReport(*graph);
  }

  validate::ValidationReport report = validate::ValidateGraph(*graph, options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s", report.ToString().c_str());
    std::printf("FAILED: %zu violation(s) across %zu invariant class(es)\n",
                report.violations.size(), report.invariants_checked);
    return 1;
  }
  std::printf("OK: all %zu invariant classes hold\n",
              report.invariants_checked);
  return 0;
}
