// Fuzz harness: update-event line parsing (datagen::ParseUpdateEventLine).
//
// Update-stream lines cross a trust boundary twice: read back from the
// updateStream_*.csv files and decoded out of WAL record payloads during
// crash recovery. The parser must treat every byte sequence as hostile.
//
// Contract: ParseUpdateEventLine never crashes — it fills the event and
// returns OK, or returns a Corruption Status. For accepted lines the
// harness additionally asserts the serializer round-trip: formatting the
// parsed event and reparsing it must succeed (the WAL writes exactly that
// formatted form, so "parseable once but not after a rewrite" would be a
// recovery-breaking bug, not a nit).
//
// Every accepted event is then applied through interactive::ApplyUpdate to
// a copy of one small fixed graph (fuzz_graph.h): the IU 1–8 and DEL 1–8
// mutators must never abort either, whatever the event names — missing,
// tombstoned or already-present ids are Ok no-ops.
//
// The updated graph is then compacted, differentially: Graph::Compact()
// must pass validate::ValidateGraph and export exactly what a bulk build of
// the graph's export, Graph(ExportNetwork(g), epoch), exports.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "datagen/update_stream.h"
#include "fuzz_graph.h"
#include "interactive/updates.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "util/check.h"
#include "validate/validator.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string line(reinterpret_cast<const char*>(data), size);
  snb::datagen::UpdateEvent event;
  snb::util::Status st = snb::datagen::ParseUpdateEventLine(line, &event);
  if (!st.ok()) return 0;

  std::string canonical = snb::datagen::FormatUpdateEventLine(event);
  snb::datagen::UpdateEvent reparsed;
  snb::util::Status st2 =
      snb::datagen::ParseUpdateEventLine(canonical, &reparsed);
  SNB_CHECK(st2.ok());
  // The canonical form is a fixed point: formatting the reparsed event
  // must reproduce it byte for byte.
  SNB_CHECK(snb::datagen::FormatUpdateEventLine(reparsed) == canonical);

  static const snb::storage::Graph* const base =
      new snb::storage::Graph(snb::fuzz::MakeFuzzNetwork());
  snb::storage::Graph graph(*base);
  SNB_CHECK(snb::interactive::ApplyUpdate(graph, event).ok());

  const std::unique_ptr<snb::storage::Graph> compacted = graph.Compact();
  SNB_CHECK(snb::validate::ValidateGraph(*compacted).ok());
  const snb::storage::Graph oracle(
      snb::storage::ExportNetwork(graph),
      graph.CompactionEpoch() + (graph.HasTombstones() ? 1 : 0));
  SNB_CHECK_EQ(compacted->CompactionEpoch(), oracle.CompactionEpoch());
  SNB_CHECK(snb::storage::ExportNetwork(*compacted) ==
            snb::storage::ExportNetwork(oracle));
  return 0;
}
