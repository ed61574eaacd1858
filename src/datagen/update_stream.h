// Update-stream serialization (spec §2.3.4.3, Tables 2.17–2.18).
//
// Two files: updateStream_0_0_person.csv carries IU 1 (add person) and
// updateStream_0_0_forum.csv carries IU 2–8. Each line is
// `t|t_d|opId|<operation fields…>` where t is the simulation timestamp and
// t_d the dependency timestamp (latest creation among referenced entities).
//
// Deep deletes (DEL 1–8, arXiv 2307.04820) travel in a third, optional file
// updateStream_0_0_delete.csv with opIds 9–16 in the same line dialect.
// The file exists only when the generator emitted deletes, so insert-only
// runs stay byte-identical to the classic two-file layout.

#ifndef SNB_DATAGEN_UPDATE_STREAM_H_
#define SNB_DATAGEN_UPDATE_STREAM_H_

#include <string>
#include <vector>

#include "datagen/datagen.h"
#include "util/status.h"

namespace snb::datagen {

/// Appends a whole event as one stream line `t|t_d|opId|fields…` (no
/// trailing newline) to `out`, with no temporary strings. Shared by the
/// update-stream files and the WAL's record payloads, so both speak the
/// same Table 2.18 dialect.
void AppendUpdateEventLine(const UpdateEvent& event, std::string* out);

/// AppendUpdateEventLine into a fresh string.
std::string FormatUpdateEventLine(const UpdateEvent& event);

/// Parses one stream line; inverse of FormatUpdateEventLine (exact for
/// generated data, which is millisecond-precise).
util::Status ParseUpdateEventLine(const std::string& line, UpdateEvent* out);

/// Writes the stream files under `dir` (the delete file only when `updates`
/// contains delete events).
util::Status WriteUpdateStreams(const std::vector<UpdateEvent>& updates,
                                const std::string& dir);

/// Reads the stream files back into a single timestamp-ordered event list —
/// the driver-side consumer of the Datagen artefacts. Inverse of
/// WriteUpdateStreams up to sub-millisecond text truncation (exact for
/// generated data, which is millisecond-precise). Same-timestamp inserts
/// sort before deletes that may reference them.
util::StatusOr<std::vector<UpdateEvent>> ReadUpdateStreams(
    const std::string& dir);

}  // namespace snb::datagen

#endif  // SNB_DATAGEN_UPDATE_STREAM_H_
