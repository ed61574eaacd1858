// Interactive update operations IU 1–8 and deep deletes DEL 1–8: application
// of Datagen-produced update events to a live graph store.

#ifndef SNB_INTERACTIVE_UPDATES_H_
#define SNB_INTERACTIVE_UPDATES_H_

#include "datagen/datagen.h"
#include "storage/graph.h"
#include "util/status.h"

namespace snb::interactive {

/// Applies one update event to the graph. Inserts (IU 1–8) return Ok; one
/// naming a missing or tombstoned entity, or an id that already exists,
/// leaves the graph unchanged. For deletes (DEL 1–8) missing targets are Ok
/// no-ops (idempotent replay); a non-Ok return means a cascade was torn
/// mid-flight (injected fault) and the graph must be discarded, not retried
/// in place.
util::Status ApplyUpdate(storage::Graph& graph,
                         const datagen::UpdateEvent& event);

}  // namespace snb::interactive

#endif  // SNB_INTERACTIVE_UPDATES_H_
