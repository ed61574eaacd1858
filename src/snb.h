// Umbrella header: the full public API of the snb library.
//
//   #include "snb.h"
//
//   snb::datagen::DatagenConfig config;          // generate…
//   auto data = snb::datagen::Generate(config);
//   snb::storage::Graph graph(std::move(data.network));   // …load…
//   auto rows = snb::bi::RunBi1(graph, {date});            // …query.
//
// Individual module headers can be included directly for faster builds.

#ifndef SNB_SNB_H_
#define SNB_SNB_H_

#include "bi/bi.h"                       // BI reads 1–25 (optimized engine)
#include "bi/cancel.h"                   // cooperative query cancellation
#include "bi/naive.h"                    // BI naive baseline engine
#include "core/choke_points.h"           // Table A.1 registry
#include "core/date_time.h"              // Date/DateTime arithmetic
#include "core/scale_factors.h"          // Tables 2.12 / 3.1 / B.1
#include "core/schema.h"                 // entity records (Fig. 2.1)
#include "datagen/datagen.h"             // the correlated generator
#include "datagen/serializer.h"          // CsvBasic/…/Turtle serializers
#include "datagen/statistics.h"          // dataset statistics
#include "datagen/update_stream.h"       // update-stream write/read
#include "driver/driver.h"               // workload driver (§3.4, §6.2)
#include "driver/validation.h"           // engine cross-validation
#include "interactive/interactive.h"     // IC 1–14, IS 1–7
#include "interactive/naive.h"           // Interactive naive baseline
#include "interactive/updates.h"         // IU 1–8 application
#include "params/parameter_curation.h"   // substitution parameters (§3.3)
#include "sched/histogram.h"             // bounded latency histograms
#include "sched/scheduler.h"             // concurrent query streams (§6)
#include "sched/score.h"                 // Power@SF / Throughput@SF
#include "sched/stream.h"                // permuted BI op streams
#include "storage/checkpoint_image.h"    // checkpoint images (§6.3)
#include "storage/export.h"              // graph → raw network
#include "storage/graph.h"               // the graph store
#include "storage/loader.h"              // CsvBasic bulk loader
#include "validate/validator.h"         // audit checks (§6.1.3)

#endif  // SNB_SNB_H_
