// Audit run: the benchmark-execution workflow of spec §6 — load, validate
// the query implementations, run the measured workload, and print an
// FDR-style (full disclosure report) summary with the §6.2 on-time check
// and the Appendix C checklist answers.
//
//   ./audit_run [num_persons]

#include <cstdio>
#include <cstdlib>

#include "datagen/datagen.h"
#include "driver/driver.h"
#include "driver/validation.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"

int main(int argc, char** argv) {
  using namespace snb;  // NOLINT

  datagen::DatagenConfig config;
  config.num_persons = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 800;
  std::printf("== Preparation (spec 6.1) ==\n");
  std::printf("Datagen: %llu persons, seed %llu, %d years from %d\n",
              static_cast<unsigned long long>(config.num_persons),
              static_cast<unsigned long long>(config.seed), config.num_years,
              config.start_year);
  datagen::GeneratedData data = datagen::Generate(config);
  std::printf("Load: bulk dataset with %zu persons / %zu messages; "
              "%zu update-stream operations withheld\n",
              data.network.persons.size(),
              data.network.posts.size() + data.network.comments.size(),
              data.updates.size());
  storage::Graph graph(std::move(data.network));

  params::CurationConfig pc;
  pc.per_query = 10;
  params::WorkloadParameters params = params::CurateParameters(graph, pc);

  std::printf("\n== Validation (spec 6.2 step 1) ==\n");
  driver::ValidationReport validation =
      driver::ValidateBiImplementations(graph, params, 3);
  std::printf("BI reads: %zu queries x 3 bindings cross-validated against "
              "the reference (naive) engine: %s\n",
              validation.queries_checked,
              validation.ok() ? "PASS" : "FAIL");
  if (!validation.ok()) {
    for (const std::string& q : validation.mismatched_queries) {
      std::printf("  mismatch in %s\n", q.c_str());
    }
    return 1;
  }

  std::printf("\n== Measured run (spec 6.2 step 3) ==\n");
  driver::DriverConfig dc;  // sf_name defaults to "1"
  driver::DriverReport report =
      driver::RunInteractiveWorkload(graph, data.updates, params, dc);
  std::printf("operations: %zu total (%zu updates, %zu complex reads, "
              "%zu short reads)\n",
              report.total_operations, report.update_operations,
              report.complex_reads, report.short_reads);
  std::printf("wall time: %.2f s — throughput %.0f ops/s\n",
              report.wall_seconds, report.throughput_ops_per_sec);
  std::printf("on-time fraction (<1 s late): %.1f%% — audit requires 95%%: "
              "%s\n",
              100 * report.on_time_fraction,
              report.on_time_fraction >= 0.95 ? "PASS" : "FAIL");

  util::Status log_status = driver::WriteResultsLog(
      report.results_log, "/tmp/snb_results_log.csv");
  std::printf("results log: %s (%zu rows) -> /tmp/snb_results_log.csv\n",
              log_status.ok() ? "written" : "FAILED",
              report.results_log.size());

  std::printf("\nresults summary (per operation type):\n");
  std::printf("%-8s %8s %10s %10s %10s\n", "op", "count", "mean ms",
              "p95 ms", "max ms");
  for (const auto& [op, stats] : report.per_operation) {
    std::printf("%-8s %8zu %10.3f %10.3f %10.3f\n", op.c_str(), stats.count,
                stats.MeanMs(), stats.PercentileMs(0.95), stats.max_ms);
  }

  std::printf("\n== Benchmark checklist (spec Appendix C) ==\n");
  std::printf("  cross-validated at one scale factor:   yes (naive engine)\n");
  std::printf("  persistent storage:                    no (in-memory SUT)\n");
  std::printf("  ACID transactions:                     no (single-writer)\n");
  std::printf("  fault tolerance:                       no\n");
  std::printf("  warmup rounds:                         0 (cold run)\n");
  std::printf("  execution rounds:                      1\n");
  std::printf("  summary statistic:                     mean/p95 per op\n");
  std::printf("  loading included in query times:       no\n");
  return 0;
}
