#include "driver/validation.h"

#include <algorithm>

#include "bi/bi.h"
#include "bi/naive.h"

namespace snb::driver {

ValidationReport ValidateBiImplementations(
    const storage::Graph& graph, const params::WorkloadParameters& params,
    size_t bindings_per_query) {
  ValidationReport report;

  // Kernels are called by name (not passed as function pointers), so the
  // partitioned kernels' trailing pool argument takes its default.
  auto check = [&](const std::string& name, const auto& bindings,
                   auto&& optimized, auto&& naive_fn) {
    ++report.queries_checked;
    size_t n = std::min(bindings_per_query, bindings.size());
    bool mismatch = false;
    for (size_t i = 0; i < n; ++i) {
      ++report.bindings_checked;
      if (optimized(bindings[i]) != naive_fn(bindings[i])) mismatch = true;
    }
    if (mismatch) report.mismatched_queries.push_back(name);
  };
#define SNB_VALIDATE_BI(N)                                             \
  check(                                                               \
      "BI " #N, params.bi##N,                                          \
      [&](const auto& b) { return bi::RunBi##N(graph, b); },           \
      [&](const auto& b) { return bi::naive::RunBi##N(graph, b); });
  SNB_VALIDATE_BI(1) SNB_VALIDATE_BI(2) SNB_VALIDATE_BI(3)
  SNB_VALIDATE_BI(4) SNB_VALIDATE_BI(5) SNB_VALIDATE_BI(6)
  SNB_VALIDATE_BI(7) SNB_VALIDATE_BI(8) SNB_VALIDATE_BI(9)
  SNB_VALIDATE_BI(10) SNB_VALIDATE_BI(11) SNB_VALIDATE_BI(12)
  SNB_VALIDATE_BI(13) SNB_VALIDATE_BI(14) SNB_VALIDATE_BI(15)
  SNB_VALIDATE_BI(16) SNB_VALIDATE_BI(17) SNB_VALIDATE_BI(18)
  SNB_VALIDATE_BI(19) SNB_VALIDATE_BI(20) SNB_VALIDATE_BI(21)
  SNB_VALIDATE_BI(22) SNB_VALIDATE_BI(23) SNB_VALIDATE_BI(24)
  SNB_VALIDATE_BI(25)
#undef SNB_VALIDATE_BI

  return report;
}

}  // namespace snb::driver
