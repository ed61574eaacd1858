// The four interprocedural check families (v3), built on symbols.h /
// callgraph.h / lock_effects.h:
//
//   static-lock-cycle           cycles and level inversions in the static
//                               held→acquired lock-site graph, reported
//                               with the witness call chain on both sides
//   blocking-while-locked-static  CondVar waits, file I/O, and ThreadPool
//                               submission reachable while a lock is held,
//                               unless the (held, blocking) pair is
//                               level-sanctioned (held.level < blocked.level)
//   epoch-escape                raw Graph*/Graph& views derived from a
//                               GraphHandle snapshot escaping the snapshot's
//                               scope (field stores, returns, task-lambda
//                               captures)
//   status-flow                 interprocedural unchecked-status: helpers
//                               that swallow a Status parameter, and locals
//                               whose final Status value is never consulted
//
// Findings flow through the caller-supplied emit callback so checks.cc can
// apply its suppression ledger and ordering; this header deliberately does
// not depend on checks.h.

#ifndef SNB_TOOLS_SNB_LINT_IPA_CHECKS_H_
#define SNB_TOOLS_SNB_LINT_IPA_CHECKS_H_

#include <functional>
#include <string>
#include <vector>

#include "symbols.h"

namespace snb_lint {

/// emit(file_index, line, check, message) — file_index indexes the
/// IpaFile vector handed to RunIpaChecks.
using IpaEmit = std::function<void(size_t, int, const std::string&,
                                   const std::string&)>;
/// enabled(check) — false skips the family (and, when every family is
/// skipped, the corpus build).
using IpaEnabled = std::function<bool(const std::string&)>;

/// Names of the interprocedural check families, for the check catalog.
const std::vector<std::string>& IpaCheckNames();

void RunIpaChecks(const std::vector<IpaFile>& files, const IpaEmit& emit,
                  const IpaEnabled& enabled);

}  // namespace snb_lint

#endif  // SNB_TOOLS_SNB_LINT_IPA_CHECKS_H_
