// Bottom-up lock-effect summaries over the call graph, and the static
// held→acquired edge set they imply.
//
// A function's summary says which lock sites any call to it may acquire
// and which blocking operations (CondVar waits, file I/O, ThreadPool
// submission) it may reach — each with a witness call path back to the
// literal event. Summaries are a fixpoint over the call graph: entries
// only accumulate, so iteration terminates when a full pass adds nothing.
//
// On top of the summaries, ComputeLockEffects enumerates, for every
// static hold range (a MutexLock to the end of its scope, an explicit
// Lock() to its paired Unlock()), the sites acquired and the blocking
// operations reached inside it — the raw material for static-lock-cycle
// and blocking-while-locked-static. The edges are derived from every call
// path, not only the interleavings a test happens to execute; TSan's
// lock-order-inversion report is the runtime complement.

#ifndef SNB_TOOLS_SNB_LINT_LOCK_EFFECTS_H_
#define SNB_TOOLS_SNB_LINT_LOCK_EFFECTS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "callgraph.h"
#include "symbols.h"

namespace snb_lint {

/// One call edge on a witness path: `caller` invokes `callee` at `line`
/// (line numbers are in caller's file).
struct PathStep {
  size_t caller = 0;
  int line = 0;
  size_t callee = 0;
};

/// "Calling this function may acquire `site`": the literal acquisition is
/// in `func` at `line`; `path` walks from the summarized function down to
/// `func` (empty for a direct acquisition).
struct AcqEffect {
  size_t site = kNoSite;
  size_t func = 0;
  int line = 0;
  std::vector<PathStep> path;
};

enum class BlockKind {
  kWaitOn,  // CondVar::Wait/WaitFor on `site`'s mutex
  kIo,      // blocking file I/O; `what` is the function name
  kSubmit,  // ThreadPool::Submit — blocks on the pool's own `site`
};

struct BlockEffect {
  BlockKind kind = BlockKind::kIo;
  size_t site = kNoSite;  // kWaitOn / kSubmit; kNoSite for kIo
  std::string what;
  size_t func = 0;
  int line = 0;
  std::vector<PathStep> path;
};

struct Summary {
  std::map<size_t, AcqEffect> acquires;
  std::map<std::string, BlockEffect> blocks;
};

/// held→acquired: while `holder` holds `held_site` (acquired at
/// `hold_line`), the acquisition described by `acq` is reachable.
struct HeldEdge {
  size_t held_site = kNoSite;
  size_t holder = 0;
  int hold_line = 0;
  AcqEffect acq;
};

/// While `holder` holds `held_site`, the blocking operation `block` is
/// reachable.
struct BlockHazard {
  size_t held_site = kNoSite;
  size_t holder = 0;
  int hold_line = 0;
  BlockEffect block;
};

struct LockEffects {
  std::vector<Summary> summaries;  // parallel to Corpus::funcs
  std::vector<HeldEdge> edges;
  std::vector<BlockHazard> hazards;
};

LockEffects ComputeLockEffects(const Corpus& corpus, const CallGraph& cg);

}  // namespace snb_lint

#endif  // SNB_TOOLS_SNB_LINT_LOCK_EFFECTS_H_
