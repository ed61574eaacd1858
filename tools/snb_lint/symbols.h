// Per-TU symbol extraction for the interprocedural layer (v3).
//
// Token-level "symbol table": function definitions (free functions, member
// functions with their owning class, lambdas), declared lock sites
// (SNB_LOCK_SITE / SNB_LOCK_LEVEL strings attached to util::Mutex members
// and locals), and per-function *event streams* — lock acquisitions with
// their static hold range, CondVar waits, blocking file I/O, and call
// sites. The call graph (callgraph.h) and the lock-effect summaries
// (lock_effects.h) are built on top of this table; the four v3 check
// families (ipa_checks.h) consume all three.
//
// Heuristic by design, like the scope model underneath it: where the token
// level cannot decide (an overload set, a receiver of unknown type, a
// callback that may or may not run inline), extraction errs toward *fewer*
// claims — a missed edge is a documented blind spot, a fabricated edge
// would break the zero-findings gate over the shipped tree. DESIGN.md
// "Static analysis v3" carries the blind-spot catalog.

#ifndef SNB_TOOLS_SNB_LINT_SYMBOLS_H_
#define SNB_TOOLS_SNB_LINT_SYMBOLS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "scopes.h"
#include "token.h"

namespace snb_lint {

inline constexpr size_t kNoSite = static_cast<size_t>(-1);
inline constexpr int kNoLevel = -1;

/// One analysis input file: lexed tokens plus the scope model already built
/// by the per-file check layer (checks.cc owns both).
struct IpaFile {
  const LexedFile* lex = nullptr;
  const ScopeModel* scopes = nullptr;
};

/// A lock-creation site. `declared` sites come from an
/// SNB_LOCK_SITE("name") / SNB_LOCK_LEVEL("name", lvl) initializer.
/// Anonymous mutexes get a synthesized "<Scope>::<var>" site so they still
/// participate in cycle detection.
struct LockSite {
  std::string name;
  int level = kNoLevel;
  bool declared = false;
  std::string file;
  int line = 0;
};

struct ParamInfo {
  std::string name;      // "" when unnamed
  bool is_status = false;  // declared type mentions Status (not StatusOr)
  bool has_default = false;
};

struct FunctionDef {
  std::string file;
  int line = 0;
  std::string name;     // unqualified: "Submit"; lambdas: "<lambda>"
  std::string owner;    // owning class ("ThreadPool"), "" for free/lambda
  std::string display;  // "ThreadPool::Submit", "<lambda>@file:line"
  size_t file_index = 0;
  size_t open = 0;   // token index of the body '{'
  size_t close = 0;  // token index of the matching '}'
  /// Token index of the parameter list's ')' (kNoMatch when the head was
  /// not parsed). The range (params_close, close] covers a constructor's
  /// member-init list, which status-flow must scan for parameter uses.
  size_t params_close = kNoMatch;
  size_t min_arity = 0;
  size_t max_arity = 0;
  bool is_lambda = false;
  /// Local variable a lambda was bound to (`auto run_loop = [...]...`), so
  /// a direct `run_loop(...)` invocation resolves to the lambda's body.
  std::string lambda_local;
  bool returns_status = false;  // return type mentions Status/StatusOr
  std::vector<ParamInfo> params;
};

enum class EvKind {
  kAcquire,  // MutexLock ctor or explicit .Lock(); holds to scope_end
  kWait,     // CondVar::Wait/WaitFor — `site` is the waited mutex's site
  kIo,       // blocking file I/O (fsync/fwrite/...); `callee` is the name
  kCall,     // unresolved call site, resolved later by name+arity
};

struct Event {
  EvKind kind = EvKind::kCall;
  size_t tok = 0;  // token index in the defining file
  int line = 0;
  size_t scope_end = 0;   // kAcquire: last token index of the hold range
  size_t site = kNoSite;  // kAcquire / kWait: lock-site index
  std::string callee;     // kCall: name; kIo: the I/O function
  std::string receiver;   // kCall: last receiver identifier ("" if none)
  /// kCall: the receiver's type when a `T x` / `T& x` local or parameter
  /// declaration pinned it to a mutex-owning class; "" otherwise.
  std::string receiver_type;
  size_t arity = 0;       // kCall
};

/// The whole-corpus symbol table.
struct Corpus {
  std::vector<FunctionDef> funcs;
  std::vector<std::vector<Event>> events;  // parallel to funcs
  std::vector<LockSite> sites;
  /// name -> candidate function ids, for name+arity call resolution.
  std::map<std::string, std::vector<size_t>> by_name;
  /// site name -> site index (declared sites only).
  std::map<std::string, size_t> site_by_name;

  const LockSite* SiteOf(size_t idx) const {
    return idx < sites.size() ? &sites[idx] : nullptr;
  }
};

/// Builds the symbol table over product files (src/ tools/ bench/ —
/// path-scoped exactly like the per-file product checks, so fixtures under
/// virtual src/ paths participate). src/util/mutex.h is skipped: the
/// primitive implementations are modeled as intrinsics, not analyzed.
Corpus BuildCorpus(const std::vector<IpaFile>& files);

}  // namespace snb_lint

#endif  // SNB_TOOLS_SNB_LINT_SYMBOLS_H_
