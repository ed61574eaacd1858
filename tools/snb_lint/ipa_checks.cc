#include "ipa_checks.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>

#include "callgraph.h"
#include "lock_effects.h"

namespace snb_lint {
namespace {

constexpr char kStaticLockCycle[] = "static-lock-cycle";
constexpr char kBlockingWhileLocked[] = "blocking-while-locked-static";
constexpr char kEpochEscape[] = "epoch-escape";
constexpr char kStatusFlow[] = "status-flow";

bool IsIdent(const Token& t, std::string_view s) {
  return t.kind == TokKind::kIdent && t.text == s;
}
bool IsPunct(const Token& t, std::string_view s) {
  return t.kind == TokKind::kPunct && t.text == s;
}

std::string SiteName(const Corpus& c, size_t idx) {
  const LockSite* s = c.SiteOf(idx);
  return s ? s->name : "?";
}

std::string At(const Corpus& c, size_t func, int line) {
  return c.funcs[func].file + ":" + std::to_string(line);
}

/// Renders one side of a witness: the holder, the call chain, and the
/// terminal acquisition.
std::string Chain(const Corpus& c, size_t holder, int hold_line,
                  const AcqEffect& acq) {
  std::string s =
      c.funcs[holder].display + " (" + At(c, holder, hold_line) + ")";
  for (const PathStep& step : acq.path) {
    s += " -> calls " + c.funcs[step.callee].display + " (" +
         At(c, step.caller, step.line) + ")";
  }
  s += " -> acquires '" + SiteName(c, acq.site) + "' (" +
       At(c, acq.func, acq.line) + ")";
  return s;
}

std::string BlockChain(const Corpus& c, size_t holder, int hold_line,
                       const BlockEffect& b, const std::string& op) {
  std::string s =
      c.funcs[holder].display + " (" + At(c, holder, hold_line) + ")";
  for (const PathStep& step : b.path) {
    s += " -> calls " + c.funcs[step.callee].display + " (" +
         At(c, step.caller, step.line) + ")";
  }
  s += " -> " + op + " (" + At(c, b.func, b.line) + ")";
  return s;
}

// --------------------------------------------------------------------------
// static-lock-cycle
// --------------------------------------------------------------------------

void CheckStaticLockCycle(const Corpus& c, const LockEffects& fx,
                          const IpaEmit& emit) {
  // Site-level adjacency with the first witness edge per (held, acquired).
  std::map<size_t, std::map<size_t, const HeldEdge*>> adj;
  std::set<std::tuple<size_t, size_t, int>> self_seen;
  for (const HeldEdge& e : fx.edges) {
    if (e.held_site == e.acq.site) {
      // Re-acquiring a held (non-reentrant) mutex is an unconditional
      // self-deadlock on any execution that reaches it.
      auto key = std::make_tuple(e.held_site, e.holder, e.hold_line);
      if (self_seen.insert(key).second) {
        emit(c.funcs[e.holder].file_index, e.hold_line, kStaticLockCycle,
             "lock site '" + SiteName(c, e.held_site) +
                 "' may be re-acquired while held: " +
                 Chain(c, e.holder, e.hold_line, e.acq));
      }
      continue;
    }
    auto& slot = adj[e.held_site][e.acq.site];
    if (slot == nullptr || e.acq.path.size() < slot->acq.path.size()) {
      slot = &e;
    }
  }

  // Level inversions: any single edge that runs against declared order.
  std::set<std::pair<size_t, size_t>> inv_seen;
  for (const auto& [held, row] : adj) {
    const LockSite* hs = c.SiteOf(held);
    if (!hs || hs->level == kNoLevel) continue;
    for (const auto& [acq, edge] : row) {
      const LockSite* as = c.SiteOf(acq);
      if (!as || as->level == kNoLevel) continue;
      if (hs->level < as->level) continue;
      if (!inv_seen.insert({held, acq}).second) continue;
      emit(c.funcs[edge->holder].file_index, edge->hold_line,
           kStaticLockCycle,
           "lock level inversion: '" + hs->name + "' (level " +
               std::to_string(hs->level) + ") is held while acquiring '" +
               as->name + "' (level " + std::to_string(as->level) +
               "): " + Chain(c, edge->holder, edge->hold_line, edge->acq));
    }
  }

  // Cycles: DFS with a gray-path stack; each cycle reported once under a
  // rotation-canonical key, with the witness chain for every edge on it.
  std::set<std::vector<size_t>> reported;
  std::map<size_t, int> color;  // 0 white, 1 gray, 2 black
  std::vector<size_t> path;

  std::function<void(size_t)> dfs = [&](size_t u) {
    color[u] = 1;
    path.push_back(u);
    for (const auto& [v, edge] : adj[u]) {
      if (color[v] == 1) {
        auto it = std::find(path.begin(), path.end(), v);
        std::vector<size_t> cyc(it, path.end());
        std::vector<size_t> canon = cyc;
        auto mn = std::min_element(canon.begin(), canon.end());
        std::rotate(canon.begin(), mn, canon.end());
        if (!reported.insert(canon).second) continue;
        std::string names, chains;
        for (size_t k = 0; k < cyc.size(); ++k) {
          size_t a = cyc[k];
          size_t b = cyc[(k + 1) % cyc.size()];
          const HeldEdge* e = adj[a][b];
          names += "'" + SiteName(c, a) + "' -> ";
          chains += std::string(k ? "; " : "") +
                    Chain(c, e->holder, e->hold_line, e->acq);
        }
        names += "'" + SiteName(c, cyc[0]) + "'";
        const HeldEdge* first = adj[cyc[0]][cyc[(1) % cyc.size()]];
        emit(c.funcs[first->holder].file_index, first->hold_line,
             kStaticLockCycle,
             "static lock-order cycle: " + names + "; " + chains);
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    path.pop_back();
    color[u] = 2;
  };
  for (const auto& [u, row] : adj) {
    if (color[u] == 0) dfs(u);
  }
}

// --------------------------------------------------------------------------
// blocking-while-locked-static
// --------------------------------------------------------------------------

void CheckBlockingWhileLocked(const Corpus& c, const LockEffects& fx,
                              const IpaEmit& emit) {
  std::set<std::string> seen;
  for (const BlockHazard& h : fx.hazards) {
    const LockSite* held = c.SiteOf(h.held_site);
    if (held == nullptr) continue;
    const LockSite* blocked = c.SiteOf(h.block.site);
    // Level sanction: blocking on a strictly higher-level site while
    // holding a lower one follows the declared order (e.g. a lock held
    // across ThreadPool::Submit, level 20). I/O is never sanctioned.
    if (h.block.kind != BlockKind::kIo && blocked != nullptr &&
        held->level != kNoLevel && blocked->level != kNoLevel &&
        held->level < blocked->level) {
      continue;
    }
    std::string op;
    switch (h.block.kind) {
      case BlockKind::kWaitOn:
        op = "CondVar wait on '" + SiteName(c, h.block.site) + "'";
        break;
      case BlockKind::kIo:
        op = "blocking file I/O " + h.block.what + "()";
        break;
      case BlockKind::kSubmit:
        op = "ThreadPool::Submit (may block on '" +
             SiteName(c, h.block.site) + "')";
        break;
    }
    std::string key = std::to_string(h.held_site) + "|" +
                      std::to_string(h.holder) + "|" +
                      std::to_string(h.hold_line) + "|" + op + "|" +
                      At(c, h.block.func, h.block.line);
    if (!seen.insert(key).second) continue;
    emit(c.funcs[h.holder].file_index, h.hold_line, kBlockingWhileLocked,
         op + " is reachable while lock site '" + held->name +
             "' is held: " +
             BlockChain(c, h.holder, h.hold_line, h.block, op));
  }
}

// --------------------------------------------------------------------------
// epoch-escape
// --------------------------------------------------------------------------

/// Start of the statement-ish chunk containing i: the token after the
/// nearest preceding ';', '{' or '}'.
size_t StmtBegin(const std::vector<Token>& t, size_t i, size_t lo) {
  while (i > lo) {
    const Token& p = t[i - 1];
    if (p.kind == TokKind::kPunct &&
        (p.text == ";" || p.text == "{" || p.text == "}")) {
      break;
    }
    --i;
  }
  return i;
}

size_t StmtEnd(const std::vector<Token>& t, size_t i, size_t hi) {
  while (i < hi) {
    const Token& p = t[i];
    if (p.kind == TokKind::kPunct &&
        (p.text == ";" || p.text == "{" || p.text == "}")) {
      break;
    }
    ++i;
  }
  return i;
}

/// First top-level '=' (assignment, not '==' / '<=' / ...) in [b, e).
size_t TopLevelAssign(const std::vector<Token>& t, size_t b, size_t e) {
  int depth = 0;
  for (size_t i = b; i < e; ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    const std::string& p = t[i].text;
    if (p == "(" || p == "[" || p == "{" || p == "<") ++depth;
    if (p == ")" || p == "]" || p == "}" || p == ">") --depth;
    if (p != "=" || depth != 0) continue;
    if (i + 1 < e && IsPunct(t[i + 1], "=")) {
      ++i;  // '==' comparison
      continue;
    }
    if (i > b && t[i - 1].kind == TokKind::kPunct) {
      const std::string& q = t[i - 1].text;
      if (q == "<" || q == ">" || q == "!" || q == "=" || q == "+" ||
          q == "-" || q == "*" || q == "/" || q == "&" || q == "|" ||
          q == "^") {
        continue;  // compound / comparison operator
      }
    }
    return i;
  }
  return kNoMatch;
}

/// Does [b, e) declare a raw view type — `Graph`/`auto` (optionally
/// const-qualified) followed by '*' or '&'?
bool RawViewDecl(const std::vector<Token>& t, size_t b, size_t e) {
  for (size_t i = b; i < e; ++i) {
    if (!(IsIdent(t[i], "Graph") || IsIdent(t[i], "auto"))) continue;
    for (size_t j = i + 1; j < e && j <= i + 3; ++j) {
      if (IsIdent(t[j], "const")) continue;
      if (IsPunct(t[j], "*") || IsPunct(t[j], "&")) return true;
      break;
    }
  }
  return false;
}

/// No unmatched '(' between anchor and expr: the expression is the
/// statement's top-level value, not an argument of some call — arguments
/// live for the full expression, so inline views passed to calls are safe.
bool TopLevelFrom(const std::vector<Token>& t, size_t anchor, size_t expr) {
  int depth = 0;
  for (size_t i = anchor + 1; i < expr; ++i) {
    if (IsPunct(t[i], "(")) ++depth;
    if (IsPunct(t[i], ")")) --depth;
  }
  return depth <= 0;
}

/// Is the LHS a field store — `name_ = ...` or `this->name = ...`?
bool FieldStore(const std::vector<Token>& t, size_t b, size_t e) {
  if (e <= b) return false;
  for (size_t i = b; i < e; ++i) {
    if (IsIdent(t[i], "this")) return true;
  }
  const Token& last = t[e - 1];
  return last.kind == TokKind::kIdent && !last.text.empty() &&
         last.text.back() == '_';
}

std::string LastIdent(const std::vector<Token>& t, size_t b, size_t e) {
  for (size_t i = e; i-- > b;) {
    if (t[i].kind == TokKind::kIdent) return t[i].text;
  }
  return "";
}

void CheckEpochEscape(const std::vector<IpaFile>& files, const Corpus& c,
                      const IpaEmit& emit) {
  for (size_t id = 0; id < c.funcs.size(); ++id) {
    const FunctionDef& f = c.funcs[id];
    const auto& t = files[f.file_index].lex->tokens;
    const ScopeModel& scopes = *files[f.file_index].scopes;

    std::vector<std::pair<size_t, size_t>> nested;
    for (size_t other = 0; other < c.funcs.size(); ++other) {
      const FunctionDef& g = c.funcs[other];
      if (other != id && g.file_index == f.file_index && g.open > f.open &&
          g.close < f.close) {
        nested.emplace_back(g.open, g.close);
      }
    }
    auto in_nested = [&](size_t i) {
      for (auto [b, e] : nested) {
        if (i > b && i < e) return true;
      }
      return false;
    };

    std::set<std::string> snapshots;   // named shared_ptr snapshots
    std::set<std::string> raw_views;   // raw Graph&/Graph* over a snapshot

    for (size_t i = f.open + 1; i < f.close; ++i) {
      if (in_nested(i)) continue;
      if (t[i].kind != TokKind::kIdent) continue;

      // ---- GraphHandle::Current() uses -------------------------------
      // Only GraphHandle exposes Current() in this tree; the receiver is
      // matched structurally (.Current() / ->Current()).
      if (t[i].text == "Current" && i + 1 < f.close &&
          IsPunct(t[i + 1], "(") && i > 0 &&
          (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->"))) {
        size_t close = scopes.Match(i + 1);
        if (close == kNoMatch) continue;
        // Receiver chain start: handle.Current(), ctx.handle().Current().
        size_t k = i;
        while (k >= 2 &&
               (IsPunct(t[k - 1], ".") || IsPunct(t[k - 1], "->"))) {
          if (t[k - 2].kind == TokKind::kIdent) {
            k -= 2;
            continue;
          }
          if (IsPunct(t[k - 2], ")")) {
            size_t po = scopes.Match(k - 2);
            if (po != kNoMatch && po > 0 &&
                t[po - 1].kind == TokKind::kIdent) {
              k = po - 1;
              continue;
            }
          }
          break;
        }
        bool deref = k > 0 && IsPunct(t[k - 1], "*");
        bool getter = close + 2 < f.close &&
                      (IsPunct(t[close + 1], ".") ||
                       IsPunct(t[close + 1], "->")) &&
                      IsIdent(t[close + 2], "get");
        size_t sb = StmtBegin(t, i, f.open + 1);
        size_t se = StmtEnd(t, i, f.close);
        size_t expr = deref && k > 0 ? k - 1 : k;
        if (IsIdent(t[sb], "return")) {
          if ((deref || getter) && TopLevelFrom(t, sb, expr)) {
            emit(f.file_index, t[i].line, kEpochEscape,
                 "returns a raw Graph view of a GraphHandle snapshot; the "
                 "temporary shared_ptr dies at the end of the full "
                 "expression — return the shared_ptr snapshot instead");
          }
          continue;
        }
        size_t eq = TopLevelAssign(t, sb, se);
        if (eq == kNoMatch || i < eq) continue;  // inline argument use: ok
        bool top = TopLevelFrom(t, eq, expr);
        if (deref || getter) {
          if (!top) continue;  // argument of a call on the RHS: ok
          if (FieldStore(t, sb, eq)) {
            emit(f.file_index, t[i].line, kEpochEscape,
                 "stores a raw Graph view of a GraphHandle snapshot into a "
                 "field; a refresh can swap and free the snapshot under "
                 "it — store the shared_ptr instead");
          } else if (RawViewDecl(t, sb, eq) ||
                     (getter && !LastIdent(t, sb, eq).empty())) {
            emit(f.file_index, t[i].line, kEpochEscape,
                 "binds a raw Graph view to the temporary snapshot "
                 "returned by Current(); the shared_ptr dies at the end "
                 "of this statement — name the snapshot first, then take "
                 "the view");
          }
        } else if (top && !FieldStore(t, sb, eq)) {
          // `auto snap = handle.Current();` — a named, refcounted
          // snapshot. Raw views over *it* are fine inside its scope.
          std::string name = LastIdent(t, sb, eq);
          if (!name.empty()) snapshots.insert(name);
        }
        continue;
      }

      // ---- escapes of views derived from a *named* snapshot ----------
      if (!snapshots.count(t[i].text) && !raw_views.count(t[i].text)) {
        continue;
      }
      size_t sb = StmtBegin(t, i, f.open + 1);
      size_t se = StmtEnd(t, i, f.close);
      if (sb > i || in_nested(sb)) continue;
      bool is_snapshot = snapshots.count(t[i].text) > 0;
      bool raw_of_snapshot =
          is_snapshot &&
          ((i > 0 && IsPunct(t[i - 1], "*")) ||
           (i + 2 < se &&
            (IsPunct(t[i + 1], ".") || IsPunct(t[i + 1], "->")) &&
            IsIdent(t[i + 2], "get")));
      bool is_raw_view = raw_views.count(t[i].text) > 0;
      if (!raw_of_snapshot && !is_raw_view) continue;
      size_t expr = i > 0 && IsPunct(t[i - 1], "*") ? i - 1 : i;

      if (IsIdent(t[sb], "return")) {
        if (TopLevelFrom(t, sb, expr)) {
          emit(f.file_index, t[i].line, kEpochEscape,
               "returns a raw Graph view that does not outlive the local "
               "snapshot '" + t[i].text +
                   "' — return the shared_ptr snapshot instead");
        }
        continue;
      }
      size_t eq = TopLevelAssign(t, sb, se);
      if (eq == kNoMatch || i < eq) continue;  // plain read: ok
      if (!TopLevelFrom(t, eq, expr)) continue;  // argument use: ok
      if (FieldStore(t, sb, eq)) {
        emit(f.file_index, t[i].line, kEpochEscape,
             "stores a raw Graph view derived from snapshot '" +
                 t[i].text +
                 "' into a field; the snapshot's lifetime ends with its "
                 "scope — store the shared_ptr instead");
      } else if (raw_of_snapshot && RawViewDecl(t, sb, eq)) {
        std::string name = LastIdent(t, sb, eq);
        if (!name.empty()) raw_views.insert(name);  // tracked, not flagged
      }
    }

    // ---- raw views captured by deferred task lambdas -------------------
    if (raw_views.empty()) continue;
    for (size_t other = 0; other < c.funcs.size(); ++other) {
      const FunctionDef& lam = c.funcs[other];
      if (!lam.is_lambda || lam.file_index != f.file_index ||
          lam.open <= f.open || lam.close >= f.close) {
        continue;
      }
      // Capture+body region: from the '[' of the capture list.
      size_t region_begin = lam.open;
      size_t bc = kNoMatch;
      if (lam.open > 0 && IsPunct(t[lam.open - 1], ")")) {
        size_t po = scopes.Match(lam.open - 1);
        if (po != kNoMatch && po > 0 && IsPunct(t[po - 1], "]")) {
          bc = po - 1;
        }
      } else if (lam.open > 0 && IsPunct(t[lam.open - 1], "]")) {
        bc = lam.open - 1;
      }
      if (bc != kNoMatch && scopes.Match(bc) != kNoMatch) {
        region_begin = scopes.Match(bc);
      }
      std::string captured;
      for (size_t i = region_begin; i <= lam.close && i < t.size(); ++i) {
        if (t[i].kind == TokKind::kIdent && raw_views.count(t[i].text)) {
          captured = t[i].text;
          break;
        }
      }
      if (captured.empty()) continue;
      // Deferred only when the lambda is an argument of Submit(...).
      int depth = 0;
      for (size_t j = region_begin; j-- > f.open;) {
        if (IsPunct(t[j], ")")) {
          ++depth;
        } else if (IsPunct(t[j], "(")) {
          if (depth == 0) {
            if (j > 0 && IsIdent(t[j - 1], "Submit")) {
              emit(f.file_index, c.funcs[other].line, kEpochEscape,
                   "raw Graph view '" + captured +
                       "' is captured by a lambda handed to "
                       "ThreadPool::Submit; the snapshot can be swapped "
                       "before the task runs — capture the shared_ptr "
                       "snapshot by value");
            }
            break;
          }
          --depth;
        } else if (IsPunct(t[j], ";") || IsPunct(t[j], "{") ||
                   IsPunct(t[j], "}")) {
          break;
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// status-flow
// --------------------------------------------------------------------------

/// The callee whose argument list encloses token j, or "".
std::string EnclosingCallee(const std::vector<Token>& t, size_t j,
                            size_t lo) {
  int depth = 0;
  while (j-- > lo) {
    if (t[j].kind != TokKind::kPunct) continue;
    const std::string& p = t[j].text;
    if (p == ")") {
      ++depth;
    } else if (p == "(") {
      if (depth == 0) {
        return (j > 0 && t[j - 1].kind == TokKind::kIdent) ? t[j - 1].text
                                                           : "";
      }
      --depth;
    } else if (p == ";" || p == "{" || p == "}") {
      break;
    }
  }
  return "";
}

void CheckStatusFlow(const std::vector<IpaFile>& files, const Corpus& c,
                     const IpaEmit& emit) {
  // Pass 1: helpers that swallow a Status parameter. The mention scan
  // covers the member-init list too (constructors that store the Status).
  std::map<std::string, size_t> swallowers;  // callee name -> func id
  for (size_t id = 0; id < c.funcs.size(); ++id) {
    const FunctionDef& f = c.funcs[id];
    const auto& t = files[f.file_index].lex->tokens;
    size_t scan_from =
        f.params_close != kNoMatch ? f.params_close + 1 : f.open;
    for (const ParamInfo& p : f.params) {
      if (!p.is_status) continue;
      if (p.name.empty()) {
        emit(f.file_index, f.line, kStatusFlow,
             f.display +
                 " takes an unnamed Status parameter it can never "
                 "examine — accept and check it, or drop the parameter");
        continue;
      }
      bool mentioned = false;
      for (size_t i = scan_from; i < f.close && i < t.size(); ++i) {
        if (IsIdent(t[i], p.name)) {
          mentioned = true;
          break;
        }
      }
      if (!mentioned) {
        emit(f.file_index, f.line, kStatusFlow,
             f.display + " never examines its Status parameter '" +
                 p.name +
                 "' — callers' errors are silently dropped here; check "
                 "it, return it, or document the drop with an allow");
        if (!f.is_lambda && !f.name.empty()) {
          swallowers.emplace(f.name, id);
        }
      }
    }
  }

  // Pass 2: locals whose final Status value is never consulted, and
  // locals whose value is handed to a known swallower. Branch-insensitive
  // on purpose: only the *last* write with no following read fires, so
  // `if (a) st = X(); else st = Y(); return st;` stays clean.
  for (size_t id = 0; id < c.funcs.size(); ++id) {
    const FunctionDef& f = c.funcs[id];
    const auto& t = files[f.file_index].lex->tokens;
    const ScopeModel& scopes = *files[f.file_index].scopes;

    std::vector<std::pair<size_t, size_t>> nested;
    for (size_t other = 0; other < c.funcs.size(); ++other) {
      const FunctionDef& g = c.funcs[other];
      if (other != id && g.file_index == f.file_index && g.open > f.open &&
          g.close < f.close) {
        nested.emplace_back(g.open, g.close);
      }
    }
    auto in_nested = [&](size_t i) {
      for (auto [b, e] : nested) {
        if (i > b && i < e) return true;
      }
      return false;
    };
    // Local-struct bodies are class scopes nested in the function: field
    // declarations there are not locals.
    auto in_local_class = [&](size_t i) {
      for (const auto& cls : scopes.classes()) {
        if (cls.open > f.open && cls.close < f.close && i > cls.open &&
            i < cls.close) {
          return true;
        }
      }
      return false;
    };

    for (size_t i = f.open + 1; i + 2 < f.close; ++i) {
      if (in_nested(i) || in_local_class(i)) continue;
      if (!IsIdent(t[i], "Status")) continue;
      if (i + 1 < f.close && IsPunct(t[i + 1], "::")) continue;  // Status::Ok
      if (t[i + 1].kind != TokKind::kIdent) continue;
      bool assigned = IsPunct(t[i + 2], "=") &&
                      !(i + 3 < f.close && IsPunct(t[i + 3], "="));
      if (!assigned && !IsPunct(t[i + 2], ";")) continue;
      const std::string name = t[i + 1].text;

      bool pending = true;
      int last_write_line = t[i + 1].line;
      for (size_t j = i + 3; j < f.close; ++j) {
        if (!IsIdent(t[j], name)) continue;
        if (j > 0 &&
            (IsPunct(t[j - 1], ".") || IsPunct(t[j - 1], "->"))) {
          continue;  // member of some other object, not this local
        }
        bool write = j + 1 < f.close && IsPunct(t[j + 1], "=") &&
                     !(j + 2 < f.close && IsPunct(t[j + 2], "="));
        if (write) {
          pending = true;
          last_write_line = t[j].line;
          continue;
        }
        if (!in_nested(j)) {
          std::string callee = EnclosingCallee(t, j, f.open);
          auto sw = swallowers.find(callee);
          if (sw != swallowers.end()) {
            emit(f.file_index, t[j].line, kStatusFlow,
                 "Status '" + name + "' is handed to '" +
                     c.funcs[sw->second].display +
                     "', which never examines its Status parameter — the "
                     "error is dropped across the call boundary");
          }
        }
        pending = false;
      }
      if (pending) {
        emit(f.file_index, last_write_line, kStatusFlow,
             "the Status assigned to '" + name +
                 "' here is never consulted — check it, return it, or "
                 "discard it explicitly with (void) and an allow");
      }
    }
  }
}

}  // namespace

const std::vector<std::string>& IpaCheckNames() {
  static const std::vector<std::string> names = {
      kStaticLockCycle, kBlockingWhileLocked, kEpochEscape, kStatusFlow};
  return names;
}

void RunIpaChecks(const std::vector<IpaFile>& files, const IpaEmit& emit,
                  const IpaEnabled& enabled) {
  const bool want_cycle = enabled(kStaticLockCycle);
  const bool want_block = enabled(kBlockingWhileLocked);
  const bool want_epoch = enabled(kEpochEscape);
  const bool want_status = enabled(kStatusFlow);
  if (!want_cycle && !want_block && !want_epoch && !want_status) return;

  Corpus corpus = BuildCorpus(files);
  if (want_cycle || want_block) {
    CallGraph cg = BuildCallGraph(corpus);
    LockEffects fx = ComputeLockEffects(corpus, cg);
    if (want_cycle) CheckStaticLockCycle(corpus, fx, emit);
    if (want_block) CheckBlockingWhileLocked(corpus, fx, emit);
  }
  if (want_epoch) CheckEpochEscape(files, corpus, emit);
  if (want_status) CheckStatusFlow(files, corpus, emit);
}

}  // namespace snb_lint
