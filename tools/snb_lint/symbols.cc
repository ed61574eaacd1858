#include "symbols.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <string_view>

namespace snb_lint {
namespace {

bool IsIdent(const Token& t, std::string_view s) {
  return t.kind == TokKind::kIdent && t.text == s;
}
bool IsPunct(const Token& t, std::string_view s) {
  return t.kind == TokKind::kPunct && t.text == s;
}
bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Product trees, minus the primitive implementation the analyzer models
/// as intrinsics (Mutex::Lock calling std::mutex::lock is not an "effect").
bool ExtractFrom(std::string_view p) {
  if (p == "src/util/mutex.h") return false;
  return StartsWith(p, "src/") || StartsWith(p, "tools/") ||
         StartsWith(p, "bench/");
}

const std::set<std::string>& CallKeywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",   "switch",   "return", "catch",
      "sizeof", "alignof", "new",    "delete",   "throw",  "co_await",
      "co_return", "static_assert", "decltype", "typeid", "noexcept",
      "alignas", "defined"};
  return kw;
}

const std::set<std::string>& BlockingIo() {
  static const std::set<std::string> io = {
      "fsync",  "fdatasync", "fopen", "fwrite", "fread",
      "fflush", "fclose",    "ftruncate"};
  return io;
}

/// Innermost enclosing '{' for every token (kNoMatch at namespace level).
std::vector<size_t> EnclosingOpenBrace(const std::vector<Token>& t) {
  std::vector<size_t> encl(t.size(), kNoMatch);
  std::vector<size_t> stack;
  for (size_t i = 0; i < t.size(); ++i) {
    encl[i] = stack.empty() ? kNoMatch : stack.back();
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text == "{") {
      stack.push_back(i);
    } else if (t[i].text == "}" && !stack.empty()) {
      stack.pop_back();
    }
  }
  return encl;
}

struct Head {
  size_t name_tok = kNoMatch;
  size_t params_open = kNoMatch;
  size_t params_close = kNoMatch;
  std::string owner;  // from a Class:: qualifier, "" otherwise
};

/// Walks back from a function-body '{' over trailing annotations
/// (const/noexcept/override, SNB_* attribute macros, trailing return
/// types) and constructor member-init lists to the parameter list, and
/// names the function. Returns name_tok == kNoMatch when the head shape
/// is beyond the heuristic (operators, function-pointer returns) — such
/// definitions simply do not join the call graph.
Head ParseFunctionHead(const std::vector<Token>& t,
                       const ScopeModel& scopes, size_t open_brace) {
  Head h;
  static const std::set<std::string> kTrailing = {
      "const", "noexcept", "override", "final", "mutable", "try"};
  size_t j = open_brace;
  int guard = 0;
  while (j-- > 0) {
    if (++guard > 400) return h;
    const Token& tok = t[j];
    if (tok.kind == TokKind::kIdent) {
      // Trailing keyword, or part of a trailing return type (`-> bool`).
      continue;
    }
    if (tok.kind == TokKind::kPunct) {
      const std::string& p = tok.text;
      if (p == "::" || p == "->" || p == "<" || p == ">" || p == "*" ||
          p == "&" || p == "," || p == ":") {
        continue;  // return-type bits / member-init separators
      }
      if (p == ";" || p == "{") return h;  // ran out of the statement
      if (p == "}") {
        // Brace-init entry of a member-init list: `: a_{n} {`.
        size_t m = scopes.Match(j);
        if (m == kNoMatch) return h;
        j = m;
        continue;
      }
      if (p == ")") {
        size_t open_p = scopes.Match(j);
        if (open_p == kNoMatch || open_p == 0) return h;
        const Token& before = t[open_p - 1];
        if (before.kind != TokKind::kIdent) return h;
        if (StartsWith(before.text, "SNB_")) {
          // Attribute macro group: SNB_EXCLUDES(mu_) etc. — skip whole.
          j = open_p - 1;
          continue;
        }
        // `, name(x)` / `: name(x)` is a member-init entry, keep walking.
        if (open_p >= 2 && t[open_p - 2].kind == TokKind::kPunct &&
            (t[open_p - 2].text == "," || t[open_p - 2].text == ":")) {
          j = open_p - 1;
          continue;
        }
        h.name_tok = open_p - 1;
        h.params_open = open_p;
        h.params_close = j;
        // Class:: qualifier chain (take the innermost qualifier).
        if (h.name_tok >= 2 && IsPunct(t[h.name_tok - 1], "::") &&
            t[h.name_tok - 2].kind == TokKind::kIdent) {
          h.owner = t[h.name_tok - 2].text;
        }
        return h;
      }
      return h;
    }
    return h;  // string/number in a head — not a function we model
  }
  return h;
}

/// Splits (params_open, params_close) into ParamInfo entries and counts
/// arity bounds. Bracket-depth aware; `void` and empty lists are arity 0.
void ParseParams(const std::vector<Token>& t, size_t open, size_t close,
                 FunctionDef* def) {
  std::vector<std::pair<size_t, size_t>> slices;
  size_t begin = open + 1;
  int depth = 0;
  for (size_t i = open + 1; i < close; ++i) {
    const Token& tok = t[i];
    if (tok.kind == TokKind::kPunct) {
      const std::string& p = tok.text;
      if (p == "(" || p == "[" || p == "{" || p == "<") ++depth;
      if (p == ")" || p == "]" || p == "}" || p == ">") --depth;
      if (p == "," && depth == 0) {
        slices.emplace_back(begin, i);
        begin = i + 1;
      }
    }
  }
  if (begin < close) slices.emplace_back(begin, close);
  if (slices.size() == 1) {
    auto [b, e] = slices[0];
    if (e == b || (e == b + 1 && IsIdent(t[b], "void"))) slices.clear();
  }
  for (auto [b, e] : slices) {
    ParamInfo p;
    size_t stop = e;
    depth = 0;
    for (size_t i = b; i < e; ++i) {
      if (t[i].kind != TokKind::kPunct) continue;
      const std::string& s = t[i].text;
      if (s == "(" || s == "[" || s == "{" || s == "<") ++depth;
      if (s == ")" || s == "]" || s == "}" || s == ">") --depth;
      if (s == "=" && depth == 0) {
        p.has_default = true;
        stop = i;
        break;
      }
    }
    size_t ident_count = 0;
    size_t last_ident = kNoMatch;
    for (size_t i = b; i < stop; ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      ++ident_count;
      last_ident = i;
      if (t[i].text == "Status") p.is_status = true;
    }
    // The name is the trailing identifier — but only when the parameter
    // is named at all: a lone `Status` / `int`, or a qualified type like
    // `util::Status` (last ident preceded by '::'), is unnamed.
    if (last_ident != kNoMatch && last_ident + 1 >= stop &&
        ident_count >= 2 && !IsPunct(t[last_ident - 1], "::")) {
      p.name = t[last_ident].text;
    }
    def->params.push_back(std::move(p));
  }
  def->max_arity = def->params.size();
  def->min_arity = 0;
  for (const ParamInfo& p : def->params) {
    if (!p.has_default) ++def->min_arity;
  }
}

/// Return-type scan: from the head's first token to the name, does the
/// declaration mention Status/StatusOr?
bool ReturnsStatus(const std::vector<Token>& t, size_t name_tok) {
  size_t q = name_tok;
  // Skip the Class:: qualifier chain.
  while (q >= 2 && IsPunct(t[q - 1], "::") &&
         t[q - 2].kind == TokKind::kIdent) {
    q -= 2;
  }
  int guard = 0;
  while (q-- > 0) {
    if (++guard > 24) break;
    const Token& tok = t[q];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == ";" || tok.text == "{" || tok.text == "}" ||
          tok.text == ")" || tok.text == "(") {
        break;
      }
      continue;
    }
    if (tok.kind != TokKind::kIdent) break;
    if (tok.text == "Status" || tok.text == "StatusOr") return true;
  }
  return false;
}

struct MutexVar {
  std::string scope;  // class name, or enclosing function display
  std::string var;
  size_t site = kNoSite;
};

/// Per-file extraction state shared across the passes.
struct FileWork {
  size_t file_index;
  const LexedFile* lex;
  const ScopeModel* scopes;
  std::vector<size_t> encl;               // enclosing '{' per token
  std::vector<size_t> func_ids;           // corpus ids of this file's defs
};

class Builder {
 public:
  explicit Builder(const std::vector<IpaFile>& files) {
    for (size_t fi = 0; fi < files.size(); ++fi) {
      if (!files[fi].lex || !files[fi].scopes) continue;
      if (!ExtractFrom(files[fi].lex->path)) continue;
      FileWork w;
      w.file_index = fi;
      w.lex = files[fi].lex;
      w.scopes = files[fi].scopes;
      w.encl = EnclosingOpenBrace(w.lex->tokens);
      work_.push_back(std::move(w));
    }
    for (FileWork& w : work_) ExtractFunctions(w);
    for (FileWork& w : work_) ExtractMutexes(w);
    for (FileWork& w : work_) ExtractEvents(w);
    for (size_t id = 0; id < corpus_.funcs.size(); ++id) {
      const FunctionDef& f = corpus_.funcs[id];
      if (f.is_lambda) {
        if (!f.lambda_local.empty()) {
          corpus_.by_name[f.lambda_local].push_back(id);
        }
      } else if (!f.name.empty() && f.name[0] != '~') {
        corpus_.by_name[f.name].push_back(id);
      }
    }
  }

  Corpus Take() { return std::move(corpus_); }

 private:
  /// Innermost class scope containing token i, or nullptr.
  const ScopeModel::ClassScope* EnclosingClass(const FileWork& w, size_t i) {
    const ScopeModel::ClassScope* best = nullptr;
    for (const auto& cls : w.scopes->classes()) {
      if (cls.open < i && i < cls.close) {
        if (!best || cls.open > best->open) best = &cls;
      }
    }
    return best;
  }

  void ExtractFunctions(FileWork& w) {
    const auto& t = w.lex->tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (!IsPunct(t[i], "{")) continue;
      BraceKind kind = w.scopes->KindOf(i);
      if (kind != BraceKind::kFunction && kind != BraceKind::kLambda) {
        continue;
      }
      size_t close = w.scopes->Match(i);
      if (close == kNoMatch) close = t.size() - 1;
      FunctionDef def;
      def.file = w.lex->path;
      def.file_index = w.file_index;
      def.line = t[i].line;
      def.open = i;
      def.close = close;
      if (kind == BraceKind::kLambda) {
        def.is_lambda = true;
        def.name = "<lambda>";
        // Optional parameter list: `](params) {` vs `] {`.
        size_t bracket_close = kNoMatch;
        if (i > 0 && IsPunct(t[i - 1], ")")) {
          size_t po = w.scopes->Match(i - 1);
          if (po != kNoMatch) {
            ParseParams(t, po, i - 1, &def);
            def.params_close = i - 1;
            if (po > 0 && IsPunct(t[po - 1], "]")) bracket_close = po - 1;
          }
        } else if (i > 0 && IsPunct(t[i - 1], "]")) {
          bracket_close = i - 1;
        }
        if (bracket_close != kNoMatch) {
          size_t cap_open = w.scopes->Match(bracket_close);
          // `auto name = [caps]...` — bind the lambda to its local name.
          if (cap_open != kNoMatch && cap_open >= 2 &&
              IsPunct(t[cap_open - 1], "=") &&
              t[cap_open - 2].kind == TokKind::kIdent) {
            def.lambda_local = t[cap_open - 2].text;
          }
          def.line = t[cap_open == kNoMatch ? i : cap_open].line;
        }
        def.display =
            (def.lambda_local.empty() ? "<lambda>" : def.lambda_local) +
            std::string("@") + def.file + ":" + std::to_string(def.line);
      } else {
        Head h = ParseFunctionHead(t, *w.scopes, i);
        if (h.name_tok == kNoMatch) continue;
        const Token& name = t[h.name_tok];
        def.name = name.text;
        def.line = name.line;
        if (h.name_tok > 0 && IsPunct(t[h.name_tok - 1], "~")) {
          def.name = "~" + def.name;
        }
        def.owner = h.owner;
        if (def.owner.empty()) {
          if (const auto* cls = EnclosingClass(w, i)) def.owner = cls->name;
        }
        def.display =
            def.owner.empty() ? def.name : def.owner + "::" + def.name;
        ParseParams(t, h.params_open, h.params_close, &def);
        def.params_close = h.params_close;
        def.returns_status = ReturnsStatus(t, h.name_tok);
      }
      w.func_ids.push_back(corpus_.funcs.size());
      corpus_.funcs.push_back(std::move(def));
    }
  }

  size_t InternSite(LockSite site) {
    auto it = site_index_.find(site.name);
    if (it != site_index_.end()) return it->second;
    size_t idx = corpus_.sites.size();
    site_index_.emplace(site.name, idx);
    if (site.declared) corpus_.site_by_name.emplace(site.name, idx);
    corpus_.sites.push_back(std::move(site));
    return idx;
  }

  /// Innermost function def (by corpus id) containing token i, or kNoMatch.
  size_t EnclosingFunc(const FileWork& w, size_t i) {
    size_t best = kNoMatch;
    for (size_t id : w.func_ids) {
      const FunctionDef& f = corpus_.funcs[id];
      if (f.open < i && i < f.close) {
        if (best == kNoMatch || f.open > corpus_.funcs[best].open) best = id;
      }
    }
    return best;
  }

  void ExtractMutexes(FileWork& w) {
    const auto& t = w.lex->tokens;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (!IsIdent(t[i], "Mutex")) continue;
      if (t[i + 1].kind != TokKind::kIdent) continue;
      const std::string& var = t[i + 1].text;
      size_t after = i + 2;
      if (after >= t.size()) continue;
      // A declaration: `Mutex name;`, `Mutex name{...};`, `Mutex name(...)`.
      if (!(IsPunct(t[after], ";") || IsPunct(t[after], "{") ||
            IsPunct(t[after], "("))) {
        continue;
      }
      LockSite site;
      site.file = w.lex->path;
      site.line = t[i].line;
      if (IsPunct(t[after], "{") || IsPunct(t[after], "(")) {
        size_t close = w.scopes->Match(after);
        if (close == kNoMatch) close = std::min(after + 32, t.size() - 1);
        for (size_t k = after + 1; k < close; ++k) {
          if (t[k].kind != TokKind::kIdent) continue;
          bool levelled = t[k].text == "SNB_LOCK_LEVEL";
          if (!levelled && t[k].text != "SNB_LOCK_SITE") continue;
          if (k + 2 < close && IsPunct(t[k + 1], "(") &&
              t[k + 2].kind == TokKind::kString) {
            site.name = t[k + 2].text;
            site.declared = true;
            if (levelled && k + 4 < close &&
                t[k + 4].kind == TokKind::kNumber) {
              site.level = std::atoi(t[k + 4].text.c_str());
            }
          }
          break;
        }
      }
      std::string scope;
      if (const auto* cls = EnclosingClass(w, i)) {
        scope = cls->name;
      } else {
        size_t fn = EnclosingFunc(w, i);
        if (fn != kNoMatch) scope = corpus_.funcs[fn].display;
      }
      if (!site.declared) {
        // Anonymous mutex: synthesize a per-(scope, var) site.
        site.name = (scope.empty() ? w.lex->path : scope) + "::" + var;
      }
      size_t idx = InternSite(std::move(site));
      mutex_vars_.push_back(MutexVar{scope, var, idx});
      if (!scope.empty()) owning_scopes_.insert(scope);
    }
  }

  /// Resolves a mutex expression (the argument of MutexLock / CondVar
  /// waits) to a lock site: local-scope match first, then the enclosing
  /// class's member, then a receiver-typed member, then a corpus-unique
  /// member name. kNoSite when genuinely unresolvable.
  size_t ResolveMutexExpr(const FileWork& w, size_t func_id, size_t b,
                          size_t e,
                          const std::map<std::string, std::string>& types) {
    const auto& t = w.lex->tokens;
    std::string var, recv;
    for (size_t i = b; i < e; ++i) {
      if (t[i].kind == TokKind::kIdent) {
        recv = var;
        var = t[i].text;
      }
    }
    if (var.empty()) return kNoSite;
    const FunctionDef& f = corpus_.funcs[func_id];
    // Candidate scopes, most-local first.
    std::vector<std::string> scopes;
    scopes.push_back(f.display);
    if (!recv.empty()) {
      auto it = types.find(recv);
      if (it != types.end()) scopes.push_back(it->second);
    } else if (!f.owner.empty()) {
      scopes.push_back(f.owner);
    }
    for (const std::string& s : scopes) {
      for (const MutexVar& mv : mutex_vars_) {
        if (mv.scope == s && mv.var == var) return mv.site;
      }
    }
    size_t unique = kNoSite;
    for (const MutexVar& mv : mutex_vars_) {
      if (mv.var != var) continue;
      if (unique != kNoSite && unique != mv.site) return kNoSite;  // ambiguous
      unique = mv.site;
    }
    return unique;
  }

  /// `T x`, `T& x`, `T* x` where T is a mutex-owning scope name — the
  /// receiver-type table for member resolution.
  std::map<std::string, std::string> LocalTypes(const FileWork& w,
                                                const FunctionDef& f) {
    std::map<std::string, std::string> types;
    const auto& t = w.lex->tokens;
    size_t begin = f.open > 64 ? f.open - 64 : 0;  // covers the param list
    for (size_t i = begin; i + 1 < t.size() && i < f.close; ++i) {
      if (t[i].kind != TokKind::kIdent || !owning_scopes_.count(t[i].text)) {
        continue;
      }
      size_t j = i + 1;
      while (j < t.size() && t[j].kind == TokKind::kPunct &&
             (t[j].text == "&" || t[j].text == "*")) {
        ++j;
      }
      if (j < t.size() && t[j].kind == TokKind::kIdent) {
        types[t[j].text] = t[i].text;
      }
    }
    return types;
  }

  size_t CallArity(const FileWork& w, size_t open_paren) {
    const auto& t = w.lex->tokens;
    size_t close = w.scopes->Match(open_paren);
    if (close == kNoMatch) return 0;
    if (close == open_paren + 1) return 0;
    size_t commas = 0;
    int depth = 0;
    for (size_t i = open_paren + 1; i < close; ++i) {
      if (t[i].kind != TokKind::kPunct) continue;
      const std::string& p = t[i].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      if (p == ")" || p == "]" || p == "}") --depth;
      if (p == "," && depth == 0) ++commas;
    }
    return commas + 1;
  }

  void ExtractEvents(FileWork& w) {
    corpus_.events.resize(corpus_.funcs.size());
    const auto& t = w.lex->tokens;
    for (size_t id : w.func_ids) {
      const FunctionDef& f = corpus_.funcs[id];
      std::vector<Event>& out = corpus_.events[id];
      // Nested definitions (lambdas, local-struct methods) analyze as
      // their own nodes; their tokens are skipped here. In particular a
      // deferred lambda's effects never count against the enclosing
      // function's hold ranges — see DESIGN.md for the inline-callback
      // blind spot this choice accepts.
      std::vector<std::pair<size_t, size_t>> skip;
      for (size_t other : w.func_ids) {
        const FunctionDef& g = corpus_.funcs[other];
        if (other != id && g.open > f.open && g.close < f.close) {
          skip.emplace_back(g.open, g.close);
        }
      }
      std::map<std::string, std::string> types = LocalTypes(w, f);
      for (size_t i = f.open + 1; i < f.close; ++i) {
        bool skipped = false;
        for (auto [b, e] : skip) {
          if (i >= b && i <= e) {
            i = e;
            skipped = true;
            break;
          }
        }
        if (skipped) continue;
        if (t[i].kind != TokKind::kIdent) continue;
        const std::string& name = t[i].text;

        // util::MutexLock lock(mu_); — RAII acquire, held to scope end.
        if (name == "MutexLock") {
          size_t paren = kNoMatch;
          if (i + 2 < f.close && t[i + 1].kind == TokKind::kIdent &&
              IsPunct(t[i + 2], "(")) {
            paren = i + 2;
          } else if (i + 1 < f.close && IsPunct(t[i + 1], "(")) {
            paren = i + 1;  // temporary: held for the statement only
          }
          if (paren == kNoMatch) continue;
          size_t close = w.scopes->Match(paren);
          if (close == kNoMatch) continue;
          Event ev;
          ev.kind = EvKind::kAcquire;
          ev.tok = i;
          ev.line = t[i].line;
          ev.site = ResolveMutexExpr(w, id, paren + 1, close, types);
          size_t encl = w.encl[i];
          size_t scope_end =
              (encl != kNoMatch && w.scopes->Match(encl) != kNoMatch)
                  ? w.scopes->Match(encl)
                  : f.close;
          if (paren == i + 1) {
            for (size_t k = close; k < scope_end; ++k) {
              if (IsPunct(t[k], ";")) {
                scope_end = k;
                break;
              }
            }
          }
          ev.scope_end = std::min(scope_end, f.close);
          if (ev.site != kNoSite) out.push_back(std::move(ev));
          i = close;
          continue;
        }

        bool member_call = i > 0 && t[i - 1].kind == TokKind::kPunct &&
                           (t[i - 1].text == "." || t[i - 1].text == "->");

        // Explicit mu_.Lock() / mu_.Unlock() pairing.
        if (member_call && (name == "Lock" || name == "Unlock") &&
            i + 1 < f.close && IsPunct(t[i + 1], "(")) {
          if (name == "Unlock") {
            i = w.scopes->Match(i + 1) != kNoMatch ? w.scopes->Match(i + 1)
                                                   : i + 1;
            continue;  // consumed by the matching Lock below
          }
          size_t site =
              i >= 2 ? ResolveMutexExpr(w, id, i - 2, i - 1, types)
                     : kNoSite;
          if (site != kNoSite) {
            Event ev;
            ev.kind = EvKind::kAcquire;
            ev.tok = i;
            ev.line = t[i].line;
            ev.site = site;
            ev.scope_end = f.close;
            // Balance against a later Unlock on any receiver spelling the
            // same site (token-level pairing; first match wins).
            for (size_t k = i + 2; k < f.close; ++k) {
              if (!IsIdent(t[k], "Unlock") || k + 1 >= f.close ||
                  !IsPunct(t[k + 1], "(")) {
                continue;
              }
              size_t usite =
                  k >= 2 ? ResolveMutexExpr(w, id, k - 2, k - 1, types)
                         : kNoSite;
              if (usite == site) {
                ev.scope_end = k;
                break;
              }
            }
            out.push_back(std::move(ev));
          }
          i = w.scopes->Match(i + 1) != kNoMatch ? w.scopes->Match(i + 1)
                                                 : i + 1;
          continue;
        }

        // CondVar waits: cv_.Wait(mu) / cv_.WaitFor(mu, budget). The waited
        // mutex is the first argument; zero-arg Wait() is an ordinary call
        // (ThreadPool::Wait etc.) resolved through the call graph.
        if (member_call && (name == "Wait" || name == "WaitFor") &&
            i + 1 < f.close && IsPunct(t[i + 1], "(")) {
          size_t close = w.scopes->Match(i + 1);
          if (close != kNoMatch && close > i + 2) {
            size_t arg_end = close;
            int depth = 0;
            for (size_t k = i + 2; k < close; ++k) {
              if (t[k].kind != TokKind::kPunct) continue;
              const std::string& p = t[k].text;
              if (p == "(" || p == "[" || p == "{") ++depth;
              if (p == ")" || p == "]" || p == "}") --depth;
              if (p == "," && depth == 0) {
                arg_end = k;
                break;
              }
            }
            size_t site = ResolveMutexExpr(w, id, i + 2, arg_end, types);
            if (site != kNoSite) {
              Event ev;
              ev.kind = EvKind::kWait;
              ev.tok = i;
              ev.line = t[i].line;
              ev.site = site;
              out.push_back(std::move(ev));
              i = close;
              continue;
            }
          }
        }

        // Blocking file I/O by name (optionally ::-qualified).
        if (BlockingIo().count(name) && i + 1 < f.close &&
            IsPunct(t[i + 1], "(")) {
          Event ev;
          ev.kind = EvKind::kIo;
          ev.tok = i;
          ev.line = t[i].line;
          ev.callee = name;
          out.push_back(std::move(ev));
          continue;
        }

        // Generic call site: ident '(' — resolved later by name+arity.
        if (i + 1 < f.close && IsPunct(t[i + 1], "(") &&
            !CallKeywords().count(name) && !StartsWith(name, "SNB_")) {
          Event ev;
          ev.kind = EvKind::kCall;
          ev.tok = i;
          ev.line = t[i].line;
          ev.callee = name;
          ev.arity = CallArity(w, i + 1);
          if (member_call && i >= 2 && t[i - 2].kind == TokKind::kIdent) {
            ev.receiver = t[i - 2].text;
            auto rt = types.find(ev.receiver);
            if (rt != types.end()) ev.receiver_type = rt->second;
          }
          out.push_back(std::move(ev));
        }
      }
    }
  }

  std::vector<FileWork> work_;
  Corpus corpus_;
  std::vector<MutexVar> mutex_vars_;
  std::set<std::string> owning_scopes_;
  std::map<std::string, size_t> site_index_;
};

}  // namespace

Corpus BuildCorpus(const std::vector<IpaFile>& files) {
  Builder b(files);
  return b.Take();
}

}  // namespace snb_lint
