#include "checks.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <set>
#include <string_view>

#include "ipa_checks.h"
#include "scopes.h"

namespace snb_lint {
namespace {

// ---------------------------------------------------------------------------
// Small token / path helpers.

bool IsIdent(const Token& t, std::string_view s) {
  return t.kind == TokKind::kIdent && t.text == s;
}
bool IsPunct(const Token& t, std::string_view s) {
  return t.kind == TokKind::kPunct && t.text == s;
}
bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}
bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// Product code: the trees whose conventions the analyzer enforces. tests/
/// is deliberately outside — tests arm fail-points, seed corruption and
/// poke internals by design; only failpoint-site-confined looks at them.
bool InProduct(std::string_view p) {
  return StartsWith(p, "src/") || StartsWith(p, "tools/") ||
         StartsWith(p, "bench/");
}

/// src/bi/biNN.cc — the 25 BI kernel translation units.
bool IsBiKernel(std::string_view p) {
  if (!StartsWith(p, "src/bi/bi") || !EndsWith(p, ".cc")) return false;
  std::string_view digits = p.substr(9, p.size() - 9 - 3);
  if (digits.size() != 2) return false;
  return std::isdigit(static_cast<unsigned char>(digits[0])) &&
         std::isdigit(static_cast<unsigned char>(digits[1]));
}

// ---------------------------------------------------------------------------
// Per-file analysis unit: lexed tokens + scope model + parsed suppressions.

struct Suppression {
  std::string check;  // "*" allows any check
  int line_begin;     // suppressed range: [line_begin, line_end + 1]
  int line_end;
};

struct Unit {
  const LexedFile* lex;
  std::unique_ptr<ScopeModel> scopes;
  std::vector<Suppression> allows;
};

class Ctx {
 public:
  Ctx(const std::vector<LexedFile>& files, const Options& opts)
      : opts_(opts) {
    std::set<std::string> names;
    for (const std::string& n : CheckNames()) names.insert(n);
    for (const LexedFile& f : files) {
      Unit u;
      u.lex = &f;
      u.scopes = std::make_unique<ScopeModel>(f.tokens);
      ParseSuppressions(f, names, &u.allows);
      units_.push_back(std::move(u));
    }
  }

  const std::vector<Unit>& units() const { return units_; }

  bool Enabled(std::string_view check) const {
    if (opts_.only_checks.empty()) return true;
    for (const std::string& c : opts_.only_checks) {
      if (c == check) return true;
    }
    return false;
  }

  void Emit(const Unit& u, int line, std::string check, std::string msg) {
    bool suppressed = false;
    for (const Suppression& s : u.allows) {
      if ((s.check == "*" || s.check == check) && line >= s.line_begin &&
          line <= s.line_end + 1) {
        suppressed = true;
        break;
      }
    }
    findings_.push_back(Finding{u.lex->path, line, std::move(check),
                                std::move(msg), suppressed});
  }

  std::vector<Finding> Take() {
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                if (a.file != b.file) return a.file < b.file;
                if (a.line != b.line) return a.line < b.line;
                return a.check < b.check;
              });
    return std::move(findings_);
  }

 private:
  /// `// snb-lint-allow(check): reason` — the reason is mandatory: an
  /// unexplained suppression is itself a finding (check "suppression"),
  /// as is a name the catalog does not know (typos must not silently
  /// allow nothing).
  void ParseSuppressions(const LexedFile& f, const std::set<std::string>& names,
                         std::vector<Suppression>* out) {
    constexpr std::string_view kTag = "snb-lint-allow";
    for (const Comment& c : f.comments) {
      size_t pos = 0;
      while ((pos = c.text.find(kTag, pos)) != std::string::npos) {
        size_t i = pos + kTag.size();
        pos = i;
        if (i >= c.text.size() || c.text[i] != '(') {
          findings_.push_back(
              {f.path, c.line_begin, "suppression",
               "snb-lint-allow needs the form snb-lint-allow(check): reason"});
          continue;
        }
        size_t close = c.text.find(')', i);
        if (close == std::string::npos) {
          findings_.push_back({f.path, c.line_begin, "suppression",
                               "unterminated snb-lint-allow(check) clause"});
          continue;
        }
        std::string check = c.text.substr(i + 1, close - i - 1);
        if (check != "*" && names.find(check) == names.end()) {
          findings_.push_back({f.path, c.line_begin, "suppression",
                               "unknown check '" + check +
                                   "' in snb-lint-allow (see --list-checks)"});
          continue;
        }
        size_t r = close + 1;
        while (r < c.text.size() && (c.text[r] == ' ' || c.text[r] == '\t')) {
          ++r;
        }
        bool has_reason = r < c.text.size() && c.text[r] == ':';
        if (has_reason) {
          ++r;
          while (r < c.text.size() &&
                 (c.text[r] == ' ' || c.text[r] == '\t')) {
            ++r;
          }
          has_reason = r < c.text.size() &&
                       c.text.find_first_not_of(" \t\r\n", r) !=
                           std::string::npos;
        }
        if (!has_reason) {
          findings_.push_back({f.path, c.line_begin, "suppression",
                               "snb-lint-allow(" + check +
                                   ") carries no ': reason' — say why "
                                   "ignoring is correct"});
          continue;
        }
        out->push_back(Suppression{check, c.line_begin, c.line_end});
      }
    }
  }

  const Options& opts_;
  std::vector<Unit> units_;
  std::vector<Finding> findings_;
};

// ---------------------------------------------------------------------------
// Simple token-pattern checks (the ported grep gates).

void CheckNoRawRandom(Ctx& ctx) {
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!InProduct(p) || StartsWith(p, "src/datagen/")) continue;
    const auto& t = u.lex->tokens;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent || !IsPunct(t[i + 1], "(")) continue;
      if (t[i].text == "rand" || t[i].text == "srand" ||
          t[i].text == "random") {
        ctx.Emit(u, t[i].line, "no-raw-random",
                 "call to " + t[i].text +
                     "() — query/bench code draws from seeded util::Rng; "
                     "only src/datagen/ owns its own seeding policy");
      }
    }
  }
}

void CheckNoWallClock(Ctx& ctx) {
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!InProduct(p) || StartsWith(p, "src/datagen/")) continue;
    const auto& t = u.lex->tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (!IsIdent(t[i], "time")) continue;
      bool std_qualified = i >= 2 && IsPunct(t[i - 1], "::") &&
                           IsIdent(t[i - 2], "std");
      bool null_arg = i + 3 < t.size() && IsPunct(t[i + 1], "(") &&
                      (IsIdent(t[i + 2], "nullptr") ||
                       IsIdent(t[i + 2], "NULL")) &&
                      IsPunct(t[i + 3], ")");
      if (std_qualified || null_arg) {
        ctx.Emit(u, t[i].line, "no-wall-clock",
                 "wall-clock std::time — results must not depend on when "
                 "the benchmark ran; timing goes through util/timer");
      }
    }
  }
}

void CheckNoRawSync(Ctx& ctx) {
  static const std::set<std::string> kPrimitives = {
      "mutex",          "recursive_mutex",        "timed_mutex",
      "shared_mutex",   "condition_variable",     "condition_variable_any",
      "lock_guard",     "unique_lock",            "scoped_lock",
      "shared_lock"};
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!InProduct(p) || p == "src/util/mutex.h") continue;
    const auto& t = u.lex->tokens;
    for (size_t i = 0; i + 2 < t.size(); ++i) {
      if (IsIdent(t[i], "std") && IsPunct(t[i + 1], "::") &&
          t[i + 2].kind == TokKind::kIdent &&
          kPrimitives.count(t[i + 2].text)) {
        ctx.Emit(u, t[i].line, "no-raw-sync",
                 "raw std::" + t[i + 2].text +
                     " — only util::Mutex/MutexLock/CondVar carry the "
                     "clang thread-safety capability attributes");
      }
    }
  }
}

void CheckCondVarConfined(Ctx& ctx) {
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!InProduct(p) || StartsWith(p, "src/util/")) continue;
    for (const Token& tok : u.lex->tokens) {
      if (IsIdent(tok, "CondVar")) {
        ctx.Emit(u, tok.line, "condvar-confined",
                 "util::CondVar outside src/util/ — blocking wait loops "
                 "live in util primitives where the spurious-wakeup "
                 "re-check is reviewed in one place");
      }
    }
  }
}

void CheckFuzzPublicParser(Ctx& ctx) {
  static const std::set<std::string> kEntryPoints = {
      "ScanWal", "ReadCsv", "ParseUpdateEventLine", "DecodeColumnBlock"};
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!StartsWith(p, "fuzz/fuzz_") || !EndsWith(p, ".cc") ||
        p == "fuzz/fuzz_smoke_main.cc") {
      continue;
    }
    bool drives_entry = false;
    for (const Token& tok : u.lex->tokens) {
      if (tok.kind == TokKind::kIdent && kEntryPoints.count(tok.text)) {
        drives_entry = true;
        break;
      }
    }
    if (!drives_entry) {
      ctx.Emit(u, 1, "fuzz-public-parser",
               "fuzz harness drives no public parser entry point (ScanWal / "
               "ReadCsv / ParseUpdateEventLine / DecodeColumnBlock)");
    }
    for (const PPLine& pp : u.lex->pp_lines) {
      if (pp.text.find(".cc\"") != std::string::npos &&
          pp.text.find("include") != std::string::npos) {
        ctx.Emit(u, pp.line_begin, "fuzz-public-parser",
                 "fuzz harness includes a .cc — it would fuzz a copy of "
                 "the parser, not the shipped one");
      }
    }
    const auto& t = u.lex->tokens;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (IsIdent(t[i], "internal") && IsPunct(t[i + 1], "::")) {
        ctx.Emit(u, t[i].line, "fuzz-public-parser",
                 "fuzz harness reaches into an internal:: namespace — "
                 "harnesses drive public Status-returning parsers only");
      }
    }
  }
}

void CheckCancelPoll(Ctx& ctx) {
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!IsBiKernel(p)) continue;
    const auto& t = u.lex->tokens;
    bool any_poll = false;
    bool reachable_poll = false;
    int first_poll_line = 0;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (!(IsIdent(t[i], "Tick") || IsIdent(t[i], "PollCancel")) ||
          !IsPunct(t[i + 1], "(")) {
        continue;
      }
      any_poll = true;
      if (first_poll_line == 0) first_poll_line = t[i].line;
      if (u.scopes->InLoopOrLambda(i)) {
        reachable_poll = true;
        break;
      }
    }
    if (!any_poll) {
      ctx.Emit(u, 1, "cancel-poll",
               "BI kernel has no cancellation poll — scheduler deadline "
               "cancellation is cooperative and needs a CancelPoller tick "
               "in the hot loop");
    } else if (!reachable_poll) {
      ctx.Emit(u, first_poll_line, "cancel-poll",
               "cancellation poll is never inside a loop or per-element "
               "callback body — a straight-line poll runs once and the "
               "kernel can still stall its stream");
    }
  }
}

void CheckTopkBound(Ctx& ctx) {
  static const std::set<std::string> kTopKFiles = {
      "src/bi/bi02.cc", "src/bi/bi03.cc", "src/bi/bi06.cc",
      "src/bi/bi12.cc", "src/bi/bi14.cc"};
  for (const Unit& u : ctx.units()) {
    if (!kTopKFiles.count(u.lex->path)) continue;
    bool consults = false;
    for (const Token& tok : u.lex->tokens) {
      if (IsIdent(tok, "BoundRef") || IsIdent(tok, "CannotPlace")) {
        consults = true;
        break;
      }
    }
    if (!consults) {
      ctx.Emit(u, 1, "topk-bound",
               "top-k kernel never consults engine::BoundRef — the kernel "
               "has silently regressed to the sort-everything plan the "
               "pushdown work exists to beat");
    }
  }
}

void CheckNoRawAtomic(Ctx& ctx) {
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!StartsWith(p, "src/bi/") || p == "src/bi/cancel.h" ||
        p == "src/bi/cancel.cc") {
      continue;
    }
    const auto& t = u.lex->tokens;
    for (size_t i = 0; i + 2 < t.size(); ++i) {
      if (IsIdent(t[i], "std") && IsPunct(t[i + 1], "::") &&
          (IsIdent(t[i + 2], "atomic") || IsIdent(t[i + 2], "atomic_flag"))) {
        ctx.Emit(u, t[i].line, "no-raw-atomic",
                 "raw std::atomic in query code — cross-slot state goes "
                 "through the reviewed engine/ helpers (BoundRef, "
                 "ScanStats); cancel.h owns the one sanctioned flag");
      }
    }
  }
}

void CheckNoRawAssert(Ctx& ctx) {
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!InProduct(p) || p == "src/util/check.h") continue;
    const auto& t = u.lex->tokens;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent || !IsPunct(t[i + 1], "(")) continue;
      if (t[i].text == "assert" || t[i].text == "abort") {
        ctx.Emit(u, t[i].line, "no-raw-assert",
                 "raw " + t[i].text +
                     "() — SNB_CHECK*/SNB_DCHECK print the expression and "
                     "file:line and honor NDEBUG policy");
      }
    }
  }
}

void CheckFailpointSiteConfined(Ctx& ctx) {
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    bool outside_src = StartsWith(p, "tools/") || StartsWith(p, "bench/") ||
                       StartsWith(p, "tests/") || StartsWith(p, "fuzz/");
    if (!outside_src) continue;
    for (const Token& tok : u.lex->tokens) {
      if (tok.kind == TokKind::kIdent &&
          StartsWith(tok.text, "SNB_FAILPOINT")) {
        ctx.Emit(u, tok.line, "failpoint-site-confined",
                 "SNB_FAILPOINT site macro outside src/ — sites mark "
                 "production code; tests inject through the arming API");
      }
    }
  }
}

void CheckFailpointArmingConfined(Ctx& ctx) {
  static const std::set<std::string> kArmingApi = {
      "Arm", "ArmFromSpecString", "Disarm", "DisarmAll"};
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!InProduct(p) || p == "src/util/failpoint.h" ||
        p == "src/util/failpoint.cc") {
      continue;
    }
    const auto& t = u.lex->tokens;
    for (size_t i = 0; i + 2 < t.size(); ++i) {
      if (IsIdent(t[i], "failpoint") && IsPunct(t[i + 1], "::") &&
          t[i + 2].kind == TokKind::kIdent && kArmingApi.count(t[i + 2].text)) {
        ctx.Emit(u, t[i].line, "failpoint-arming-confined",
                 "fail-point arming API in shipping code — a binary that "
                 "injects its own failures is a latent outage; arming is "
                 "for tests and the SNB_FAILPOINTS env");
      }
    }
  }
}

void CheckFailpointSiteUnique(Ctx& ctx) {
  std::map<std::string, std::pair<std::string, int>> first_site;
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!StartsWith(p, "src/")) continue;
    const auto& t = u.lex->tokens;
    for (size_t i = 0; i + 2 < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent ||
          !StartsWith(t[i].text, "SNB_FAILPOINT") || !IsPunct(t[i + 1], "(") ||
          t[i + 2].kind != TokKind::kString) {
        continue;
      }
      const std::string& name = t[i + 2].text;
      auto [it, inserted] =
          first_site.emplace(name, std::make_pair(p, t[i].line));
      if (!inserted) {
        ctx.Emit(u, t[i].line, "failpoint-site-unique",
                 "duplicate fail-point site \"" + name + "\" (first at " +
                     it->second.first + ":" +
                     std::to_string(it->second.second) +
                     ") — crash-at-every-site loops enumerate the registry "
                     "by name and would test only one of them");
      }
    }
  }
}

void CheckWalConfined(Ctx& ctx) {
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!InProduct(p) || p == "src/storage/wal.cc") continue;
    for (const Token& tok : u.lex->tokens) {
      if (tok.kind == TokKind::kString &&
          tok.text.find("wal.log") != std::string::npos) {
        ctx.Emit(u, tok.line, "wal-confined",
                 "\"wal.log\" path literal outside src/storage/wal.cc — a "
                 "second opener could break the framing or the torn-tail "
                 "truncation invariant unnoticed");
      }
    }
  }
}

void CheckTestAccessConfined(Ctx& ctx) {
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!InProduct(p)) continue;
    for (const PPLine& pp : u.lex->pp_lines) {
      if (pp.text.find("include") != std::string::npos &&
          pp.text.find("test_access.h") != std::string::npos) {
        ctx.Emit(u, pp.line_begin, "test-access-confined",
                 "test_access.h included from shipping code — it pierces "
                 "every encapsulation boundary by design and is tests-only");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// unchecked-status: a Status/StatusOr-returning call whose result vanishes.

/// Pass 1 — registry: every function name declared with a Status or
/// StatusOr return type anywhere in the corpus. Token-pattern based, so a
/// `Status st(...)` variable sneaks in as a "function" — harmless, nothing
/// ever calls it as one. Fixtures declare their own functions, which is
/// what makes the fires/clean pairs self-contained.
std::set<std::string> CollectStatusFunctions(Ctx& ctx) {
  std::set<std::string> names;
  for (const Unit& u : ctx.units()) {
    const auto& t = u.lex->tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (!(IsIdent(t[i], "Status") || IsIdent(t[i], "StatusOr"))) continue;
      // Expression context — `return Status(...)`, `StatusOr<T>(x)` as a
      // cast, template args — is not a declaration. Walk the qualifier
      // chain (util::, snb::util::) back to the token before the type.
      size_t q = i;
      while (q >= 2 && IsPunct(t[q - 1], "::") &&
             t[q - 2].kind == TokKind::kIdent) {
        q -= 2;
      }
      if (q > 0) {
        const Token& pre = t[q - 1];
        if (pre.kind == TokKind::kIdent &&
            (pre.text == "return" || pre.text == "new" ||
             pre.text == "case")) {
          continue;
        }
        if (pre.kind == TokKind::kPunct &&
            (pre.text == "(" || pre.text == "," || pre.text == "<" ||
             pre.text == "=" || pre.text == "!" || pre.text == "::")) {
          continue;
        }
      }
      size_t k = i + 1;
      if (IsIdent(t[i], "StatusOr")) {
        if (k >= t.size() || !IsPunct(t[k], "<")) continue;
        int depth = 0;
        while (k < t.size()) {
          if (IsPunct(t[k], "<")) ++depth;
          if (IsPunct(t[k], ">") && --depth == 0) break;
          ++k;
        }
        ++k;  // past the closing '>'
      }
      if (k + 1 >= t.size() || t[k].kind != TokKind::kIdent ||
          !IsPunct(t[k + 1], "(")) {
        continue;
      }
      if (t[k].text == "operator") continue;
      names.insert(t[k].text);
    }
  }

  // Pass 2 — disambiguation: a name also declared somewhere with a
  // *non*-Status return type (TopK::Add vs ExternalSorter::Add) is dropped
  // from the registry. The token level cannot resolve which overload a
  // call site binds to; the compiler's [[nodiscard]] on the Status classes
  // covers the ambiguous names exactly, by type. This check owns only the
  // unambiguous ones.
  std::set<std::string> ambiguous;
  static const std::set<std::string> kNotAType = {
      "return", "new",  "delete", "case",   "goto",    "throw",
      "else",   "do",   "co_return", "co_await", "co_yield", "not",
      "sizeof", "alignof"};
  static const std::set<std::string> kNotAName = {
      "if",       "for",      "while",    "switch",   "catch",
      "constexpr", "const",   "noexcept", "decltype", "requires",
      "operator", "final",    "override", "sizeof",   "alignof"};
  for (const Unit& u : ctx.units()) {
    const auto& t = u.lex->tokens;
    for (size_t i = 1; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent || !IsPunct(t[i + 1], "(")) continue;
      if (!names.count(t[i].text) || kNotAName.count(t[i].text)) continue;
      const Token& pre = t[i - 1];
      bool type_before =
          pre.kind == TokKind::kIdent && !kNotAType.count(pre.text) &&
          pre.text != "Status" && pre.text != "StatusOr";
      if (IsPunct(pre, ">")) {
        // `std::vector<Row> Add(` is a non-Status declaration — but walk
        // the angle group back first: `StatusOr<T> Foo(` ends in '>' too.
        int depth = 0;
        size_t q = i - 1;
        while (true) {
          if (IsPunct(t[q], ">")) ++depth;
          else if (IsPunct(t[q], "<") && --depth == 0) break;
          if (q == 0) break;
          --q;
        }
        type_before = !(q > 0 && IsIdent(t[q - 1], "StatusOr"));
      }
      if (type_before) ambiguous.insert(t[i].text);
    }
  }
  for (const std::string& a : ambiguous) names.erase(a);
  return names;
}

void CheckUncheckedStatus(Ctx& ctx) {
  std::set<std::string> registry = CollectStatusFunctions(ctx);
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!InProduct(p)) continue;
    const auto& t = u.lex->tokens;
    const ScopeModel& sc = *u.scopes;
    for (size_t i = 0; i < t.size(); ++i) {
      // Statement starts: after ; { } : else do, or after the ')' of an
      // if/for/while condition (braceless body).
      bool stmt_start = i == 0;
      if (!stmt_start) {
        const Token& prev = t[i - 1];
        if (prev.kind == TokKind::kPunct &&
            (prev.text == ";" || prev.text == "{" || prev.text == "}" ||
             prev.text == ":")) {
          stmt_start = true;
        } else if (prev.kind == TokKind::kIdent &&
                   (prev.text == "else" || prev.text == "do")) {
          stmt_start = true;
        } else if (IsPunct(prev, ")") && sc.Match(i - 1) != kNoMatch) {
          size_t open = sc.Match(i - 1);
          if (open > 0 && t[open - 1].kind == TokKind::kIdent &&
              (t[open - 1].text == "if" || t[open - 1].text == "for" ||
               t[open - 1].text == "while")) {
            stmt_start = true;
          }
        }
      }
      if (!stmt_start) continue;

      size_t j = i;
      bool explicit_void = false;
      if (j + 2 < t.size() && IsPunct(t[j], "(") && IsIdent(t[j + 1], "void") &&
          IsPunct(t[j + 2], ")")) {
        explicit_void = true;
        j += 3;
      }
      if (j >= t.size() || t[j].kind != TokKind::kIdent) continue;
      // Chain: ident ((:: | . | ->) ident)* directly followed by '('.
      std::string callee = t[j].text;
      size_t c = j;
      while (c + 2 < t.size() && t[c + 1].kind == TokKind::kPunct &&
             (t[c + 1].text == "::" || t[c + 1].text == "." ||
              t[c + 1].text == "->") &&
             t[c + 2].kind == TokKind::kIdent) {
        c += 2;
        callee = t[c].text;
      }
      if (c + 1 >= t.size() || !IsPunct(t[c + 1], "(")) continue;
      size_t close = sc.Match(c + 1);
      if (close == kNoMatch || close + 1 >= t.size() ||
          !IsPunct(t[close + 1], ";")) {
        continue;
      }
      if (!registry.count(callee)) continue;
      if (explicit_void) {
        ctx.Emit(u, t[j].line, "unchecked-status",
                 "(void)-discarded Status from '" + callee +
                     "' — an explicit discard still needs an adjacent "
                     "snb-lint-allow(unchecked-status): <why ignoring is "
                     "correct>");
      } else {
        ctx.Emit(u, t[j].line, "unchecked-status",
                 "result of Status-returning '" + callee +
                     "' is discarded — a dropped kCorruption during a "
                     "cascade is silent data loss; check it, return it, or "
                     "(void)+snb-lint-allow it");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// relaxed-rationale: every memory_order_relaxed outside the three reviewed
// homes carries an adjacent `// relaxed:` justification.

void CheckRelaxedRationale(Ctx& ctx) {
  static const std::set<std::string> kReviewedHomes = {
      "src/engine/bound.h", "src/storage/scan_stats.h", "src/bi/cancel.h",
      "src/bi/cancel.cc"};
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!InProduct(p) || kReviewedHomes.count(p)) continue;
    const auto& t = u.lex->tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      const Token& tok = t[i];
      if (!IsIdent(tok, "memory_order_relaxed")) continue;
      // The note may sit above the *statement*, whose first line can be
      // earlier than the token when the call wraps — walk back to the
      // statement boundary to find where "above" starts.
      int stmt_line = tok.line;
      for (size_t j = i; j-- > 0;) {
        if (t[j].kind == TokKind::kPunct &&
            (t[j].text == ";" || t[j].text == "{" || t[j].text == "}")) {
          if (j + 1 < t.size()) stmt_line = t[j + 1].line;
          break;
        }
      }
      bool justified = false;
      for (const Comment& c : u.lex->comments) {
        if (c.text.find("relaxed:") == std::string::npos) continue;
        // Adjacent: on the statement's lines, or a comment (block or line
        // run) ending on the line immediately above the statement.
        if (c.line_begin <= tok.line && c.line_end >= stmt_line - 1) {
          justified = true;
          break;
        }
      }
      if (!justified) {
        ctx.Emit(u, tok.line, "relaxed-rationale",
                 "memory_order_relaxed outside engine/bound.h, "
                 "storage/scan_stats.h and bi/cancel.* needs an adjacent "
                 "'// relaxed: <why this ordering is sufficient>' note");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// guarded-by: mutable fields of classes owning a util::Mutex must carry
// SNB_GUARDED_BY (or an explicit allow with the synchronization story).

struct MemberInfo {
  enum Kind { kSkip, kMethod, kField } kind = kSkip;
  std::string name;
  int line = 0;
  bool is_sync_primitive = false;  // Mutex / CondVar / BlockingCounter
  bool is_atomic = false;
  bool is_const = false;
  bool has_guard = false;
};

MemberInfo ClassifyMember(const std::vector<Token>& t,
                          const MemberStatement& m) {
  MemberInfo info;
  if (m.tokens.empty()) return info;
  const Token& first = t[m.tokens.front()];
  info.line = first.line;
  static const std::set<std::string> kSkipLeads = {
      "public",   "private", "protected", "using",  "typedef", "friend",
      "template", "static",  "constexpr", "enum",   "class",   "struct",
      "union",    "operator", "explicit", "virtual", "inline"};
  if (first.kind == TokKind::kIdent && kSkipLeads.count(first.text)) {
    return info;  // kSkip
  }
  int angle = 0;
  size_t paren_at = kNoMatch;
  for (size_t k = 0; k < m.tokens.size(); ++k) {
    if (IsIdent(t[m.tokens[k]], "operator")) {
      info.kind = MemberInfo::kMethod;  // operator=(const Mutex&) etc.
      return info;
    }
    const Token& tok = t[m.tokens[k]];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "<") ++angle;
      if (tok.text == ">" && angle > 0) --angle;
      if (tok.text == "(" && angle == 0 && paren_at == kNoMatch) paren_at = k;
    }
    if (tok.kind != TokKind::kIdent) continue;
    if (angle == 0 && tok.text == "const") info.is_const = true;
    if (tok.text == "Mutex" || tok.text == "CondVar" ||
        tok.text == "BlockingCounter") {
      info.is_sync_primitive = true;
    }
    if (tok.text == "atomic" || tok.text == "atomic_flag") {
      info.is_atomic = true;
    }
    if (tok.text == "SNB_GUARDED_BY" || tok.text == "SNB_PT_GUARDED_BY") {
      info.has_guard = true;
    }
  }
  // A top-level '(' whose left neighbour is a plain identifier (not one of
  // our annotation macros) is a parameter list: a method declaration.
  if (paren_at != kNoMatch && paren_at > 0) {
    const Token& before = t[m.tokens[paren_at - 1]];
    if (before.kind == TokKind::kIdent && !StartsWith(before.text, "SNB_")) {
      info.kind = MemberInfo::kMethod;
      return info;
    }
  }
  // Field name: last identifier before '=', '[', or an SNB_* annotation.
  angle = 0;
  for (size_t k = 0; k < m.tokens.size(); ++k) {
    const Token& tok = t[m.tokens[k]];
    if (tok.kind == TokKind::kPunct) {
      if (tok.text == "<") ++angle;
      if (tok.text == ">" && angle > 0) --angle;
      if (angle == 0 && (tok.text == "=" || tok.text == "[")) break;
    }
    if (angle == 0 && tok.kind == TokKind::kIdent) {
      if (StartsWith(tok.text, "SNB_")) break;
      static const std::set<std::string> kNotNames = {
          "const", "mutable", "volatile", "unsigned", "signed", "long",
          "short", "int",     "bool",     "char",     "float",  "double",
          "auto",  "void",    "size_t"};
      if (!kNotNames.count(tok.text)) info.name = tok.text;
    }
  }
  info.kind = MemberInfo::kField;
  return info;
}

void CheckGuardedBy(Ctx& ctx) {
  for (const Unit& u : ctx.units()) {
    const std::string& p = u.lex->path;
    if (!InProduct(p)) continue;
    for (const ScopeModel::ClassScope& cls : u.scopes->classes()) {
      std::vector<MemberStatement> members =
          SplitMembers(u.lex->tokens, *u.scopes, cls);
      bool owns_mutex = false;
      for (const MemberStatement& m : members) {
        if (m.had_body) continue;
        MemberInfo info = ClassifyMember(u.lex->tokens, m);
        if (info.kind == MemberInfo::kField && info.is_sync_primitive) {
          // Only an owned Mutex establishes the guarding obligation;
          // CondVar/BlockingCounter alone do not guard data.
          for (size_t idx : m.tokens) {
            if (IsIdent(u.lex->tokens[idx], "Mutex")) {
              owns_mutex = true;
              break;
            }
          }
        }
      }
      if (!owns_mutex) continue;
      for (const MemberStatement& m : members) {
        if (m.had_body) continue;
        MemberInfo info = ClassifyMember(u.lex->tokens, m);
        if (info.kind != MemberInfo::kField) continue;
        if (info.is_sync_primitive || info.is_atomic || info.is_const ||
            info.has_guard) {
          continue;
        }
        std::string cls_name = cls.name.empty() ? "(anonymous)" : cls.name;
        ctx.Emit(u, info.line, "guarded-by",
                 "field '" + info.name + "' of mutex-owning class '" +
                     cls_name +
                     "' has no SNB_GUARDED_BY — annotate it, or "
                     "snb-lint-allow(guarded-by) with the synchronization "
                     "story (immutable-after-construction, single-writer, "
                     "...)");
      }
    }
  }
}

}  // namespace

std::string FormatFinding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.check + "] " +
         f.message;
}

std::vector<std::string> CheckNames() {
  return {
      "no-raw-random",
      "no-wall-clock",
      "no-raw-sync",
      "condvar-confined",
      "fuzz-public-parser",
      "cancel-poll",
      "topk-bound",
      "no-raw-atomic",
      "no-raw-assert",
      "failpoint-site-confined",
      "failpoint-arming-confined",
      "failpoint-site-unique",
      "wal-confined",
      "test-access-confined",
      "unchecked-status",
      "relaxed-rationale",
      "guarded-by",
      "static-lock-cycle",
      "blocking-while-locked-static",
      "epoch-escape",
      "status-flow",
      "suppression",
  };
}

std::vector<Finding> RunChecks(const std::vector<LexedFile>& files,
                               const Options& opts) {
  Ctx ctx(files, opts);
  struct Entry {
    const char* name;
    void (*fn)(Ctx&);
  };
  static const Entry kChecks[] = {
      {"no-raw-random", CheckNoRawRandom},
      {"no-wall-clock", CheckNoWallClock},
      {"no-raw-sync", CheckNoRawSync},
      {"condvar-confined", CheckCondVarConfined},
      {"fuzz-public-parser", CheckFuzzPublicParser},
      {"cancel-poll", CheckCancelPoll},
      {"topk-bound", CheckTopkBound},
      {"no-raw-atomic", CheckNoRawAtomic},
      {"no-raw-assert", CheckNoRawAssert},
      {"failpoint-site-confined", CheckFailpointSiteConfined},
      {"failpoint-arming-confined", CheckFailpointArmingConfined},
      {"failpoint-site-unique", CheckFailpointSiteUnique},
      {"wal-confined", CheckWalConfined},
      {"test-access-confined", CheckTestAccessConfined},
      {"unchecked-status", CheckUncheckedStatus},
      {"relaxed-rationale", CheckRelaxedRationale},
      {"guarded-by", CheckGuardedBy},
  };
  for (const Entry& e : kChecks) {
    if (ctx.Enabled(e.name)) e.fn(ctx);
  }

  // The interprocedural families (v3) run over the same units; findings
  // route back through Ctx::Emit so the suppression ledger applies
  // uniformly. The unit order matches `files`, so file indices line up.
  std::vector<IpaFile> ipa;
  for (const Unit& u : ctx.units()) {
    ipa.push_back(IpaFile{u.lex, u.scopes.get()});
  }
  RunIpaChecks(
      ipa,
      [&ctx](size_t file_index, int line, const std::string& check,
             const std::string& msg) {
        ctx.Emit(ctx.units()[file_index], line, check, msg);
      },
      [&ctx](const std::string& check) { return ctx.Enabled(check); });

  return ctx.Take();
}

}  // namespace snb_lint
