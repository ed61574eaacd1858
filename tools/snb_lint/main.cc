// snb_lint — token-level repo analyzer. Replaces the grep gates that used
// to live in scripts/lint.sh with parsed checks that cannot be fooled by
// comment boundaries, string literals or scope.
//
//   snb_lint --root <repo>                 # scan src/ tools/ bench/ fuzz/
//                                          # tests/ with per-check policies
//   snb_lint --root <repo> --check <name>  # subset (repeatable)
//   snb_lint --root <repo> --format=json   # machine-readable findings
//   snb_lint --root <repo> --changed-only  # report only files touched per
//                                          # git; analysis stays whole-repo
//   snb_lint --fixture <file>...           # golden-fixture mode: virtual
//                                          # path from `snb-lint-path:`
//   snb_lint --list-checks
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error. Text findings
// print as
//   file:line: [check-name] message
// to stdout, one per line, sorted by file then line; suppressed findings
// are omitted. --format=json emits every finding (including suppressed
// ones, with their suppression state) as a JSON array; the exit code still
// counts only unsuppressed findings.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "checks.h"
#include "lexer.h"

namespace snb_lint {
namespace {

namespace fs = std::filesystem;

int Usage() {
  std::cerr
      << "usage: snb_lint --root <repo> [--check <name>]... "
         "[--format=text|json] [--changed-only]\n"
         "       snb_lint --fixture <file>... [--check <name>]... "
         "[--format=text|json]\n"
         "       snb_lint --list-checks\n";
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Files touched per git (worktree vs HEAD, plus untracked), repo-relative.
/// Returns false when git is unavailable or errors — callers fall back to
/// the full report.
bool GitChangedFiles(const std::string& root, std::set<std::string>* out) {
  for (const char* args : {"diff --name-only HEAD",
                           "ls-files --others --exclude-standard"}) {
    std::string cmd =
        "git -C '" + root + "' " + args + " 2>/dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return false;
    char buf[4096];
    std::string text;
    while (fgets(buf, sizeof(buf), pipe) != nullptr) text += buf;
    if (pclose(pipe) != 0) return false;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (!line.empty()) out->insert(line);
    }
  }
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// The scanned trees. tools/snb_lint/ itself is excluded: the analyzer's
/// own sources spell the forbidden patterns as string data ("wal.log",
/// "memory_order_relaxed"), and a tool that has to suppress its own checks
/// to exist teaches suppression as a habit. The compiler gates still cover
/// it like any other TU.
bool ShouldScan(const std::string& rel) {
  if (rel.rfind("tools/snb_lint/", 0) == 0) return false;
  // Golden fixtures are violations on purpose; they run under --fixture
  // with their snb-lint-path virtual locations, never in the repo scan.
  if (rel.rfind("tests/lint_fixtures/", 0) == 0) return false;
  bool in_tree = rel.rfind("src/", 0) == 0 || rel.rfind("tools/", 0) == 0 ||
                 rel.rfind("bench/", 0) == 0 || rel.rfind("fuzz/", 0) == 0 ||
                 rel.rfind("tests/", 0) == 0;
  if (!in_tree) return false;
  return rel.size() > 3 && (rel.compare(rel.size() - 3, 3, ".cc") == 0 ||
                            rel.compare(rel.size() - 2, 2, ".h") == 0);
}

/// Fixture files declare the repo location they impersonate:
///   // snb-lint-path: src/bi/bi02.cc
/// so a committed fixture under tests/lint_fixtures/ can exercise a check
/// that only applies inside, say, the BI kernel tree.
std::string VirtualPath(const LexedFile& lexed, const std::string& fallback) {
  constexpr const char* kTag = "snb-lint-path:";
  for (const Comment& c : lexed.comments) {
    size_t pos = c.text.find(kTag);
    if (pos == std::string::npos) continue;
    size_t b = pos + std::strlen(kTag);
    while (b < c.text.size() && (c.text[b] == ' ' || c.text[b] == '\t')) ++b;
    size_t e = b;
    while (e < c.text.size() && !std::isspace(static_cast<unsigned char>(
                                    c.text[e]))) {
      ++e;
    }
    if (e > b) return c.text.substr(b, e - b);
  }
  return fallback;
}

int Run(int argc, char** argv) {
  std::string root;
  std::vector<std::string> fixtures;
  Options opts;
  bool json = false;
  bool changed_only = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "snb_lint: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = value("--root");
    } else if (arg == "--check") {
      opts.only_checks.push_back(value("--check"));
    } else if (arg == "--fixture") {
      fixtures.push_back(value("--fixture"));
    } else if (arg == "--format") {
      arg = "--format=" + value("--format");
    } else if (arg == "--changed-only") {
      changed_only = true;
    } else if (arg == "--list-checks") {
      for (const std::string& n : CheckNames()) std::cout << n << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg.rfind("--format=", 0) != 0) {
      std::cerr << "snb_lint: unknown argument '" << arg << "'\n";
      return Usage();
    }
    if (arg.rfind("--format=", 0) == 0) {
      std::string fmt = arg.substr(std::strlen("--format="));
      if (fmt == "json") {
        json = true;
      } else if (fmt == "text") {
        json = false;
      } else {
        std::cerr << "snb_lint: unknown format '" << fmt << "'\n";
        return Usage();
      }
    }
  }
  for (const std::string& c : opts.only_checks) {
    bool known = false;
    for (const std::string& n : CheckNames()) known = known || n == c;
    if (!known) {
      std::cerr << "snb_lint: unknown check '" << c
                << "' (see --list-checks)\n";
      return 2;
    }
  }

  std::vector<LexedFile> files;
  // Physical path per corpus entry, for reporting: fixtures report their
  // real on-disk location while being checked under their virtual one.
  std::vector<std::string> physical;

  if (!fixtures.empty()) {
    for (const std::string& f : fixtures) {
      std::string content;
      if (!ReadFile(f, &content)) {
        std::cerr << "snb_lint: cannot read fixture " << f << "\n";
        return 2;
      }
      LexedFile lexed = Lex(f, content);
      std::string vpath =
          VirtualPath(lexed, "src/" + fs::path(f).filename().string());
      lexed.path = vpath;
      files.push_back(std::move(lexed));
      physical.push_back(f);
    }
  } else if (!root.empty()) {
    fs::path base(root);
    if (!fs::is_directory(base)) {
      std::cerr << "snb_lint: --root " << root << " is not a directory\n";
      return 2;
    }
    std::vector<std::string> rels;
    for (const char* tree : {"src", "tools", "bench", "fuzz", "tests"}) {
      fs::path sub = base / tree;
      if (!fs::is_directory(sub)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(sub)) {
        if (!entry.is_regular_file()) continue;
        std::string rel =
            fs::relative(entry.path(), base).generic_string();
        if (ShouldScan(rel)) rels.push_back(rel);
      }
    }
    std::sort(rels.begin(), rels.end());
    for (const std::string& rel : rels) {
      std::string content;
      if (!ReadFile((base / rel).string(), &content)) {
        std::cerr << "snb_lint: cannot read " << rel << "\n";
        return 2;
      }
      files.push_back(Lex(rel, content));
      physical.push_back(rel);
    }
  } else {
    return Usage();
  }

  std::vector<Finding> findings = RunChecks(files, opts);
  // Map virtual paths back to physical ones for fixture reporting.
  for (Finding& f : findings) {
    for (size_t i = 0; i < files.size(); ++i) {
      if (files[i].path == f.file) {
        f.file = physical[i];
        break;
      }
    }
  }

  if (changed_only && !root.empty()) {
    // The corpus (and so the call graph behind the interprocedural
    // checks) is always whole-repo; --changed-only narrows what gets
    // *reported*. A changed header invalidates summaries anywhere, so any
    // .h in the change set falls back to the full report — as does a tree
    // that git cannot describe.
    std::set<std::string> changed;
    bool header_changed = false;
    if (GitChangedFiles(root, &changed)) {
      for (const std::string& c : changed) {
        if (c.size() > 2 && c.compare(c.size() - 2, 2, ".h") == 0) {
          header_changed = true;
          break;
        }
      }
      if (!header_changed) {
        std::vector<Finding> kept;
        for (Finding& f : findings) {
          if (changed.count(f.file)) kept.push_back(std::move(f));
        }
        findings = std::move(kept);
      }
    }
  }

  size_t unsuppressed = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) ++unsuppressed;
  }

  if (json) {
    std::cout << "[";
    bool first = true;
    for (const Finding& f : findings) {
      std::cout << (first ? "\n" : ",\n")
                << "  {\"check\": \"" << JsonEscape(f.check)
                << "\", \"file\": \"" << JsonEscape(f.file)
                << "\", \"line\": " << f.line << ", \"message\": \""
                << JsonEscape(f.message)
                << "\", \"suppressed\": " << (f.suppressed ? "true" : "false")
                << "}";
      first = false;
    }
    std::cout << (first ? "]\n" : "\n]\n");
  } else {
    for (const Finding& f : findings) {
      if (!f.suppressed) std::cout << FormatFinding(f) << "\n";
    }
  }
  return unsuppressed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace snb_lint

int main(int argc, char** argv) { return snb_lint::Run(argc, argv); }
