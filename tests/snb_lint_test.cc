// Drives the snb_lint binary over the golden fixtures in
// tests/lint_fixtures/. Every check has a fires/clean pair (bar
// condvar-confined, noted below): the fires fixture must produce at least
// one finding of exactly that check, and the clean fixture must survive
// the *full* check suite under its virtual path — so a check that silently stops firing and a check that starts
// over-firing both break this test. The lexer edge fixtures (multi-line
// block comments, raw strings, non-nesting /* */) pin the exact failure
// modes that the old sed|grep lint gate got wrong.
//
// SNB_LINT_BIN and SNB_LINT_FIXTURE_DIR arrive as compile definitions from
// tests/CMakeLists.txt.

#include <cstdio>
#include <string>

#include "gtest/gtest.h"

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunLint(const std::string& args) {
  std::string cmd = std::string(SNB_LINT_BIN) + " " + args + " 2>&1";
  RunResult r;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return r;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) r.output += buf;
  int status = pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string Fixture(const std::string& name) {
  return std::string(SNB_LINT_FIXTURE_DIR) + "/" + name;
}

/// The fires half of a golden pair: running only `check` over the fixture
/// exits 1 and every reported finding names that check.
void ExpectFires(const std::string& check, const std::string& fixture) {
  RunResult r =
      RunLint("--check " + check + " --fixture " + Fixture(fixture));
  EXPECT_EQ(r.exit_code, 1) << check << " on " << fixture << ":\n"
                            << r.output;
  EXPECT_NE(r.output.find("[" + check + "]"), std::string::npos)
      << check << " on " << fixture << ":\n"
      << r.output;
}

/// The clean half: the fixture passes the *entire* suite, so no other
/// check over-fires on the idioms this pair declares acceptable.
void ExpectClean(const std::string& fixture) {
  RunResult r = RunLint("--fixture " + Fixture(fixture));
  EXPECT_EQ(r.exit_code, 0) << fixture << ":\n" << r.output;
  EXPECT_EQ(r.output, "") << fixture;
}

TEST(SnbLintFixtures, GoldenPairsPerCheck) {
  ExpectFires("no-raw-random", "no_raw_random_fires.cc");
  ExpectClean("no_raw_random_clean.cc");

  ExpectFires("no-wall-clock", "no_wall_clock_fires.cc");
  ExpectClean("no_wall_clock_clean.cc");

  ExpectFires("no-raw-sync", "no_raw_sync_fires.cc");
  ExpectClean("no_raw_sync_clean.cc");

  // condvar-confined's one exemption is src/util/ itself; its clean side
  // is the repo scan (snb_lint_repo) over util/latch.h and thread_pool.
  ExpectFires("condvar-confined", "condvar_confined_fires.cc");

  ExpectFires("fuzz-public-parser", "fuzz_public_parser_fires.cc");
  ExpectClean("fuzz_public_parser_clean.cc");

  ExpectFires("cancel-poll", "cancel_poll_fires.cc");
  ExpectFires("cancel-poll", "cancel_poll_unreachable_fires.cc");
  ExpectClean("cancel_poll_clean.cc");

  ExpectFires("topk-bound", "topk_bound_fires.cc");
  ExpectClean("topk_bound_clean.cc");

  ExpectFires("no-raw-atomic", "no_raw_atomic_fires.cc");
  ExpectClean("no_raw_atomic_clean.cc");

  ExpectFires("no-raw-assert", "no_raw_assert_fires.cc");
  ExpectClean("no_raw_assert_clean.cc");

  ExpectFires("failpoint-site-confined", "failpoint_site_confined_fires.cc");
  ExpectClean("failpoint_site_confined_clean.cc");

  ExpectFires("failpoint-arming-confined",
              "failpoint_arming_confined_fires.cc");
  ExpectClean("failpoint_arming_confined_clean.cc");

  ExpectFires("failpoint-site-unique", "failpoint_site_unique_fires.cc");
  ExpectClean("failpoint_site_unique_clean.cc");

  // Cascade-stage golden pairs: the delete cascade's stages each own a
  // distinct fail-point site, and only tests may arm them.
  ExpectFires("failpoint-site-unique",
              "failpoint_cascade_site_unique_fires.cc");
  ExpectClean("failpoint_cascade_site_unique_clean.cc");

  ExpectFires("failpoint-arming-confined",
              "failpoint_cascade_arming_fires.cc");
  ExpectClean("failpoint_cascade_arming_clean.cc");

  ExpectFires("wal-confined", "wal_confined_fires.cc");
  ExpectClean("wal_confined_clean.cc");

  ExpectFires("test-access-confined", "test_access_confined_fires.cc");
  ExpectClean("test_access_confined_clean.cc");

  ExpectFires("unchecked-status", "unchecked_status_fires.cc");
  ExpectClean("unchecked_status_clean.cc");

  ExpectFires("relaxed-rationale", "relaxed_rationale_fires.cc");
  ExpectClean("relaxed_rationale_clean.cc");

  ExpectFires("guarded-by", "guarded_by_fires.cc");
  ExpectClean("guarded_by_clean.cc");

  // The interprocedural (v3) families.
  ExpectFires("static-lock-cycle", "static_lock_cycle_fires.cc");
  ExpectClean("static_lock_cycle_clean.cc");
  ExpectFires("static-lock-cycle", "static_lock_cycle_three_site_fires.cc");
  ExpectClean("static_lock_cycle_three_site_clean.cc");
  ExpectFires("static-lock-cycle",
              "static_lock_cycle_level_inversion_fires.cc");
  ExpectClean("static_lock_cycle_level_inversion_clean.cc");

  ExpectFires("blocking-while-locked-static",
              "blocking_while_locked_static_fires.cc");
  ExpectClean("blocking_while_locked_static_clean.cc");

  ExpectFires("epoch-escape", "epoch_escape_fires.cc");
  ExpectClean("epoch_escape_clean.cc");

  ExpectFires("status-flow", "status_flow_fires.cc");
  ExpectClean("status_flow_clean.cc");
}

TEST(SnbLintIpa, LockCycleReportsBothCallChains) {
  // The A->B / B->A inversion hides each edge behind a helper; the single
  // cycle finding must carry the static call chain for *both* sides.
  RunResult r = RunLint("--check static-lock-cycle --fixture " +
                        Fixture("static_lock_cycle_fires.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("'demo.a' -> 'demo.b' -> 'demo.a'"),
            std::string::npos)
      << r.output;
  for (const char* chain_part :
       {"Pair::AThenB", "Pair::HelpLockB", "Pair::BThenA",
        "Pair::HelpLockA"}) {
    EXPECT_NE(r.output.find(chain_part), std::string::npos)
        << "missing chain element " << chain_part << " in:\n"
        << r.output;
  }
  EXPECT_NE(r.output.find("acquires 'demo.b'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("acquires 'demo.a'"), std::string::npos)
      << r.output;
}

TEST(SnbLintIpa, BlockingFindingCarriesInterproceduralChain) {
  // The fsync hides behind SyncToDisk: the finding must name the helper
  // hop, proving the hazard came through a summary, not a same-function
  // scan.
  RunResult r = RunLint("--check blocking-while-locked-static --fixture " +
                        Fixture("blocking_while_locked_static_fires.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("calls Cache::SyncToDisk"), std::string::npos)
      << r.output;
}

TEST(SnbLintIpa, StatusFlowCrossesCallBoundary) {
  RunResult r = RunLint("--check status-flow --fixture " +
                        Fixture("status_flow_fires.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("handed to 'LogOutcome'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("unnamed Status parameter"), std::string::npos)
      << r.output;
}

TEST(SnbLintFixtures, UncheckedStatusFlagsBothDiscardForms) {
  // One bare discard plus one (void) discard without an allow: two
  // findings, with the (void) form asking for the rationale.
  RunResult r = RunLint("--check unchecked-status --fixture " +
                        Fixture("unchecked_status_fires.cc"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("is discarded"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("(void)-discarded"), std::string::npos)
      << r.output;
}

TEST(SnbLintFixtures, CancelPollDistinguishesMissingFromUnreachable) {
  RunResult missing = RunLint("--check cancel-poll --fixture " +
                              Fixture("cancel_poll_fires.cc"));
  RunResult unreachable = RunLint("--check cancel-poll --fixture " +
                                  Fixture("cancel_poll_unreachable_fires.cc"));
  EXPECT_EQ(missing.exit_code, 1);
  EXPECT_EQ(unreachable.exit_code, 1);
  EXPECT_NE(missing.output, unreachable.output);
}

TEST(SnbLintSuppression, MalformedAllowsAreFindings) {
  RunResult r = RunLint("--check suppression --fixture " +
                        Fixture("suppression_fires.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // Unknown check name and missing reason each produce a diagnostic.
  EXPECT_NE(r.output.find("no-such-check"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("reason"), std::string::npos) << r.output;
}

TEST(SnbLintSuppression, WellFormedAllowSuppresses) {
  // Full suite: the allow kills the no-raw-assert finding and produces no
  // suppression diagnostics of its own.
  ExpectClean("suppression_clean.cc");
}

TEST(SnbLintLexer, MultilineBlockCommentIsNotCode) {
  // Regression for the old sed pipeline, which stripped /* */ pairs only
  // when both ends shared a line — the body of a multi-line block comment
  // leaked into the greps as live code.
  ExpectClean("lexer_multiline_comment_clean.cc");
}

TEST(SnbLintLexer, BlockCommentsDoNotNest) {
  // `/* outer /* inner */ assert(...)` — the first */ ends the comment,
  // so the assert is live and must fire.
  ExpectFires("no-raw-assert", "lexer_nonnesting_comment_fires.cc");
}

TEST(SnbLintLexer, RawStringsAndEscapedQuotesAreContent) {
  ExpectClean("lexer_raw_string_clean.cc");
}

TEST(SnbLintLexer, RawStringsInsideMacroBodiesAreNotCode) {
  // #define bodies (including backslash continuations) are preprocessor
  // text, not tokens — a raw string full of forbidden spellings inside one
  // must not leak into the checks.
  ExpectClean("lexer_raw_string_in_macro_clean.cc");
}

TEST(SnbLintLexer, AdjacentStringConcatenationStaysStringContent) {
  // "assert(" "x)" lexes as two string tokens; neither half may be
  // mistaken for an identifier or call.
  ExpectClean("lexer_adjacent_concat_clean.cc");
}

TEST(SnbLintCli, JsonFormatReportsSuppressedFindings) {
  // Text mode hides allow-suppressed findings entirely; JSON keeps them
  // with "suppressed": true so reporting tools can count them — and they
  // still don't affect the exit code.
  RunResult r = RunLint("--format=json --fixture " +
                        Fixture("suppression_clean.cc"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"suppressed\": true"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"check\": \"no-raw-assert\""), std::string::npos)
      << r.output;
}

TEST(SnbLintCli, JsonFormatEmitsUnsuppressedWithExitOne) {
  RunResult r = RunLint("--format=json --check no-raw-random --fixture " +
                        Fixture("no_raw_random_fires.cc"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("\"check\": \"no-raw-random\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"suppressed\": false"), std::string::npos)
      << r.output;
}

TEST(SnbLintCli, ListChecksNamesEveryFamily) {
  RunResult r = RunLint("--list-checks");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* name :
       {"no-raw-random", "no-wall-clock", "no-raw-sync", "condvar-confined",
        "fuzz-public-parser", "cancel-poll", "topk-bound", "no-raw-atomic",
        "no-raw-assert", "failpoint-site-confined",
        "failpoint-arming-confined", "failpoint-site-unique", "wal-confined",
        "test-access-confined", "unchecked-status", "relaxed-rationale",
        "guarded-by", "static-lock-cycle", "blocking-while-locked-static",
        "epoch-escape", "status-flow", "suppression"}) {
    EXPECT_NE(r.output.find(name), std::string::npos) << name;
  }
}

TEST(SnbLintCli, UnknownCheckIsUsageError) {
  RunResult r = RunLint("--check not-a-check --fixture " +
                        Fixture("no_raw_random_clean.cc"));
  EXPECT_EQ(r.exit_code, 2);
}

TEST(SnbLintCli, MissingFixtureIsIoError) {
  RunResult r = RunLint("--fixture " + Fixture("does_not_exist.cc"));
  EXPECT_EQ(r.exit_code, 2);
}

}  // namespace
