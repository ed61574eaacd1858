// Naive baseline engine: every BI query re-implemented as tuple-at-a-time
// full scans over the entity tables, without reverse adjacency indexes,
// precomputed columns (thread roots, person countries), top-k pushdown or
// memoization. Output (rows, order, limits) is bit-identical to the
// optimized engine — tests cross-validate the two, and the benchmark
// harness uses the gap as the "system quality" axis of the evaluation.
//
// Ground rules for what "naive" may touch:
//   * each entity's own attributes — the columns that are the only copy of
//     a row (PersonBirthday, PersonCity, PersonGender, ForumModerator,
//     PostForum, MessageCreator, CommentReplyOf, …) and the static tables'
//     records (PlaceAt, TagAt, …),
//   * id → index lookups (primary-key access),
//   * full scans of edge collections (knows, likes, memberships, interests,
//     forum and message tags) through the forward adjacency lists —
//     equivalent to scanning an edge table.
// It may NOT use reverse indexes (TagPosts, CountryPersons, PostLikers, …),
// derived columns (PersonCountry, PersonIsFemale, CommentRootPost,
// CommentForum, the message-date index and zones), or precomputed
// transitive results.

#ifndef SNB_BI_NAIVE_H_
#define SNB_BI_NAIVE_H_

#include "bi/bi.h"

namespace snb::bi::naive {

std::vector<Bi1Row> RunBi1(const Graph& graph, const Bi1Params& params);
std::vector<Bi2Row> RunBi2(const Graph& graph, const Bi2Params& params);
std::vector<Bi3Row> RunBi3(const Graph& graph, const Bi3Params& params);
std::vector<Bi4Row> RunBi4(const Graph& graph, const Bi4Params& params);
std::vector<Bi5Row> RunBi5(const Graph& graph, const Bi5Params& params);
std::vector<Bi6Row> RunBi6(const Graph& graph, const Bi6Params& params);
std::vector<Bi7Row> RunBi7(const Graph& graph, const Bi7Params& params);
std::vector<Bi8Row> RunBi8(const Graph& graph, const Bi8Params& params);
std::vector<Bi9Row> RunBi9(const Graph& graph, const Bi9Params& params);
std::vector<Bi10Row> RunBi10(const Graph& graph, const Bi10Params& params);
std::vector<Bi11Row> RunBi11(const Graph& graph, const Bi11Params& params);
std::vector<Bi12Row> RunBi12(const Graph& graph, const Bi12Params& params);
std::vector<Bi13Row> RunBi13(const Graph& graph, const Bi13Params& params);
std::vector<Bi14Row> RunBi14(const Graph& graph, const Bi14Params& params);
std::vector<Bi15Row> RunBi15(const Graph& graph, const Bi15Params& params);
std::vector<Bi16Row> RunBi16(const Graph& graph, const Bi16Params& params);
std::vector<Bi17Row> RunBi17(const Graph& graph, const Bi17Params& params);
std::vector<Bi18Row> RunBi18(const Graph& graph, const Bi18Params& params);
std::vector<Bi19Row> RunBi19(const Graph& graph, const Bi19Params& params);
std::vector<Bi20Row> RunBi20(const Graph& graph, const Bi20Params& params);
std::vector<Bi21Row> RunBi21(const Graph& graph, const Bi21Params& params);
std::vector<Bi22Row> RunBi22(const Graph& graph, const Bi22Params& params);
std::vector<Bi23Row> RunBi23(const Graph& graph, const Bi23Params& params);
std::vector<Bi24Row> RunBi24(const Graph& graph, const Bi24Params& params);
std::vector<Bi25Row> RunBi25(const Graph& graph, const Bi25Params& params);

}  // namespace snb::bi::naive

#endif  // SNB_BI_NAIVE_H_
