// Cross-validation of the optimized Interactive engine against the naive
// baseline: all 14 complex reads, multiple curated bindings, multiple
// generated networks.

#include <gtest/gtest.h>

#include <map>

#include "datagen/datagen.h"
#include "interactive/interactive.h"
#include "interactive/naive.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"

namespace snb::interactive {
namespace {

struct Workbench {
  storage::Graph graph;
  params::WorkloadParameters params;
};

Workbench* MakeWorkbench(uint64_t seed) {
  datagen::DatagenConfig cfg;
  cfg.seed = seed;
  cfg.num_persons = 260;
  cfg.activity_scale = 0.5;
  datagen::GeneratedData data = datagen::Generate(cfg);
  auto* bench = new Workbench{storage::Graph(std::move(data.network)), {}};
  params::CurationConfig pc;
  pc.seed = seed;
  pc.per_query = 6;
  bench->params = params::CurateParameters(bench->graph, pc);
  return bench;
}

class IcCrossValTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static void SetUpTestSuite() {
    if (benches_ == nullptr) {
      benches_ = new std::map<uint64_t, Workbench*>();
    }
  }
  Workbench& bench() {
    Workbench*& b = (*benches_)[GetParam()];
    if (b == nullptr) b = MakeWorkbench(GetParam());
    return *b;
  }

 private:
  static std::map<uint64_t, Workbench*>* benches_;
};

std::map<uint64_t, Workbench*>* IcCrossValTest::benches_ = nullptr;

#define SNB_IC_CROSSVAL(N)                                           \
  TEST_P(IcCrossValTest, Ic##N##MatchesNaive) {                      \
    Workbench& wb = bench();                                         \
    ASSERT_FALSE(wb.params.ic##N.empty());                           \
    for (size_t i = 0; i < wb.params.ic##N.size() && i < 4; ++i) {   \
      auto optimized = RunIc##N(wb.graph, wb.params.ic##N[i]);       \
      auto baseline = naive::RunIc##N(wb.graph, wb.params.ic##N[i]); \
      EXPECT_EQ(optimized, baseline) << "binding " << i;             \
    }                                                                \
  }

SNB_IC_CROSSVAL(1)
SNB_IC_CROSSVAL(2)
SNB_IC_CROSSVAL(3)
SNB_IC_CROSSVAL(4)
SNB_IC_CROSSVAL(5)
SNB_IC_CROSSVAL(6)
SNB_IC_CROSSVAL(7)
SNB_IC_CROSSVAL(8)
SNB_IC_CROSSVAL(9)
SNB_IC_CROSSVAL(10)
SNB_IC_CROSSVAL(11)
SNB_IC_CROSSVAL(12)
SNB_IC_CROSSVAL(13)
SNB_IC_CROSSVAL(14)

#undef SNB_IC_CROSSVAL

TEST_P(IcCrossValTest, ShortReadsMatchNaive) {
  Workbench& wb = bench();
  // Person-centric short reads over the curated persons.
  for (size_t i = 0; i < wb.params.ic7.size() && i < 4; ++i) {
    core::Id person = wb.params.ic7[i].person_id;
    EXPECT_EQ(RunIs1(wb.graph, person), naive::RunIs1(wb.graph, person));
    EXPECT_EQ(RunIs2(wb.graph, person), naive::RunIs2(wb.graph, person));
    EXPECT_EQ(RunIs3(wb.graph, person), naive::RunIs3(wb.graph, person));
  }
  // Message-centric short reads over a few posts and comments.
  for (uint32_t post = 0; post < 6 && post < wb.graph.NumPosts();
       post += 2) {
    core::Id id = wb.graph.PostId(post);
    EXPECT_EQ(RunIs4(wb.graph, id, true), naive::RunIs4(wb.graph, id, true));
    EXPECT_EQ(RunIs5(wb.graph, id, true), naive::RunIs5(wb.graph, id, true));
    EXPECT_EQ(RunIs6(wb.graph, id, true), naive::RunIs6(wb.graph, id, true));
    EXPECT_EQ(RunIs7(wb.graph, id, true), naive::RunIs7(wb.graph, id, true));
  }
  for (uint32_t comment = 0; comment < 6 && comment < wb.graph.NumComments();
       comment += 2) {
    core::Id id = wb.graph.CommentId(comment);
    EXPECT_EQ(RunIs4(wb.graph, id, false),
              naive::RunIs4(wb.graph, id, false));
    EXPECT_EQ(RunIs7(wb.graph, id, false),
              naive::RunIs7(wb.graph, id, false));
  }
  // Unknown ids agree on emptiness.
  EXPECT_EQ(RunIs1(wb.graph, 1 << 30), naive::RunIs1(wb.graph, 1 << 30));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IcCrossValTest,
                         ::testing::Values(42, 777, 31415));

}  // namespace
}  // namespace snb::interactive
