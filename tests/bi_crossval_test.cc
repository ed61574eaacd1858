// Cross-validation of the optimized BI engine against the naive baseline:
// every query, multiple curated parameter bindings, multiple generated
// networks. This is the repository's equivalent of the official validation
// datasets (spec §6.2). The update-stream case re-checks the range-scan and
// adjacency-walk templates after the first insert days, so every list they
// read has insert-overflow entries.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bi/bi.h"
#include "bi/naive.h"
#include "core/date_time.h"
#include "datagen/datagen.h"
#include "interactive/updates.h"
#include "params/parameter_curation.h"
#include "storage/graph.h"

namespace snb::bi {
namespace {

struct Workbench {
  storage::Graph graph;
  params::WorkloadParameters params;
  std::vector<datagen::UpdateEvent> updates;
};

Workbench* MakeWorkbench(uint64_t seed) {
  datagen::DatagenConfig cfg;
  cfg.seed = seed;
  cfg.num_persons = 280;
  cfg.activity_scale = 0.5;
  datagen::GeneratedData data = datagen::Generate(cfg);
  auto* bench = new Workbench{storage::Graph(std::move(data.network)), {},
                              std::move(data.updates)};
  params::CurationConfig pc;
  pc.seed = seed;
  pc.per_query = 6;
  bench->params = params::CurateParameters(bench->graph, pc);
  return bench;
}

class BiCrossValTest : public ::testing::TestWithParam<uint64_t> {
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

std::map<uint64_t, Workbench*>* BiCrossValTest::benches_ = nullptr;

#define SNB_CROSSVAL(N)                                             \
  TEST_P(BiCrossValTest, Bi##N##MatchesNaive) {                     \
    Workbench& wb = bench();                                        \
    ASSERT_FALSE(wb.params.bi##N.empty());                          \
    for (size_t i = 0; i < wb.params.bi##N.size() && i < 4; ++i) {  \
      auto optimized = RunBi##N(wb.graph, wb.params.bi##N[i]);      \
      auto baseline = naive::RunBi##N(wb.graph, wb.params.bi##N[i]); \
      EXPECT_EQ(optimized, baseline) << "binding " << i;            \
    }                                                               \
  }

SNB_CROSSVAL(1)
SNB_CROSSVAL(2)
SNB_CROSSVAL(3)
SNB_CROSSVAL(4)
SNB_CROSSVAL(5)
SNB_CROSSVAL(6)
SNB_CROSSVAL(7)
SNB_CROSSVAL(8)
SNB_CROSSVAL(9)
SNB_CROSSVAL(10)
SNB_CROSSVAL(11)
SNB_CROSSVAL(12)
SNB_CROSSVAL(13)
SNB_CROSSVAL(14)
SNB_CROSSVAL(15)
SNB_CROSSVAL(16)
SNB_CROSSVAL(17)
SNB_CROSSVAL(18)
SNB_CROSSVAL(19)
SNB_CROSSVAL(20)
SNB_CROSSVAL(21)
SNB_CROSSVAL(22)
SNB_CROSSVAL(23)
SNB_CROSSVAL(24)
SNB_CROSSVAL(25)

#undef SNB_CROSSVAL

/// True when some node's list has entries past its bulk-loaded span.
bool HasOverflow(const storage::AdjacencyList& list, size_t num_nodes) {
  for (uint32_t node = 0; node < num_nodes; ++node) {
    if (list.Degree(node) > list.BaseDegree(node)) return true;
  }
  return false;
}

TEST_P(BiCrossValTest, RangeAndWalkTemplatesMatchNaiveAfterInsertDays) {
  Workbench& wb = bench();
  // The first insert days of the generated update stream, applied to a
  // copy of the bulk-loaded graph: Knows, PersonComments, ForumMembers and
  // the creation-date index gain overflow and tail entries.
  constexpr int kDays = 7;
  storage::Graph graph(wb.graph);
  int days = 0;
  core::Date day = 0;
  for (const datagen::UpdateEvent& event : wb.updates) {
    const core::Date d = core::DateFromDateTime(event.timestamp);
    if (days == 0 || d != day) {
      if (++days > kDays) break;
      day = d;
    }
    ASSERT_TRUE(interactive::ApplyUpdate(graph, event).ok());
  }
  ASSERT_GT(graph.MessageIndex().tail_size(), 0u);
  ASSERT_TRUE(HasOverflow(graph.Knows(), graph.NumPersons()));
  ASSERT_TRUE(HasOverflow(graph.PersonComments(), graph.NumPersons()));
  ASSERT_TRUE(HasOverflow(graph.ForumMembers(), graph.NumForums()));

  const params::WorkloadParameters& p = wb.params;
#define SNB_CROSSVAL_UPDATED(N)                                      \
  for (size_t i = 0; i < p.bi##N.size(); ++i) {                      \
    EXPECT_EQ(RunBi##N(graph, p.bi##N[i]),                           \
              naive::RunBi##N(graph, p.bi##N[i]))                    \
        << "BI " #N " binding " << i;                                \
  }
  SNB_CROSSVAL_UPDATED(1)
  SNB_CROSSVAL_UPDATED(3)
  SNB_CROSSVAL_UPDATED(12)
  SNB_CROSSVAL_UPDATED(14)
  SNB_CROSSVAL_UPDATED(18)
  SNB_CROSSVAL_UPDATED(19)
#undef SNB_CROSSVAL_UPDATED
}

INSTANTIATE_TEST_SUITE_P(Seeds, BiCrossValTest,
                         ::testing::Values(42, 1337, 20260705));

}  // namespace
}  // namespace snb::bi
