// Determinism under parallel execution: algorithms whose output is a pure
// function of (graph, seed) must produce bit-identical results across
// repeated runs — any divergence indicates a scheduling-dependent data race
// (Blelloch et al., "Internally deterministic algorithms can be fast").
// These tests double as cheap race detectors for the whole stack.
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/bfs.h"
#include "algorithms/betweenness.h"
#include "algorithms/coloring.h"
#include "algorithms/connectivity.h"
#include "algorithms/kcore.h"
#include "algorithms/maximal_matching.h"
#include "algorithms/mis.h"
#include "algorithms/msf.h"
#include "algorithms/scc.h"
#include "algorithms/wbfs.h"
#include "parlib/scheduler.h"
#include "test_graphs.h"

namespace {

using gbbs::vertex_id;

class DeterminismSuite : public ::testing::TestWithParam<std::string> {};
INSTANTIATE_TEST_SUITE_P(
    Graphs, DeterminismSuite,
    ::testing::ValuesIn(std::vector<std::string>{"rmat", "erdos_renyi",
                                                 "torus", "two_cc"}));

TEST_P(DeterminismSuite, BfsDistances) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  if (g.num_vertices() == 0) return;
  auto a = gbbs::bfs(g, 1);
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_EQ(gbbs::bfs(g, 1), a) << rep;
  }
}

TEST_P(DeterminismSuite, WbfsDistances) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  auto a = gbbs::wbfs(g, 2);
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_EQ(gbbs::wbfs(g, 2).dist, a.dist) << rep;
  }
}

TEST_P(DeterminismSuite, BetweennessScores) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto a = gbbs::betweenness(g, 0);
  for (int rep = 0; rep < 3; ++rep) {
    auto b = gbbs::betweenness(g, 0);
    for (std::size_t v = 0; v < a.size(); ++v) {
      // Unweighted BC sums are dyadic rationals accumulated in different
      // orders; on these graphs the sums are exact in double.
      ASSERT_DOUBLE_EQ(a[v], b[v]) << rep << " v=" << v;
    }
  }
}

TEST_P(DeterminismSuite, MisSet) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto a = gbbs::mis_rootset(g, parlib::random(11));
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_EQ(gbbs::mis_rootset(g, parlib::random(11)), a) << rep;
  }
}

TEST_P(DeterminismSuite, ColoringSyncAndAsync) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto a = gbbs::color_graph(g, gbbs::coloring_heuristic::llf,
                             parlib::random(7));
  for (int rep = 0; rep < 2; ++rep) {
    ASSERT_EQ(gbbs::color_graph(g, gbbs::coloring_heuristic::llf,
                                parlib::random(7)),
              a);
    ASSERT_EQ(gbbs::color_graph_async(g, gbbs::coloring_heuristic::llf,
                                      parlib::random(7)),
              a);
  }
}

TEST_P(DeterminismSuite, MatchingEdgeSet) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto canon = [](std::vector<gbbs::edge<gbbs::empty_weight>> m) {
    std::vector<std::pair<vertex_id, vertex_id>> out;
    for (const auto& e : m) out.push_back({e.u, e.v});
    std::sort(out.begin(), out.end());
    return out;
  };
  auto a = canon(gbbs::maximal_matching(g, parlib::random(13)));
  for (int rep = 0; rep < 3; ++rep) {
    ASSERT_EQ(canon(gbbs::maximal_matching(g, parlib::random(13))), a);
  }
}

TEST_P(DeterminismSuite, CorenessValues) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto a = gbbs::kcore(g);
  for (int rep = 0; rep < 3; ++rep) {
    auto b = gbbs::kcore(g);
    ASSERT_EQ(b.coreness, a.coreness) << rep;
    ASSERT_EQ(b.num_rounds, a.num_rounds) << rep;
  }
}

TEST_P(DeterminismSuite, MsfWeightAndEdgeSet) {
  auto g = gbbs::testing::make_symmetric_weighted(GetParam());
  auto canon = [](const gbbs::msf_result& r) {
    std::vector<std::pair<vertex_id, vertex_id>> out;
    for (const auto& e : r.forest) {
      out.push_back({std::min(e.u, e.v), std::max(e.u, e.v)});
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  auto a = gbbs::msf(g);
  auto ca = canon(a);
  for (int rep = 0; rep < 3; ++rep) {
    auto b = gbbs::msf(g);
    ASSERT_EQ(b.total_weight, a.total_weight);
    ASSERT_EQ(canon(b), ca) << rep;  // unique given index tie-breaking
  }
}

// Worker count must not leak into MSF or MM: the forest and the matching
// come out identical, order included, at 1 worker and at all workers.
TEST_P(DeterminismSuite, MsfAndMatchingIndependentOfWorkerCount) {
  auto gw = gbbs::testing::make_symmetric_weighted(GetParam());
  auto g = gbbs::testing::make_symmetric(GetParam());
  // In output order; a simple graph's endpoints fix each edge's weight.
  auto ends = [](const auto& es) {
    std::vector<std::pair<vertex_id, vertex_id>> out;
    for (const auto& e : es) out.emplace_back(e.u, e.v);
    return out;
  };
  gbbs::msf_result msf_one;
  std::vector<gbbs::edge<gbbs::empty_weight>> mm_one;
  {
    parlib::active_workers_guard one(1);
    msf_one = gbbs::msf(gw);
    mm_one = gbbs::maximal_matching(g, parlib::random(13));
  }
  const auto msf_all = gbbs::msf(gw);
  EXPECT_EQ(ends(msf_all.forest), ends(msf_one.forest));
  EXPECT_EQ(msf_all.total_weight, msf_one.total_weight);
  EXPECT_EQ(msf_all.num_filter_steps, msf_one.num_filter_steps);
  EXPECT_EQ(ends(gbbs::maximal_matching(g, parlib::random(13))),
            ends(mm_one));
}

TEST_P(DeterminismSuite, ConnectivityPartition) {
  auto g = gbbs::testing::make_symmetric(GetParam());
  auto a = gbbs::connectivity(g, 0.2, parlib::random(3));
  for (int rep = 0; rep < 3; ++rep) {
    // LDD tie-breaking is a CAS race, so the *labels* may differ between
    // runs; the partition (same/different pairs) must not.
    auto b = gbbs::connectivity(g, 0.2, parlib::random(3));
    for (std::size_t v = 1; v < a.size(); v += 3) {
      ASSERT_EQ(a[v] == a[v - 1], b[v] == b[v - 1]) << rep << " " << v;
    }
  }
}

TEST(Determinism, SccPartitionAcrossRuns) {
  auto g = gbbs::testing::make_directed("rmat_dir");
  auto a = gbbs::scc(g, {.rng = parlib::random(9)});
  for (int rep = 0; rep < 2; ++rep) {
    auto b = gbbs::scc(g, {.rng = parlib::random(9)});
    ASSERT_EQ(b.labels, a.labels) << rep;  // labels are min-center ids
  }
}

}  // namespace
