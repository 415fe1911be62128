// Algorithm tests: every dataflow algorithm is checked against an independent in-memory
// reference implementation on randomized inputs (property-style TEST_P sweeps).

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <numeric>
#include <queue>
#include <set>
#include <vector>

#include "src/algo/asp.h"
#include "src/algo/kexposure.h"
#include "src/algo/pagerank.h"
#include "src/algo/scc.h"
#include "src/algo/wcc.h"
#include "src/algo/wordcount.h"
#include "src/core/io.h"
#include "src/gen/graphs.h"
#include "src/gen/text.h"

namespace naiad {
namespace {

// ---- reference implementations -------------------------------------------------------

std::map<uint64_t, uint64_t> RefWcc(const std::vector<Edge>& edges) {
  std::map<uint64_t, uint64_t> parent;
  std::function<uint64_t(uint64_t)> find = [&](uint64_t x) {
    parent.try_emplace(x, x);
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Edge& e : edges) {
    uint64_t a = find(e.first);
    uint64_t b = find(e.second);
    if (a != b) {
      parent[std::max(a, b)] = std::min(a, b);
    }
  }
  std::map<uint64_t, uint64_t> out;
  for (const auto& [n, p] : parent) {
    out[n] = find(n);
  }
  return out;
}

std::map<uint64_t, double> RefPageRank(const std::vector<Edge>& edges, uint64_t iters) {
  std::map<uint64_t, double> rank;
  std::map<uint64_t, uint64_t> deg;
  for (const Edge& e : edges) {
    rank.try_emplace(e.first, 1.0);
    rank.try_emplace(e.second, 1.0);
    ++deg[e.first];
  }
  for (uint64_t i = 1; i < iters; ++i) {
    std::map<uint64_t, double> next;
    for (const auto& [n, r] : rank) {
      next[n] = 0.15;
    }
    for (const Edge& e : edges) {
      next[e.second] += 0.85 * rank[e.first] / static_cast<double>(deg[e.first]);
    }
    rank = std::move(next);
  }
  return rank;
}

std::map<std::pair<uint64_t, uint64_t>, uint64_t> RefBfs(const std::vector<Edge>& edges,
                                                         const std::vector<uint64_t>& srcs) {
  std::map<uint64_t, std::vector<uint64_t>> adj;
  for (const Edge& e : edges) {
    adj[e.first].push_back(e.second);
  }
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> dist;
  for (uint64_t s : srcs) {
    std::queue<std::pair<uint64_t, uint64_t>> q;
    q.push({s, 0});
    dist[{s, s}] = 0;
    while (!q.empty()) {
      auto [n, d] = q.front();
      q.pop();
      for (uint64_t nbr : adj[n]) {
        if (dist.try_emplace({nbr, s}, d + 1).second) {
          q.push({nbr, d + 1});
        }
      }
    }
  }
  return dist;
}

// Tarjan SCC reference.
std::map<uint64_t, uint64_t> RefScc(const std::vector<Edge>& edges) {
  std::map<uint64_t, std::vector<uint64_t>> adj;
  std::set<uint64_t> nodes;
  for (const Edge& e : edges) {
    adj[e.first].push_back(e.second);
    nodes.insert(e.first);
    nodes.insert(e.second);
  }
  std::map<uint64_t, uint64_t> index, low, comp;
  std::vector<uint64_t> stack;
  std::set<uint64_t> on_stack;
  uint64_t counter = 0;
  std::function<void(uint64_t)> strongconnect = [&](uint64_t v) {
    index[v] = low[v] = counter++;
    stack.push_back(v);
    on_stack.insert(v);
    for (uint64_t w : adj[v]) {
      if (!index.contains(w)) {
        strongconnect(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack.contains(w)) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] == index[v]) {
      uint64_t min_node = ~0ULL;
      size_t start = stack.size();
      while (true) {
        --start;
        min_node = std::min(min_node, stack[start]);
        if (stack[start] == v) {
          break;
        }
      }
      for (size_t i = start; i < stack.size(); ++i) {
        comp[stack[i]] = min_node;
        on_stack.erase(stack[i]);
      }
      stack.resize(start);
    }
  };
  for (uint64_t n : nodes) {
    if (!index.contains(n)) {
      strongconnect(n);
    }
  }
  return comp;
}

// ---- helpers ---------------------------------------------------------------------------

template <typename T>
struct Gather {
  std::mutex mu;
  std::map<uint64_t, std::vector<T>> by_epoch;
  typename SubscribeVertex<T>::Callback callback() {
    return [this](uint64_t e, std::vector<T>& recs) {
      std::lock_guard<std::mutex> lock(mu);
      auto& v = by_epoch[e];
      v.insert(v.end(), recs.begin(), recs.end());
    };
  }
};

class AlgoSweep : public ::testing::TestWithParam<uint64_t> {};

// ---- tests -----------------------------------------------------------------------------

TEST_P(AlgoSweep, WccMatchesUnionFind) {
  std::vector<Edge> edges = RandomGraph(60, 90, GetParam());
  Gather<NodeLabel> out;
  Controller ctl(Config{.workers_per_process = 3});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<Edge>(b);
  Subscribe<NodeLabel>(ConnectedComponents(in), out.callback());
  ctl.Start();
  handle->OnNext(edges);
  handle->OnCompleted();
  ctl.Join();

  std::map<uint64_t, uint64_t> got;
  for (const NodeLabel& nl : out.by_epoch[0]) {
    got[nl.first] = nl.second;  // GroupBy emits exactly one final label per node
  }
  EXPECT_EQ(got, RefWcc(edges));
}

TEST_P(AlgoSweep, IncrementalWccConvergesAcrossEpochs) {
  std::vector<Edge> edges = RandomGraph(50, 70, GetParam() + 100);
  const size_t half = edges.size() / 2;
  std::vector<Edge> first(edges.begin(), edges.begin() + half);
  std::vector<Edge> second(edges.begin() + half, edges.end());

  std::mutex mu;
  std::map<uint64_t, uint64_t> latest;  // improvements are monotone: keep the minimum
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<Edge>(b);
  ForEach<NodeLabel>(IncrementalConnectedComponents(in),
                     [&](const Timestamp&, std::vector<NodeLabel>& recs) {
                       std::lock_guard<std::mutex> lock(mu);
                       for (const NodeLabel& nl : recs) {
                         auto [it, fresh] = latest.try_emplace(nl.first, nl.second);
                         it->second = std::min(it->second, nl.second);
                       }
                     });
  ctl.Start();
  handle->OnNext(first);
  handle->OnNext(second);
  handle->OnCompleted();
  ctl.Join();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(latest, RefWcc(edges));
}

TEST_P(AlgoSweep, PageRankMatchesReference) {
  std::vector<Edge> edges = RandomGraph(40, 80, GetParam() + 200);
  constexpr uint64_t kIters = 8;
  Gather<NodeRank> out;
  Controller ctl(Config{.workers_per_process = 3});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<Edge>(b);
  Subscribe<NodeRank>(PageRank(in, kIters), out.callback());
  ctl.Start();
  handle->OnNext(edges);
  handle->OnCompleted();
  ctl.Join();

  std::map<uint64_t, double> want = RefPageRank(edges, kIters);
  std::map<uint64_t, double> got;
  for (const NodeRank& nr : out.by_epoch[0]) {
    got[nr.first] = nr.second;
  }
  // The dataflow only tracks nodes it saw (same set as the reference).
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [n, r] : want) {
    EXPECT_NEAR(got[n], r, 1e-9) << "node " << n;
  }
}

TEST_P(AlgoSweep, EdgePartitionedPageRankMatchesVertexVariant) {
  std::vector<Edge> edges = RandomGraph(40, 80, GetParam() + 300);
  constexpr uint64_t kIters = 6;
  Gather<NodeRank> out;
  Controller ctl(Config{.workers_per_process = 3});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<Edge>(b);
  Subscribe<NodeRank>(PageRankEdgePartitioned(in, kIters), out.callback());
  ctl.Start();
  handle->OnNext(edges);
  handle->OnCompleted();
  ctl.Join();

  std::map<uint64_t, double> want = RefPageRank(edges, kIters);
  std::map<uint64_t, double> got;
  for (const NodeRank& nr : out.by_epoch[0]) {
    got[nr.first] = nr.second;
  }
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [n, r] : want) {
    EXPECT_NEAR(got[n], r, 1e-9) << "node " << n;
  }
}

// CSR-substrate equivalence (the columnar rewrite must be a pure representation change):
// same reference, same tolerance as the variants it replaces.

TEST_P(AlgoSweep, CsrPageRankMatchesReference) {
  std::vector<Edge> edges = RandomGraph(40, 80, GetParam() + 600);
  constexpr uint64_t kIters = 8;
  Gather<NodeRank> out;
  Controller ctl(Config{.workers_per_process = 3});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<Edge>(b);
  Subscribe<NodeRank>(PageRankCsr(in, kIters), out.callback());
  ctl.Start();
  handle->OnNext(edges);
  handle->OnCompleted();
  ctl.Join();

  std::map<uint64_t, double> want = RefPageRank(edges, kIters);
  std::map<uint64_t, double> got;
  for (const NodeRank& nr : out.by_epoch[0]) {
    ASSERT_TRUE(got.try_emplace(nr.first, nr.second).second)
        << "node " << nr.first << " emitted twice";
  }
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [n, r] : want) {
    EXPECT_NEAR(got[n], r, 1e-9) << "node " << n;
  }
}

TEST_P(AlgoSweep, CsrPageRankMatchesVertexVariantOnPowerLaw) {
  std::vector<Edge> edges = PowerLawGraph(48, 150, 1.1, GetParam() + 650);
  constexpr uint64_t kIters = 6;
  auto run = [&](auto build) {
    Gather<NodeRank> out;
    Controller ctl(Config{.workers_per_process = 4});
    GraphBuilder b(ctl);
    auto [in, handle] = NewInput<Edge>(b);
    Subscribe<NodeRank>(build(in), out.callback());
    ctl.Start();
    handle->OnNext(edges);
    handle->OnCompleted();
    ctl.Join();
    std::map<uint64_t, double> got;
    for (const NodeRank& nr : out.by_epoch[0]) {
      got[nr.first] = nr.second;
    }
    return got;
  };
  std::map<uint64_t, double> vertex =
      run([&](Stream<Edge>& in) { return PageRank(in, kIters); });
  std::map<uint64_t, double> csr =
      run([&](Stream<Edge>& in) { return PageRankCsr(in, kIters); });
  ASSERT_EQ(csr.size(), vertex.size());
  for (const auto& [n, r] : vertex) {
    ASSERT_TRUE(csr.contains(n)) << "node " << n;
    EXPECT_NEAR(csr[n], r, 1e-9) << "node " << n;
  }
}

TEST_P(AlgoSweep, CsrWccMatchesUnionFind) {
  std::vector<Edge> edges = RandomGraph(60, 90, GetParam() + 700);
  Gather<NodeLabel> out;
  Controller ctl(Config{.workers_per_process = 3});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<Edge>(b);
  Subscribe<NodeLabel>(ConnectedComponentsCsr(in), out.callback());
  ctl.Start();
  handle->OnNext(edges);
  handle->OnCompleted();
  ctl.Join();

  std::map<uint64_t, uint64_t> got;
  for (const NodeLabel& nl : out.by_epoch[0]) {
    got[nl.first] = nl.second;
  }
  EXPECT_EQ(got, RefWcc(edges));
}

TEST_P(AlgoSweep, CsrWccMatchesLegacyOnPowerLaw) {
  std::vector<Edge> edges = PowerLawGraph(64, 140, 1.2, GetParam() + 750);
  auto run = [&](auto build) {
    Gather<NodeLabel> out;
    Controller ctl(Config{.workers_per_process = 4});
    GraphBuilder b(ctl);
    auto [in, handle] = NewInput<Edge>(b);
    Subscribe<NodeLabel>(build(in), out.callback());
    ctl.Start();
    handle->OnNext(edges);
    handle->OnCompleted();
    ctl.Join();
    std::map<uint64_t, uint64_t> got;
    for (const NodeLabel& nl : out.by_epoch[0]) {
      got[nl.first] = nl.second;
    }
    return got;
  };
  std::map<uint64_t, uint64_t> legacy =
      run([&](Stream<Edge>& in) { return ConnectedComponents(in); });
  std::map<uint64_t, uint64_t> csr =
      run([&](Stream<Edge>& in) { return ConnectedComponentsCsr(in); });
  EXPECT_EQ(csr, legacy);
  EXPECT_EQ(csr, RefWcc(edges));
}

TEST_P(AlgoSweep, AspMatchesBfs) {
  std::vector<Edge> edges = RandomGraph(50, 100, GetParam() + 400);
  std::vector<uint64_t> sources = {1, 2, 3};
  Gather<AspMsg> out;
  Controller ctl(Config{.workers_per_process = 3});
  GraphBuilder b(ctl);
  auto [ein, ehandle] = NewInput<Edge>(b);
  auto [sin, shandle] = NewInput<uint64_t>(b);
  Subscribe<AspMsg>(ApproximateShortestPaths(ein, sin), out.callback());
  ctl.Start();
  ehandle->OnNext(edges);
  shandle->OnNext(sources);
  ehandle->OnCompleted();
  shandle->OnCompleted();
  ctl.Join();

  std::map<std::pair<uint64_t, uint64_t>, uint64_t> got;
  for (const AspMsg& m : out.by_epoch[0]) {
    got[{std::get<0>(m), std::get<1>(m)}] = std::get<2>(m);
  }
  EXPECT_EQ(got, RefBfs(edges, sources));
}

TEST_P(AlgoSweep, SccMatchesTarjanOnNontrivialComponents) {
  // Denser graphs so non-trivial SCCs exist.
  std::vector<Edge> edges = RandomGraph(24, 70, GetParam() + 500);
  Gather<NodeLabel> out;
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<Edge>(b);
  Subscribe<NodeLabel>(StronglyConnectedComponents(in, 5), out.callback());
  ctl.Start();
  handle->OnNext(edges);
  handle->OnCompleted();
  ctl.Join();

  std::map<uint64_t, uint64_t> got;
  for (const NodeLabel& nl : out.by_epoch[0]) {
    got[nl.first] = nl.second;
  }
  // Reference, restricted to non-trivial components (the dataflow only names nodes that
  // retain an intra-SCC edge).
  std::map<uint64_t, uint64_t> ref = RefScc(edges);
  std::map<uint64_t, int> comp_size;
  for (const auto& [n, c] : ref) {
    ++comp_size[c];
  }
  // Self-loop nodes form size-1 SCCs with an intra-SCC edge; treat them as non-trivial.
  std::set<uint64_t> self_loop;
  for (const Edge& e : edges) {
    if (e.first == e.second) {
      self_loop.insert(e.first);
    }
  }
  std::map<uint64_t, uint64_t> want;
  for (const auto& [n, c] : ref) {
    if (comp_size[c] > 1 || self_loop.contains(n)) {
      want[n] = c;
    }
  }
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgoSweep, ::testing::Range<uint64_t>(0, 6));

TEST(WordCountTest, MatchesSequentialCount) {
  std::vector<std::string> corpus = ZipfCorpus(200, 8, 50, 42);
  std::map<std::string, uint64_t> want;
  for (const std::string& line : corpus) {
    for (const std::string& w : SplitWords(line)) {
      ++want[w];
    }
  }
  Gather<WordCountRecord> out;
  Controller ctl(Config{.workers_per_process = 4});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<std::string>(b);
  Subscribe<WordCountRecord>(WordCount(in), out.callback());
  ctl.Start();
  handle->OnNext(corpus);
  handle->OnCompleted();
  ctl.Join();
  std::map<std::string, uint64_t> got(out.by_epoch[0].begin(), out.by_epoch[0].end());
  EXPECT_EQ(got, want);
}

TEST(KExposureTest, CountsFollowerExposures) {
  // follower graph: user 10 and 11 follow user 1; user 12 follows user 2.
  std::vector<Edge> followers = {{10, 1}, {11, 1}, {12, 2}};
  Tweet t1{1, {7}, {}};   // tag 7 exposes 10 and 11
  Tweet t2{2, {7}, {}};   // tag 7 exposes 12
  Tweet t3{1, {7}, {}};   // duplicate (user, tag) within the epoch: Distinct removes it
  Tweet t4{2, {8}, {}};   // tag 8 exposes 12

  Gather<TagExposure> out;
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [tin, thandle] = NewInput<Tweet>(b);
  auto [fin, fhandle] = NewInput<Edge>(b);
  Subscribe<TagExposure>(KExposure(tin, fin), out.callback());
  ctl.Start();
  fhandle->OnNext(followers);
  thandle->OnNext({t1, t2, t3, t4});
  fhandle->OnCompleted();
  thandle->OnNext({t1});  // epoch 1: same tweet again -> new epoch, counted again
  thandle->OnCompleted();
  ctl.Join();

  std::map<uint64_t, uint64_t> epoch0(out.by_epoch[0].begin(), out.by_epoch[0].end());
  EXPECT_EQ(epoch0[7], 3u);  // exposures of 10, 11 (via t1) and 12 (via t2)
  EXPECT_EQ(epoch0[8], 1u);
  std::map<uint64_t, uint64_t> epoch1(out.by_epoch[1].begin(), out.by_epoch[1].end());
  EXPECT_EQ(epoch1[7], 2u);
}

}  // namespace
}  // namespace naiad
