// Tests for the Datalog-style reachability library, the §6.4 analytics pipeline, and the
// workload generators.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <queue>
#include <set>

#include "src/algo/analytics.h"
#include "src/algo/reachability.h"
#include "src/core/io.h"
#include "src/gen/graphs.h"
#include "src/gen/text.h"
#include "src/gen/tweets.h"

namespace naiad {
namespace {

std::set<Edge> RefClosure(const std::vector<Edge>& edges) {
  std::map<uint64_t, std::set<uint64_t>> adj;
  std::set<uint64_t> nodes;
  for (const Edge& e : edges) {
    adj[e.first].insert(e.second);
    nodes.insert(e.first);
  }
  std::set<Edge> out;
  for (uint64_t s : nodes) {
    std::set<uint64_t> seen;
    std::queue<uint64_t> q;
    for (uint64_t n : adj[s]) {
      if (seen.insert(n).second) {
        q.push(n);
      }
    }
    while (!q.empty()) {
      uint64_t n = q.front();
      q.pop();
      out.insert({s, n});
      for (uint64_t m : adj[n]) {
        if (seen.insert(m).second) {
          q.push(m);
        }
      }
    }
  }
  return out;
}

class ReachabilitySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReachabilitySweep, TransitiveClosureMatchesBfs) {
  std::vector<Edge> edges = RandomGraph(18, 26, GetParam());
  std::mutex mu;
  std::set<Edge> got;
  Controller ctl(Config{.workers_per_process = 3});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<Edge>(b);
  Subscribe<Edge>(TransitiveClosure(in), [&](uint64_t, std::vector<Edge>& recs) {
    std::lock_guard<std::mutex> lock(mu);
    got.insert(recs.begin(), recs.end());
  });
  ctl.Start();
  handle->OnNext(edges);
  handle->OnCompleted();
  ctl.Join();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(got, RefClosure(edges));
}

TEST_P(ReachabilitySweep, PerEpochClosureIsolatesEpochs) {
  // Two disjoint edge sets in consecutive epochs: the per-epoch closure must not combine
  // paths across them.
  std::mutex mu;
  std::map<uint64_t, std::set<Edge>> got;
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<Edge>(b);
  Subscribe<Edge>(TransitiveClosure(in), [&](uint64_t e, std::vector<Edge>& recs) {
    std::lock_guard<std::mutex> lock(mu);
    got[e].insert(recs.begin(), recs.end());
  });
  ctl.Start();
  handle->OnNext({{1, 2}, {2, 3}});
  handle->OnNext({{3, 4}});  // must NOT produce 1->4 or 2->4
  handle->OnCompleted();
  ctl.Join();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(got[0], (std::set<Edge>{{1, 2}, {1, 3}, {2, 3}}));
  EXPECT_EQ(got[1], (std::set<Edge>{{3, 4}}));
}

TEST_P(ReachabilitySweep, IncrementalClosureDerivesCrossEpochPaths) {
  std::mutex mu;
  std::set<Edge> all;
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<Edge>(b);
  Subscribe<Edge>(TransitiveClosure(in, StateScope::kGlobal),
                  [&](uint64_t, std::vector<Edge>& recs) {
                    std::lock_guard<std::mutex> lock(mu);
                    all.insert(recs.begin(), recs.end());
                  });
  ctl.Start();
  std::vector<Edge> edges = RandomGraph(15, 20, GetParam() + 40);
  const size_t half = edges.size() / 2;
  handle->OnNext(std::vector<Edge>(edges.begin(), edges.begin() + half));
  handle->OnNext(std::vector<Edge>(edges.begin() + half, edges.end()));
  handle->OnCompleted();
  ctl.Join();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(all, RefClosure(edges));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReachabilitySweep, ::testing::Range<uint64_t>(0, 5));

TEST(AnalyticsTest, TopHashtagFollowsComponentMerges) {
  std::mutex mu;
  std::map<uint64_t, TopTagAnswer> answers;
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [tweets, tweet_handle] = NewInput<Tweet>(b, "tweets");
  auto [queries, query_handle] = NewInput<TopTagQuery>(b, "queries");
  Stream<TopTagAnswer> out =
      StreamingTopHashtags(tweets, queries, QueryFreshness::kConsistent);
  ForEach<TopTagAnswer>(out, [&](const Timestamp&, std::vector<TopTagAnswer>& recs) {
    std::lock_guard<std::mutex> lock(mu);
    for (const TopTagAnswer& a : recs) {
      answers[a.query_id] = a;
    }
  });
  ctl.Start();
  // Epoch 0: users 1 and 2 are separate; 1 tweets #7 twice, 2 tweets #9 once.
  tweet_handle->OnNext({Tweet{1, {7}, {}}, Tweet{1, {7}, {}}, Tweet{2, {9}, {}}});
  query_handle->OnNext({TopTagQuery{2, 0}});
  // Epoch 1: user 1 mentions user 2 — their components merge; #7 dominates the merged one.
  tweet_handle->OnNext({Tweet{1, {}, {2}}});
  query_handle->OnNext({TopTagQuery{2, 1}});
  tweet_handle->OnCompleted();
  query_handle->OnCompleted();
  ctl.Join();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_TRUE(answers.contains(0));
  EXPECT_EQ(answers[0].top_tag, 9u);
  EXPECT_EQ(answers[0].count, 1u);
  ASSERT_TRUE(answers.contains(1));
  EXPECT_EQ(answers[1].top_tag, 7u);
  EXPECT_EQ(answers[1].count, 2u);
  EXPECT_EQ(answers[1].component, 1u);  // merged under min node id
}

TEST(AnalyticsTest, StaleModeAnswersWithoutWaiting) {
  std::mutex mu;
  std::map<uint64_t, TopTagAnswer> answers;
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [tweets, tweet_handle] = NewInput<Tweet>(b, "tweets");
  auto [queries, query_handle] = NewInput<TopTagQuery>(b, "queries");
  Stream<TopTagAnswer> out = StreamingTopHashtags(tweets, queries, QueryFreshness::kStale);
  ForEach<TopTagAnswer>(out, [&](const Timestamp&, std::vector<TopTagAnswer>& recs) {
    std::lock_guard<std::mutex> lock(mu);
    for (const TopTagAnswer& a : recs) {
      answers[a.query_id] = a;
    }
  });
  ctl.Start();
  tweet_handle->OnNext({Tweet{5, {3}, {}}});
  query_handle->OnNext({TopTagQuery{5, 0}});
  tweet_handle->OnCompleted();
  query_handle->OnCompleted();
  ctl.Join();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_TRUE(answers.contains(0));  // answered (possibly from pre-update state)
}

TEST(GenTest, GeneratorsAreDeterministic) {
  EXPECT_EQ(RandomGraph(100, 200, 7), RandomGraph(100, 200, 7));
  EXPECT_NE(RandomGraph(100, 200, 7), RandomGraph(100, 200, 8));
  EXPECT_EQ(PowerLawGraph(100, 200, 1.1, 7), PowerLawGraph(100, 200, 1.1, 7));
  EXPECT_EQ(PowerLawBothGraph(100, 200, 1.1, 7), PowerLawBothGraph(100, 200, 1.1, 7));
  EXPECT_EQ(ZipfCorpus(10, 5, 50, 3), ZipfCorpus(10, 5, 50, 3));
  TweetGenerator a(100, 20, 9);
  TweetGenerator b(100, 20, 9);
  EXPECT_EQ(a.Batch(50), b.Batch(50));
}

TEST(GenTest, ShardsPartitionTheWholeGraph) {
  auto gen = [] { return RandomGraph(50, 333, 12); };
  std::multiset<Edge> all;
  for (uint32_t p = 0; p < 4; ++p) {
    std::vector<Edge> shard = Shard(gen, p, 4);
    all.insert(shard.begin(), shard.end());
  }
  std::vector<Edge> whole = gen();
  EXPECT_EQ(all, std::multiset<Edge>(whole.begin(), whole.end()));
}

TEST(GenTest, PowerLawSkewsInDegree) {
  std::vector<Edge> edges = PowerLawGraph(1000, 20000, 1.2, 5);
  std::map<uint64_t, uint64_t> in_deg;
  for (const Edge& e : edges) {
    ++in_deg[e.second];
  }
  uint64_t max_deg = 0;
  for (auto& [n, d] : in_deg) {
    max_deg = std::max(max_deg, d);
  }
  // Uniform expectation is 20 per node; the Zipf head must dominate it by a wide margin.
  EXPECT_GT(max_deg, 200u);
}

TEST(GenTest, SymmetrizeDoublesAndMirrors) {
  std::vector<Edge> sym = Symmetrize({{1, 2}, {3, 4}});
  EXPECT_EQ(sym.size(), 4u);
  std::multiset<Edge> s(sym.begin(), sym.end());
  EXPECT_TRUE(s.contains({2, 1}));
  EXPECT_TRUE(s.contains({4, 3}));
}

TEST(GenTest, TweetSerdeRoundTrips) {
  TweetGenerator gen(50, 10, 4);
  for (int i = 0; i < 20; ++i) {
    Tweet t = gen.Next();
    std::vector<uint8_t> bytes = EncodeToBytes(t);
    Tweet out;
    ASSERT_TRUE(DecodeFromBytes(std::span<const uint8_t>(bytes), out));
    EXPECT_EQ(out, t);
  }
}

}  // namespace
}  // namespace naiad
