// Model-checked equivalence of the per-scope ProgressTracker with the flat §2.3 scan.
//
// ProgressTracker organizes occurrence counts into per-loop-scope maps with summarized
// boundary images and memoized frontier verdicts. FlatReference below is the definition
// it must agree with: one global occurrence map, every question a full scan. This
// harness replays randomized update schedules — nested loops to depth 2, out-of-order
// deltas, transiently negative counts, cancellations — against both on the same
// randomized graph and asserts that every observable (CanDeliver, FrontierPassed, Count,
// Empty, ActiveSnapshot) is identical after every applied batch, then that both drain to
// empty.
//
// 100 seeds, sharded 4×25 for ctest parallelism. Replay one seed with --seed=N (see
// EXPERIMENTS.md): shard 0 runs exactly that seed, the others become no-ops.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "src/base/event_count.h"
#include "src/base/rng.h"
#include "src/core/graph.h"
#include "src/core/progress.h"

namespace naiad {
namespace {

std::optional<uint64_t> g_seed_override;

// A randomized but always-valid loop graph: a root chain, one loop that always contains
// a nested loop (depth 2), and optionally a second independent top-level loop. Random
// knobs vary the chain lengths so scope shapes and Ψ antichains differ per seed; every
// cycle goes through a feedback stage, so Freeze() accepts every generated graph.
struct ModelGraph {
  LogicalGraph g;
  std::vector<Location> locations;  // every stage and connector, for probing/updating

  StageId Stage(uint32_t depth, TimestampAction act, uint64_t feedback_limit = 0) {
    StageDef d;
    d.depth = depth;
    d.action = act;
    d.feedback_limit = feedback_limit;
    StageId s = g.AddStage(std::move(d));
    locations.push_back(Location::Stage(s));
    return s;
  }
  ConnectorId Conn(StageId src, StageId dst) {
    ConnectorDef cd;
    cd.src = src;
    cd.dst = dst;
    ConnectorId c = g.AddConnector(std::move(cd));
    locations.push_back(Location::Connector(c));
    return c;
  }
  // chain of `n` kNone stages at `depth`, connected from `from`; returns the last stage.
  StageId ChainFrom(StageId from, uint32_t depth, uint32_t n) {
    StageId cur = from;
    for (uint32_t i = 0; i < n; ++i) {
      StageId next = Stage(depth, TimestampAction::kNone);
      Conn(cur, next);
      cur = next;
    }
    return cur;
  }
  // A loop hanging off `from` (at `depth-1`): ingress, body chain, feedback cycle,
  // egress. `nest` adds an inner loop between two body stages. Returns the egress's
  // downstream stage at depth-1.
  StageId Loop(StageId from, uint32_t depth, uint32_t body_len, bool nest, Rng& rng) {
    StageId ingress = Stage(depth - 1, TimestampAction::kIngress);
    Conn(from, ingress);
    StageId head = Stage(depth, TimestampAction::kNone);
    Conn(ingress, head);
    StageId tail = ChainFrom(head, depth, body_len);
    if (nest) {
      tail = Loop(tail, depth + 1, 1 + static_cast<uint32_t>(rng.Below(2)), false, rng);
    }
    StageId fb = Stage(depth, TimestampAction::kFeedback, /*feedback_limit=*/16);
    Conn(tail, fb);
    Conn(fb, head);
    StageId egress = Stage(depth, TimestampAction::kEgress);
    Conn(tail, egress);
    StageId after = Stage(depth - 1, TimestampAction::kNone);
    Conn(egress, after);
    return after;
  }

  explicit ModelGraph(uint64_t seed) {
    Rng rng(HashCombine(seed, 0x4d4f444cULL));  // "MODL"
    StageId in = Stage(0, TimestampAction::kNone);
    StageId cur = ChainFrom(in, 0, static_cast<uint32_t>(rng.Below(3)));
    cur = Loop(cur, 1, 1 + static_cast<uint32_t>(rng.Below(2)), /*nest=*/true, rng);
    if (rng.Below(2) == 0) {
      cur = Loop(cur, 1, 1, /*nest=*/false, rng);
    }
    ChainFrom(cur, 0, 1 + static_cast<uint32_t>(rng.Below(2)));
    g.Freeze();
  }
};

Pointstamp RandomPoint(const ModelGraph& mg, Rng& rng) {
  const Location loc = mg.locations[rng.Below(mg.locations.size())];
  const uint32_t depth = mg.g.LocationDepth(loc);
  Timestamp t(rng.Below(3));
  for (uint32_t d = 0; d < depth; ++d) {
    t = t.Pushed(rng.Below(3));
  }
  return Pointstamp{t, loc};
}

// The probe set: every location × a small grid of times at its depth. Frontier answers
// must match at *every* probe after *every* batch — not just at the points updated.
std::vector<Pointstamp> ProbePoints(const ModelGraph& mg) {
  std::vector<Pointstamp> probes;
  for (const Location& loc : mg.locations) {
    const uint32_t depth = mg.g.LocationDepth(loc);
    for (uint64_t e = 0; e < 2; ++e) {
      const uint32_t combos = 1u << depth;  // coords from {0,2}^depth
      for (uint32_t bits = 0; bits < combos; ++bits) {
        Timestamp t(e);
        for (uint32_t d = 0; d < depth; ++d) {
          t = t.Pushed((bits >> d & 1) != 0 ? 2 : 0);
        }
        probes.push_back(Pointstamp{t, loc});
      }
    }
  }
  return probes;
}

// The §2.3 definition, literally: one occurrence map over the whole graph, and a
// pointstamp p is blocked when some active q could-result-in p. No scopes, no memo, no
// lock: it shares nothing with ProgressTracker except the graph's path summaries, so a
// bug in the tracker's scope images or query memo shows up as a disagreement.
class FlatReference {
 public:
  explicit FlatReference(const LogicalGraph* graph) : graph_(graph) {}

  void Apply(const std::vector<ProgressUpdate>& batch) {
    for (const ProgressUpdate& u : batch) {
      if ((counts_[u.point] += u.delta) == 0) {
        counts_.erase(u.point);
      }
    }
  }

  // A notification at p is deliverable when no *other* active pointstamp
  // could-result-in p; the frontier has passed p when no active one, p included, can.
  bool CanDeliver(const Pointstamp& p) const {
    return !Blocked(p, /*exclude_self=*/true);
  }
  bool FrontierPassed(const Pointstamp& p) const {
    return !Blocked(p, /*exclude_self=*/false);
  }

  int64_t Count(const Pointstamp& p) const {
    auto it = counts_.find(p);
    return it == counts_.end() ? 0 : it->second;
  }

  bool Empty() const { return counts_.empty(); }

  std::vector<std::pair<Pointstamp, int64_t>> ActiveSnapshot() const {
    return {counts_.begin(), counts_.end()};
  }

 private:
  // Only strictly positive counts are active; a transiently negative one is not.
  bool Blocked(const Pointstamp& p, bool exclude_self) const {
    for (const auto& [q, count] : counts_) {
      if (count > 0 && !(exclude_self && q == p) && graph_->CouldResultIn(q, p)) {
        return true;
      }
    }
    return false;
  }

  const LogicalGraph* graph_;
  std::map<Pointstamp, int64_t> counts_;  // nonzero entries only
};

void CheckSeed(uint64_t seed) {
  const ModelGraph mg(seed);
  EventCount ev;
  FlatReference flat(&mg.g);
  ProgressTracker scoped(&mg.g, &ev);
  ASSERT_GE(mg.g.num_scopes(), 3u) << "model graph must nest to depth 2";

  const std::vector<Pointstamp> probes = ProbePoints(mg);
  Rng rng(HashCombine(seed, 0x53434844ULL));  // "SCHD"
  std::map<Pointstamp, int64_t> net;  // cumulative deltas, for the final drain

  const uint32_t batches = 30 + static_cast<uint32_t>(rng.Below(11));
  for (uint32_t b = 0; b <= batches; ++b) {
    std::vector<ProgressUpdate> batch;
    if (b < batches) {
      const uint32_t sz = 1 + static_cast<uint32_t>(rng.Below(8));
      for (uint32_t i = 0; i < sz; ++i) {
        // Mostly fresh ±1s (negatives may land before their positives — the transient
        // negative case); sometimes retire an earlier positive so activity drains and
        // frontiers genuinely move during the schedule.
        if (rng.Below(3) == 0 && !net.empty()) {
          auto it = net.begin();
          std::advance(it, rng.Below(net.size()));
          if (it->second > 0) {
            batch.push_back(ProgressUpdate{it->first, -1});
            continue;
          }
        }
        const int64_t delta = rng.Below(4) == 0 ? -1 : +1;
        batch.push_back(ProgressUpdate{RandomPoint(mg, rng), delta});
      }
    } else {
      // Final drain: negate the cumulative sum so both trackers must return to empty
      // (and every boundary image refcount must unwind to zero without tripping the
      // negative-refcount check).
      for (const auto& [p, d] : net) {
        if (d != 0) {
          batch.push_back(ProgressUpdate{p, -d});
        }
      }
    }
    for (const ProgressUpdate& u : batch) {
      net[u.point] += u.delta;
    }
    flat.Apply(batch);
    scoped.Apply(batch);

    ASSERT_EQ(flat.Empty(), scoped.Empty()) << "seed " << seed << " batch " << b;
    ASSERT_EQ(flat.ActiveSnapshot(), scoped.ActiveSnapshot())
        << "seed " << seed << " batch " << b;
    for (const Pointstamp& p : probes) {
      ASSERT_EQ(flat.CanDeliver(p), scoped.CanDeliver(p))
          << "CanDeliver(" << p.ToString() << ") seed " << seed << " batch " << b
          << "; replay with --seed=" << seed;
      ASSERT_EQ(flat.FrontierPassed(p), scoped.FrontierPassed(p))
          << "FrontierPassed(" << p.ToString() << ") seed " << seed << " batch " << b
          << "; replay with --seed=" << seed;
      ASSERT_EQ(flat.Count(p), scoped.Count(p))
          << "Count(" << p.ToString() << ") seed " << seed << " batch " << b;
    }
  }
  ASSERT_TRUE(flat.Empty());
  ASSERT_TRUE(scoped.Empty());
  // The scoped tracker did organize state hierarchically: loop-internal activity existed
  // (the schedule hits every location with high probability), so boundary images flowed.
  EXPECT_GT(scoped.Stats().boundary_updates, 0u) << "seed " << seed;
}

class ScopedModelSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScopedModelSweep, ScopedMatchesFlatOnRandomSchedules) {
  const uint64_t shard = GetParam();
  if (g_seed_override.has_value()) {
    if (shard == 0) {
      CheckSeed(*g_seed_override);
    }
    return;
  }
  for (uint64_t i = 0; i < 25; ++i) {
    ASSERT_NO_FATAL_FAILURE(CheckSeed(shard * 25 + i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopedModelSweep, ::testing::Values(0u, 1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Shard" + std::to_string(info.param);
                         });

// Deterministic spot-checks of the scope tree itself, on the fixture topology every
// other progress test uses (in → ingress → body ↔ feedback → egress → out).
TEST(ScopeTreeTest, LoopGraphScopesAndProjections) {
  ModelGraph mg(/*seed=*/1);
  const LogicalGraph& g = mg.g;
  // Root scope holds every depth-0 location and is its own parent.
  EXPECT_EQ(g.ScopeParent(0), 0u);
  EXPECT_EQ(g.ScopeDepth(0), 0u);
  uint32_t max_depth = 0;
  for (const Location& l : mg.locations) {
    const uint32_t sc = g.ScopeOf(l);
    EXPECT_EQ(g.ScopeDepth(sc), g.LocationDepth(l)) << l.ToString();
    if (sc != 0) {
      // Walking parents reaches the root in depth steps.
      EXPECT_EQ(g.ScopeDepth(g.ScopeParent(sc)) + 1, g.ScopeDepth(sc));
      // Every in-scope location projects onto at least one exit of its scope (all loops
      // in the model graph have an egress), and the projected location lives one scope
      // up with summaries that strip exactly one loop coordinate.
      const auto& projs = g.Projections(l);
      EXPECT_FALSE(projs.empty()) << l.ToString();
      for (const BoundaryProjection& bp : projs) {
        EXPECT_EQ(g.ScopeOf(bp.exit), g.ScopeParent(sc));
        for (const PathSummary& s : bp.summaries.elements()) {
          Timestamp t(0);
          for (uint32_t d = 0; d < g.LocationDepth(l); ++d) {
            t = t.Pushed(0);
          }
          EXPECT_EQ(s.Apply(t).depth(), g.LocationDepth(l) - 1);
        }
      }
    } else {
      EXPECT_TRUE(g.Projections(l).empty()) << l.ToString();
    }
    max_depth = std::max(max_depth, g.ScopeDepth(g.ScopeOf(l)));
  }
  EXPECT_EQ(max_depth, 2u);
}

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);  // strips gtest flags, leaves ours
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      naiad::g_seed_override = std::strtoull(argv[i] + 7, nullptr, 0);
      std::fprintf(stderr, "progress_scoped_model_test: replaying seed %llu only\n",
                   static_cast<unsigned long long>(*naiad::g_seed_override));
    }
  }
  return RUN_ALL_TESTS();
}
