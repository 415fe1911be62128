// Tests for occurrence-count progress tracking (§2.3, §3.3): frontier queries, batch
// application, transient negative counts, and the ProgressBuffer flush discipline.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "src/base/event_count.h"
#include "src/core/graph.h"
#include "src/core/progress.h"
#include "src/ser/codec.h"

namespace naiad {
namespace {

Timestamp T(uint64_t e, std::initializer_list<uint64_t> cs = {}) { return Timestamp(e, cs); }

// Linear graph with a loop, as in the summary tests: in -> ingress -> body -> egress -> out
// with body -> feedback -> body.
struct LoopGraph {
  LogicalGraph g;
  StageId in, ingress, body, egress, out, feedback;
  ConnectorId in_ing, ing_body, body_eg, eg_out, body_fb, fb_body;

  LoopGraph() {
    auto stage = [&](uint32_t depth, TimestampAction act) {
      StageDef d;
      d.depth = depth;
      d.action = act;
      return g.AddStage(std::move(d));
    };
    in = stage(0, TimestampAction::kNone);
    ingress = stage(0, TimestampAction::kIngress);
    body = stage(1, TimestampAction::kNone);
    egress = stage(1, TimestampAction::kEgress);
    out = stage(0, TimestampAction::kNone);
    feedback = stage(1, TimestampAction::kFeedback);
    in_ing = Conn(in, ingress);
    ing_body = Conn(ingress, body);
    body_eg = Conn(body, egress);
    eg_out = Conn(egress, out);
    body_fb = Conn(body, feedback);
    fb_body = Conn(feedback, body);
    g.Freeze();
  }
  ConnectorId Conn(StageId s, StageId d) {
    ConnectorDef cd;
    cd.src = s;
    cd.dst = d;
    return g.AddConnector(std::move(cd));
  }
};

class ProgressTrackerTest : public ::testing::Test {
 protected:
  LoopGraph lg;
  EventCount ev;
  ProgressTracker tracker{&lg.g, &ev};

  void Apply(const Pointstamp& p, int64_t d) {
    ProgressUpdate u{p, d};
    tracker.Apply(std::span<const ProgressUpdate>(&u, 1));
  }
};

TEST_F(ProgressTrackerTest, EmptyTrackerDeliversAnything) {
  EXPECT_TRUE(tracker.Empty());
  EXPECT_TRUE(tracker.CanDeliver({T(0, {0}), Location::Stage(lg.body)}));
}

TEST_F(ProgressTrackerTest, UpstreamMessageBlocksNotification) {
  Apply({T(0), Location::Connector(lg.in_ing)}, +1);
  EXPECT_FALSE(tracker.CanDeliver({T(0, {0}), Location::Stage(lg.body)}));
  EXPECT_FALSE(tracker.CanDeliver({T(0, {5}), Location::Stage(lg.body)}));
  EXPECT_FALSE(tracker.CanDeliver({T(1, {0}), Location::Stage(lg.body)}));
  Apply({T(0), Location::Connector(lg.in_ing)}, -1);
  EXPECT_TRUE(tracker.CanDeliver({T(0, {0}), Location::Stage(lg.body)}));
}

TEST_F(ProgressTrackerTest, LaterEpochDoesNotBlockEarlierIterations) {
  Apply({T(1), Location::Stage(lg.in)}, +1);  // epoch 1 still open at the input
  EXPECT_TRUE(tracker.CanDeliver({T(0, {3}), Location::Stage(lg.body)}));
  EXPECT_FALSE(tracker.CanDeliver({T(1, {0}), Location::Stage(lg.body)}));
}

TEST_F(ProgressTrackerTest, SameLocationEarlierTimeBlocks) {
  Apply({T(0, {1}), Location::Stage(lg.body)}, +1);  // pending notification at iter 1
  EXPECT_FALSE(tracker.CanDeliver({T(0, {2}), Location::Stage(lg.body)}));
  // Its own pointstamp does not block itself (q != p in the frontier rule).
  EXPECT_TRUE(tracker.CanDeliver({T(0, {1}), Location::Stage(lg.body)}));
  // The feedback path makes iteration 1 messages *not* block iteration 1 upstream-equal
  // cases but DOES block iteration 2 everywhere in the loop.
  EXPECT_FALSE(tracker.CanDeliver({T(0, {2}), Location::Stage(lg.egress)}));
}

TEST_F(ProgressTrackerTest, DownstreamDoesNotBlockUpstream) {
  Apply({T(0), Location::Connector(lg.eg_out)}, +1);
  EXPECT_TRUE(tracker.CanDeliver({T(0, {0}), Location::Stage(lg.body)}));
  EXPECT_TRUE(tracker.CanDeliver({T(5), Location::Stage(lg.in)}));
}

TEST_F(ProgressTrackerTest, TransientNegativeCountIsInactive) {
  // A consumer's -1 may overtake the producer's +1 (§3.3); negative counts must not block.
  Apply({T(0), Location::Connector(lg.in_ing)}, -1);
  EXPECT_FALSE(tracker.Empty());
  EXPECT_TRUE(tracker.CanDeliver({T(0, {0}), Location::Stage(lg.body)}));
  Apply({T(0), Location::Connector(lg.in_ing)}, +1);
  EXPECT_TRUE(tracker.Empty());
}

TEST_F(ProgressTrackerTest, FrontierPassedIncludesSelf) {
  Apply({T(0), Location::Stage(lg.out)}, +1);
  EXPECT_FALSE(tracker.FrontierPassed({T(0), Location::Stage(lg.out)}));
  EXPECT_TRUE(tracker.CanDeliver({T(0), Location::Stage(lg.out)}));  // q != p rule
  Apply({T(0), Location::Stage(lg.out)}, -1);
  EXPECT_TRUE(tracker.FrontierPassed({T(0), Location::Stage(lg.out)}));
}

TEST_F(ProgressTrackerTest, VersionAdvancesOnApply) {
  uint64_t v0 = tracker.version();
  Apply({T(0), Location::Stage(lg.in)}, +1);
  EXPECT_GT(tracker.version(), v0);
}

// The drained edge (WaitDrained) is notified only by an Apply that leaves the tracker
// empty: activations, and retirements that leave other pointstamps active, are silent.
TEST_F(ProgressTrackerTest, DrainedEdgeFiresOnlyOnTheDrainingApply) {
  const Pointstamp open{T(0), Location::Connector(lg.in_ing)};
  const Pointstamp inner{T(0, {1}), Location::Stage(lg.body)};
  Apply(open, +1);
  Apply(inner, +1);
  Apply(inner, -1);
  Apply({T(0), Location::Stage(lg.out)}, -1);  // a transient negative count is nonzero
  Apply({T(0), Location::Stage(lg.out)}, +1);
  EXPECT_FALSE(tracker.Empty());
  EXPECT_EQ(tracker.Stats().drained_notifies, 0u);

  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    tracker.WaitDrained([] { return false; });
    returned.store(true);
  });
  // Not the event the test waits for: only gives the waiter time to park, so the
  // draining Apply below usually finds it blocked.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(returned.load());
  Apply(open, -1);
  waiter.join();
  EXPECT_TRUE(tracker.Empty());
  EXPECT_EQ(tracker.Stats().drained_notifies, 1u);
}

// A drain wait on a tracker that never drains returns once its stop flag is set and the
// waiters are woken (Controller::RequestCancel, ClusterControl's recovery flags).
TEST_F(ProgressTrackerTest, DrainWaitReturnsOnStopFlagAndWake) {
  Apply({T(0), Location::Stage(lg.in)}, +1);
  std::atomic<bool> stop{false};
  std::thread waiter([&] { tracker.WaitDrained([&] { return stop.load(); }); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // lets the waiter park
  stop.store(true);
  tracker.WakeDrainWaiters();
  waiter.join();
  EXPECT_FALSE(tracker.Empty());
  EXPECT_EQ(tracker.Stats().drained_notifies, 0u);
}

// Frontier facts that cross the loop's scope boundary, where a root query sees loop-
// internal activity only through its summarized image (the model sweep in
// progress_scoped_model_test.cc covers randomized schedules; this pins the basics with
// readable assertions).
class ScopedProgressTrackerTest : public ProgressTrackerTest {};

TEST_F(ScopedProgressTrackerTest, LoopActivityBlocksDownstreamThroughBoundaryImage) {
  Apply({T(0, {3}), Location::Stage(lg.body)}, +1);
  // The loop-internal pointstamp lives in the child scope; the root query sees it only
  // through the summarized image at the egress output connector.
  EXPECT_FALSE(tracker.CanDeliver({T(0), Location::Stage(lg.out)}));
  EXPECT_TRUE(tracker.CanDeliver({T(0), Location::Stage(lg.in)}));  // upstream unaffected
  EXPECT_GT(tracker.Stats().boundary_updates, 0u);
  Apply({T(0, {3}), Location::Stage(lg.body)}, -1);
  EXPECT_TRUE(tracker.CanDeliver({T(0), Location::Stage(lg.out)}));
  EXPECT_TRUE(tracker.Empty());
}

TEST_F(ScopedProgressTrackerTest, RootActivityBlocksIntoTheLoop) {
  Apply({T(0), Location::Connector(lg.in_ing)}, +1);
  EXPECT_FALSE(tracker.CanDeliver({T(0, {0}), Location::Stage(lg.body)}));
  Apply({T(0), Location::Connector(lg.in_ing)}, -1);
  EXPECT_TRUE(tracker.CanDeliver({T(0, {0}), Location::Stage(lg.body)}));
}

TEST_F(ScopedProgressTrackerTest, TransientNegativeInsideLoopStaysInactive) {
  Apply({T(0, {1}), Location::Stage(lg.body)}, -1);
  EXPECT_FALSE(tracker.Empty());
  EXPECT_TRUE(tracker.CanDeliver({T(0), Location::Stage(lg.out)}));
  Apply({T(0, {1}), Location::Stage(lg.body)}, +1);
  EXPECT_TRUE(tracker.Empty());
}

// Two sibling loops A and B under the root: in → [loop A] → mid → [loop B] → out.
struct TwoLoopGraph {
  LogicalGraph g;
  StageId in, ingA, bodyA, fbA, egA, mid, ingB, bodyB, fbB, egB, out;

  TwoLoopGraph() {
    auto stage = [&](uint32_t depth, TimestampAction act) {
      StageDef d;
      d.depth = depth;
      d.action = act;
      return g.AddStage(std::move(d));
    };
    auto conn = [&](StageId s, StageId d) {
      ConnectorDef cd;
      cd.src = s;
      cd.dst = d;
      return g.AddConnector(std::move(cd));
    };
    in = stage(0, TimestampAction::kNone);
    ingA = stage(0, TimestampAction::kIngress);
    bodyA = stage(1, TimestampAction::kNone);
    fbA = stage(1, TimestampAction::kFeedback);
    egA = stage(1, TimestampAction::kEgress);
    mid = stage(0, TimestampAction::kNone);
    ingB = stage(0, TimestampAction::kIngress);
    bodyB = stage(1, TimestampAction::kNone);
    fbB = stage(1, TimestampAction::kFeedback);
    egB = stage(1, TimestampAction::kEgress);
    out = stage(0, TimestampAction::kNone);
    conn(in, ingA);
    conn(ingA, bodyA);
    conn(bodyA, fbA);
    conn(fbA, bodyA);
    conn(bodyA, egA);
    conn(egA, mid);
    conn(mid, ingB);
    conn(ingB, bodyB);
    conn(bodyB, fbB);
    conn(fbB, bodyB);
    conn(bodyB, egB);
    conn(egB, out);
    g.Freeze();
  }
};

// Regression for the O(active²) frontier rescan: a repeated query must be answered from
// the per-scope memo (no new scan), and — the scoped payoff — an update in a *sibling*
// scope that does not change that scope's boundary image must leave the memo valid.
// Only an update touching a scope on the query's chain invalidates it.
TEST(ScopedDirtyBitTest, SiblingScopeUpdatesDoNotInvalidateFrontierQueries) {
  TwoLoopGraph tg;
  EventCount ev;
  ProgressTracker tracker{&tg.g, &ev};
  auto apply = [&](const Pointstamp& p, int64_t d) {
    ProgressUpdate u{p, d};
    tracker.Apply(std::span<const ProgressUpdate>(&u, 1));
  };
  const Pointstamp pa{Timestamp(0, {0}), Location::Stage(tg.bodyA)};
  const Pointstamp pb{Timestamp(0, {0}), Location::Stage(tg.bodyB)};

  // Activate loop A; its image lands at the egress-A output connector in the root scope.
  apply(pa, +1);
  ASSERT_FALSE(tracker.CanDeliver(pb));  // loop A upstream of loop B ⇒ blocked
  const uint64_t scans_after_first = tracker.Stats().query_scans;
  ASSERT_GE(scans_after_first, 1u);

  // Same query again: memo hit, no new scan.
  ASSERT_FALSE(tracker.CanDeliver(pb));
  EXPECT_EQ(tracker.Stats().query_scans, scans_after_first);
  EXPECT_GE(tracker.Stats().query_memo_hits, 1u);

  // A second occurrence at the already-active pa changes only loop A's internal count —
  // no boundary transition, nothing on B's chain (scope B, root) moved. The memoized
  // verdict must stand without a rescan.
  apply(pa, +1);
  ASSERT_FALSE(tracker.CanDeliver(pb));
  EXPECT_EQ(tracker.Stats().query_scans, scans_after_first)
      << "sibling-scope update invalidated an unrelated frontier query";

  // Draining loop A removes its boundary image from the root — which IS on B's chain —
  // so the next query rescans and the frontier moves.
  apply(pa, -1);
  apply(pa, -1);
  ASSERT_TRUE(tracker.CanDeliver(pb));
  EXPECT_GT(tracker.Stats().query_scans, scans_after_first);
}

// A root-scope query, whose chain is the root alone, is memoized the same way: repeated
// queries with no intervening Apply are served from the memo, here while the blocker is
// loop A's boundary image.
TEST(ScopedDirtyBitTest, RootScopeQueriesMemoizeRepeats) {
  TwoLoopGraph tg;
  EventCount ev;
  ProgressTracker tracker{&tg.g, &ev};
  ProgressUpdate u{{Timestamp(0, {0}), Location::Stage(tg.bodyA)}, +1};
  tracker.Apply(std::span<const ProgressUpdate>(&u, 1));
  const Pointstamp pm{Timestamp(0), Location::Stage(tg.mid)};
  ASSERT_EQ(tg.g.ScopeOf(pm.loc), 0u);
  ASSERT_FALSE(tracker.CanDeliver(pm));
  const uint64_t scans = tracker.Stats().query_scans;
  ASSERT_FALSE(tracker.CanDeliver(pm));
  ASSERT_FALSE(tracker.CanDeliver(pm));
  EXPECT_EQ(tracker.Stats().query_scans, scans);
  EXPECT_GE(tracker.Stats().query_memo_hits, 2u);
}

TEST(ProgressBufferTest, CombinesAndOrdersPositivesFirst) {
  ProgressBuffer buf;
  Pointstamp a{Timestamp(0), Location::Stage(0)};
  Pointstamp b{Timestamp(1), Location::Stage(0)};
  Pointstamp c{Timestamp(2), Location::Stage(0)};
  buf.Add(a, +1);
  buf.Add(a, +2);
  buf.Add(b, -1);
  buf.Add(c, +1);
  buf.Add(c, -1);  // cancels out
  std::vector<ProgressUpdate> out = buf.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].point, a);
  EXPECT_EQ(out[0].delta, 3);
  EXPECT_EQ(out[1].point, b);
  EXPECT_EQ(out[1].delta, -1);
  EXPECT_TRUE(buf.Empty());
}

TEST(ProgressBufferTest, EmptyTracksCancellationWithoutTake) {
  ProgressBuffer buf;
  Pointstamp a{Timestamp(0), Location::Stage(1)};
  EXPECT_TRUE(buf.Empty());
  buf.Add(a, +1);
  EXPECT_FALSE(buf.Empty());
  buf.Add(a, -1);
  // The slot stays occupied with delta 0, but nothing is pending output — Empty() must
  // see that without scanning (regression: it used to report non-empty / scan O(slots)).
  EXPECT_TRUE(buf.Empty());
  EXPECT_TRUE(buf.Take().empty());
  buf.Add(a, -2);
  EXPECT_FALSE(buf.Empty());
  buf.Add(a, +2);
  EXPECT_TRUE(buf.Empty());
}

// Property test for the O(1) Empty() bookkeeping: a randomized add/cancel/Take sequence
// must agree with a reference map at every step, across combining, cancellation,
// re-activation of cancelled slots, and table growth.
TEST(ProgressBufferTest, RandomizedAddCancelTakeMatchesReference) {
  std::mt19937_64 rng(20260807);
  ProgressBuffer buf;
  std::map<Pointstamp, int64_t> ref;
  auto point = [](uint64_t i) {
    const uint32_t id = static_cast<uint32_t>(i % 97);  // enough keys to force Grow()
    return i % 2 == 0 ? Pointstamp{Timestamp(i % 5, {i % 3}), Location::Stage(id)}
                      : Pointstamp{Timestamp(i % 5), Location::Connector(id)};
  };
  for (int step = 0; step < 20000; ++step) {
    const uint64_t r = rng();
    if (r % 29 == 0) {
      std::vector<ProgressUpdate> out = buf.Take();
      size_t positives = 0;
      while (positives < out.size() && out[positives].delta > 0) {
        ++positives;
      }
      for (size_t i = 0; i < out.size(); ++i) {
        ASSERT_NE(out[i].delta, 0);
        // Positives precede negatives (§3.3), each sign group sorted by pointstamp.
        if (i < positives) {
          EXPECT_GT(out[i].delta, 0);
        } else {
          EXPECT_LT(out[i].delta, 0);
        }
        if (i > 0 && i != positives) {
          EXPECT_TRUE(out[i - 1].point < out[i].point);
        }
      }
      std::map<Pointstamp, int64_t> got;
      for (const ProgressUpdate& u : out) {
        got[u.point] += u.delta;
      }
      std::map<Pointstamp, int64_t> want;
      for (const auto& [p, d] : ref) {
        if (d != 0) {
          want[p] = d;
        }
      }
      EXPECT_EQ(got, want);
      ref.clear();
      EXPECT_TRUE(buf.Empty());
      continue;
    }
    const Pointstamp p = point(r >> 8);
    const int64_t delta = static_cast<int64_t>((r >> 40) % 5) - 2;  // [-2, +2], incl. 0
    buf.Add(p, delta);
    ref[p] += delta;
    bool any = false;
    for (const auto& [q, d] : ref) {
      any = any || d != 0;
    }
    ASSERT_EQ(buf.Empty(), !any) << "step " << step;
  }
}

TEST(ProgressUpdateTest, SerializationRoundTrip) {
  ProgressUpdate u{{Timestamp(3, {1, 2}), Location::Connector(9)}, -4};
  std::vector<uint8_t> bytes = EncodeToBytes(u);
  ProgressUpdate out;
  ASSERT_TRUE(DecodeFromBytes(std::span<const uint8_t>(bytes), out));
  EXPECT_EQ(out, u);
}

}  // namespace
}  // namespace naiad
