// Progress-strategy equivalence (§3.3): the four broadcast strategies are different
// encodings of the same protocol, so all four, on any graph including randomized loop
// graphs with a loop-within-a-loop, must drive identical computations: same per-vertex
// OnNotify timestamp sequences, same outputs.
//
// Each seed builds a random pipeline (a chain of notify-recording stages, a loop whose
// body decrements a per-record countdown, more recorders inside the loop, optionally a
// nested inner loop decrementing a second countdown) and runs it on a 2-process cluster
// under every ProgressStrategy, driving epochs strictly sequentially (probe barrier
// between epochs) so the notification order at every vertex is fully determined by the
// protocol rather than input-arrival races. Every shape has a loop, so every run must
// also show the trackers pushing boundary images across a scope: production runs use
// per-scope tracking.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/core/io.h"
#include "src/lib/key_hash.h"
#include "src/lib/operators.h"
#include "src/net/cluster.h"

namespace naiad {
namespace {

using Rec = std::pair<uint64_t, uint64_t>;  // (id, remaining loop iterations)

// Per-vertex OnNotify logs, keyed by "<stage tag>#<vertex index>". Shared across the
// cluster's process threads; each physical vertex lives in exactly one process.
struct NotifyLog {
  std::mutex mu;
  std::map<std::string, std::vector<Timestamp>> seq;

  void Record(const std::string& tag, uint32_t index, const Timestamp& t) {
    std::lock_guard<std::mutex> lock(mu);
    seq[tag + "#" + std::to_string(index)].push_back(t);
  }
};

// Forwards records unchanged but only on completeness, recording every OnNotify.
class NotifyRecorderVertex final : public UnaryVertex<Rec, Rec> {
 public:
  NotifyRecorderVertex(std::string tag, NotifyLog* log)
      : tag_(std::move(tag)), log_(log) {}

  void OnRecv(const Timestamp& t, std::vector<Rec>& batch) override {
    auto [it, fresh] = pending_.try_emplace(t);
    if (fresh) {
      this->NotifyAt(t);
    }
    for (Rec& r : batch) {
      it->second.push_back(std::move(r));
    }
  }

  void OnNotify(const Timestamp& t) override {
    log_->Record(tag_, this->address().index, t);
    auto it = pending_.find(t);
    if (it != pending_.end()) {
      this->output().SendBatch(t, std::move(it->second));
      pending_.erase(it);
    }
  }

 private:
  std::string tag_;
  NotifyLog* log_;
  std::map<Timestamp, std::vector<Rec>> pending_;
};

Stream<Rec> RecordNotifies(const Stream<Rec>& s, const std::string& tag, NotifyLog* log) {
  GraphBuilder& b = *s.builder;
  StageId sid = b.NewStage<NotifyRecorderVertex>(
      StageOptions{.name = "recorder", .depth = s.depth}, [tag, log](uint32_t) {
        return std::make_unique<NotifyRecorderVertex>(tag, log);
      });
  // Exchange by id so records cross process boundaries between recorders.
  b.Connect<NotifyRecorderVertex, Rec>(s, sid, 0,
                                       [](const Rec& r) { return KeyHash(r.first); });
  return b.OutputOf<Rec>(sid);
}

// Random pipeline shape; identical on every process (SPMD) and every strategy.
struct Shape {
  uint32_t pre_chain;
  uint32_t loop_chain;
  bool nested;  // loop-within-a-loop: the outer body decrements inside an inner Iterate
  bool post_recorder;
  uint64_t epochs;
  uint64_t recs_per_epoch;
  uint64_t max_remaining;
};

Shape ShapeFromSeed(uint64_t seed) {
  Rng rng(HashCombine(seed, 0x53484150ULL));  // "SHAP"
  Shape s;
  s.pre_chain = 1 + static_cast<uint32_t>(rng.Below(2));
  s.loop_chain = 1 + static_cast<uint32_t>(rng.Below(2));
  s.nested = rng.Below(2) == 0;
  s.post_recorder = rng.Below(2) == 0;
  s.epochs = 2 + rng.Below(2);
  s.recs_per_epoch = 6 + rng.Below(11);
  s.max_remaining = 1 + rng.Below(4);
  return s;
}

std::vector<Rec> EpochRecords(const Shape& shape, uint64_t epoch, uint32_t process,
                              uint32_t processes) {
  std::vector<Rec> recs;
  for (uint64_t i = process; i < shape.recs_per_epoch; i += processes) {
    const uint64_t id = epoch * 1000 + i;
    // remaining >= 2: the loop body egresses the post-decrement survivors, so a record
    // needs at least one surviving circulation to be observable at the output.
    recs.emplace_back(id, 2 + Mix64(id) % shape.max_remaining);
  }
  return recs;
}

struct RunResult {
  std::map<std::string, std::vector<Timestamp>> notifies;
  std::map<uint64_t, uint64_t> output;  // id -> times seen at egress
  uint64_t boundary_updates = 0;        // ClusterStats::progress_boundary_updates
};

RunResult RunShape(const Shape& shape, ProgressStrategy strategy) {
  RunResult result;
  NotifyLog log;
  std::mutex out_mu;
  const ClusterStats stats = Cluster::Run(
      ClusterOptions{.processes = 2, .workers_per_process = 1, .strategy = strategy},
      [&](Controller& ctl) {
        GraphBuilder b(ctl);
        auto [in, handle] = NewInput<Rec>(b);
        Stream<Rec> cur = in;
        for (uint32_t i = 0; i < shape.pre_chain; ++i) {
          cur = RecordNotifies(cur, "pre" + std::to_string(i), &log);
        }
        const auto part = [](const Rec& r) { return KeyHash(r.first); };
        cur = Iterate<Rec>(
            cur, /*max_iters=*/16, part,
            [&](LoopContext&, const Stream<Rec>& merged) {
              Stream<Rec> body = merged;
              for (uint32_t i = 0; i < shape.loop_chain; ++i) {
                body = RecordNotifies(body, "loop" + std::to_string(i), &log);
              }
              if (shape.nested) {
                // Loop-within-a-loop: the decrement happens inside an inner Iterate
                // whose egress re-emits each circulation's survivors, so inner-loop
                // pointstamps (depth 2) are live while the outer loop still circulates.
                return Iterate<Rec>(
                    body, /*max_iters=*/4, part,
                    [&](LoopContext&, const Stream<Rec>& inner_merged) {
                      Stream<Rec> ib = RecordNotifies(inner_merged, "inner", &log);
                      Stream<Rec> dec = Select(
                          ib, [](const Rec& r) { return Rec{r.first, r.second - 1}; });
                      return Where(dec, [](const Rec& r) { return r.second > 0; });
                    });
              }
              Stream<Rec> dec = Select(
                  body, [](const Rec& r) { return Rec{r.first, r.second - 1}; });
              return Where(dec, [](const Rec& r) { return r.second > 0; });
            });
        if (shape.post_recorder) {
          cur = RecordNotifies(cur, "post", &log);
        }
        Probe probe = ForEach<Rec>(
            cur,
            [&](const Timestamp&, std::vector<Rec>& recs) {
              std::lock_guard<std::mutex> lock(out_mu);
              for (const Rec& r : recs) {
                ++result.output[r.first];
              }
            },
            [](const Rec& r) { return KeyHash(r.first); });
        ctl.Start();
        for (uint64_t e = 0; e < shape.epochs; ++e) {
          handle->OnNext(EpochRecords(shape, e, ctl.config().process_id, 2));
          // Full barrier per epoch: only one epoch is in flight at any vertex, so the
          // per-vertex notification order is a protocol invariant, not a race outcome.
          probe.WaitPassed(e);
        }
        handle->OnCompleted();
        ctl.Join();
      });
  result.notifies = std::move(log.seq);
  result.boundary_updates = stats.progress_boundary_updates;
  return result;
}

std::string Render(const std::vector<Timestamp>& seq) {
  std::string s;
  for (const Timestamp& t : seq) {
    s += t.ToString();
  }
  return s;
}

class ProgressEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProgressEquivalence, AllStrategiesProduceIdenticalNotifyOrders) {
  const Shape shape = ShapeFromSeed(GetParam());
  const ProgressStrategy strategies[] = {
      ProgressStrategy::kDirect, ProgressStrategy::kLocalAcc,
      ProgressStrategy::kGlobalAcc, ProgressStrategy::kLocalGlobalAcc};
  RunResult ref = RunShape(shape, strategies[0]);
  ASSERT_FALSE(ref.notifies.empty());
  ASSERT_FALSE(ref.output.empty());
  EXPECT_GT(ref.boundary_updates, 0u) << "strategy " << ToString(strategies[0]);
  for (size_t i = 1; i < 4; ++i) {
    const std::string label = std::string("strategy ") + ToString(strategies[i]);
    RunResult got = RunShape(shape, strategies[i]);
    EXPECT_GT(got.boundary_updates, 0u) << label;
    EXPECT_EQ(got.output, ref.output) << label;
    ASSERT_EQ(got.notifies.size(), ref.notifies.size()) << label;
    for (const auto& [vertex, want] : ref.notifies) {
      auto it = got.notifies.find(vertex);
      ASSERT_NE(it, got.notifies.end()) << label << " missing " << vertex;
      EXPECT_EQ(it->second, want) << label << " vertex " << vertex << "\n  got  "
                                  << Render(it->second) << "\n  want " << Render(want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgressEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace naiad
