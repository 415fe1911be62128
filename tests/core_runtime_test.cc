// End-to-end tests of the single-process runtime: typed stages, exchange partitioning,
// epochs and notifications, loop contexts, the Figure 4 vertex, and the §3.3 safety
// property under multi-worker execution.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/core/controller.h"
#include "src/core/io.h"
#include "src/core/loop.h"
#include "src/core/stage.h"
#include "src/net/cluster.h"

namespace naiad {
namespace {

// A stateless map vertex.
class DoubleVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    for (uint64_t& x : batch) {
      x *= 2;
    }
    output().SendBatch(t, std::move(batch));
  }
};

TEST(RuntimeTest, MapPipelineDeliversPerEpoch) {
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  StageId map = b.NewStage<DoubleVertex>(StageOptions{.name = "double"}, [](uint32_t) {
    return std::make_unique<DoubleVertex>();
  });
  b.Connect<DoubleVertex, uint64_t>(in, map);

  std::mutex mu;
  std::map<uint64_t, std::multiset<uint64_t>> results;
  Subscribe<uint64_t>(b.OutputOf<uint64_t>(map),
                      [&](uint64_t epoch, std::vector<uint64_t>& recs) {
                        std::lock_guard<std::mutex> lock(mu);
                        results[epoch].insert(recs.begin(), recs.end());
                      });

  ctl.Start();
  handle->OnNext({1, 2, 3});
  handle->OnNext({10});
  handle->OnNext({});  // empty epoch
  handle->OnCompleted();
  ctl.Join();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(results[0], (std::multiset<uint64_t>{2, 4, 6}));
  EXPECT_EQ(results[1], (std::multiset<uint64_t>{20}));
  EXPECT_EQ(results.count(2), 0u);  // empty epochs produce no callback
}

// Records which vertex instance saw which key.
class RecordingVertex final : public SinkVertex<uint64_t> {
 public:
  RecordingVertex(std::mutex* mu, std::map<uint64_t, std::set<uint32_t>>* seen)
      : mu_(mu), seen_(seen) {}
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    std::lock_guard<std::mutex> lock(*mu_);
    for (uint64_t x : batch) {
      (*seen_)[x].insert(address().index);
    }
  }

 private:
  std::mutex* mu_;
  std::map<uint64_t, std::set<uint32_t>>* seen_;
};

TEST(RuntimeTest, ExchangeRoutesEqualKeysToOneVertex) {
  Controller ctl(Config{.workers_per_process = 4});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  std::mutex mu;
  std::map<uint64_t, std::set<uint32_t>> seen;
  StageId sink = b.NewStage<RecordingVertex>(
      StageOptions{.name = "sink"},
      [&](uint32_t) { return std::make_unique<RecordingVertex>(&mu, &seen); });
  b.Connect<RecordingVertex, uint64_t>(in, sink, 0, [](const uint64_t& x) { return x % 10; });

  ctl.Start();
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < 1000; ++i) {
    data.push_back(i);
  }
  handle->OnNext(std::move(data));
  handle->OnCompleted();
  ctl.Join();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(seen.size(), 1000u);
  std::map<uint64_t, uint32_t> key_owner;
  for (const auto& [value, vertices] : seen) {
    ASSERT_EQ(vertices.size(), 1u) << "value " << value << " delivered to several vertices";
    auto [it, fresh] = key_owner.emplace(value % 10, *vertices.begin());
    EXPECT_EQ(it->second, *vertices.begin()) << "partition key split across vertices";
  }
}

// Figure 4: distinct records stream out immediately; counts wait for the notification.
class DistinctCountVertex final
    : public Unary2Vertex<std::string, std::string, std::pair<std::string, uint64_t>> {
 public:
  void OnRecv(const Timestamp& t, std::vector<std::string>& batch) override {
    auto [it, fresh] = counts_.try_emplace(t);
    if (fresh) {
      NotifyAt(t);
    }
    for (std::string& s : batch) {
      auto [cit, first_sight] = it->second.try_emplace(s, 0);
      if (first_sight) {
        output1().Send(t, s);
      }
      ++cit->second;
    }
  }
  void OnNotify(const Timestamp& t) override {
    for (const auto& [word, n] : counts_[t]) {
      output2().Send(t, {word, n});
    }
    counts_.erase(t);
  }

 private:
  std::map<Timestamp, std::map<std::string, uint64_t>> counts_;
};

TEST(RuntimeTest, Figure4DistinctCount) {
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<std::string>(b);
  StageId dc = b.NewStage<DistinctCountVertex>(StageOptions{.name = "distinct-count"},
                                               [](uint32_t) {
                                                 return std::make_unique<DistinctCountVertex>();
                                               });
  b.Connect<DistinctCountVertex, std::string>(
      in, dc, 0, [](const std::string& s) { return HashString(s); });

  std::mutex mu;
  std::map<uint64_t, std::multiset<std::string>> distinct;
  std::map<uint64_t, std::map<std::string, uint64_t>> counted;
  Subscribe<std::string>(b.OutputOf<std::string>(dc, 0),
                         [&](uint64_t e, std::vector<std::string>& recs) {
                           std::lock_guard<std::mutex> lock(mu);
                           distinct[e].insert(recs.begin(), recs.end());
                         });
  Subscribe<std::pair<std::string, uint64_t>>(
      b.OutputOf<std::pair<std::string, uint64_t>>(dc, 1),
      [&](uint64_t e, std::vector<std::pair<std::string, uint64_t>>& recs) {
        std::lock_guard<std::mutex> lock(mu);
        for (auto& [w, n] : recs) {
          counted[e][w] += n;
        }
      });

  ctl.Start();
  handle->OnNext({"a", "b", "a", "a", "c", "b"});
  handle->OnNext({"b", "b"});
  handle->OnCompleted();
  ctl.Join();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(distinct[0], (std::multiset<std::string>{"a", "b", "c"}));
  EXPECT_EQ(distinct[1], (std::multiset<std::string>{"b"}));
  EXPECT_EQ(counted[0]["a"], 3u);
  EXPECT_EQ(counted[0]["b"], 2u);
  EXPECT_EQ(counted[0]["c"], 1u);
  EXPECT_EQ(counted[1]["b"], 2u);
}

// Loop body: positive values go around again (decremented); zeros exit.
class CountdownVertex final : public Unary2Vertex<uint64_t, uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    for (uint64_t x : batch) {
      if (x > 0) {
        output1().Send(t, x - 1);  // to feedback
      } else {
        output2().Send(t, t.coords.back());  // exits with the iteration it finished at
      }
    }
  }
};

TEST(RuntimeTest, LoopIteratesToFixedPoint) {
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  LoopContext loop(b, 0);
  FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>();
  Stream<uint64_t> entered = loop.Ingress<uint64_t>(in);

  StageId body = b.NewStage<CountdownVertex>(
      StageOptions{.name = "countdown", .depth = 1},
      [](uint32_t) { return std::make_unique<CountdownVertex>(); });
  b.Connect<CountdownVertex, uint64_t>(entered, body);
  b.Connect<CountdownVertex, uint64_t>(fb.stream(), body);
  fb.ConnectLoop(b.OutputOf<uint64_t>(body, 0));
  Stream<uint64_t> done = loop.Egress<uint64_t>(b.OutputOf<uint64_t>(body, 1));

  std::mutex mu;
  std::map<uint64_t, std::multiset<uint64_t>> exits;
  Subscribe<uint64_t>(done, [&](uint64_t e, std::vector<uint64_t>& recs) {
    std::lock_guard<std::mutex> lock(mu);
    exits[e].insert(recs.begin(), recs.end());
  });

  ctl.Start();
  handle->OnNext({0, 3, 5});
  handle->OnNext({2});
  handle->OnCompleted();
  ctl.Join();

  std::lock_guard<std::mutex> lock(mu);
  // A value v entering at iteration 0 exits at iteration v.
  EXPECT_EQ(exits[0], (std::multiset<uint64_t>{0, 3, 5}));
  EXPECT_EQ(exits[1], (std::multiset<uint64_t>{2}));
}

// Notification-only barrier (the §5.2 microbenchmark pattern): every vertex requests
// NotifyAt((0, i+1)) from OnNotify((0, i)). The §3.3 safety property says OnNotify((e,i))
// may run only when *every* vertex has finished iteration i-1.
class BarrierVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  BarrierVertex(uint64_t iters, std::atomic<uint64_t>* done_counts, std::atomic<bool>* violated)
      : iters_(iters), done_counts_(done_counts), violated_(violated) {}

  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {}

  void OnNotify(const Timestamp& t) override {
    const uint64_t iter = t.coords.back();
    // Safety: nobody may be more than one full iteration behind us.
    const uint64_t finished_before = done_counts_[iter > 0 ? iter - 1 : 0].load();
    if (iter > 0 && finished_before != controller().total_workers()) {
      violated_->store(true);
    }
    done_counts_[iter].fetch_add(1);
    if (iter + 1 < iters_) {
      NotifyAt(t.Incremented());
    }
  }

 private:
  uint64_t iters_;
  std::atomic<uint64_t>* done_counts_;
  std::atomic<bool>* violated_;
};

TEST(RuntimeTest, NotificationBarrierIsGloballyOrdered) {
  constexpr uint64_t kIters = 50;
  Controller ctl(Config{.workers_per_process = 4});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  LoopContext loop(b, 0);
  FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>();
  Stream<uint64_t> entered = loop.Ingress<uint64_t>(in);

  std::vector<std::atomic<uint64_t>> done(kIters);
  std::atomic<bool> violated{false};
  StageId barrier = b.NewStage<BarrierVertex>(
      StageOptions{.name = "barrier",
                   .depth = 1,
                   .initial_notifications = {Timestamp(0, {0})}},
      [&](uint32_t) {
        return std::make_unique<BarrierVertex>(kIters, done.data(), &violated);
      });
  b.Connect<BarrierVertex, uint64_t>(entered, barrier);
  b.Connect<BarrierVertex, uint64_t>(fb.stream(), barrier);
  fb.ConnectLoop(b.OutputOf<uint64_t>(barrier, 0));

  ctl.Start();
  handle->OnCompleted();  // no data: pure coordination
  ctl.Join();

  EXPECT_FALSE(violated.load());
  for (uint64_t i = 0; i < kIters; ++i) {
    EXPECT_EQ(done[i].load(), ctl.total_workers()) << "iteration " << i;
  }
}

TEST(RuntimeTest, ProbeWaitsForEpochCompletion) {
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  std::atomic<uint64_t> total{0};
  Probe probe = ForEach<uint64_t>(in, [&](const Timestamp&, std::vector<uint64_t>& recs) {
    for (uint64_t v : recs) {
      total.fetch_add(v);
    }
  });
  ctl.Start();
  handle->OnNext({1, 2, 3, 4});
  probe.WaitPassed(0);
  EXPECT_EQ(total.load(), 10u);
  handle->OnNext({5});
  probe.WaitPassed(1);
  EXPECT_EQ(total.load(), 15u);
  handle->OnCompleted();
  ctl.Join();
}

// Re-entrant self-loop: a vertex sends to itself through a feedback stage with a bounded
// re-entrancy depth; the chain must complete without unbounded queue growth or deadlock.
class SelfSendVertex final : public Unary2Vertex<uint64_t, uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    for (uint64_t x : batch) {
      if (x > 0) {
        output1().Send(t, x - 1);
        output1().Flush();  // force immediate routing (possibly re-entrant)
      } else {
        output2().Send(t, 1);
      }
    }
  }
};

TEST(RuntimeTest, BoundedReentrancyCompletes) {
  Controller ctl(Config{.workers_per_process = 1});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  LoopContext loop(b, 0);
  FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>();
  Stream<uint64_t> entered = loop.Ingress<uint64_t>(in);
  StageId body = b.NewStage<SelfSendVertex>(
      StageOptions{.name = "selfsend", .depth = 1, .parallelism = 1, .reentrancy = 8},
      [](uint32_t) { return std::make_unique<SelfSendVertex>(); });
  b.Connect<SelfSendVertex, uint64_t>(entered, body);
  b.Connect<SelfSendVertex, uint64_t>(fb.stream(), body);
  fb.ConnectLoop(b.OutputOf<uint64_t>(body, 0));
  Stream<uint64_t> done = loop.Egress<uint64_t>(b.OutputOf<uint64_t>(body, 1));

  std::atomic<uint64_t> finished{0};
  Subscribe<uint64_t>(done, [&](uint64_t, std::vector<uint64_t>& recs) {
    finished.fetch_add(recs.size());
  });

  ctl.Start();
  handle->OnNext({300});
  handle->OnCompleted();
  ctl.Join();
  EXPECT_EQ(finished.load(), 1u);
}

// §2.4 state-purging notifications: a purge's guarantee holds (never early), it never
// blocks other vertices' notifications, and it still fires during drain.
class PurgingVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  PurgingVertex(std::atomic<uint64_t>* purged_epoch, std::atomic<uint64_t>* seen_epoch)
      : purged_epoch_(purged_epoch), seen_epoch_(seen_epoch) {}

  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    state_[t.epoch] = batch.size();
    seen_epoch_->store(std::max(seen_epoch_->load(), t.epoch));
    PurgeAt(t);  // free this epoch's state once the frontier passes it
  }

  void OnNotify(const Timestamp& t) override {
    // Guarantee: the purge must not run before every message at <= t was delivered.
    EXPECT_GE(seen_epoch_->load(), t.epoch);
    EXPECT_TRUE(state_.contains(t.epoch));
    state_.erase(t.epoch);
    purged_epoch_->store(std::max(purged_epoch_->load(), t.epoch));
  }

 private:
  std::map<uint64_t, size_t> state_;
  std::atomic<uint64_t>* purged_epoch_;
  std::atomic<uint64_t>* seen_epoch_;
};

// The final forced purge drain lives in Controller::Stop, which both runtime stacks
// reach: a standalone Controller (private host pool) and a 2-process cluster (each job
// attached to its process's shared pool).
enum class Runtime { kStandalone, kCluster };

const char* RuntimeName(Runtime r) {
  return r == Runtime::kStandalone ? "Standalone" : "Cluster";
}
void PrintTo(Runtime r, std::ostream* os) { *os << RuntimeName(r); }

class PurgeRuntimeTest : public ::testing::TestWithParam<Runtime> {
 protected:
  void Run(const std::function<void(Controller&)>& body) {
    if (GetParam() == Runtime::kStandalone) {
      Controller ctl(Config{.workers_per_process = 2});
      body(ctl);
    } else {
      Cluster::Run(ClusterOptions{.processes = 2, .workers_per_process = 2}, body);
    }
  }
};

TEST_P(PurgeRuntimeTest, PurgeNotificationsFireAfterGuaranteeAndDoNotBlock) {
  std::atomic<uint64_t> purged{0};
  std::atomic<uint64_t> seen{0};
  std::atomic<uint64_t> counted{0};
  Run([&](Controller& ctl) {
    GraphBuilder b(ctl);
    auto [in, handle] = NewInput<uint64_t>(b);
    StageId purger = b.NewStage<PurgingVertex>(
        StageOptions{.name = "purger", .parallelism = 1},
        [&](uint32_t) { return std::make_unique<PurgingVertex>(&purged, &seen); });
    b.Connect<PurgingVertex, uint64_t>(in, purger);
    // A second consumer with ordinary notifications: purges must not delay it.
    Subscribe<uint64_t>(Stream<uint64_t>(in), [&](uint64_t, std::vector<uint64_t>& recs) {
      counted.fetch_add(recs.size());
    });
    ctl.Start();
    if (ctl.config().process_id == 0) {  // one producer: the counts match either runtime
      for (uint64_t e = 0; e < 5; ++e) {
        handle->OnNext({e, e, e});
      }
    }
    handle->OnCompleted();
    ctl.Join();
  });
  EXPECT_EQ(counted.load(), 15u);
  EXPECT_EQ(purged.load(), 4u);  // every epoch's state reclaimed by drain time
}

INSTANTIATE_TEST_SUITE_P(Runtimes, PurgeRuntimeTest,
                         ::testing::Values(Runtime::kStandalone, Runtime::kCluster),
                         [](const ::testing::TestParamInfo<Runtime>& info) {
                           return std::string(RuntimeName(info.param));
                         });

// Regression for the §2.4 capability bookkeeping around nested deliveries: a bundle
// delivered re-entrantly inside a purge callback is an ordinary callback (it may send),
// but the enclosing purge must be ⊤-restricted again the moment the nested delivery
// returns — RunNested used to save/restore the time context but not in_purge_.
class PurgeProbeItem final : public WorkItemBase {
 public:
  PurgeProbeItem(Worker* w, std::atomic<int>* in_purge_inside)
      : WorkItemBase(0, Timestamp(0), 0, nullptr), w_(w), inside_(in_purge_inside) {}
  void Run() override { inside_->store(w_->in_purge() ? 1 : 0); }

 private:
  Worker* w_;
  std::atomic<int>* inside_;
};

class NestedDuringPurgeVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  NestedDuringPurgeVertex(std::atomic<int>* inside, std::atomic<int>* after)
      : inside_(inside), after_(after) {}

  void OnRecv(const Timestamp& t, std::vector<uint64_t>&) override { PurgeAt(t); }

  void OnNotify(const Timestamp&) override {
    // Purge callback: drive a nested delivery through the worker, exactly as a
    // re-entrant route (stage.h) would.
    worker().RunNested(std::make_unique<PurgeProbeItem>(&worker(), inside_));
    after_->store(worker().in_purge() ? 1 : 0);
  }

 private:
  std::atomic<int>* inside_;
  std::atomic<int>* after_;
};

TEST(RuntimeTest, NestedDeliveryDuringPurgeRestoresCapability) {
  Controller ctl(Config{.workers_per_process = 1});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  std::atomic<int> inside{-1};
  std::atomic<int> after{-1};
  StageId purger = b.NewStage<NestedDuringPurgeVertex>(
      StageOptions{.name = "nestedpurge", .parallelism = 1},
      [&](uint32_t) { return std::make_unique<NestedDuringPurgeVertex>(&inside, &after); });
  b.Connect<NestedDuringPurgeVertex, uint64_t>(in, purger);
  ctl.Start();
  handle->OnNext({1});
  handle->OnCompleted();
  ctl.Join();
  // The nested delivery ran with the item's own capability, not the purge's ⊤...
  EXPECT_EQ(inside.load(), 0);
  // ...and the purge restriction came back once it returned (the predicate NotifyAt and
  // CheckNotPast consult).
  EXPECT_EQ(after.load(), 1);
}

TEST(RuntimeTest, ManyWorkersManyEpochsDrainCleanly) {
  Controller ctl(Config{.workers_per_process = 8});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  StageId map = b.NewStage<DoubleVertex>(StageOptions{.name = "double"}, [](uint32_t) {
    return std::make_unique<DoubleVertex>();
  });
  b.Connect<DoubleVertex, uint64_t>(in, map, 0, [](const uint64_t& x) { return x; });
  std::atomic<uint64_t> count{0};
  ForEach<uint64_t>(b.OutputOf<uint64_t>(map),
                    [&](const Timestamp&, std::vector<uint64_t>& r) {
                      count.fetch_add(r.size());
                    });
  ctl.Start();
  constexpr int kEpochs = 20;
  for (int e = 0; e < kEpochs; ++e) {
    std::vector<uint64_t> data(100);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint64_t>(e * 1000 + static_cast<int>(i));
    }
    handle->OnNext(std::move(data));
  }
  handle->OnCompleted();
  ctl.Join();
  EXPECT_EQ(count.load(), 100u * kEpochs);
}

// ------------------------------------------------------------------------------------
// Exchange-path batching edge cases: the Outlet's flat per-(route, destination) buffers,
// its single-entry timestamp cache, flush re-entrancy, and fan-out copy accounting.
// ------------------------------------------------------------------------------------

// Forwards records one Send() at a time so the Outlet's auto-batching picks the bundles.
class ForwardVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    for (uint64_t& x : batch) {
      output().Send(t, std::move(x));
    }
  }
};

TEST(RuntimeTest, OutletFlushesAtExactlyBatchSize) {
  Controller ctl(Config{.workers_per_process = 1, .batch_size = 8});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  StageId fwd = b.NewStage<ForwardVertex>(
      StageOptions{.name = "forward", .parallelism = 1},
      [](uint32_t) { return std::make_unique<ForwardVertex>(); });
  b.Connect<ForwardVertex, uint64_t>(in, fwd, 0, [](const uint64_t&) { return 0ul; });
  std::mutex mu;
  std::multiset<size_t> bundle_sizes;
  ForEach<uint64_t>(
      b.OutputOf<uint64_t>(fwd),
      [&](const Timestamp&, std::vector<uint64_t>& r) {
        std::lock_guard<std::mutex> lock(mu);
        bundle_sizes.insert(r.size());
      },
      [](const uint64_t&) { return 0ul; });
  ctl.Start();
  std::vector<uint64_t> data(20);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = i;
  }
  handle->OnNext(std::move(data));
  handle->OnCompleted();
  ctl.Join();
  // 20 records to one destination with batch_size 8: two bundles flush eagerly at
  // exactly the batch size; the remainder flushes at end-of-callback.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(bundle_sizes, (std::multiset<size_t>{4, 8, 8}));
}

// Alternates between two timestamps within one callback. Every switch falls out of the
// Outlet's single-entry timestamp cache and must flush what is buffered; no bundle may
// mix timestamps and no record may be lost.
class AlternatingTimeVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    const Timestamp next(t.epoch + 1);
    for (size_t i = 0; i < batch.size(); ++i) {
      output().Send(i % 2 == 0 ? t : next, batch[i]);
    }
  }
};

TEST(RuntimeTest, OutletInterleavedTimestampsFlushTheCacheAndDeliverAll) {
  Controller ctl(Config{.workers_per_process = 1, .batch_size = 64});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  StageId alt = b.NewStage<AlternatingTimeVertex>(
      StageOptions{.name = "alternate", .parallelism = 1},
      [](uint32_t) { return std::make_unique<AlternatingTimeVertex>(); });
  b.Connect<AlternatingTimeVertex, uint64_t>(in, alt, 0,
                                             [](const uint64_t&) { return 0ul; });
  std::mutex mu;
  std::map<uint64_t, size_t> per_epoch;
  size_t bundles = 0;
  ForEach<uint64_t>(
      b.OutputOf<uint64_t>(alt),
      [&](const Timestamp& t, std::vector<uint64_t>& r) {
        std::lock_guard<std::mutex> lock(mu);
        per_epoch[t.epoch] += r.size();
        ++bundles;
      },
      [](const uint64_t&) { return 0ul; });
  ctl.Start();
  std::vector<uint64_t> data(10);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = i;
  }
  handle->OnNext(std::move(data));
  handle->OnCompleted();
  ctl.Join();
  std::lock_guard<std::mutex> lock(mu);
  // Each of the 10 sends switches timestamp, so each flushes the single buffered record:
  // 10 bundles of one record, alternating between epoch 0 and epoch 1.
  EXPECT_EQ(per_epoch[0], 5u);
  EXPECT_EQ(per_epoch[1], 5u);
  EXPECT_EQ(bundles, 10u);
}

// Re-enters OnRecv from inside an explicit Flush() while the other output still holds
// buffered records; the detach-before-route flush must neither lose nor duplicate them.
class ReentrantEmitVertex final : public Unary2Vertex<uint64_t, uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    for (uint64_t x : batch) {
      output2().Send(t, x);  // stays buffered across the re-entrant frames below
      if (x > 0) {
        output1().Send(t, x - 1);
        output1().Flush();  // possibly re-enters OnRecv with x - 1
      }
    }
  }
};

TEST(RuntimeTest, OutletReentrantSendsDuringFlushKeepEveryRecord) {
  Controller ctl(Config{.workers_per_process = 1});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  LoopContext loop(b, 0);
  FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>();
  Stream<uint64_t> entered = loop.Ingress<uint64_t>(in);
  StageId body = b.NewStage<ReentrantEmitVertex>(
      StageOptions{.name = "reemit", .depth = 1, .parallelism = 1, .reentrancy = 8},
      [](uint32_t) { return std::make_unique<ReentrantEmitVertex>(); });
  b.Connect<ReentrantEmitVertex, uint64_t>(entered, body);
  b.Connect<ReentrantEmitVertex, uint64_t>(fb.stream(), body);
  fb.ConnectLoop(b.OutputOf<uint64_t>(body, 0));
  Stream<uint64_t> done = loop.Egress<uint64_t>(b.OutputOf<uint64_t>(body, 1));

  std::mutex mu;
  std::multiset<uint64_t> emitted;
  Subscribe<uint64_t>(done, [&](uint64_t, std::vector<uint64_t>& recs) {
    std::lock_guard<std::mutex> lock(mu);
    emitted.insert(recs.begin(), recs.end());
  });

  ctl.Start();
  handle->OnNext({12});
  handle->OnCompleted();
  ctl.Join();
  std::lock_guard<std::mutex> lock(mu);
  std::multiset<uint64_t> expect;
  for (uint64_t v = 0; v <= 12; ++v) {
    expect.insert(v);
  }
  EXPECT_EQ(emitted, expect);
}

TEST(RuntimeTest, OutletMultiRouteFanoutDeliversFullCountToEveryRoute) {
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  StageId fwd = b.NewStage<ForwardVertex>(
      StageOptions{.name = "forward"},
      [](uint32_t) { return std::make_unique<ForwardVertex>(); });
  b.Connect<ForwardVertex, uint64_t>(in, fwd, 0, [](const uint64_t& x) { return x; });
  constexpr int kSinks = 3;
  std::atomic<uint64_t> counts[kSinks] = {};
  std::atomic<uint64_t> sums[kSinks] = {};
  for (int s = 0; s < kSinks; ++s) {
    ForEach<uint64_t>(
        b.OutputOf<uint64_t>(fwd),
        [&, s](const Timestamp&, std::vector<uint64_t>& r) {
          counts[s].fetch_add(r.size());
          for (uint64_t v : r) {
            sums[s].fetch_add(v);
          }
        },
        [](const uint64_t& x) { return x; });
  }
  ctl.Start();
  constexpr uint64_t kRecords = 100;
  std::vector<uint64_t> data(kRecords);
  uint64_t expect_sum = 0;
  for (uint64_t i = 0; i < kRecords; ++i) {
    data[i] = i;
    expect_sum += i;
  }
  handle->OnNext(std::move(data));
  handle->OnCompleted();
  ctl.Join();
  for (int s = 0; s < kSinks; ++s) {
    EXPECT_EQ(counts[s].load(), kRecords) << "sink " << s;
    EXPECT_EQ(sums[s].load(), expect_sum) << "sink " << s;
  }
}

// A record type that counts copy-constructions (moves are free), to pin down the
// move-into-last-connector contract of both fan-out paths.
struct CountedRec {
  uint64_t key = 0;
  static std::atomic<uint64_t> copies;

  CountedRec() = default;
  explicit CountedRec(uint64_t k) : key(k) {}
  CountedRec(const CountedRec& o) : key(o.key) {
    copies.fetch_add(1, std::memory_order_relaxed);
  }
  CountedRec& operator=(const CountedRec& o) {
    key = o.key;
    copies.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  CountedRec(CountedRec&&) noexcept = default;
  CountedRec& operator=(CountedRec&&) noexcept = default;
};
std::atomic<uint64_t> CountedRec::copies{0};

// InputHandle::OnNext fans one epoch out to two consumers: the first connector must get
// a copy of each record, the last must be fed by moves — exactly n copy-constructions.
TEST(RuntimeTest, InputFanoutCopiesOncePerExtraConnectorAndMovesIntoLast) {
  Controller ctl(Config{.workers_per_process = 1});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<CountedRec>(b);
  std::atomic<uint64_t> seen[2] = {};
  for (int s = 0; s < 2; ++s) {
    ForEach<CountedRec>(
        in,
        [&, s](const Timestamp&, std::vector<CountedRec>& r) {
          seen[s].fetch_add(r.size());
        },
        [](const CountedRec& rec) { return rec.key; });
  }
  ctl.Start();
  constexpr uint64_t kRecords = 64;
  std::vector<CountedRec> data;
  data.reserve(kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    data.emplace_back(i);
  }
  CountedRec::copies.store(0);
  handle->OnNext(std::move(data));
  handle->OnCompleted();
  ctl.Join();
  EXPECT_EQ(seen[0].load(), kRecords);
  EXPECT_EQ(seen[1].load(), kRecords);
  // One copy per record for the non-last connector; bucketing and delivery only move.
  EXPECT_EQ(CountedRec::copies.load(), kRecords);
}

// Same contract inside the Outlet: with two routes, Send() copies the record into every
// route but the last, which is fed by the move.
class CountedForwardVertex final : public UnaryVertex<CountedRec, CountedRec> {
 public:
  void OnRecv(const Timestamp& t, std::vector<CountedRec>& batch) override {
    for (CountedRec& r : batch) {
      output().Send(t, std::move(r));
    }
  }
};

TEST(RuntimeTest, OutletFanoutCopiesOncePerExtraRouteAndMovesIntoLast) {
  Controller ctl(Config{.workers_per_process = 1});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<CountedRec>(b);
  StageId fwd = b.NewStage<CountedForwardVertex>(
      StageOptions{.name = "forward", .parallelism = 1},
      [](uint32_t) { return std::make_unique<CountedForwardVertex>(); });
  b.Connect<CountedForwardVertex, CountedRec>(
      in, fwd, 0, [](const CountedRec& r) { return r.key; });
  std::atomic<uint64_t> seen[2] = {};
  for (int s = 0; s < 2; ++s) {
    ForEach<CountedRec>(
        b.OutputOf<CountedRec>(fwd),
        [&, s](const Timestamp&, std::vector<CountedRec>& r) {
          seen[s].fetch_add(r.size());
        },
        [](const CountedRec& rec) { return rec.key; });
  }
  ctl.Start();
  constexpr uint64_t kRecords = 64;
  std::vector<CountedRec> data;
  data.reserve(kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    data.emplace_back(i);
  }
  CountedRec::copies.store(0);
  handle->OnNext(std::move(data));
  handle->OnCompleted();
  ctl.Join();
  EXPECT_EQ(seen[0].load(), kRecords);
  EXPECT_EQ(seen[1].load(), kRecords);
  // The single-connector input path moves; the two-route Outlet fan-out copies exactly
  // once per record (for route 0) and moves into route 1.
  EXPECT_EQ(CountedRec::copies.load(), kRecords);
}

// ------------------------------------------------------------------------------------
// SendBatch routing: a batch whose records all map to one destination with nothing
// buffered moves whole; every other batch is bucketed record by record.
// ------------------------------------------------------------------------------------

// Same as CountedForwardVertex, but forwards the batch with one SendBatch.
class CountedBatchForwardVertex final : public UnaryVertex<CountedRec, CountedRec> {
 public:
  void OnRecv(const Timestamp& t, std::vector<CountedRec>& batch) override {
    output().SendBatch(t, std::move(batch));
  }
};

TEST(RuntimeTest, OutletBatchFanoutCopiesOncePerExtraRouteAndMovesIntoLast) {
  Controller ctl(Config{.workers_per_process = 1});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<CountedRec>(b);
  StageId fwd = b.NewStage<CountedBatchForwardVertex>(
      StageOptions{.name = "forward", .parallelism = 1},
      [](uint32_t) { return std::make_unique<CountedBatchForwardVertex>(); });
  b.Connect<CountedBatchForwardVertex, CountedRec>(
      in, fwd, 0, [](const CountedRec& r) { return r.key; });
  std::atomic<uint64_t> seen[2] = {};
  for (int s = 0; s < 2; ++s) {
    ForEach<CountedRec>(
        b.OutputOf<CountedRec>(fwd),
        [&, s](const Timestamp&, std::vector<CountedRec>& r) {
          seen[s].fetch_add(r.size());
        },
        [](const CountedRec& rec) { return rec.key; });
  }
  ctl.Start();
  constexpr uint64_t kRecords = 64;
  std::vector<CountedRec> data;
  data.reserve(kRecords);
  for (uint64_t i = 0; i < kRecords; ++i) {
    data.emplace_back(i);
  }
  CountedRec::copies.store(0);
  handle->OnNext(std::move(data));
  handle->OnCompleted();
  ctl.Join();
  EXPECT_EQ(seen[0].load(), kRecords);
  EXPECT_EQ(seen[1].load(), kRecords);
  // Route 0 gets one copy of the batch, route 1 the batch itself.
  EXPECT_EQ(CountedRec::copies.load(), kRecords);
}

// One bundle as a RecordingSink vertex saw it.
struct SeenBundle {
  uint32_t vertex = 0;
  const CountedRec* data = nullptr;
  std::vector<uint64_t> keys;
};

class RecordingSink final : public SinkVertex<CountedRec> {
 public:
  RecordingSink(uint32_t index, std::mutex* mu, std::vector<SeenBundle>* log)
      : index_(index), mu_(mu), log_(log) {}
  void OnRecv(const Timestamp&, std::vector<CountedRec>& batch) override {
    SeenBundle seen{index_, batch.data(), {}};
    for (const CountedRec& r : batch) {
      seen.keys.push_back(r.key);
    }
    std::lock_guard<std::mutex> lock(*mu_);
    log_->push_back(std::move(seen));
  }

 private:
  uint32_t index_;
  std::mutex* mu_;
  std::vector<SeenBundle>* log_;
};

// On its one input record, Send()s `sends` one at a time and then SendBatch()es `batch`,
// all at the input's time, and remembers where the batch's buffer lived.
class BatchEmitVertex final : public UnaryVertex<uint64_t, CountedRec> {
 public:
  BatchEmitVertex(std::vector<uint64_t> sends, std::vector<uint64_t> batch,
                  const CountedRec** sent)
      : sends_(std::move(sends)), batch_(std::move(batch)), sent_(sent) {}
  void OnRecv(const Timestamp& t, std::vector<uint64_t>&) override {
    for (uint64_t k : sends_) {
      output().Send(t, CountedRec(k));
    }
    std::vector<CountedRec> out;
    for (uint64_t k : batch_) {
      out.emplace_back(k);
    }
    *sent_ = out.data();
    output().SendBatch(t, std::move(out));
  }

 private:
  std::vector<uint64_t> sends_;
  std::vector<uint64_t> batch_;
  const CountedRec** sent_;
};

// One worker, batch_size 8: input → emit (parallelism 1) → RecordingSink (parallelism 4,
// routed by key, so destination = key % 4). Returns the bundles in delivery order and the
// record copies made after the input was handed over.
struct EmitRun {
  std::vector<SeenBundle> bundles;
  const CountedRec* sent = nullptr;
  uint64_t copies = 0;
};

EmitRun RunEmit(std::vector<uint64_t> sends, std::vector<uint64_t> batch) {
  EmitRun run;
  std::mutex mu;
  Controller ctl(Config{.workers_per_process = 1, .batch_size = 8});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  StageId emit = b.NewStage<BatchEmitVertex>(
      StageOptions{.name = "emit", .parallelism = 1}, [&](uint32_t) {
        return std::make_unique<BatchEmitVertex>(sends, batch, &run.sent);
      });
  b.Connect<BatchEmitVertex, uint64_t>(in, emit);
  StageId sink = b.NewStage<RecordingSink>(
      StageOptions{.name = "sink", .parallelism = 4}, [&](uint32_t index) {
        return std::make_unique<RecordingSink>(index, &mu, &run.bundles);
      });
  b.Connect<RecordingSink, CountedRec>(b.OutputOf<CountedRec>(emit), sink, 0,
                                       [](const CountedRec& r) { return r.key; });
  ctl.Start();
  CountedRec::copies.store(0);
  handle->OnNext({0});
  handle->OnCompleted();
  ctl.Join();
  run.copies = CountedRec::copies.load();
  return run;
}

TEST(RuntimeTest, OutletMovesSingleDestinationBatchWhole) {
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < 20; ++i) {
    batch.push_back(4 * i + 2);  // all for vertex 2; larger than batch_size 8
  }
  EmitRun run = RunEmit({}, batch);
  ASSERT_EQ(run.bundles.size(), 1u);
  EXPECT_EQ(run.bundles[0].vertex, 2u);
  EXPECT_EQ(run.bundles[0].data, run.sent);  // the very buffer that was sent
  EXPECT_EQ(run.bundles[0].keys, batch);
  EXPECT_EQ(run.copies, 0u);
}

TEST(RuntimeTest, OutletBatchAfterBufferedSendsKeepsSendOrder) {
  // Vertex 2 already buffers two Send()s at the batch's time, so the batch cannot move
  // ahead of them: it is appended behind them instead.
  EmitRun run = RunEmit({2, 6}, {10, 14, 18});
  std::vector<uint64_t> at2;
  for (const SeenBundle& seen : run.bundles) {
    EXPECT_EQ(seen.vertex, 2u);
    at2.insert(at2.end(), seen.keys.begin(), seen.keys.end());
  }
  EXPECT_EQ(at2, (std::vector<uint64_t>{2, 6, 10, 14, 18}));
}

TEST(RuntimeTest, OutletMixedBatchKeepsPerDestinationOrderAndBatchSize) {
  constexpr uint64_t kRecords = 50;
  std::vector<uint64_t> batch;
  for (uint64_t i = 0; i < kRecords; ++i) {
    batch.push_back(i);
  }
  EmitRun run = RunEmit({}, batch);
  std::map<uint32_t, std::vector<uint64_t>> per_vertex;
  for (const SeenBundle& seen : run.bundles) {
    EXPECT_LE(seen.keys.size(), 8u);
    per_vertex[seen.vertex].insert(per_vertex[seen.vertex].end(), seen.keys.begin(),
                                   seen.keys.end());
  }
  ASSERT_EQ(per_vertex.size(), 4u);
  for (const auto& [vertex, keys] : per_vertex) {
    std::vector<uint64_t> expect;
    for (uint64_t k = vertex; k < kRecords; k += 4) {
      expect.push_back(k);
    }
    EXPECT_EQ(keys, expect) << "vertex " << vertex;
  }
}

// Counts what arrives per loop counter, then forwards the batch whole.
class IterationCountVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  IterationCountVertex(std::mutex* mu, std::map<uint64_t, size_t>* per_iter)
      : mu_(mu), per_iter_(per_iter) {}
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    {
      std::lock_guard<std::mutex> lock(*mu_);
      (*per_iter_)[t.coords.back()] += batch.size();
    }
    output().SendBatch(t, std::move(batch));
  }

 private:
  std::mutex* mu_;
  std::map<uint64_t, size_t>* per_iter_;
};

TEST(RuntimeTest, OutletFeedbackLimitDropsABatchThatWouldMoveWhole) {
  constexpr uint64_t kLimit = 3;
  std::mutex mu;
  std::map<uint64_t, size_t> per_iter;
  Controller ctl(Config{.workers_per_process = 1, .batch_size = 8});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  LoopContext loop(b, 0);
  FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>(kLimit);
  Stream<uint64_t> entered = loop.Ingress<uint64_t>(in);
  StageId body = b.NewStage<IterationCountVertex>(
      StageOptions{.name = "count", .depth = 1, .parallelism = 1}, [&](uint32_t) {
        return std::make_unique<IterationCountVertex>(&mu, &per_iter);
      });
  b.Connect<IterationCountVertex, uint64_t>(entered, body);
  b.Connect<IterationCountVertex, uint64_t>(fb.stream(), body);
  // One feedback vertex: every batch it forwards has a single destination.
  fb.ConnectLoop(b.OutputOf<uint64_t>(body));
  ctl.Start();
  std::vector<uint64_t> data(20);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = i;
  }
  handle->OnNext(std::move(data));
  handle->OnCompleted();
  ctl.Join();
  std::lock_guard<std::mutex> lock(mu);
  // Loop counters 0..kLimit-1 see every record; the batch at kLimit is dropped.
  EXPECT_EQ(per_iter, (std::map<uint64_t, size_t>{{0, 20}, {1, 20}, {2, 20}}));
}

}  // namespace
}  // namespace naiad
