// Tests for the multi-tenant job server: dynamic registration on a live cluster,
// concurrent jobs on shared workers and links, isolated teardown, and the demux's
// stray-frame discipline.
//
// The seeded sweep registers several jobs at randomized times, tears a seed-chosen
// victim down mid-run, and requires every surviving job's output to be identical to a
// solo run of the same job — for every seed. Reproduction: `multi_job_test --seed=N`
// re-runs the sweep body for seed N alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "src/core/io.h"
#include "src/core/loop.h"
#include "src/core/stage.h"
#include "src/net/cluster.h"
#include "src/net/job_server.h"
#include "src/net/transport.h"

namespace naiad {
namespace {

std::optional<uint64_t> g_seed_override;

constexpr uint32_t kProcesses = 2;
constexpr uint32_t kWorkers = 2;
constexpr uint64_t kEpochs = 3;
constexpr uint64_t kRecordsPerEpoch = 400;
constexpr uint64_t kKeys = 37;

ClusterOptions ServerOptions() {
  ClusterOptions opts;
  opts.processes = kProcesses;
  opts.workers_per_process = kWorkers;
  opts.batch_size = 64;  // small batches => many frames => many demux decisions
  // Observability on (no trace file): the sweep doubles as the TSan proof that the
  // per-job metrics/tracing paths are race-free under concurrent registration.
  opts.obs = {.metrics = true, .tracing = true};
  return opts;
}

// Deterministic per-job record stream: `salt` separates the jobs' key streams so any
// cross-job frame leak would corrupt a count.
uint64_t Record(uint64_t salt, uint32_t pid, uint64_t epoch, uint64_t i) {
  return (salt * 131 + pid * 977 + epoch * 31 + i) % kKeys;
}

std::map<uint64_t, uint64_t> ExpectedCounts(uint64_t salt, uint64_t epochs) {
  std::map<uint64_t, uint64_t> want;
  for (uint32_t pid = 0; pid < kProcesses; ++pid) {
    for (uint64_t e = 0; e < epochs; ++e) {
      for (uint64_t i = 0; i < kRecordsPerEpoch; ++i) {
        ++want[Record(salt, pid, e, i)];
      }
    }
  }
  return want;
}

class CountPerKeyVertex final : public UnaryVertex<uint64_t, std::pair<uint64_t, uint64_t>> {
 public:
  explicit CountPerKeyVertex(std::atomic<uint64_t>* notified = nullptr)
      : notified_(notified) {}
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    auto [it, fresh] = counts_.try_emplace(t);
    if (fresh) {
      NotifyAt(t);
    }
    for (uint64_t k : batch) {
      ++it->second[k];
    }
  }
  void OnNotify(const Timestamp& t) override {
    if (notified_ != nullptr) {
      notified_->fetch_add(1, std::memory_order_relaxed);
    }
    for (auto [k, n] : counts_[t]) {
      output().Send(t, {k, n});
    }
    counts_.erase(t);
  }

 private:
  std::atomic<uint64_t>* notified_;
  std::map<Timestamp, std::map<uint64_t, uint64_t>> counts_;
};

struct JobResult {
  std::mutex mu;
  std::map<uint64_t, uint64_t> counts;
};

// Builds the keyed-count dataflow on `ctl` and returns the input handle; records land in
// `out`, and each count vertex's notifications are tallied in `notified` when it is set.
// The exchange partitions by key, so every job continuously crosses the shared process
// links.
InputHandle<uint64_t>* BuildCountGraph(Controller& ctl, GraphBuilder& b, JobResult* out,
                                       std::atomic<uint64_t>* notified = nullptr) {
  auto [in, handle] = NewInput<uint64_t>(b);
  StageId count = b.NewStage<CountPerKeyVertex>(
      StageOptions{.name = "count"},
      [notified](uint32_t) { return std::make_unique<CountPerKeyVertex>(notified); });
  b.Connect<CountPerKeyVertex, uint64_t>(in, count, 0,
                                         [](const uint64_t& k) { return k; });
  Subscribe<std::pair<uint64_t, uint64_t>>(
      b.OutputOf<std::pair<uint64_t, uint64_t>>(count),
      [out](uint64_t, std::vector<std::pair<uint64_t, uint64_t>>& recs) {
        std::lock_guard<std::mutex> lock(out->mu);
        for (auto [k, n] : recs) {
          out->counts[k] += n;
        }
      });
  return handle.get();  // kept alive by the controller (KeepAlive in NewInput)
}

// A finite job: feed kEpochs epochs, close, drain.
JobServer::Body CountBody(uint64_t salt, JobResult* out) {
  return [salt, out](Controller& ctl) {
    GraphBuilder b(ctl);
    InputHandle<uint64_t>* handle = BuildCountGraph(ctl, b, out);
    ctl.Start();
    const uint32_t pid = ctl.config().process_id;
    for (uint64_t e = 0; e < kEpochs; ++e) {
      std::vector<uint64_t> data;
      for (uint64_t i = 0; i < kRecordsPerEpoch; ++i) {
        data.push_back(Record(salt, pid, e, i));
      }
      handle->OnNext(std::move(data));
    }
    handle->OnCompleted();
    ctl.Join();
  };
}

// A long-running, cancellation-aware job: feeds epochs until torn down (or a generous
// cap, so a seed that tears down late still terminates). Join() returns via cancelled().
JobServer::Body VictimBody(uint64_t salt, JobResult* out) {
  return [salt, out](Controller& ctl) {
    GraphBuilder b(ctl);
    InputHandle<uint64_t>* handle = BuildCountGraph(ctl, b, out);
    ctl.Start();
    const uint32_t pid = ctl.config().process_id;
    for (uint64_t e = 0; e < 500 && !ctl.cancelled(); ++e) {
      std::vector<uint64_t> data;
      for (uint64_t i = 0; i < kRecordsPerEpoch; ++i) {
        data.push_back(Record(salt, pid, e, i));
      }
      handle->OnNext(std::move(data));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    handle->OnCompleted();
    ctl.Join();
  };
}

const ClusterStats::JobStats* FindJob(const ClusterStats& stats, JobId id) {
  for (const auto& j : stats.jobs) {
    if (j.job == id) {
      return &j;
    }
  }
  return nullptr;
}

// Two jobs registered at different times genuinely overlap: job 1's process-0 driver
// refuses to close its input until job 2's body is live, so both completing proves the
// shared hosts ran them concurrently (a serial server would deadlock here).
TEST(JobServerTest, JobsRegisteredAtDifferentTimesRunConcurrently) {
  JobServer server(ServerOptions());
  server.Start();
  JobResult r1, r2;
  std::atomic<bool> second_live{false};

  const JobId j1 = server.Submit([&](Controller& ctl) {
    GraphBuilder b(ctl);
    InputHandle<uint64_t>* handle = BuildCountGraph(ctl, b, &r1);
    ctl.Start();
    const uint32_t pid = ctl.config().process_id;
    for (uint64_t e = 0; e < kEpochs; ++e) {
      std::vector<uint64_t> data;
      for (uint64_t i = 0; i < kRecordsPerEpoch; ++i) {
        data.push_back(Record(1, pid, e, i));
      }
      handle->OnNext(std::move(data));
    }
    if (pid == 0) {
      while (!second_live.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    handle->OnCompleted();
    ctl.Join();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const JobId j2 = server.Submit([&](Controller& ctl) {
    second_live.store(true, std::memory_order_release);
    CountBody(2, &r2)(ctl);
  });
  ASSERT_NE(j1, j2);

  server.Wait(j1);
  server.Wait(j2);
  const ClusterStats stats = server.Stop();

  EXPECT_EQ(r1.counts, ExpectedCounts(1, kEpochs));
  EXPECT_EQ(r2.counts, ExpectedCounts(2, kEpochs));
  ASSERT_EQ(stats.jobs.size(), 2u);
  for (JobId id : {j1, j2}) {
    const auto* js = FindJob(stats, id);
    ASSERT_NE(js, nullptr);
    EXPECT_GT(js->data_frames, 0u) << "job " << id << " never crossed the wire";
    EXPECT_FALSE(js->torn_down);
  }
  EXPECT_EQ(stats.stray_frames_dropped, 0u);
  EXPECT_EQ(stats.stash_overflow_drops, 0u);
}

// Regression for the completion latch: ClusterControl's finished_ flag used to be
// effectively server-global, so the first job's termination verdict left the control
// plane considering everything finished and a job registered afterwards hung in its
// barrier. Registration after a completed job must work indefinitely.
TEST(JobServerTest, JobRegistersAndRunsAfterPreviousJobFinished) {
  JobServer server(ServerOptions());
  server.Start();
  JobResult r1, r2, r3;
  const JobId j1 = server.Submit(CountBody(7, &r1));
  server.Wait(j1);
  EXPECT_EQ(r1.counts, ExpectedCounts(7, kEpochs));

  const JobId j2 = server.Submit(CountBody(8, &r2));
  server.Wait(j2);
  EXPECT_EQ(r2.counts, ExpectedCounts(8, kEpochs));

  const JobId j3 = server.Submit(CountBody(9, &r3));
  server.Wait(j3);
  const ClusterStats stats = server.Stop();
  EXPECT_EQ(r3.counts, ExpectedCounts(9, kEpochs));
  ASSERT_EQ(stats.jobs.size(), 3u);
  for (const auto& js : stats.jobs) {
    EXPECT_FALSE(js.torn_down);
  }
}

// Stray-frame regression: frames addressed to a torn-down job, or to a job id no
// registration ever allocated, are dropped deterministically — counted, and the server
// keeps serving new jobs afterwards.
TEST(JobServerTest, FramesForRetiredAndUnknownJobsAreDroppedAndCounted) {
  JobServer server(ServerOptions());
  server.Start();
  JobResult r1, r2;
  const JobId j1 = server.Submit(CountBody(3, &r1));
  server.Wait(j1);

  // A late frame for the retired job, injected raw at the transport layer (the shape a
  // slow peer's post-verdict straggler takes), and one for a never-allocated id.
  ByteWriter w1;
  w1.WriteU32(42);
  server.transport(1).Send(0, FrameType::kData, std::move(w1.buffer()), j1);
  ByteWriter w2;
  w2.WriteU32(43);
  server.transport(1).Send(0, FrameType::kData, std::move(w2.buffer()), 9999);

  // The drops are isolated: a job registered afterwards runs to completion.
  const JobId j2 = server.Submit(CountBody(4, &r2));
  server.Wait(j2);
  // No polling needed: both strays went onto link 1→0 before j2 existed, and process 1's
  // termination reports for j2 travel behind them on the same per-link FIFO. Process 0's
  // verdict needs those reports, so once j2 has retired everywhere both strays have been
  // dispatched — and counted.
  EXPECT_GE(server.stray_frames_dropped(), 2u);
  const ClusterStats stats = server.Stop();
  EXPECT_EQ(r2.counts, ExpectedCounts(4, kEpochs));
  EXPECT_GE(stats.stray_frames_dropped, 2u);
}

// Fig. 6b's empty notification loop: every vertex asks to be notified at the next
// iteration until `iters`. Vertex 0 (process 0, worker 0) stamps each iteration's end.
class BarrierVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  BarrierVertex(uint64_t iters, std::vector<std::chrono::steady_clock::time_point>* marks)
      : iters_(iters), marks_(marks) {}
  void OnRecv(const Timestamp&, std::vector<uint64_t>&) override {}
  void OnNotify(const Timestamp& t) override {
    if (marks_ != nullptr) {
      marks_->push_back(std::chrono::steady_clock::now());
    }
    if (t.coords.back() + 1 < iters_) {
      NotifyAt(t.Incremented());
    }
  }

 private:
  uint64_t iters_;
  std::vector<std::chrono::steady_clock::time_point>* marks_;
};

// Regression for the lost cross-process wakeup. Under the default Local+GlobalAcc
// strategy, process 1's flush reaches process 0's central accumulator, which usually holds
// it (the next iteration's +1 is already active there). Nothing woke process 0's parked
// hosts, so each iteration waited out the hosts' idle timeout. With the production
// kIdleBackstop (20 ms) a lost edge costs >= 20 ms per iteration, so a median under 5 ms
// holds only if the wakeup is event-driven — with margin for sanitizer builds.
TEST(JobServerBarrier, CrossProcessWakeupIsEventDriven) {
  constexpr uint64_t kIters = 300;
  ClusterOptions opts;
  opts.processes = kProcesses;
  opts.workers_per_process = kWorkers;
  opts.obs = {.metrics = true};
  JobServer server(opts);
  server.Start();
  std::vector<std::chrono::steady_clock::time_point> marks;
  marks.reserve(kIters);
  const JobId id = server.Submit([&](Controller& ctl) {
    GraphBuilder b(ctl);
    auto [in, handle] = NewInput<uint64_t>(b);
    LoopContext loop(b, 0, "barrier");
    FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>();
    Stream<uint64_t> entered = loop.Ingress<uint64_t>(in);
    StageId barrier = b.NewStage<BarrierVertex>(
        StageOptions{.name = "barrier",
                     .depth = 1,
                     .initial_notifications = {Timestamp(0, {0})}},
        [&](uint32_t index) {
          return std::make_unique<BarrierVertex>(kIters, index == 0 ? &marks : nullptr);
        });
    b.Connect<BarrierVertex, uint64_t>(entered, barrier);
    b.Connect<BarrierVertex, uint64_t>(fb.stream(), barrier);
    fb.ConnectLoop(b.OutputOf<uint64_t>(barrier));
    ctl.Start();
    handle->OnCompleted();
    ctl.Join();
  });
  server.Wait(id);
  const ClusterStats stats = server.Stop();

  ASSERT_EQ(marks.size(), kIters);
  std::vector<double> iteration_us;
  for (size_t i = 1; i < marks.size(); ++i) {
    iteration_us.push_back(
        std::chrono::duration<double, std::micro>(marks[i] - marks[i - 1]).count());
  }
  std::nth_element(iteration_us.begin(), iteration_us.begin() + iteration_us.size() / 2,
                   iteration_us.end());
  const double median_us = iteration_us[iteration_us.size() / 2];
  EXPECT_LT(median_us, 5000.0) << "cross-process barrier iterations ride the idle backstop";
  // The backstop counter names the same failure directly: with a live job, every expiry
  // is a host that slept through work (or had none for 20 ms, which this loop never does).
  EXPECT_LE(stats.obs.counter("idle_backstop_expiries"), 5u);
  // Join parks on the tracker's drained edge, which fires on the final drain (plus any
  // updates stashed before a process's graph froze), never once per iteration.
  EXPECT_LE(stats.obs.counter("progress_drained_notifies"), 4u * kProcesses);
}

// Regression: PauseAndDrain on a job-server job used to wait forever, because the shared
// hosts never parked a paused job's workers. Job A pauses mid-stream on every process and
// feeds one more epoch while paused; job B then runs to completion on the same hosts.
// While A is paused its messages run but none of its notifications fire. The scenario
// runs under a watchdog so a regression fails the test instead of hanging it.
TEST(JobServerPause, PauseAndDrainParksOneJobOnly) {
  JobServer server(ServerOptions());
  server.Start();
  JobResult ra, rb;
  std::atomic<uint64_t> notified[kProcesses] = {};
  std::atomic<uint32_t> paused{0};
  std::atomic<bool> b_done{false};
  std::atomic<bool> quiet_while_paused{true};
  const auto body_a = [&](Controller& ctl) {
    GraphBuilder b(ctl);
    const uint32_t pid = ctl.config().process_id;
    InputHandle<uint64_t>* handle = BuildCountGraph(ctl, b, &ra, &notified[pid]);
    ctl.Start();
    const auto feed = [&](uint64_t e) {
      std::vector<uint64_t> data;
      for (uint64_t i = 0; i < kRecordsPerEpoch; ++i) {
        data.push_back(Record(5, pid, e, i));
      }
      handle->OnNext(std::move(data));
    };
    feed(0);
    ctl.PauseAndDrain();
    const uint64_t before = notified[pid].load();
    // The paused workers run these messages. Once every process has fed epoch 1 it is
    // notifiable, but nothing may fire before Resume.
    feed(1);
    paused.fetch_add(1);
    while (!b_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (notified[pid].load() != before) {
      quiet_while_paused.store(false);
    }
    ctl.Resume();
    for (uint64_t e = 2; e < kEpochs; ++e) {
      feed(e);
    }
    handle->OnCompleted();
    ctl.Join();
  };

  std::packaged_task<void()> scenario([&] {
    const JobId a = server.Submit(body_a);
    while (paused.load() < kProcesses) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const JobId b = server.Submit(CountBody(6, &rb));
    server.Wait(b);
    b_done.store(true);
    server.Wait(a);
  });
  std::future<void> done = scenario.get_future();
  std::thread runner(std::move(scenario));
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    ADD_FAILURE() << "paused job never parked, or it blocked the other job";
    std::fflush(stdout);
    std::_Exit(1);  // the hung hosts cannot be joined
  }
  runner.join();
  server.Stop();

  EXPECT_TRUE(quiet_while_paused.load()) << "a notification fired while paused";
  EXPECT_EQ(ra.counts, ExpectedCounts(5, kEpochs));
  EXPECT_EQ(rb.counts, ExpectedCounts(6, kEpochs));
  for (uint32_t p = 0; p < kProcesses; ++p) {
    EXPECT_GT(notified[p].load(), 0u) << "process " << p << " never notified";
  }
}

// The seeded sweep: kJobs jobs registered at seed-chosen times, one seed-chosen victim
// torn down mid-run. Every surviving job's counts must equal a solo run's — the
// isolation property under test — for every seed.
void RunMultiJobSweep(uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 0xbf58476d1ce4e5b9ULL);
  constexpr uint32_t kJobs = 3;
  const auto salt = [](uint32_t j) { return uint64_t{11} + 17 * j; };

  JobServer server(ServerOptions());
  server.Start();
  JobResult results[kJobs];
  JobId ids[kJobs] = {};
  const uint32_t victim = static_cast<uint32_t>(rng() % kJobs);
  for (uint32_t j = 0; j < kJobs; ++j) {
    std::this_thread::sleep_for(std::chrono::microseconds(rng() % 3000));
    ids[j] = j == victim ? server.Submit(VictimBody(salt(j), &results[j]))
                         : server.Submit(CountBody(salt(j), &results[j]));
  }
  // Tear the victim down mid-run (its body feeds for ~500 ms; the teardown lands within
  // ~30 ms of its registration).
  std::this_thread::sleep_for(std::chrono::microseconds(rng() % 25000));
  server.Teardown(ids[victim]);
  for (uint32_t j = 0; j < kJobs; ++j) {
    server.Wait(ids[j]);
  }
  const ClusterStats stats = server.Stop();

  for (uint32_t j = 0; j < kJobs; ++j) {
    if (j == victim) {
      continue;
    }
    std::lock_guard<std::mutex> lock(results[j].mu);
    EXPECT_EQ(results[j].counts, ExpectedCounts(salt(j), kEpochs))
        << "seed " << seed << " job " << j << " diverged from its solo run";
  }
  const auto* vs = FindJob(stats, ids[victim]);
  ASSERT_NE(vs, nullptr) << "seed " << seed;
  EXPECT_TRUE(vs->torn_down) << "seed " << seed;
  EXPECT_EQ(stats.jobs.size(), size_t{kJobs}) << "seed " << seed;
  EXPECT_EQ(stats.duplicate_frames_dropped, 0u) << "seed " << seed;
}

// The solo-run baseline the sweep's expectation stands in for: a lone job on a fresh
// server produces exactly ExpectedCounts, so "equal to ExpectedCounts" in the sweep is
// "byte-identical to the solo run".
TEST(JobServerSweep, SoloRunMatchesExpectedCounts) {
  JobServer server(ServerOptions());
  server.Start();
  JobResult r;
  const JobId id = server.Submit(CountBody(11, &r));
  server.Wait(id);
  server.Stop();
  EXPECT_EQ(r.counts, ExpectedCounts(11, kEpochs));
}

class MultiJobSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiJobSweep, SurvivorsMatchSoloRuns) {
  if (g_seed_override.has_value()) {
    RunMultiJobSweep(*g_seed_override);
    return;
  }
  constexpr uint64_t kSeedsPerShard = 3;
  const uint64_t base = GetParam() * kSeedsPerShard;
  for (uint64_t s = base; s < base + kSeedsPerShard; ++s) {
    SCOPED_TRACE("seed " + std::to_string(s));
    RunMultiJobSweep(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiJobSweep, ::testing::Range(uint64_t{0}, uint64_t{4}),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Shard" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);  // strips gtest flags, leaves ours
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      naiad::g_seed_override = std::strtoull(argv[i] + 7, nullptr, 0);
      std::fprintf(stderr, "multi_job_test: replaying seed %llu only\n",
                   static_cast<unsigned long long>(*naiad::g_seed_override));
    }
  }
  return RUN_ALL_TESTS();
}
