// Fault-tolerance tests (§3.4): checkpoint / restore round-trips, cross-epoch state
// survival, pending-notification recovery, durable checkpoint files, and the logging tap.
// Kill-and-recover with real process death runs in tests/cluster_recovery_test.cc.

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>

#include "src/core/controller.h"
#include "src/core/io.h"
#include "src/ft/checkpoint.h"
#include "src/ft/cluster_recovery.h"
#include "src/ft/log.h"
#include "src/ft/recovery.h"
#include "src/algo/wcc.h"
#include "src/gen/graphs.h"
#include "src/lib/operators.h"

namespace naiad {
namespace {

using KV = std::pair<uint64_t, uint64_t>;

struct MinPipeline {
  Controller ctl;
  std::shared_ptr<InputHandle<KV>> handle;
  Probe probe;
  std::mutex mu;
  std::map<uint64_t, std::multiset<KV>> outputs;

  explicit MinPipeline(uint32_t workers) : ctl(Config{.workers_per_process = workers}) {
    GraphBuilder b(ctl);
    auto [in, h] = NewInput<KV>(b);
    handle = h;
    auto mins = MonotonicAggregate<uint64_t, uint64_t>(
        in,
        [](uint64_t& cur, const uint64_t& cand) {
          if (cand < cur) {
            cur = cand;
            return true;
          }
          return false;
        },
        StateScope::kGlobal);
    probe = Subscribe<KV>(mins, [this](uint64_t e, std::vector<KV>& recs) {
      std::lock_guard<std::mutex> lock(mu);
      outputs[e].insert(recs.begin(), recs.end());
    });
  }
};

TEST(CheckpointTest, GlobalStateSurvivesRestore) {
  std::vector<uint8_t> image;
  {
    MinPipeline p(2);
    p.ctl.Start();
    p.handle->OnNext({{1, 5}, {2, 7}});
    Probe(&p.ctl, 0);  // no-op; wait via tracker below
    p.ctl.tracker().WaitFor([&] {
      return p.ctl.tracker().FrontierPassed({Timestamp(0), Location::Stage(0)});
    });
    image = CheckpointProcess(p.ctl);
    p.handle->OnCompleted();
    p.ctl.Join();
  }
  ASSERT_FALSE(image.empty());

  MinPipeline p2(2);
  std::vector<InputEpochs> inputs = RestoreProcess(p2.ctl, image);
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(inputs[0].next_epoch, 1u);
  p2.handle->RestoreEpoch(inputs[0].next_epoch, inputs[0].closed);
  p2.ctl.Start();
  // (1, 9) is worse than the checkpointed minimum 5: restored state must suppress it.
  // (2, 3) improves on 7: must be emitted.
  p2.handle->OnNext({{1, 9}, {2, 3}});
  p2.handle->OnCompleted();
  p2.ctl.Join();
  std::lock_guard<std::mutex> lock(p2.mu);
  EXPECT_EQ(p2.outputs[1], (std::multiset<KV>{{2, 3}}));
}

TEST(CheckpointTest, RestartWithoutRestoreForgetsState) {
  // Control experiment for the test above.
  MinPipeline p(2);
  p.ctl.Start();
  p.handle->OnNext({{1, 9}, {2, 3}});
  p.handle->OnCompleted();
  p.ctl.Join();
  std::lock_guard<std::mutex> lock(p.mu);
  EXPECT_EQ(p.outputs[0], (std::multiset<KV>{{1, 9}, {2, 3}}));
}

// A vertex whose only state is a pending notification far in the future.
class FutureNotifyVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  explicit FutureNotifyVertex(std::atomic<int>* fired) : fired_(fired) {}
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {}
  void OnNotify(const Timestamp& t) override { fired_->fetch_add(1); }

 private:
  std::atomic<int>* fired_;
};

TEST(CheckpointTest, PendingNotificationsSurviveRestore) {
  std::atomic<int> fired{0};
  auto build = [&fired](Controller& ctl) {
    GraphBuilder b(ctl);
    auto [in, h] = NewInput<uint64_t>(b);
    StageId sid = b.NewStage<FutureNotifyVertex>(
        StageOptions{.name = "future",
                     .parallelism = 1,
                     .initial_notifications = {Timestamp(3)}},
        [&fired](uint32_t) { return std::make_unique<FutureNotifyVertex>(&fired); });
    b.Connect<FutureNotifyVertex, uint64_t>(in, sid);
    return h;
  };

  std::vector<uint8_t> image;
  {
    Controller ctl(Config{.workers_per_process = 2});
    auto h = build(ctl);
    ctl.Start();
    h->OnNext({1});  // epoch 0 done; notification at epoch 3 still pending
    image = CheckpointProcess(ctl);
    EXPECT_EQ(fired.load(), 0);
    ctl.Stop();  // simulated failure: abandon the rest of the run
  }

  Controller ctl(Config{.workers_per_process = 2});
  auto h = build(ctl);
  std::vector<InputEpochs> inputs = RestoreProcess(ctl, image);
  h->RestoreEpoch(inputs[0].next_epoch, inputs[0].closed);
  ctl.Start();
  h->OnNext({2});  // epoch 1
  h->OnNext({3});  // epoch 2
  EXPECT_EQ(fired.load(), 0);  // epoch 3 not yet complete
  h->OnNext({4});  // epoch 3
  h->OnCompleted();
  ctl.Join();
  EXPECT_EQ(fired.load(), 1);  // fired exactly once, after restore
}

TEST(CheckpointTest, PerEpochOperatorStateRoundTrips) {
  // Count keeps per-timestamp state only between OnRecv and OnNotify, so a quiesced
  // checkpoint is small; this verifies the image decodes and the computation continues.
  std::vector<uint8_t> image;
  std::mutex mu;
  std::map<uint64_t, std::multiset<std::pair<uint64_t, uint64_t>>> outputs;
  auto build = [&](Controller& ctl) {
    GraphBuilder b(ctl);
    auto [in, h] = NewInput<uint64_t>(b);
    auto counts = Count(in, [](const uint64_t& x) { return x % 5; });
    Subscribe<std::pair<uint64_t, uint64_t>>(
        counts, [&](uint64_t e, std::vector<std::pair<uint64_t, uint64_t>>& recs) {
          std::lock_guard<std::mutex> lock(mu);
          outputs[e].insert(recs.begin(), recs.end());
        });
    return h;
  };
  {
    Controller ctl(Config{.workers_per_process = 2});
    auto h = build(ctl);
    ctl.Start();
    h->OnNext({0, 1, 2, 5, 6});
    image = CheckpointProcess(ctl);
    ctl.Stop();
  }
  Controller ctl(Config{.workers_per_process = 2});
  auto h = build(ctl);
  std::vector<InputEpochs> inputs = RestoreProcess(ctl, image);
  h->RestoreEpoch(inputs[0].next_epoch, inputs[0].closed);
  ctl.Start();
  h->OnNext({7});
  h->OnCompleted();
  ctl.Join();
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(outputs[1],
            (std::multiset<std::pair<uint64_t, uint64_t>>{{2, 1}}));
}

// Checkpoint a stateful *iterative* computation mid-stream: incremental connected
// components over a growing edge set, killed and restored between epochs.
TEST(CheckpointTest, IncrementalWccSurvivesRestore) {
  std::vector<Edge> all_edges = RandomGraph(60, 90, 33);
  const size_t half = all_edges.size() / 2;
  std::vector<Edge> first(all_edges.begin(), all_edges.begin() + half);
  std::vector<Edge> second(all_edges.begin() + half, all_edges.end());

  // Reference: final labels from the union of both batches.
  std::map<uint64_t, uint64_t> want;
  {
    std::map<uint64_t, uint64_t> parent;
    std::function<uint64_t(uint64_t)> find = [&](uint64_t x) {
      parent.try_emplace(x, x);
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    for (const Edge& e : all_edges) {
      uint64_t a = find(e.first);
      uint64_t b = find(e.second);
      if (a != b) {
        parent[std::max(a, b)] = std::min(a, b);
      }
    }
    for (const auto& [n, p] : parent) {
      want[n] = find(n);
    }
  }

  std::mutex mu;
  std::map<uint64_t, uint64_t> labels;
  auto build = [&](Controller& ctl) {
    GraphBuilder b(ctl);
    auto [in, h] = NewInput<Edge>(b);
    ForEach<NodeLabel>(IncrementalConnectedComponents(in),
                       [&](const Timestamp&, std::vector<NodeLabel>& recs) {
                         std::lock_guard<std::mutex> lock(mu);
                         for (const NodeLabel& nl : recs) {
                           auto [it, fresh] = labels.try_emplace(nl.first, nl.second);
                           it->second = std::min(it->second, nl.second);
                         }
                       });
    return h;
  };

  std::vector<uint8_t> image;
  {
    Controller ctl(Config{.workers_per_process = 2});
    auto h = build(ctl);
    ctl.Start();
    h->OnNext(first);
    ctl.tracker().WaitFor([&] {
      return ctl.tracker().FrontierPassed({Timestamp(0), Location::Stage(0)});
    });
    image = CheckpointProcess(ctl);
    ctl.Stop();  // simulated failure
  }
  {
    Controller ctl(Config{.workers_per_process = 2});
    auto h = build(ctl);
    std::vector<InputEpochs> inputs = RestoreProcess(ctl, image);
    h->RestoreEpoch(inputs[0].next_epoch, inputs[0].closed);
    ctl.Start();
    h->OnNext(second);
    h->OnCompleted();
    ctl.Join();
  }
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(labels, want);
}

// Restore a graph containing a loop context while a notification is pending: the image
// must carry both the cyclic graph's frontier seeding and the future-epoch notification,
// and the notification must fire exactly once, after restore, when its epoch completes.
TEST(CheckpointTest, LoopGraphWithPendingNotificationSurvivesRestore) {
  std::atomic<int> fired{0};
  std::mutex mu;
  std::map<uint64_t, std::multiset<uint64_t>> outputs;
  auto build = [&](Controller& ctl) {
    GraphBuilder b(ctl);
    auto [in, h] = NewInput<uint64_t>(b);
    // Countdown loop: every value circulates, decrementing, until it hits zero; each
    // circulated value leaves through the egress.
    Stream<uint64_t> result = Iterate<uint64_t>(
        in, 0, [](const uint64_t& x) { return x; },
        [](LoopContext&, Stream<uint64_t> merged) {
          return Select(Where(merged, [](const uint64_t& x) { return x > 0; }),
                        [](const uint64_t& x) { return x - 1; });
        });
    Probe probe = Subscribe<uint64_t>(result, [&](uint64_t e, std::vector<uint64_t>& recs) {
      std::lock_guard<std::mutex> lock(mu);
      outputs[e].insert(recs.begin(), recs.end());
    });
    // A depth-0 observer of the loop's output holding a notification for epoch 3 —
    // pending across the checkpoint below.
    StageId sid = b.NewStage<FutureNotifyVertex>(
        StageOptions{.name = "future",
                     .parallelism = 1,
                     .initial_notifications = {Timestamp(3)}},
        [&fired](uint32_t) { return std::make_unique<FutureNotifyVertex>(&fired); });
    b.Connect<FutureNotifyVertex, uint64_t>(result, sid);
    return std::make_pair(h, probe);
  };

  std::vector<uint8_t> image;
  {
    Controller ctl(Config{.workers_per_process = 2});
    auto [h, probe] = build(ctl);
    ctl.Start();
    h->OnNext({3});  // epoch 0
    // The loop must fully drain and the subscriber's epoch-0 batch must be delivered
    // before the capture; only the future notification stays pending across it.
    probe.WaitPassed(0);
    image = CheckpointProcess(ctl);
    EXPECT_EQ(fired.load(), 0);
    ctl.Stop();  // simulated failure
  }

  Controller ctl(Config{.workers_per_process = 2});
  auto [h, probe] = build(ctl);
  (void)probe;
  std::vector<InputEpochs> inputs = RestoreProcess(ctl, image);
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(inputs[0].next_epoch, 1u);
  h->RestoreEpoch(inputs[0].next_epoch, inputs[0].closed);
  ctl.Start();
  h->OnNext({2});  // epoch 1
  h->OnNext({});   // epoch 2
  EXPECT_EQ(fired.load(), 0);  // epoch 3 not complete yet
  h->OnNext({4});  // epoch 3
  h->OnCompleted();
  ctl.Join();
  EXPECT_EQ(fired.load(), 1);  // pending notification restored and fired exactly once

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(outputs[0], (std::multiset<uint64_t>{0, 1, 2}));        // pre-failure epoch
  EXPECT_EQ(outputs[1], (std::multiset<uint64_t>{0, 1}));           // replayed epochs
  EXPECT_EQ(outputs.count(2), 0u);                                  // empty epoch: no batch
  EXPECT_EQ(outputs[3], (std::multiset<uint64_t>{0, 1, 2, 3}));
}

size_t OpenFdCount() {
  DIR* d = ::opendir("/proc/self/fd");
  EXPECT_NE(d, nullptr);
  size_t n = 0;
  while (::readdir(d) != nullptr) {
    ++n;
  }
  ::closedir(d);
  return n;
}

// Regression for the WriteCheckpointFile error paths: the old short-circuited
// `fsync(fd) != 0 || close(fd) != 0 || rename(...)` chain leaked the fd whenever fsync
// failed, and a failed rename left the temp file behind. Every failure must close the fd
// and unlink the temp file.
TEST(CheckpointFileTest, FailedPublishLeaksNoFdAndRemovesTempFile) {
  const std::vector<uint8_t> image = {1, 2, 3, 4};
  const size_t fds_before = OpenFdCount();

  // rename(tmp, path) fails with EISDIR when `path` is a directory — a deterministic
  // failure that lands *after* the fsync+close sequence the old chain got wrong.
  const std::string dir_target = ::testing::TempDir() + "/naiad_ckpt_errdir";
  ASSERT_EQ(::mkdir(dir_target.c_str(), 0755), 0);
  EXPECT_FALSE(WriteCheckpointFile(dir_target, image));
  EXPECT_EQ(OpenFdCount(), fds_before);
  struct stat st;
  EXPECT_NE(::stat((dir_target + ".tmp").c_str(), &st), 0)
      << "failed publish left its temp file behind";
  ASSERT_EQ(::rmdir(dir_target.c_str()), 0);

  // A missing parent directory fails at open(tmp) — before any fd exists to leak.
  EXPECT_FALSE(WriteCheckpointFile(
      ::testing::TempDir() + "/naiad_no_such_dir/ckpt", image));
  EXPECT_EQ(OpenFdCount(), fds_before);
}

TEST(CheckpointFileTest, PublishedImageRoundTripsAndOverwrites) {
  const std::string path = ::testing::TempDir() + "/naiad_ckpt_roundtrip";
  std::remove(path.c_str());
  const size_t fds_before = OpenFdCount();
  const std::vector<uint8_t> first = {9, 8, 7, 6, 5};
  ASSERT_TRUE(WriteCheckpointFile(path, first));
  EXPECT_EQ(ReadCheckpointFileEx(path).image, first);
  // Republishing replaces the image atomically (the kill/recover path overwrites the
  // same name every epoch) and leaves no temp file.
  std::vector<uint8_t> second(300);
  for (size_t i = 0; i < second.size(); ++i) {
    second[i] = static_cast<uint8_t>(i * 7);
  }
  ASSERT_TRUE(WriteCheckpointFile(path, second));
  EXPECT_EQ(ReadCheckpointFileEx(path).image, second);
  struct stat st;
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);
  EXPECT_EQ(OpenFdCount(), fds_before);
  std::remove(path.c_str());
}

TEST(LogTest, DurableModeWritesMoreSlowlyButIdentically) {
  const std::string p1 = ::testing::TempDir() + "/naiad_log_fast.bin";
  const std::string p2 = ::testing::TempDir() + "/naiad_log_durable.bin";
  for (const auto& [path, durable] : {std::pair{p1, false}, std::pair{p2, true}}) {
    auto log = std::make_shared<LogWriter>(path);
    Controller ctl(Config{.workers_per_process = 2});
    GraphBuilder b(ctl);
    auto [in, h] = NewInput<uint64_t>(b);
    Stream<uint64_t> tapped = Logged<uint64_t>(in, log, durable);
    std::atomic<uint64_t> n{0};
    ForEach<uint64_t>(tapped, [&](const Timestamp&, std::vector<uint64_t>& recs) {
      n.fetch_add(recs.size());
    });
    ctl.Start();
    h->OnNext({1, 2, 3});
    h->OnNext({4});
    h->OnCompleted();
    ctl.Join();
    EXPECT_EQ(n.load(), 4u);
    EXPECT_GT(log->bytes_written(), 0u);
    std::remove(path.c_str());
  }
}

// Regression: LogWriter::Append used to ignore fwrite's return value, so a short write
// (ENOSPC, full pipe, failing disk) silently corrupted the log while bytes_written_ kept
// advancing. A failed write must surface to the caller and latch the writer.
TEST(LogTest, ShortWriteSurfacesAndLatchesError) {
  const std::string path = ::testing::TempDir() + "/naiad_log_shortwrite.bin";
  LogWriter log(path);
  const std::vector<uint8_t> rec = {1, 2, 3, 4};
  ASSERT_TRUE(log.Append(rec));
  EXPECT_TRUE(log.ok());
  EXPECT_EQ(log.bytes_written(), 4u);

  // ENOSPC-style failure via the fault hook: the next write fails short.
  log.SetWriteFaultHook([](size_t) { return false; });
  EXPECT_FALSE(log.Append(rec));
  EXPECT_FALSE(log.ok());
  EXPECT_EQ(log.bytes_written(), 4u) << "a failed write must not advance bytes_written";

  // Latched: even after the "disk recovers", appends refuse until the log is truncated
  // back to a known-clean state — otherwise a later record would bury the torn tail.
  log.SetWriteFaultHook(nullptr);
  EXPECT_FALSE(log.Append(rec));
  EXPECT_FALSE(log.Sync());
  EXPECT_FALSE(log.Flush());
  ASSERT_TRUE(log.Truncate());
  EXPECT_TRUE(log.ok());
  EXPECT_TRUE(log.Append(rec));
  std::remove(path.c_str());
}

// Regression: LogWriter::Sync ignored fflush/fsync results, so "durable" logging could
// silently lose acknowledged batches. A sync failure must report false, and a writer
// that has already failed must never claim a later sync made it durable.
TEST(LogTest, SyncFailureSurfaces) {
  const std::string path = ::testing::TempDir() + "/naiad_log_syncfail.bin";
  LogWriter log(path);
  ASSERT_TRUE(log.Append(std::vector<uint8_t>{7, 7, 7}));
  ASSERT_TRUE(log.Sync());
  log.SetWriteFaultHook([](size_t) { return false; });
  EXPECT_FALSE(log.Append(std::vector<uint8_t>{8}));
  EXPECT_FALSE(log.Sync());
  EXPECT_FALSE(log.Flush());
  EXPECT_FALSE(log.ok());
  std::remove(path.c_str());
}

TEST(LogTest, FramedRecordsRoundTrip) {
  const std::string path = ::testing::TempDir() + "/naiad_log_roundtrip.bin";
  std::vector<std::vector<uint8_t>> want;
  {
    LogWriter log(path);
    for (uint8_t i = 0; i < 5; ++i) {
      std::vector<uint8_t> rec(1 + i * 3, static_cast<uint8_t>(0xA0 + i));
      ASSERT_TRUE(log.AppendRecord(rec));
      want.push_back(std::move(rec));
    }
    ASSERT_TRUE(log.Sync());
  }
  std::vector<std::vector<uint8_t>> got;
  EXPECT_EQ(LogReader::ReadAll(path, &got), LogReader::Status::kOk);
  EXPECT_EQ(got, want);
  std::remove(path.c_str());
}

// Torn tail: truncate the file mid-record (the crash window between fwrite and fsync)
// and check replay recovers exactly the clean prefix, and that TruncateTo restores a
// clean log. Mid-file corruption, by contrast, must be reported as corrupt.
TEST(LogTest, TornTailTruncatesToCleanPrefix) {
  const std::string path = ::testing::TempDir() + "/naiad_log_torn.bin";
  std::vector<std::vector<uint8_t>> want;
  uint64_t clean_bytes = 0;
  {
    LogWriter log(path);
    for (uint8_t i = 0; i < 3; ++i) {
      std::vector<uint8_t> rec(10 + i, i);
      ASSERT_TRUE(log.AppendRecord(rec));
      want.push_back(std::move(rec));
    }
    clean_bytes = log.bytes_written();
    ASSERT_TRUE(log.AppendRecord(std::vector<uint8_t>(64, 0xEE)));  // will be torn
    ASSERT_TRUE(log.Sync());
  }
  // Tear the final record: keep its header and half its body.
  ASSERT_TRUE(LogReader::TruncateTo(path, clean_bytes + 8 + 32));

  std::vector<std::vector<uint8_t>> got;
  uint64_t prefix = 0;
  EXPECT_EQ(LogReader::ReadAll(path, &got, &prefix), LogReader::Status::kTornTail);
  EXPECT_EQ(got, want);
  EXPECT_EQ(prefix, clean_bytes);

  // Truncating back to the clean prefix makes the log read clean again.
  ASSERT_TRUE(LogReader::TruncateTo(path, prefix));
  got.clear();
  EXPECT_EQ(LogReader::ReadAll(path, &got), LogReader::Status::kOk);
  EXPECT_EQ(got, want);

  // Mid-file corruption (flip a byte inside the first record) is NOT a torn tail.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8 + 2, SEEK_SET), 0);
    std::fputc(0x5A, f);
    std::fclose(f);
  }
  got.clear();
  EXPECT_EQ(LogReader::ReadAll(path, &got), LogReader::Status::kCorrupt);
  std::remove(path.c_str());
}

TEST(LogTest, LoggedTapWritesAndForwards) {
  const std::string path = ::testing::TempDir() + "/naiad_log_test.bin";
  auto log = std::make_shared<LogWriter>(path);
  Controller ctl(Config{.workers_per_process = 2});
  GraphBuilder b(ctl);
  auto [in, h] = NewInput<uint64_t>(b);
  Stream<uint64_t> tapped = Logged<uint64_t>(in, log);
  std::atomic<uint64_t> total{0};
  ForEach<uint64_t>(tapped, [&](const Timestamp&, std::vector<uint64_t>& recs) {
    for (uint64_t v : recs) {
      total.fetch_add(v);
    }
  });
  ctl.Start();
  h->OnNext({1, 2, 3});
  h->OnCompleted();
  ctl.Join();
  EXPECT_EQ(total.load(), 6u);
  EXPECT_GT(log->bytes_written(), 0u);
  std::remove(path.c_str());
}

// --- Checkpoint retain-K GC -----------------------------------------------------------

TEST(CheckpointGcTest, ScheduleIsEveryKthEpochPlusFinal) {
  EXPECT_EQ(CheckpointSchedule(6, 2), (std::vector<uint64_t>{1, 3, 5}));
  EXPECT_EQ(CheckpointSchedule(7, 3), (std::vector<uint64_t>{2, 5, 6}));  // final added
  EXPECT_EQ(CheckpointSchedule(4, 1), (std::vector<uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(CheckpointSchedule(1, 5), (std::vector<uint64_t>{0}));  // final only
}

// Writes an empty image file for (process, epoch) under `dir`.
void TouchImage(const std::string& dir, uint32_t process, uint64_t epoch) {
  FILE* f = std::fopen(ClusterImagePath(dir, process, epoch).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
}

bool ImageExists(const std::string& dir, uint32_t process, uint64_t epoch) {
  struct stat st;
  return ::stat(ClusterImagePath(dir, process, epoch).c_str(), &st) == 0;
}

TEST(CheckpointGcTest, PruneKeepsNewestKCommittedImages) {
  const std::string dir = ::testing::TempDir() + "/naiad_gc_retain";
  ::mkdir(dir.c_str(), 0755);
  const std::vector<uint64_t> schedule = CheckpointSchedule(10, 2);  // 1,3,5,7,9
  for (uint64_t e : schedule) {
    TouchImage(dir, 0, e);
  }
  // Committed through epoch 7: epochs {1,3,5,7} are committed, retain the newest 2.
  EXPECT_EQ(PruneClusterImages(dir, 0, schedule, /*committed_epoch=*/7, /*retain=*/2),
            2u);  // unlinks 1 and 3
  EXPECT_FALSE(ImageExists(dir, 0, 1));
  EXPECT_FALSE(ImageExists(dir, 0, 3));
  EXPECT_TRUE(ImageExists(dir, 0, 5));
  EXPECT_TRUE(ImageExists(dir, 0, 7));
  EXPECT_TRUE(ImageExists(dir, 0, 9));  // not committed yet: never touched
  // Idempotent: a second sweep at the same watermark has nothing left to do.
  EXPECT_EQ(PruneClusterImages(dir, 0, schedule, 7, 2), 0u);
  // retain=0 disables GC outright.
  EXPECT_EQ(PruneClusterImages(dir, 0, schedule, 9, 0), 0u);
  EXPECT_TRUE(ImageExists(dir, 0, 5));
}

TEST(CheckpointGcTest, PruneNeverTouchesTheNewestCommit) {
  const std::string dir = ::testing::TempDir() + "/naiad_gc_newest";
  ::mkdir(dir.c_str(), 0755);
  const std::vector<uint64_t> schedule = CheckpointSchedule(6, 2);  // 1,3,5
  for (uint64_t e : schedule) {
    TouchImage(dir, 1, e);
  }
  // Only one commit so far: with retain=1 there is nothing older to unlink, so the one
  // image a restart would need can never disappear.
  EXPECT_EQ(PruneClusterImages(dir, 1, schedule, /*committed_epoch=*/1, /*retain=*/1),
            0u);
  EXPECT_TRUE(ImageExists(dir, 1, 1));
  EXPECT_EQ(PruneClusterImages(dir, 1, schedule, /*committed_epoch=*/3, /*retain=*/1),
            1u);
  EXPECT_FALSE(ImageExists(dir, 1, 1));
  EXPECT_TRUE(ImageExists(dir, 1, 3));
}

// A crash between commit and GC leaves extra images on disk; the next sweep (after the
// next commit, possibly in the next generation) must repair the backlog without erroring
// on files an earlier partial sweep already removed.
TEST(CheckpointGcTest, PruneRepairsBacklogAfterCrashBetweenCommitAndGc) {
  const std::string dir = ::testing::TempDir() + "/naiad_gc_crash";
  ::mkdir(dir.c_str(), 0755);
  const std::vector<uint64_t> schedule = CheckpointSchedule(12, 2);  // 1,3,5,7,9,11
  // Simulate: commits ran through epoch 9, but the process died before ANY GC ran —
  // every committed image is still on disk — and epoch 1's file was already half-swept.
  for (uint64_t e : {3u, 5u, 7u, 9u}) {
    TouchImage(dir, 2, e);
  }
  // One sweep at the current watermark repairs the whole backlog: 3 and 5 go (epoch 1's
  // absence is not an error), 7 and 9 stay.
  EXPECT_EQ(PruneClusterImages(dir, 2, schedule, /*committed_epoch=*/9, /*retain=*/2),
            2u);
  EXPECT_FALSE(ImageExists(dir, 2, 3));
  EXPECT_FALSE(ImageExists(dir, 2, 5));
  EXPECT_TRUE(ImageExists(dir, 2, 7));
  EXPECT_TRUE(ImageExists(dir, 2, 9));
}

}  // namespace
}  // namespace naiad
