// Cluster-wide checkpointing and single-process kill-and-recover (§3.4).
//
// A 3-process forked cluster runs a partitioned word count (and a stage whose notification
// requests outlive every checkpoint, EpochNotifyVertex), checkpointing at a global
// quiet point every few epochs. The driver SIGKILLs one process at a seed-chosen point —
// mid-feed or inside the checkpoint barrier itself — and the survivors plus a replacement
// restore from the last manifest-complete checkpoint and replay. For every seed the final
// epoch's checkpoint images must be byte-identical to a clean run's: same counts, same
// open-input positions, nothing lost, nothing doubled.
//
// Reproduction: `cluster_recovery_test --seed=N` re-runs the sweep body for seed N alone.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/core/io.h"
#include "src/ft/cluster_recovery.h"
#include "src/ft/recovery.h"

namespace naiad {
namespace {

std::optional<uint64_t> g_seed_override;

constexpr uint64_t kCorpusSeed = 0xC0FFEEULL;
constexpr uint64_t kWordsPerEpoch = 64;
constexpr uint64_t kVocabulary = 97;

// Counts words partitioned by value. State is a sorted map so checkpoint images are a
// deterministic function of the counts alone.
class CountVertex final : public SinkVertex<uint64_t> {
 public:
  void OnRecv(const Timestamp&, std::vector<uint64_t>& batch) override {
    for (uint64_t w : batch) {
      ++counts_[w];
    }
  }
  void Checkpoint(ByteWriter& w) const override {
    w.WriteU32(static_cast<uint32_t>(counts_.size()));
    for (const auto& [word, count] : counts_) {
      w.WriteU64(word);
      w.WriteU64(count);
    }
  }
  bool Restore(ByteReader& r) override {
    counts_.clear();
    const uint32_t n = r.ReadU32();
    for (uint32_t i = 0; i < n; ++i) {
      const uint64_t word = r.ReadU64();
      counts_[word] = r.ReadU64();
    }
    return r.ok();
  }

 private:
  std::map<uint64_t, uint64_t> counts_;
};

// Counts records per epoch and, on the first record of epoch e, requests a notification
// at e + 1, so every checkpoint image carries pending notification requests. OnNotify(t)
// records how many records of epochs <= t the vertex holds: a notification that fires
// before all of them arrived records less, so the images depend on when it fires.
class EpochNotifyVertex final : public SinkVertex<uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    const auto [it, first] = received_.try_emplace(t.epoch, 0);
    if (first) {
      NotifyAt(Timestamp(t.epoch + 1));
    }
    it->second += batch.size();
  }
  void OnNotify(const Timestamp& t) override {
    uint64_t upto = 0;
    for (const auto& [epoch, n] : received_) {
      if (epoch <= t.epoch) {
        upto += n;
      }
    }
    fired_[t.epoch] = upto;
  }
  void Checkpoint(ByteWriter& w) const override {
    WriteMap(w, received_);
    WriteMap(w, fired_);
  }
  bool Restore(ByteReader& r) override {
    ReadMap(r, &received_);
    ReadMap(r, &fired_);
    return r.ok();
  }

 private:
  static void WriteMap(ByteWriter& w, const std::map<uint64_t, uint64_t>& m) {
    w.WriteU32(static_cast<uint32_t>(m.size()));
    for (const auto& [k, v] : m) {
      w.WriteU64(k);
      w.WriteU64(v);
    }
  }
  static void ReadMap(ByteReader& r, std::map<uint64_t, uint64_t>* m) {
    m->clear();
    const uint32_t n = r.ReadU32();
    for (uint32_t i = 0; i < n; ++i) {
      const uint64_t k = r.ReadU64();
      (*m)[k] = r.ReadU64();
    }
  }

  std::map<uint64_t, uint64_t> received_;  // epoch -> records received at that epoch
  std::map<uint64_t, uint64_t> fired_;     // notified epoch -> records at epochs <= it
};

class WordCountApp final : public ClusterApp {
 public:
  explicit WordCountApp(Controller& ctl) : ctl_(&ctl) {
    GraphBuilder b(ctl);
    auto [in, h] = NewInput<uint64_t>(b);
    handle_ = h;
    input_stage_ = in.stage;
    StageId sid = b.NewStage<CountVertex>(
        StageOptions{.name = "count"},
        [](uint32_t) { return std::make_unique<CountVertex>(); });
    b.Connect<CountVertex, uint64_t>(in, sid, 0, [](const uint64_t& w) { return w; });
    probe_ = Probe(&ctl, sid);
    StageOptions notify_opts;
    notify_opts.name = "epoch_notify";
    StageId nid = b.NewStage<EpochNotifyVertex>(
        notify_opts, [](uint32_t) { return std::make_unique<EpochNotifyVertex>(); });
    b.Connect<EpochNotifyVertex, uint64_t>(in, nid, 0,
                                           [](const uint64_t& w) { return w / 7; });
    notify_probe_ = Probe(&ctl, nid);
  }

  void FeedEpoch(uint64_t epoch) override {
    NAIAD_CHECK(handle_->next_epoch() == epoch);  // replay must resume exactly in place
    Rng rng(HashCombine(HashCombine(kCorpusSeed, epoch), ctl_->config().process_id));
    std::vector<uint64_t> words(kWordsPerEpoch);
    for (uint64_t& w : words) {
      w = rng.Below(kVocabulary);
    }
    handle_->OnNext(std::move(words));
  }
  // The notify stage's probe also waits out its pending notification at `epoch`, so a
  // checkpoint after `epoch` always finds it fired.
  bool EpochPassed(uint64_t epoch) override {
    return probe_.Passed(epoch) && notify_probe_.Passed(epoch);
  }
  void RestoreInputs(const std::vector<InputEpochs>& inputs) override {
    for (const InputEpochs& in : inputs) {
      if (in.stage == input_stage_) {
        handle_->RestoreEpoch(in.next_epoch, in.closed);
      }
    }
  }
  void CloseInputs() override { handle_->OnCompleted(); }

 private:
  Controller* ctl_;
  std::shared_ptr<InputHandle<uint64_t>> handle_;
  StageId input_stage_ = 0;
  Probe probe_;
  Probe notify_probe_;
};

ClusterRunConfig BaseConfig(const std::string& dir) {
  ClusterRunConfig cfg;
  cfg.processes = 3;
  cfg.workers_per_process = 2;
  cfg.total_epochs = 4;
  cfg.checkpoint_every = 2;  // checkpoints after epochs 1 and 3 (3 also = final)
  cfg.ckpt_dir = dir;
  cfg.obs.metrics = true;  // the acceptance bar: recovery correct with observability on
  cfg.obs.tracing = true;
  // NAIAD_RECOVERY_MODE=selective runs the whole sweep — clean reference included — with
  // outbound logging on and the Falkirk Wheel survivor-preserving restart; the final
  // images must still be byte-identical to the coordinated runs' (the log substrate is a
  // pure side channel of the computation).
  cfg.recovery_mode = RecoveryModeFromEnv();
  // The in-band detectors run through the whole sweep. The lease is sized generously:
  // under TSan/ASan a member can stall for whole seconds, and a false positive — while
  // safe (it degenerates to a coordinated restart) — would burn a generation per stall.
  cfg.heartbeat_interval_ms = 25;
  cfg.heartbeat_timeout_ms = 3000;
  // NAIAD_SUPERVISOR_HINT=0 runs the whole sweep detector-driven: the supervisor never
  // tells the survivors about the kill, so recovery liveness rests on EOF/RST detection
  // and the heartbeat lease alone.
  cfg.supervisor_hint = SupervisorHintFromEnv();
  return cfg;
}

std::string FreshDir(const std::string& tag) {
  // Pid-scoped: ctest runs each test in its own gtest process, and under -j two of them
  // would otherwise rm -rf each other's live checkpoint directories (CleanReference()
  // is recomputed per process).
  const std::string dir = ::testing::TempDir() + "/naiad_cluster_" +
                          std::to_string(::getpid()) + "_" + tag;
  std::string cmd = "rm -rf '" + dir + "'";
  NAIAD_CHECK(::system(cmd.c_str()) == 0);
  NAIAD_CHECK(::mkdir(dir.c_str(), 0755) == 0);
  return dir;
}

ClusterAppFactory Factory() {
  return [](Controller& ctl) { return std::make_unique<WordCountApp>(ctl); };
}

// The final epoch's images, one blob per process, CRC-verified.
std::vector<std::vector<uint8_t>> FinalImages(const ClusterRunConfig& cfg) {
  std::vector<std::vector<uint8_t>> images;
  for (uint32_t p = 0; p < cfg.processes; ++p) {
    CheckpointReadResult res = ReadCheckpointFileEx(
        ClusterImagePath(cfg.ckpt_dir, p, cfg.total_epochs - 1));
    EXPECT_EQ(static_cast<int>(res.status), static_cast<int>(CheckpointReadStatus::kOk))
        << "final image missing for process " << p;
    images.push_back(std::move(res.image));
  }
  return images;
}

// Clean-run reference images, computed once per binary.
const std::vector<std::vector<uint8_t>>& CleanReference() {
  static const std::vector<std::vector<uint8_t>>* ref = [] {
    const std::string dir = FreshDir("clean_ref");
    ClusterKillDriver::Options opts;
    opts.cfg = BaseConfig(dir);
    opts.inject_kill = false;
    const ClusterKillOutcome out = ClusterKillDriver::Run(opts, Factory());
    NAIAD_CHECK(out.launched && out.ok) << "clean reference run failed";
    NAIAD_CHECK(!out.killed);
    NAIAD_CHECK(out.stats.recoveries == 0);
    NAIAD_CHECK(out.stats.checkpoint_epochs == 2);  // epochs 1 and 3
    NAIAD_CHECK(ReadClusterManifest(dir, opts.cfg.processes) ==
                opts.cfg.total_epochs - 1);
    return new std::vector<std::vector<uint8_t>>(FinalImages(opts.cfg));
  }();
  return *ref;
}

// Mirrors the driver's seed derivation so tests can select barrier-kill seeds.
bool SeedKillsInBarrier(uint64_t seed) {
  Rng kr(HashCombine(seed, HashString("CLUSTER-KILL")));
  return (kr.Next() & 1) != 0;
}

ClusterKillOutcome SweepSeed(uint64_t seed) {
  const std::string dir = FreshDir("seed_" + std::to_string(seed));
  ClusterKillDriver::Options opts;
  opts.cfg = BaseConfig(dir);
  opts.seed = seed;
  opts.inject_kill = true;
  const ClusterKillOutcome out = ClusterKillDriver::Run(opts, Factory());
  EXPECT_TRUE(out.launched);
  EXPECT_TRUE(out.ok) << "seed " << seed << ": cluster failed to recover; reproduce with "
                      << "--seed=" << seed;
  EXPECT_TRUE(out.killed) << "seed " << seed;
  // The kill schedule is a pure function of the seed.
  EXPECT_EQ(out.victim, seed % opts.cfg.processes) << "seed " << seed;
  EXPECT_EQ(out.kill_epoch, 1 + seed % (opts.cfg.total_epochs - 1)) << "seed " << seed;
  EXPECT_EQ(SeedKillsInBarrier(seed), out.kill_in_barrier);
  if (out.ok) {
    // The core property: byte-identical final images versus the clean run.
    const auto& clean = CleanReference();
    const auto killed_images = FinalImages(opts.cfg);
    for (uint32_t p = 0; p < opts.cfg.processes; ++p) {
      EXPECT_EQ(killed_images[p], clean[p])
          << "seed " << seed << ": process " << p
          << " final image diverged; reproduce with --seed=" << seed;
    }
    EXPECT_EQ(ReadClusterManifest(dir, opts.cfg.processes), opts.cfg.total_epochs - 1)
        << "seed " << seed;
    EXPECT_GE(out.stats.checkpoint_epochs, 1u) << "seed " << seed;
  }
  return out;
}

// 5 shards x 10 seeds = 50-seed sweep, parallelized by ctest. With --seed=N, shard 0
// runs exactly seed N and the rest are no-ops.
class ClusterKillSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterKillSweep, FinalImagesMatchCleanRun) {
  const uint64_t shard = GetParam();
  if (g_seed_override.has_value()) {
    if (shard == 0) {
      SweepSeed(*g_seed_override);
    }
    return;
  }
  uint64_t total_recoveries = 0;
  for (uint64_t i = 0; i < 10; ++i) {
    const uint64_t seed = shard * 10 + i;
    const ClusterKillOutcome out = SweepSeed(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    total_recoveries += out.stats.recoveries;
  }
  // Almost every kill forces an actual restart (the rare exception: the kill races the
  // termination verdict and every survivor had already finished). A whole shard without
  // one would mean the kill schedule is not exercising recovery at all.
  EXPECT_GE(total_recoveries, 1u) << "shard " << shard;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterKillSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Shard" + std::to_string(info.param);
                         });

TEST(ClusterRecoveryTest, CleanRunCommitsManifestAndImages) {
  const auto& clean = CleanReference();
  ASSERT_EQ(clean.size(), 3u);
  for (const auto& image : clean) {
    EXPECT_FALSE(image.empty());
  }
}

TEST(ClusterRecoveryTest, BarrierKillNeverAdoptsTornCheckpoint) {
  // Pick the first seeds whose schedule kills inside the checkpoint barrier: the victim
  // dies between "checkpointing" and "committed", so some processes may have written
  // epoch-E images while the manifest still names an older epoch. Recovery must adopt
  // only the manifest epoch; the byte-identical check (in SweepSeed) then proves the torn
  // epoch never leaked into the results.
  int exercised = 0;
  for (uint64_t seed = 1000; seed < 1064 && exercised < 2; ++seed) {
    if (!SeedKillsInBarrier(seed)) {
      continue;
    }
    ++exercised;
    const ClusterKillOutcome out = SweepSeed(seed);
    EXPECT_TRUE(out.kill_in_barrier) << "seed " << seed;
    if (out.ok && out.restore_epoch != kNoManifestEpoch) {
      // Whatever epoch was adopted had a complete manifest behind it by construction;
      // it can never exceed the last epoch whose commit could have finished.
      EXPECT_LT(out.restore_epoch, BaseConfig("").total_epochs);
    }
  }
  EXPECT_EQ(exercised, 2);
}

// Forces selective mode regardless of the environment and runs one mid-feed kill seed.
ClusterKillOutcome RunSelectiveSeed(uint64_t seed) {
  const std::string dir = FreshDir("sel_seed_" + std::to_string(seed));
  ClusterKillDriver::Options opts;
  opts.cfg = BaseConfig(dir);
  opts.cfg.recovery_mode = RecoveryMode::kSelective;
  opts.seed = seed;
  opts.inject_kill = true;
  const ClusterKillOutcome out = ClusterKillDriver::Run(opts, Factory());
  EXPECT_TRUE(out.launched);
  EXPECT_TRUE(out.ok) << "selective seed " << seed;
  EXPECT_TRUE(out.killed) << "selective seed " << seed;
  if (out.ok) {
    // Whether the restart ran selectively or fell back, the results must match the
    // clean (and therefore also the coordinated) reference bit-for-bit.
    const auto& clean = CleanReference();
    const auto killed_images = FinalImages(opts.cfg);
    for (uint32_t p = 0; p < opts.cfg.processes; ++p) {
      EXPECT_EQ(killed_images[p], clean[p])
          << "selective seed " << seed << ": process " << p << " final image diverged";
    }
  }
  return out;
}

TEST(ClusterRecoveryTest, SelectiveRecoveryPreservesSurvivors) {
  // A mid-feed kill with every selective precondition in reach: the survivors must stall,
  // keep their state, and rebuild selectively (mode 1 for both survivors plus the
  // replacement), deduping the replacement's regenerated frames. Whether a given kill
  // actually goes selective is timing-dependent (a survivor that raced into a checkpoint
  // commit before detecting the death legitimately demotes the restart), so this tries a
  // handful of mid-feed seeds and requires that at least one rebuilt selectively —
  // byte-identical images are enforced on every attempt either way.
  bool selective_seen = false;
  uint64_t seed = 3000;
  for (int attempts = 0; attempts < 5 && !selective_seen; ++attempts, ++seed) {
    while (SeedKillsInBarrier(seed)) {
      ++seed;
    }
    const ClusterKillOutcome out = RunSelectiveSeed(seed);
    if (out.ok && out.stats.recoveries >= 1 && out.stats.selective_recoveries >= 1) {
      selective_seen = true;
      EXPECT_GT(out.stats.recovery_downtime_seconds, 0.0) << "seed " << seed;
      EXPECT_GT(out.stats.survivor_stall_seconds, 0.0) << "seed " << seed;
    }
  }
  EXPECT_TRUE(selective_seen)
      << "no mid-feed kill rebuilt selectively across 5 seeds; the preconditions are "
         "failing systematically";
}

TEST(ClusterRecoveryTest, SelectiveFallbackInjectRecoversCoordinated) {
  // The forced-fallback hook: every survivor refuses the selective path, the supervisor
  // must demote the restart to coordinated, and the run still converges byte-identically.
  ASSERT_EQ(::setenv("NAIAD_SELECTIVE_FALLBACK_INJECT", "1", 1), 0);
  uint64_t seed = 4000;
  while (SeedKillsInBarrier(seed)) {
    ++seed;
  }
  const ClusterKillOutcome out = RunSelectiveSeed(seed);
  ASSERT_EQ(::unsetenv("NAIAD_SELECTIVE_FALLBACK_INJECT"), 0);
  if (out.ok && out.stats.recoveries >= 1) {
    EXPECT_EQ(out.stats.selective_recoveries, 0u) << "seed " << seed;
  }
}

TEST(ClusterRecoveryTest, DetectorDrivenRecoveryWithoutHint) {
  // The self-reliance property: with the out-of-band supervisor hint off, a SIGKILL must
  // be noticed in-band — the dead socket's EOF/RST, a failed write toward the corpse, or
  // (when everything else is idle) the heartbeat lease — and recovery must still converge
  // byte-identically. The supervisor stamps kill→detection latency from the first
  // member's detection report.
  const std::string dir = FreshDir("no_hint");
  ClusterKillDriver::Options opts;
  opts.cfg = BaseConfig(dir);
  opts.cfg.supervisor_hint = false;
  uint64_t seed = 5000;
  while (SeedKillsInBarrier(seed)) {
    ++seed;
  }
  opts.seed = seed;
  opts.inject_kill = true;
  const ClusterKillOutcome out = ClusterKillDriver::Run(opts, Factory());
  EXPECT_TRUE(out.launched);
  EXPECT_TRUE(out.ok) << "hint-disabled seed " << seed
                      << ": in-band detection failed to drive recovery";
  EXPECT_TRUE(out.killed);
  if (out.ok) {
    const auto& clean = CleanReference();
    const auto killed_images = FinalImages(opts.cfg);
    for (uint32_t p = 0; p < opts.cfg.processes; ++p) {
      EXPECT_EQ(killed_images[p], clean[p])
          << "hint-disabled seed " << seed << ": process " << p << " diverged";
    }
    if (out.stats.recoveries >= 1) {
      EXPECT_GT(out.detection_seconds, 0.0)
          << "a recovery ran but no member ever reported detecting the kill";
    }
  }
}

TEST(ClusterRecoveryTest, RetainKPrunesSupersededImagesOnDisk) {
  // 8 epochs checkpointing every 2 commit images after epochs 1, 3, 5, 7. With
  // retain=2, the commits at 5 and 7 must have swept 1 and 3 from disk, while the
  // retained pair (current + one fallback) and the manifest survive.
  const std::string dir = FreshDir("retain");
  ClusterKillDriver::Options opts;
  opts.cfg = BaseConfig(dir);
  opts.cfg.total_epochs = 8;
  opts.cfg.checkpoint_retain = 2;
  opts.inject_kill = false;
  const ClusterKillOutcome out = ClusterKillDriver::Run(opts, Factory());
  ASSERT_TRUE(out.launched && out.ok);
  auto image_exists = [&](uint32_t p, uint64_t e) {
    struct stat st;
    return ::stat(ClusterImagePath(dir, p, e).c_str(), &st) == 0;
  };
  for (uint32_t p = 0; p < opts.cfg.processes; ++p) {
    EXPECT_FALSE(image_exists(p, 1)) << "process " << p;
    EXPECT_FALSE(image_exists(p, 3)) << "process " << p;
    EXPECT_TRUE(image_exists(p, 5)) << "process " << p;
    EXPECT_TRUE(image_exists(p, 7)) << "process " << p;
  }
  EXPECT_EQ(ReadClusterManifest(dir, opts.cfg.processes), 7u);
}

TEST(ClusterRecoveryTest, RecoveryCountersSurfaceInStats) {
  // A mid-feed kill at a low seed: recovery must be reported through ClusterStats.
  uint64_t seed = 2000;
  while (SeedKillsInBarrier(seed)) {
    ++seed;
  }
  const ClusterKillOutcome out = SweepSeed(seed);
  if (out.ok) {
    EXPECT_GE(out.stats.recoveries, 1u);
    EXPECT_GE(out.stats.checkpoint_epochs, 1u);
    EXPECT_GT(out.stats.elapsed_seconds, 0.0);
  }
}

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);  // strips gtest flags, leaves ours
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      naiad::g_seed_override = std::strtoull(argv[i] + 7, nullptr, 0);
      std::fprintf(stderr, "cluster_recovery_test: replaying seed %llu only\n",
                   static_cast<unsigned long long>(*naiad::g_seed_override));
    }
  }
  return RUN_ALL_TESTS();
}
