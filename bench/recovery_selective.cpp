// Recovery bench: coordinated restart vs selective (Falkirk Wheel) rollback.
//
// A 3-process forked cluster runs the partitioned word count from the kill-and-recover
// sweep, but heavier: 16 epochs with checkpoint commits after epochs 7 and 15, ~128x the
// sweep's records per epoch, and a 128-round per-record operator, so re-execution after
// a restart costs real CPU time. One
// member is SIGKILLed mid-feed at epoch 14 — seven epochs of un-checkpointed work in
// flight — and the run is repeated under both recovery modes with the same seed.
//
// The modes differ in WHO re-executes the lost epochs. Coordinated restart rolls every
// member back to the epoch-7 manifest, so all processes burn CPU redoing epochs 8-14;
// selective recovery re-executes them on the replacement alone while survivors keep their
// state and answer nothing but dedup drops. Re-execution is compute-bound, so the
// coordinated stall grows with cluster-aggregate re-work while the selective stall grows
// only with one process's share. The kill lands late in the run on purpose: survivors
// have little left to feed, so the stall isolates re-execution cost instead of mixing it
// with their remaining forward work (which on this container shares one core).
//
// The numbers the table compares (both from ClusterStats):
//   survivor_stall_s  longest any survivor spent unable to make forward progress: from
//                     detecting the death until it re-passes the epoch it had already
//                     fed before the kill. Coordinated restarts discard survivor state,
//                     so this includes re-executing epochs 8-14 from the manifest;
//                     selective recovery holds survivors paused only through the stall
//                     barrier + seed exchange and replays the log tail to the
//                     replacement alone.
//   downtime_s        detection -> rebuilt-and-running, for the slowest member.
//
// The headline claim of the Falkirk Wheel section in DESIGN.md is that survivor stall is
// materially below the coordinated baseline while the final images stay byte-identical
// (that equivalence is enforced by tests/cluster_recovery_test.cc, not re-proved here).

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/core/io.h"
#include "src/ft/cluster_recovery.h"

namespace naiad {
namespace {

constexpr uint64_t kCorpusSeed = 0xC0FFEEULL;
constexpr uint64_t kWordsPerEpoch = 262144;
constexpr uint64_t kVocabulary = 9973;
// Per-record operator cost, emulating a vertex that does real work per input (parsing,
// feature extraction, ...). This is what makes the comparison meaningful: re-execution
// is dominated by vertex compute, which coordinated restart repeats on every member and
// selective recovery repeats only on the replacement (replayed frames still pay it there
// — the replacement's processing is not skipped, the survivors' is).
constexpr int kWorkRoundsPerRecord = 128;

class CountVertex final : public SinkVertex<uint64_t> {
 public:
  void OnRecv(const Timestamp&, std::vector<uint64_t>& batch) override {
    for (uint64_t w : batch) {
      uint64_t x = w;
      for (int r = 0; r < kWorkRoundsPerRecord; ++r) {
        x = HashCombine(x, static_cast<uint64_t>(r));
      }
      scratch_ ^= x;
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
  uint64_t scratch_ = 0;  // keeps the per-record work observable; not checkpointed
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
  }

  void FeedEpoch(uint64_t epoch) override {
    NAIAD_CHECK(handle_->next_epoch() == epoch);
    Rng rng(HashCombine(HashCombine(kCorpusSeed, epoch), ctl_->config().process_id));
    std::vector<uint64_t> words(kWordsPerEpoch);
    for (uint64_t& w : words) {
      w = rng.Below(kVocabulary);
    }
    handle_->OnNext(std::move(words));
  }
  bool EpochPassed(uint64_t epoch) override { return probe_.Passed(epoch); }
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
};

ClusterRunConfig BenchConfig(const std::string& dir, RecoveryMode mode) {
  ClusterRunConfig cfg;
  cfg.processes = 3;
  cfg.workers_per_process = 2;
  cfg.total_epochs = 16;
  cfg.checkpoint_every = 8;  // commits after epochs 7 and 15
  cfg.ckpt_dir = dir;
  cfg.obs.metrics = true;
  cfg.recovery_mode = mode;
  // The bench runs hint-disabled with the in-band detectors armed, so detection_s below
  // measures what the cluster can do for itself: EOF/RST from the SIGKILLed member (the
  // fast path on loopback) backstopped by the heartbeat lease.
  cfg.supervisor_hint = false;
  cfg.heartbeat_interval_ms = 25;
  cfg.heartbeat_timeout_ms = 2000;
  return cfg;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = "/tmp/naiad_bench_recovery_" + std::to_string(::getpid()) +
                          "_" + tag;
  const std::string cmd = "rm -rf '" + dir + "'";
  NAIAD_CHECK(::system(cmd.c_str()) == 0);
  NAIAD_CHECK(::mkdir(dir.c_str(), 0755) == 0);
  return dir;
}

// Mirrors the driver's kill-schedule derivation so the bench can pick a seed whose kill
// lands mid-feed at epoch 14: after the epoch-7 commit, with epochs 8-14 un-checkpointed.
bool SeedFits(uint64_t seed, uint64_t total_epochs) {
  Rng kr(HashCombine(seed, HashString("CLUSTER-KILL")));
  const bool in_barrier = (kr.Next() & 1) != 0;
  const uint64_t kill_epoch = 1 + seed % (total_epochs - 1);
  return !in_barrier && kill_epoch == 14;
}

struct Trial {
  bool ok = false;
  double detection_s = 0;  // kill -> first member's detection report (in-band, no hint)
  ClusterStats stats;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Trial RunOne(RecoveryMode mode, uint64_t seed, const std::string& tag) {
  const std::string dir = FreshDir(tag);
  ClusterKillDriver::Options opts;
  opts.cfg = BenchConfig(dir, mode);
  opts.seed = seed;
  opts.inject_kill = true;
  const ClusterKillOutcome out =
      ClusterKillDriver::Run(opts, [](Controller& ctl) {
        return std::make_unique<WordCountApp>(ctl);
      });
  Trial t;
  t.ok = out.launched && out.ok && out.killed && out.stats.recoveries >= 1;
  t.detection_s = out.detection_seconds;
  t.stats = out.stats;
  const std::string cmd = "rm -rf '" + dir + "'";
  NAIAD_CHECK(::system(cmd.c_str()) == 0);
  return t;
}

}  // namespace
}  // namespace naiad

int main() {
  using namespace naiad;
  bench::Header("recovery", "selective vs coordinated restart",
                "survivors of a single failure keep their state; only the replacement "
                "rolls back (ROADMAP item 3; paper §3.4 discusses the coordinated "
                "baseline this improves on)");

  uint64_t seed = 0;
  while (!SeedFits(seed, 16)) {
    ++seed;
  }

  bench::JsonReport report("recovery");
  report.Config("processes", 3.0);
  report.Config("total_epochs", 16.0);
  report.Config("checkpoint_every", 8.0);
  report.Config("words_per_epoch", static_cast<double>(kWordsPerEpoch));
  report.Config("kill_epoch", 14.0);
  report.Config("seed", static_cast<double>(seed));

  bench::Row("%-12s %7s %16s %12s %12s %10s %14s", "mode", "trial", "survivor_stall_s",
             "downtime_s", "detection_s", "selective", "replay_dropped");
  constexpr int kTrials = 3;
  for (const RecoveryMode mode : {RecoveryMode::kCoordinated, RecoveryMode::kSelective}) {
    const char* name = mode == RecoveryMode::kSelective ? "selective" : "coordinated";
    std::vector<double> detections;
    for (int trial = 0; trial < kTrials; ++trial) {
      const Trial t = RunOne(mode, seed, std::string(name) + std::to_string(trial));
      if (!t.ok) {
        bench::Row("%-12s %7d  (run failed to recover; retrying not attempted)", name,
                   trial);
        continue;
      }
      detections.push_back(t.detection_s);
      // A selective run that fell back reports selective_recoveries == 0; keep the row —
      // the fallback rate is part of the story — but label it.
      bench::Row("%-12s %7d %16.4f %12.4f %12.4f %10llu %14llu", name, trial,
                 t.stats.survivor_stall_seconds, t.stats.recovery_downtime_seconds,
                 t.detection_s,
                 static_cast<unsigned long long>(t.stats.selective_recoveries),
                 static_cast<unsigned long long>(t.stats.replayed_frames_dropped));
      report.NewRow();
      report.Str("mode", name);
      report.Num("trial", trial);
      report.Num("survivor_stall_s", t.stats.survivor_stall_seconds);
      report.Num("downtime_s", t.stats.recovery_downtime_seconds);
      report.Num("detection_s", t.detection_s);
      report.Num("selective_recoveries",
                 static_cast<double>(t.stats.selective_recoveries));
      report.Num("replayed_frames_dropped",
                 static_cast<double>(t.stats.replayed_frames_dropped));
      report.Num("checkpoint_epochs", static_cast<double>(t.stats.checkpoint_epochs));
      report.Num("elapsed_s", t.stats.elapsed_seconds);
    }
    // Kill -> first detection report, in-band (the bench runs hint-disabled).
    bench::Row("%-12s  median detection_s = %.4f over %zu recovered trials", name,
               Median(detections), detections.size());
    report.Config(std::string("detection_median_s_") + name, Median(detections));
  }
  report.Write();
  return 0;
}
