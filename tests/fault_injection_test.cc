// Seeded fault-injection sweeps over the distributed runtime.
//
// Every fault a FaultPlan injects is a schedule perturbation that preserves the protocol
// contracts (per-link FIFO, §3.3 flush discipline), so a faulted run of the distributed
// WordCount pipeline must produce exactly the clean run's counts — for every seed. The
// sweep covers >= 100 seeds, split into shards so ctest runs them in parallel.
//
// Reproduction: `fault_injection_test --seed=N` re-runs the sweep body for seed N alone;
// the plan's decisions are pure functions of the seed, so the schedule is the same one
// the failing sweep saw (up to OS thread interleaving, which correctness must not
// depend on — that is the property under test).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/algo/wordcount.h"
#include "src/core/io.h"
#include "src/gen/text.h"
#include "src/net/cluster.h"
#include "src/testing/fault.h"

namespace naiad {
namespace {

std::optional<uint64_t> g_seed_override;

constexpr uint32_t kProcesses = 2;
constexpr uint64_t kEpochs = 3;

// The fixed workload every run (clean or faulted) computes: per-epoch slices of a small
// Zipf corpus, sharded round-robin across processes.
std::vector<std::string> CorpusSlice(uint64_t epoch, uint32_t process) {
  static const std::vector<std::string> corpus = ZipfCorpus(90, 6, 40, 7);
  std::vector<std::string> out;
  const size_t per_epoch = corpus.size() / kEpochs;
  for (size_t i = epoch * per_epoch + process; i < (epoch + 1) * per_epoch;
       i += kProcesses) {
    out.push_back(corpus[i]);
  }
  return out;
}

// Runs the distributed WordCount under `plan` (nullptr = clean) and returns the merged
// word -> count map over all epochs.
std::map<std::string, uint64_t> RunWordCount(ClusterFaultPlan* plan) {
  std::mutex mu;
  std::map<std::string, uint64_t> counts;
  Cluster::Run(
      ClusterOptions{.processes = kProcesses,
                     .workers_per_process = 1,
                     .batch_size = 32,  // small batches => many frames => many fault points
                     .fault_plan = plan,
                     // Observability on (no trace file): the sweep doubles as the TSan
                     // proof that the metrics/tracing record paths are race-free.
                     .obs = {.metrics = true, .tracing = true},
                     // Heartbeats + a deliberately tight credit window join the sweep:
                     // FromSeed draws heartbeat delay/drop and credit-withhold faults,
                     // so congested-and-starved schedules are swept too. The lease stays
                     // off — with no on_peer_down consumer here, reset injection and
                     // failure detection would be indistinguishable.
                     .heartbeat_interval_ms = 5,
                     .credit_window_bytes = 4 << 10},
      [&](Controller& ctl) {
        GraphBuilder b(ctl);
        auto [lines, handle] = NewInput<std::string>(b);
        Probe probe = ForEach<WordCountRecord>(
            WordCount(lines),
            [&](const Timestamp&, std::vector<WordCountRecord>& recs) {
              std::lock_guard<std::mutex> lock(mu);
              for (const WordCountRecord& wc : recs) {
                counts[wc.first] += wc.second;
              }
            });
        ctl.Start();
        for (uint64_t e = 0; e < kEpochs; ++e) {
          handle->OnNext(CorpusSlice(e, ctl.config().process_id));
          if (e >= 1) {
            probe.WaitPassed(e - 1);  // interleave waits so progress runs mid-stream
          }
        }
        handle->OnCompleted();
        ctl.Join();
      });
  return counts;
}

const std::map<std::string, uint64_t>& CleanReference() {
  static const std::map<std::string, uint64_t> clean = RunWordCount(nullptr);
  return clean;
}

void SweepSeed(uint64_t seed) {
  FaultPlan plan(seed, FaultProfile::FromSeed(seed));
  std::map<std::string, uint64_t> got = RunWordCount(&plan);
  ASSERT_EQ(got, CleanReference())
      << "faulted run diverged; reproduce with --seed=" << seed;
}

// 4 shards x 25 seeds = 100-seed sweep, parallelized by ctest. With --seed=N, shard 0
// runs exactly seed N and the rest are no-ops.
class FaultSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultSweep, WordCountMatchesCleanRun) {
  const uint64_t shard = GetParam();
  if (g_seed_override.has_value()) {
    if (shard == 0) {
      SweepSeed(*g_seed_override);
    }
    return;
  }
  for (uint64_t i = 0; i < 25; ++i) {
    ASSERT_NO_FATAL_FAILURE(SweepSeed(shard * 25 + i));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSweep, ::testing::Values(0u, 1u, 2u, 3u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Shard" + std::to_string(info.param);
                         });

TEST(FaultInjectionTest, ResetStormStillDeliversExactCounts) {
  // Make resets near-certain so the test demonstrably exercises the close-and-redial
  // path, not just the possibility of it.
  FaultProfile profile;
  profile.reset_prob = 0.2;
  profile.max_resets_per_link = 6;
  FaultPlan plan(77, profile);
  std::map<std::string, uint64_t> got = RunWordCount(&plan);
  EXPECT_EQ(got, CleanReference());
  EXPECT_GT(plan.total_resets(), 0u) << "plan injected no resets; test is vacuous";
}

TEST(FaultInjectionTest, PartialWriteEveryStepStillDeliversExactCounts) {
  // Every send() capped at a few bytes: frames cross the wire in dribbles, exercising
  // WriteAll's resume path on every single frame.
  FaultProfile profile;
  profile.partial_write_prob = 1.0;
  profile.max_chunk_bytes = 3;
  profile.spurious_retry_prob = 0.5;
  profile.max_spurious_retries = 2;
  FaultPlan plan(78, profile);
  EXPECT_EQ(RunWordCount(&plan), CleanReference());
}

TEST(FaultInjectionTest, FlushPerturbationsAloneStillDeliverExactCounts) {
  // Progress-layer faults only: deferred, delayed, early, and shuffled accumulator
  // flushes, with the wire left untouched.
  FaultProfile profile;
  profile.defer_idle_flush_prob = 0.6;
  profile.max_consecutive_defers = 4;
  profile.idle_flush_delay_prob = 0.3;
  profile.max_flush_delay_us = 200;
  profile.early_flush_prob = 0.4;
  profile.shuffle_flush_batches = true;
  FaultPlan plan(79, profile);
  EXPECT_EQ(RunWordCount(&plan), CleanReference());
}

TEST(FaultInjectionTest, ReceiveScheduleStormStillDeliversExactCounts) {
  // Receive-side faults cranked to near-certainty: every recv() torn to <= 3 bytes with
  // modeled EINTR storms, frequent pre-dispatch holds, and sender resets frequent enough
  // that delayed replacement adoption is demonstrably exercised too.
  FaultProfile profile;
  profile.torn_read_prob = 1.0;
  profile.max_read_chunk_bytes = 3;
  profile.read_eintr_prob = 0.5;
  profile.max_read_eintr_spins = 3;
  profile.dispatch_delay_prob = 0.3;
  profile.max_dispatch_delay_us = 100;
  profile.reset_prob = 0.1;
  profile.max_resets_per_link = 4;
  profile.adoption_delay_prob = 1.0;
  profile.max_adoption_delay_us = 200;
  FaultPlan plan(80, profile);
  EXPECT_EQ(RunWordCount(&plan), CleanReference());
  EXPECT_GT(plan.total_resets(), 0u)
      << "no resets -> adoption delays never ran; test is vacuous";
}

TEST(FaultInjectionTest, DelayedDispatchAloneStillDeliversExactCounts) {
  // Only the decode-to-enqueue hold, on every frame: the termination barrier must not
  // declare stability while frames sit decoded-but-undispatched on receiver threads.
  FaultProfile profile;
  profile.dispatch_delay_prob = 1.0;
  profile.max_dispatch_delay_us = 150;
  FaultPlan plan(81, profile);
  EXPECT_EQ(RunWordCount(&plan), CleanReference());
}

TEST(FaultInjectionTest, SameSeedYieldsIdenticalDecisionStreams) {
  // The reproducibility contract: a plan's decisions are pure functions of the seed and
  // the consumer's own event index.
  const uint64_t seed = 12345;
  FaultPlan a(seed, FaultProfile::FromSeed(seed));
  FaultPlan b(seed, FaultProfile::FromSeed(seed));
  LinkFaultHook* la = a.Link(0, 1);
  LinkFaultHook* lb = b.Link(0, 1);
  for (uint64_t i = 0; i < 2000; ++i) {
    WriteStep sa = la->Next(64);
    WriteStep sb = lb->Next(64);
    ASSERT_EQ(sa.delay_us, sb.delay_us) << "step " << i;
    ASSERT_EQ(sa.max_len, sb.max_len) << "step " << i;
    ASSERT_EQ(sa.zero_writes, sb.zero_writes) << "step " << i;
    ASSERT_EQ(la->ShouldResetBefore(i), lb->ShouldResetBefore(i)) << "frame " << i;
  }
  RecvLinkFaultHook* ra = a.RecvLink(0, 1);
  RecvLinkFaultHook* rb = b.RecvLink(0, 1);
  for (uint64_t i = 0; i < 2000; ++i) {
    ReadStep sa = ra->Next(64);
    ReadStep sb = rb->Next(64);
    ASSERT_EQ(sa.delay_us, sb.delay_us) << "read step " << i;
    ASSERT_EQ(sa.max_len, sb.max_len) << "read step " << i;
    ASSERT_EQ(sa.eintr_spins, sb.eintr_spins) << "read step " << i;
    ASSERT_EQ(ra->DispatchDelayUs(i), rb->DispatchDelayUs(i)) << "frame " << i;
    ASSERT_EQ(ra->AdoptionDelayUs(i), rb->AdoptionDelayUs(i)) << "replacement " << i;
  }
}

TEST(FaultInjectionTest, RecvStreamIsStableAndIndependentOfSendStream) {
  const uint64_t seed = 777;
  FaultPlan plan(seed, FaultProfile::FromSeed(seed));
  RecvLinkFaultHook* recv = plan.RecvLink(0, 1);
  // Same object on repeated lookup (the receiver's stream must not restart mid-run)...
  EXPECT_EQ(recv, plan.RecvLink(0, 1));
  // ...and distinct from the reverse direction's stream.
  EXPECT_NE(recv, plan.RecvLink(1, 0));
  // Domain separation: the send and receive halves of the same link must not correlate.
  LinkFaultHook* send = plan.Link(0, 1);
  int diverged = 0;
  for (uint64_t i = 0; i < 256; ++i) {
    ReadStep r = recv->Next(64);
    WriteStep w = send->Next(64);
    if (r.delay_us != w.delay_us || r.max_len != w.max_len) {
      ++diverged;
    }
  }
  EXPECT_GT(diverged, 0) << "send and receive streams are correlated";
}

TEST(FaultInjectionTest, DistinctLinksGetIndependentStreams) {
  const uint64_t seed = 4242;
  FaultPlan plan(seed, FaultProfile::FromSeed(seed));
  LinkFaultHook* fwd = plan.Link(0, 1);
  LinkFaultHook* rev = plan.Link(1, 0);
  EXPECT_NE(fwd, rev);
  // Same object on repeated lookup (decision streams must not restart mid-run).
  EXPECT_EQ(fwd, plan.Link(0, 1));
  int diverged = 0;
  for (uint64_t i = 0; i < 256; ++i) {
    WriteStep a = fwd->Next(64);
    WriteStep b = rev->Next(64);
    if (a.delay_us != b.delay_us || a.max_len != b.max_len ||
        a.zero_writes != b.zero_writes) {
      ++diverged;
    }
  }
  EXPECT_GT(diverged, 0) << "per-link streams are correlated";
}

TEST(FaultInjectionTest, DispatchSkewIsPerLinkSystematicAndDeterministic) {
  FaultProfile profile;
  profile.dispatch_delay_prob = 0.5;
  profile.max_dispatch_delay_us = 200;
  profile.link_dispatch_skew = true;
  profile.dispatch_delay_budget_us = 10'000'000;
  const uint64_t seed = 9090;
  FaultPlan a(seed, profile);
  FaultPlan b(seed, profile);
  std::set<double> mults;
  uint64_t min_spend = ~uint64_t{0};
  uint64_t max_spend = 0;
  for (uint32_t src = 0; src < 3; ++src) {
    for (uint32_t dst = 0; dst < 3; ++dst) {
      if (src == dst) {
        continue;
      }
      // The plan only ever hands out RecvLinkFaults for receive links.
      auto* ra = static_cast<RecvLinkFaults*>(a.RecvLink(src, dst));
      auto* rb = static_cast<RecvLinkFaults*>(b.RecvLink(src, dst));
      // The one-shot skew draw is a pure function of (seed, link)...
      ASSERT_EQ(ra->skew_multiplier(), rb->skew_multiplier());
      mults.insert(ra->skew_multiplier());
      uint64_t spend = 0;
      for (uint64_t i = 0; i < 4096; ++i) {
        const uint32_t d = ra->DispatchDelayUs(i);
        // ...and so is the whole delay sequence behind it.
        ASSERT_EQ(d, rb->DispatchDelayUs(i)) << "link " << src << "->" << dst
                                             << " frame " << i;
        spend += d;
      }
      EXPECT_LE(spend, profile.dispatch_delay_budget_us) << "budget overrun on link "
                                                         << src << "->" << dst;
      min_spend = std::min(min_spend, spend);
      max_spend = std::max(max_spend, spend);
    }
  }
  // Six directed links, six independent domain-separated draws: the multipliers must not
  // collapse to a common value, and the induced per-link spend must diverge
  // systematically (fast links race far ahead of slow ones).
  EXPECT_GE(mults.size(), 5u);
  EXPECT_GT(max_spend, 2 * min_spend) << "links do not diverge";
}

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);  // strips gtest flags, leaves ours
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      naiad::g_seed_override = std::strtoull(argv[i] + 7, nullptr, 0);
      std::fprintf(stderr, "fault_injection_test: replaying seed %llu only\n",
                   static_cast<unsigned long long>(*naiad::g_seed_override));
    }
  }
  return RUN_ALL_TESTS();
}
