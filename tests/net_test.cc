// Tests for the TCP transport, the distributed progress protocol, and multi-process
// (loopback cluster) execution equivalence — including the receive path under
// adversarial schedules: torn reads, EINTR storms, mid-frame EOF classification, and
// reset-then-reconnect adoption.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "src/core/io.h"
#include "src/core/loop.h"
#include "src/core/stage.h"
#include "src/net/cluster.h"
#include "src/net/socket.h"
#include "src/net/transport.h"

namespace naiad {
namespace {

TEST(SocketTest, RoundTripBytes) {
  Listener l;
  uint16_t port = l.Open();
  ASSERT_NE(port, 0);
  Socket client = Socket::ConnectLocal(port);
  ASSERT_TRUE(client.valid());
  Socket server = l.Accept();
  ASSERT_TRUE(server.valid());

  std::vector<uint8_t> msg = {1, 2, 3, 4, 5};
  ASSERT_TRUE(client.WriteAll(msg));
  std::vector<uint8_t> got(5);
  ASSERT_TRUE(server.ReadAll(got));
  EXPECT_EQ(got, msg);

  client.ShutdownBoth();
  std::vector<uint8_t> more(1);
  EXPECT_FALSE(server.ReadAll(more));  // EOF surfaces as false, not a crash
}

// State that transport callbacks update and the test thread waits on. Every update
// notifies, so a wait ends on the event; its deadline is only a backstop for a lost
// frame. Declare it before the transports whose callbacks use it, so an early return
// shuts the transports down before it goes away.
template <typename State>
class Watched {
 public:
  template <typename F>
  void Update(F f) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      f(state_);
    }
    cv_.notify_all();
  }
  // Returns whether `pred` held before the backstop expired.
  template <typename Pred>
  bool WaitUntil(Pred pred) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30), [&] { return pred(state_); });
  }
  State Get() {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  State state_{};
};

// Data frames received by one transport of a test mesh, and its progress frames.
struct FrameCounts {
  uint32_t data = 0;
  uint32_t progress = 0;
};

TEST(TransportTest, MeshDeliversFramesFifoPerPair) {
  constexpr uint32_t kProcs = 3;
  constexpr uint32_t kPer = 200;
  const size_t expect = (kProcs - 1) * kPer;
  using Received = std::map<uint32_t, std::vector<std::pair<uint32_t, uint32_t>>>;
  Watched<Received> received;  // dst -> (src, seq)
  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<uint16_t> ports;
  for (uint32_t p = 0; p < kProcs; ++p) {
    transports.push_back(std::make_unique<TcpTransport>(p, kProcs));
    ports.push_back(transports.back()->Listen());
  }
  std::vector<std::thread> starters;
  for (uint32_t p = 0; p < kProcs; ++p) {
    starters.emplace_back([&, p] {
      TcpTransport::Callbacks cb;
      cb.on_frame = [&, p](FrameType type, uint32_t src, uint32_t /*job*/,
                           std::span<const uint8_t> payload) {
        if (type != FrameType::kData) {
          return;
        }
        ByteReader r(payload);
        uint32_t seq = r.ReadU32();
        received.Update([&](Received& m) { m[p].emplace_back(src, seq); });
      };
      transports[p]->Start(ports, std::move(cb));
    });
  }
  for (auto& t : starters) {
    t.join();
  }

  for (uint32_t src = 0; src < kProcs; ++src) {
    for (uint32_t seq = 0; seq < kPer; ++seq) {
      for (uint32_t dst = 0; dst < kProcs; ++dst) {
        if (dst == src) {
          continue;
        }
        ByteWriter w;
        w.WriteU32(seq);
        transports[src]->Send(dst, FrameType::kData, std::move(w.buffer()));
      }
    }
  }
  received.WaitUntil([&](const Received& m) {
    size_t total = 0;
    for (const auto& [dst, v] : m) {
      total += v.size();
    }
    return total == expect * kProcs;
  });
  for (auto& t : transports) {
    t->Shutdown();
  }
  Received got = received.Get();
  for (uint32_t dst = 0; dst < kProcs; ++dst) {
    ASSERT_EQ(got[dst].size(), expect);
    std::map<uint32_t, uint32_t> next;  // per-src FIFO check
    for (auto [src, seq] : got[dst]) {
      EXPECT_EQ(seq, next[src]++);
    }
  }
}

// Regression: Send()/BroadcastFrame() used to bump frames_sent_/bytes_sent_ *before*
// noticing the link was closed, then silently drop the frame — inflating the wire totals
// that the termination barrier's stability check and the Fig. 6a/6c accounting read.
// Counters must reflect only frames actually handed to a sender thread.
TEST(TransportTest, DroppedFramesOnClosedLinkAreNotCounted) {
  constexpr uint32_t kProcs = 2;
  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<uint16_t> ports;
  for (uint32_t p = 0; p < kProcs; ++p) {
    transports.push_back(std::make_unique<TcpTransport>(p, kProcs));
    ports.push_back(transports.back()->Listen());
  }
  std::vector<std::thread> starters;
  for (uint32_t p = 0; p < kProcs; ++p) {
    starters.emplace_back([&, p] {
      TcpTransport::Callbacks cb;
      cb.on_frame = [](FrameType, uint32_t, uint32_t, std::span<const uint8_t>) {};
      transports[p]->Start(ports, std::move(cb));
    });
  }
  for (auto& t : starters) {
    t.join();
  }

  // One real frame establishes the baseline and proves the counted path still counts.
  ByteWriter w;
  w.WriteU32(7);
  transports[0]->Send(1, FrameType::kData, std::move(w.buffer()));
  for (int spin = 0; spin < 2000; ++spin) {
    if (transports[1]->frames_received(FrameType::kData) == 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t frames = transports[0]->frames_sent(FrameType::kData);
  const uint64_t bytes = transports[0]->bytes_sent(FrameType::kData);
  EXPECT_EQ(frames, 1u);
  EXPECT_EQ(transports[1]->frames_received(FrameType::kData), frames);

  // Shutdown closes every send link; subsequent sends are dropped and must not count.
  transports[0]->Shutdown();
  for (int i = 0; i < 16; ++i) {
    ByteWriter wd;
    wd.WriteU32(9);
    transports[0]->Send(1, FrameType::kData, std::move(wd.buffer()));
  }
  const std::vector<uint8_t> payload = {1, 2, 3};
  transports[0]->BroadcastFrame(FrameType::kProgress, payload, /*include_self=*/false);
  EXPECT_EQ(transports[0]->frames_sent(FrameType::kData), frames);
  EXPECT_EQ(transports[0]->bytes_sent(FrameType::kData), bytes);
  EXPECT_EQ(transports[0]->frames_sent(FrameType::kProgress), 0u);
  EXPECT_EQ(transports[0]->bytes_sent(FrameType::kProgress), 0u);
  transports[1]->Shutdown();
}

// --- Receive-path fault coverage ------------------------------------------------------
//
// These tests drive exact torn-read / EINTR / reset schedules against Socket::ReadExact
// and a live TcpTransport receiver, where the seeded sweep (fault_injection_test) only
// samples them.

// Replays a fixed cycle of ReadSteps so a test controls the recv() schedule precisely.
class ScriptedReadFaults final : public ReadFaultHook {
 public:
  explicit ScriptedReadFaults(std::vector<ReadStep> script) : script_(std::move(script)) {}
  ReadStep Next(size_t /*remaining*/) override {
    const ReadStep step = script_.empty() ? ReadStep{} : script_[consulted_ % script_.size()];
    ++consulted_;
    return step;
  }
  uint64_t consulted() const { return consulted_; }

 private:
  std::vector<ReadStep> script_;
  uint64_t consulted_ = 0;
};

std::pair<Socket, Socket> LocalPair() {
  Listener l;
  uint16_t port = l.Open();
  Socket client = Socket::ConnectLocal(port);
  Socket server = l.Accept();
  return {std::move(client), std::move(server)};
}

// The dial/rebind backoff schedule is a pure function of (policy, seed, attempt):
// deterministic for replay, equal-jittered within [base/2, base], exponentially grown,
// and saturating at the cap — so two processes hammering the same lost listener
// desynchronize without either one spinning or sleeping unboundedly.
TEST(SocketTest, BackoffScheduleIsDeterministicJitteredAndCapped) {
  const BackoffPolicy policy{.initial_delay_us = 200, .max_delay_us = 5000,
                             .max_attempts = 12};
  const Backoff a(policy, 42), b(policy, 42), c(policy, 43);
  EXPECT_EQ(a.DelayUsForAttempt(0), 0u);  // first attempt is immediate
  bool diverged = false;
  for (uint32_t k = 1; k < policy.max_attempts; ++k) {
    const uint32_t d = a.DelayUsForAttempt(k);
    EXPECT_EQ(d, b.DelayUsForAttempt(k));  // same (policy, seed) => same schedule
    diverged = diverged || d != c.DelayUsForAttempt(k);
    uint64_t base = uint64_t{policy.initial_delay_us} << (k - 1);
    if (base >= policy.max_delay_us) {
      base = policy.max_delay_us;
    }
    EXPECT_GE(d, base / 2) << "attempt " << k;
    EXPECT_LE(d, base) << "attempt " << k;
  }
  EXPECT_TRUE(diverged);  // different seeds desynchronize somewhere in the schedule
  // Total sleep across every attempt is bounded by the worst-case sum, so a dial of a
  // dead port costs a known, finite wait.
  uint64_t worst = 0;
  for (uint32_t k = 0; k < policy.max_attempts; ++k) {
    worst += a.DelayUsForAttempt(k);
  }
  EXPECT_LE(worst, uint64_t{policy.max_attempts} * policy.max_delay_us);
}

TEST(SocketTest, BackoffNextStopsAtMaxAttempts) {
  Backoff b(BackoffPolicy{.initial_delay_us = 1, .max_delay_us = 2, .max_attempts = 3},
            7);
  EXPECT_TRUE(b.Next());
  EXPECT_TRUE(b.Next());
  EXPECT_TRUE(b.Next());
  EXPECT_FALSE(b.Next());  // exhaustion is observable, never an infinite spin
  EXPECT_EQ(b.attempts(), 3u);
}

// A dial that starts before the listener exists succeeds once the listener appears, in a
// bounded number of attempts — the behavior ConnectLocal's old fixed 200us spin provided,
// now with jittered exponential spacing.
TEST(SocketTest, ConnectLocalReachesLateListener) {
  uint16_t port;
  {
    Listener probe;  // reserve a port number, then free it for the late listener
    port = probe.Open();
    ASSERT_NE(port, 0);
  }
  Listener late;
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    late.Open(port);
  });
  uint32_t attempts = 0;
  Socket client = Socket::ConnectLocal(
      port, BackoffPolicy{.initial_delay_us = 500, .max_delay_us = 20000,
                          .max_attempts = 64},
      /*seed=*/1234, &attempts);
  opener.join();
  ASSERT_TRUE(client.valid());
  EXPECT_GT(attempts, 1u);   // the listener really was late
  EXPECT_LE(attempts, 64u);  // and the schedule stayed bounded
  Socket server = late.Accept();
  ASSERT_TRUE(server.valid());
  std::vector<uint8_t> msg = {9};
  ASSERT_TRUE(client.WriteAll(msg));
  std::vector<uint8_t> got(1);
  ASSERT_TRUE(server.ReadAll(got));
  EXPECT_EQ(got, msg);
}

// Starts policies.size() transports on a full loopback mesh, one LinkPolicy and one
// Callbacks-factory call per process, returning them started.
std::vector<std::unique_ptr<TcpTransport>> StartMesh(
    const std::vector<LinkPolicy>& policies,
    const std::function<TcpTransport::Callbacks(uint32_t)>& cb_fn,
    ClusterFaultPlan* plan = nullptr) {
  const uint32_t n = static_cast<uint32_t>(policies.size());
  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<uint16_t> ports;
  for (uint32_t p = 0; p < n; ++p) {
    transports.push_back(std::make_unique<TcpTransport>(p, n));
    transports.back()->SetLinkPolicy(policies[p]);
    transports.back()->SetFaultPlan(plan);
    ports.push_back(transports.back()->Listen());
  }
  std::vector<std::thread> starters;
  for (uint32_t p = 0; p < n; ++p) {
    starters.emplace_back([&, p] { transports[p]->Start(ports, cb_fn(p)); });
  }
  for (auto& t : starters) {
    t.join();
  }
  return transports;
}

// A peer that goes silent past the lease — socket still open, no EOF, no RST — is
// declared down in-band by the heartbeat detector. This is the failure mode EOF-driven
// detection cannot see (a hung process, a half-dead NIC) and the reason the lease exists.
TEST(TransportTest, HeartbeatLeaseDeclaresSilentPeerDown) {
  Watched<std::optional<uint32_t>> down_peer;
  // Process 0: no heartbeats, no detector — it is the "hung" peer. Process 1: detector
  // armed with a short lease; it sends nothing either, so the only way it can learn
  // about 0 is the lease expiring.
  std::vector<LinkPolicy> policies(2);
  policies[1].heartbeat_timeout_ms = 200;
  auto cb_fn = [&](uint32_t p) {
    TcpTransport::Callbacks cb;
    cb.on_frame = [](FrameType, uint32_t, uint32_t, std::span<const uint8_t>) {};
    if (p == 1) {
      cb.on_peer_down = [&](uint32_t peer) {
        down_peer.Update([&](std::optional<uint32_t>& d) { d = peer; });
      };
    }
    return cb;
  };
  auto transports = StartMesh(policies, cb_fn);
  down_peer.WaitUntil([](const std::optional<uint32_t>& d) { return d.has_value(); });
  EXPECT_EQ(down_peer.Get(), std::optional<uint32_t>(0));
  EXPECT_EQ(transports[1]->peers_declared_down(), 1u);  // declared once, not per tick
  EXPECT_EQ(transports[0]->peers_declared_down(), 0u);  // no detector on the silent side
  for (auto& t : transports) {
    t->Shutdown();
  }
}

// Heartbeats renew the lease: two otherwise-idle peers exchanging only heartbeats stay
// up well past several lease lengths. (A false positive here would mean the detector
// declares live-but-quiet peers dead, turning every idle cluster into a restart storm.)
TEST(TransportTest, HeartbeatsRenewLeaseAcrossIdlePeriods) {
  // on_peer_down legitimately fires on the EOF that teardown produces, so the test
  // counts reports and asserts the count BEFORE Shutdown instead of failing inline.
  std::atomic<uint32_t> downs{0};
  std::vector<LinkPolicy> policies(2);
  for (auto& p : policies) {
    p.heartbeat_interval_ms = 20;
    p.heartbeat_timeout_ms = 250;
  }
  auto cb_fn = [&](uint32_t) {
    TcpTransport::Callbacks cb;
    cb.on_frame = [](FrameType, uint32_t, uint32_t, std::span<const uint8_t>) {};
    cb.on_peer_down = [&](uint32_t) { downs.fetch_add(1); };
    return cb;
  };
  auto transports = StartMesh(policies, cb_fn);
  std::this_thread::sleep_for(std::chrono::milliseconds(800));  // > 3 lease lengths
  EXPECT_EQ(downs.load(), 0u);  // no false positive while heartbeats flowed
  EXPECT_EQ(transports[0]->peers_declared_down(), 0u);
  EXPECT_EQ(transports[1]->peers_declared_down(), 0u);
  EXPECT_GT(transports[0]->heartbeats_sent(), 0u);
  EXPECT_GT(transports[0]->heartbeats_received(), 0u);
  EXPECT_GT(transports[1]->heartbeats_received(), 0u);
  for (auto& t : transports) {
    t->Shutdown();
  }
}

// Holds the 0 -> 1 sender thread before its first frame until Open(), so every frame sent
// meanwhile must wait in the send queue. Content-preserving: it only delays the write.
class SenderGate final : public ClusterFaultPlan, public LinkFaultHook {
 public:
  LinkFaultHook* Link(uint32_t src, uint32_t dst) override {
    return src == 0 && dst == 1 ? this : nullptr;
  }
  ProgressFaultHook* Progress(uint32_t) override { return nullptr; }
  WriteStep Next(size_t) override { return {}; }
  bool ShouldResetBefore(uint64_t) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
    return false;
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Slow-receiver soak, the bounded-memory property: with max_queue_bytes set,
// the sender's per-link data queue never exceeds the bound no matter how far the
// receiver falls behind, progress frames keep flowing through the congestion (they are
// flow-control-exempt), and the run still completes. The unbounded control run shows the
// pre-policy behavior the bound removes: the queue absorbs the whole soak. Both runs
// gate the sender thread, so neither depends on the producer outrunning the socket
// (loopback socket buffers can absorb the whole soak): the bounded run until the
// producer has stalled on the bound, the unbounded one until the producer is done.
TEST(TransportTest, SlowReceiverSoakKeepsSendQueueBounded) {
  constexpr size_t kBound = 32 * 1024;
  constexpr uint32_t kDataFrames = 400;
  constexpr uint32_t kProgressFrames = 50;
  constexpr size_t kPayload = 1024;
  auto run_soak = [&](bool bounded) {
    Watched<FrameCounts> got;
    SenderGate gate;
    std::vector<LinkPolicy> policies(2);
    if (bounded) {
      policies[0].max_queue_bytes = kBound;
    }
    auto cb_fn = [&](uint32_t p) {
      TcpTransport::Callbacks cb;
      cb.on_frame = [&, p](FrameType type, uint32_t, uint32_t, std::span<const uint8_t>) {
        if (p != 1) {
          return;
        }
        if (type == FrameType::kData) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));  // slow consumer
          got.Update([](FrameCounts& c) { ++c.data; });
        } else if (type == FrameType::kProgress) {
          got.Update([](FrameCounts& c) { ++c.progress; });
        }
      };
      return cb;
    };
    auto transports = StartMesh(policies, cb_fn, &gate);
    std::thread producer([&] {
      for (uint32_t i = 0; i < kDataFrames; ++i) {
        transports[0]->Send(1, FrameType::kData, std::vector<uint8_t>(kPayload, 0xab));
      }
    });
    if (bounded) {
      // The gated queue cannot drain, so the producer must stall on the bound. The
      // transport announces no stall, so this one wait polls its counter; the deadline
      // is only a backstop.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (transports[0]->credit_stalls() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      gate.Open();
    }
    // Progress must flow while the data path is congested (the bounded run's producer
    // spends most of the soak blocked on the bound).
    for (uint32_t i = 0; i < kProgressFrames; ++i) {
      transports[0]->Send(1, FrameType::kProgress, std::vector<uint8_t>{1, 2, 3});
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    producer.join();
    gate.Open();
    got.WaitUntil([&](const FrameCounts& c) {
      return c.data == kDataFrames && c.progress == kProgressFrames;
    });
    const uint64_t hwm = transports[0]->send_queue_hwm_bytes(1);
    const uint64_t stalls = transports[0]->credit_stalls();
    for (auto& t : transports) {
      t->Shutdown();
    }
    EXPECT_EQ(got.Get().data, kDataFrames);          // the run completes…
    EXPECT_EQ(got.Get().progress, kProgressFrames);  // …and progress never starved
    return std::pair<uint64_t, uint64_t>{hwm, stalls};
  };
  const auto [bounded_hwm, bounded_stalls] = run_soak(/*bounded=*/true);
  EXPECT_LE(bounded_hwm, kBound);
  EXPECT_GT(bounded_stalls, 0u);  // the bound actually bit
  const auto [unbounded_hwm, unbounded_stalls] = run_soak(/*bounded=*/false);
  EXPECT_GT(unbounded_hwm, kBound);  // pre-policy behavior: queue grows past any bound
  EXPECT_EQ(unbounded_stalls, 0u);
}

// Receiver-granted credit: with a credit window, in-flight data is capped by what the
// peer's heartbeats have acknowledged as consumed, so a slow receiver throttles the
// sender end-to-end (not just at the local queue) — and every frame still arrives.
TEST(TransportTest, CreditWindowThrottlesToReceiverConsumption) {
  constexpr uint32_t kFrames = 100;
  Watched<uint32_t> data_got;
  std::vector<LinkPolicy> policies(2);
  for (auto& p : policies) {
    p.heartbeat_interval_ms = 5;  // grants ride the heartbeats; keep them frequent
  }
  policies[0].credit_window_bytes = 4 * 1024;
  auto cb_fn = [&](uint32_t p) {
    TcpTransport::Callbacks cb;
    cb.on_frame = [&, p](FrameType type, uint32_t, uint32_t, std::span<const uint8_t>) {
      if (p == 1 && type == FrameType::kData) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        data_got.Update([](uint32_t& n) { ++n; });
      }
    };
    return cb;
  };
  auto transports = StartMesh(policies, cb_fn);
  for (uint32_t i = 0; i < kFrames; ++i) {
    transports[0]->Send(1, FrameType::kData, std::vector<uint8_t>(1024, 0xcd));
  }
  data_got.WaitUntil([&](uint32_t n) { return n == kFrames; });
  EXPECT_EQ(data_got.Get(), kFrames);  // credit throttles, it never loses
  EXPECT_GT(transports[0]->credit_stalls(), 0u);
  EXPECT_GT(transports[1]->heartbeats_sent(), 0u);  // the grants actually flowed
  for (auto& t : transports) {
    t->Shutdown();
  }
}

// Shed mode: when the bound is hit, data frames are dropped-and-counted instead of
// blocking the producer — but progress frames are never shed, and the accounting closes:
// every data frame either arrived or was counted shed. The sender thread is gated until
// the producer is done, so the bound must be hit however fast the socket drains.
TEST(TransportTest, ShedModeDropsOnlyDataAndCountsEveryDrop) {
  constexpr uint32_t kDataFrames = 200;
  constexpr uint32_t kProgressFrames = 20;
  Watched<FrameCounts> got;
  SenderGate gate;
  std::vector<LinkPolicy> policies(2);
  policies[0].max_queue_bytes = 8 * 1024;
  policies[0].shed_data = true;
  auto cb_fn = [&](uint32_t p) {
    TcpTransport::Callbacks cb;
    cb.on_frame = [&, p](FrameType type, uint32_t, uint32_t, std::span<const uint8_t>) {
      if (p != 1) {
        return;
      }
      if (type == FrameType::kData) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        got.Update([](FrameCounts& c) { ++c.data; });
      } else if (type == FrameType::kProgress) {
        got.Update([](FrameCounts& c) { ++c.progress; });
      }
    };
    return cb;
  };
  auto transports = StartMesh(policies, cb_fn, &gate);
  for (uint32_t i = 0; i < kDataFrames; ++i) {
    transports[0]->Send(1, FrameType::kData, std::vector<uint8_t>(1024, 0xee));
    if (i % 10 == 0) {
      transports[0]->Send(1, FrameType::kProgress, std::vector<uint8_t>{7});
    }
  }
  gate.Open();
  const uint64_t shed = transports[0]->frames_shed();  // final: sheds happen in Send
  got.WaitUntil([&](const FrameCounts& c) {
    return c.data + shed >= kDataFrames && c.progress == kProgressFrames;
  });
  EXPECT_GT(shed, 0u);  // overload was real and observable
  EXPECT_EQ(got.Get().data + shed, kDataFrames);
  EXPECT_EQ(got.Get().progress, kProgressFrames);  // progress is never shed
  for (auto& t : transports) {
    t->Shutdown();
  }
}

// Regression for the EOF-classification audit: a peer close before the first byte of the
// span is a clean boundary (kEof); a close after partial progress is a torn read (kError)
// and must never surface as a short success.
TEST(SocketTest, ReadExactDistinguishesCleanEofFromTornRead) {
  {
    auto [client, server] = LocalPair();
    client.Close();
    std::vector<uint8_t> buf(9);
    const ReadResult r = server.ReadExact(buf);
    EXPECT_EQ(r.status, ReadResult::Status::kEof);
    EXPECT_EQ(r.bytes_read, 0u);
    EXPECT_EQ(r.err, 0);
  }
  {
    auto [client, server] = LocalPair();
    const std::vector<uint8_t> partial = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_TRUE(client.WriteAll(partial));
    client.Close();
    std::vector<uint8_t> buf(9);
    const ReadResult r = server.ReadExact(buf);
    EXPECT_EQ(r.status, ReadResult::Status::kError);
    EXPECT_EQ(r.bytes_read, 4u);
    EXPECT_EQ(r.err, 0);  // orderly close mid-span, not an errno failure
  }
}

// An EINTR storm plus torn reads (1-5 byte chunks) during ReadExact must reshape only the
// syscall schedule: every byte still arrives, in order, exactly once.
TEST(SocketTest, EintrStormAndTornReadsPreserveByteStream) {
  auto [client, server] = LocalPair();
  ScriptedReadFaults faults({
      ReadStep{.delay_us = 0, .max_len = 3, .eintr_spins = 2},
      ReadStep{.max_len = 1},
      ReadStep{.delay_us = 20, .max_len = 5, .eintr_spins = 1},
      ReadStep{.max_len = 2, .eintr_spins = 3},
  });
  server.SetReadFaults(&faults);
  std::vector<uint8_t> msg(4096);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  std::thread writer([&client, &msg] { EXPECT_TRUE(client.WriteAll(msg)); });
  std::vector<uint8_t> got(msg.size());
  const ReadResult r = server.ReadExact(got);
  writer.join();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.bytes_read, msg.size());
  EXPECT_EQ(got, msg);
  // The chunk caps (max 5 bytes per step) force the read through many faulted attempts.
  EXPECT_GE(faults.consulted(), msg.size() / 5);
}

// A transport with one real endpoint (pid 1 of 2) whose "process 0" peer is the test:
// raw sockets dial the transport's listener, complete the u32 handshake, and write frames
// byte-by-whatever-schedule the test wants. The stub listener only exists so Start()'s
// mesh dial of process 0 succeeds.
class RecvHarness {
 public:
  explicit RecvHarness(ClusterFaultPlan* plan = nullptr) : transport_(1, 2) {
    if (plan != nullptr) {
      transport_.SetFaultPlan(plan);
    }
    const uint16_t my_port = transport_.Listen();
    const uint16_t stub_port = stub_.Open();
    port_ = my_port;
    TcpTransport::Callbacks cb;
    cb.on_frame = [this](FrameType type, uint32_t src, uint32_t /*job*/,
                         std::span<const uint8_t> payload) {
      if (type != FrameType::kData) {
        return;
      }
      EXPECT_EQ(src, 0u);
      got_.Update([&](Frames& g) { g.emplace_back(payload.begin(), payload.end()); });
    };
    transport_.Start({stub_port, my_port}, std::move(cb));
  }
  ~RecvHarness() { transport_.Shutdown(); }

  // Dials the transport as "process 0" and completes the identifying handshake
  // ([u32 src][u32 restart generation]).
  Socket Dial() {
    Socket s = Socket::ConnectLocal(port_);
    EXPECT_TRUE(s.valid());
    const uint32_t hello[2] = {0, 0};
    EXPECT_TRUE(s.WriteAll(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(hello), sizeof(hello))));
    return s;
  }

  // A fully framed kData wire frame from process 0 (job 0). `seq` is the per-link
  // per-type sequence number the receiver's dedup tracks: it only advances on fully
  // delivered frames, so a test that tears a frame must re-send it with the *same* seq
  // on the replacement connection (exactly what a real sender's numbering produces —
  // torn writes kill the link, they never skip a number).
  static std::vector<uint8_t> Frame(std::span<const uint8_t> payload, uint64_t seq = 0) {
    ByteWriter w;
    w.WriteU32(static_cast<uint32_t>(payload.size()));
    w.WriteU8(static_cast<uint8_t>(FrameType::kData));
    w.WriteU32(0);
    w.WriteU32(0);  // job
    w.WriteU64(seq);
    w.WriteBytes(payload.data(), payload.size());
    return std::move(w.buffer());
  }

  bool WaitForCount(size_t n) {
    got_.WaitUntil([&](const Frames& g) { return g.size() >= n; });
    return got_.Get().size() == n;
  }
  std::vector<std::vector<uint8_t>> Received() { return got_.Get(); }
  TcpTransport& transport() { return transport_; }

 private:
  using Frames = std::vector<std::vector<uint8_t>>;
  Watched<Frames> got_;  // before transport_: its receiver thread writes here
  Listener stub_;  // "process 0"'s listener; its connection from Start() is never used
  TcpTransport transport_;
  uint16_t port_ = 0;
};

bool WaitFor(const std::function<bool()>& pred) {
  for (int spin = 0; spin < 3000; ++spin) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// EOF inside the 21-byte header is a torn frame: counted, never dispatched, and the link
// survives to serve a replacement connection.
TEST(TransportRecvTest, TornReadMidHeaderIsLinkErrorNotFrame) {
  RecvHarness h;
  const std::vector<uint8_t> payload = {10, 20, 30, 40, 50};
  {
    Socket peer = h.Dial();
    const std::vector<uint8_t> frame = RecvHarness::Frame(payload);
    ASSERT_TRUE(peer.WriteAll(std::span<const uint8_t>(frame).first(4)));
  }  // close with 4 of 21 header bytes delivered
  EXPECT_TRUE(WaitFor([&] { return h.transport().recv_torn_frames() == 1; }));
  EXPECT_EQ(h.Received().size(), 0u);  // the partial frame was abandoned, not dispatched
  EXPECT_EQ(h.transport().recv_boundary_resets(), 0u);

  Socket replacement = h.Dial();
  ASSERT_TRUE(replacement.WriteAll(RecvHarness::Frame(payload)));
  ASSERT_TRUE(h.WaitForCount(1));
  EXPECT_EQ(h.Received()[0], payload);
}

// EOF inside the body — even a "clean" close at body offset 0, since the header was
// already consumed — is likewise torn, never a short frame.
TEST(TransportRecvTest, TornReadMidBodyIsLinkErrorNotShortFrame) {
  RecvHarness h;
  std::vector<uint8_t> payload(100);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i);
  }
  {
    Socket peer = h.Dial();
    const std::vector<uint8_t> frame = RecvHarness::Frame(payload);
    ASSERT_TRUE(peer.WriteAll(
        std::span<const uint8_t>(frame).first(kFrameWireHeaderBytes + 40)));
  }  // close with the header and 40 of 100 body bytes delivered
  EXPECT_TRUE(WaitFor([&] { return h.transport().recv_torn_frames() == 1; }));
  EXPECT_EQ(h.Received().size(), 0u);
  EXPECT_EQ(h.transport().frames_received(FrameType::kData), 0u);

  Socket replacement = h.Dial();
  ASSERT_TRUE(replacement.WriteAll(RecvHarness::Frame(payload)));
  ASSERT_TRUE(h.WaitForCount(1));
  EXPECT_EQ(h.Received()[0], payload);
}

// The reset-then-reconnect shape the sender-side harness produces: a replacement
// connection arrives (and sits pending) while a frame is still partially in flight on the
// old connection. The receiver must drain the old connection to EOF — completing that
// frame and any behind it — before adopting the replacement. FIFO across the reconnect.
TEST(TransportRecvTest, ReconnectAdoptionWaitsForPartialFrameInFlight) {
  RecvHarness h;
  const std::vector<uint8_t> p1 = {1, 1, 1, 1, 1, 1, 1, 1};
  const std::vector<uint8_t> p2 = {2, 2, 2};
  const std::vector<uint8_t> p3 = {3, 3, 3, 3, 3};
  const std::vector<uint8_t> f1 = RecvHarness::Frame(p1, /*seq=*/0);
  Socket a = h.Dial();
  // Frame 1 goes out torn across the window: header plus half the body now...
  ASSERT_TRUE(a.WriteAll(
      std::span<const uint8_t>(f1).first(kFrameWireHeaderBytes + p1.size() / 2)));
  // ...the replacement dials in and is queued while frame 1 is still in flight...
  Socket b = h.Dial();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...then the old connection finishes frame 1, ships frame 2, and closes on the
  // boundary, exactly like a sender-side ResetLink.
  ASSERT_TRUE(a.WriteAll(
      std::span<const uint8_t>(f1).subspan(kFrameWireHeaderBytes + p1.size() / 2)));
  ASSERT_TRUE(a.WriteAll(RecvHarness::Frame(p2, /*seq=*/1)));
  a.Close();
  ASSERT_TRUE(b.WriteAll(RecvHarness::Frame(p3, /*seq=*/2)));

  ASSERT_TRUE(h.WaitForCount(3));
  const auto got = h.Received();
  EXPECT_EQ(got[0], p1);
  EXPECT_EQ(got[1], p2);
  EXPECT_EQ(got[2], p3);
  EXPECT_EQ(h.transport().recv_torn_frames(), 0u);
  EXPECT_EQ(h.transport().recv_boundary_resets(), 0u);
}

// A hard reset (RST) landing exactly on a frame boundary is recoverable and classified
// separately from a torn frame: every frame written before the abort was delivered, so
// the receiver waits for a replacement rather than flagging corruption.
TEST(TransportRecvTest, BoundaryResetIsClassifiedAndRecovered) {
  RecvHarness h;
  const std::vector<uint8_t> p1 = {7, 7, 7};
  const std::vector<uint8_t> p2 = {8, 8, 8, 8};
  Socket a = h.Dial();
  ASSERT_TRUE(a.WriteAll(RecvHarness::Frame(p1, /*seq=*/0)));
  // Frame 1 must be fully consumed before the reset so it lands on the boundary (an RST
  // discards any bytes still buffered in the receiver's kernel socket).
  ASSERT_TRUE(h.WaitForCount(1));
  const linger lg = {.l_onoff = 1, .l_linger = 0};
  ASSERT_EQ(::setsockopt(a.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)), 0);
  a.Close();  // RST instead of FIN
  EXPECT_TRUE(WaitFor([&] { return h.transport().recv_boundary_resets() == 1; }));
  EXPECT_EQ(h.transport().recv_torn_frames(), 0u);

  Socket b = h.Dial();
  ASSERT_TRUE(b.WriteAll(RecvHarness::Frame(p2, /*seq=*/1)));
  ASSERT_TRUE(h.WaitForCount(2));
  EXPECT_EQ(h.Received()[1], p2);
}

// A frame delivered twice with the same per-type sequence number — the shape the
// duplicate-delivery fault class injects — is dispatched exactly once: the second copy
// is dropped, counted in recv_dup_frames, and excluded from frames_received, so the
// termination barrier's traffic accounting still converges.
TEST(TransportRecvTest, DuplicateSequenceNumberIsDroppedNotRedelivered) {
  RecvHarness h;
  const std::vector<uint8_t> p1 = {5, 6, 7};
  const std::vector<uint8_t> p2 = {8, 9};
  Socket peer = h.Dial();
  const std::vector<uint8_t> f1 = RecvHarness::Frame(p1, /*seq=*/0);
  ASSERT_TRUE(peer.WriteAll(f1));
  ASSERT_TRUE(peer.WriteAll(f1));  // duplicate delivery: same bytes, same seq
  ASSERT_TRUE(peer.WriteAll(RecvHarness::Frame(p2, /*seq=*/1)));
  ASSERT_TRUE(h.WaitForCount(2));
  const auto got = h.Received();
  EXPECT_EQ(got[0], p1);
  EXPECT_EQ(got[1], p2);
  EXPECT_EQ(h.transport().recv_dup_frames(), 1u);
  // The receive counter is bumped after the frame is handed over, so it can trail the
  // handler's notify; it must still settle at exactly 2.
  EXPECT_TRUE(
      WaitFor([&] { return h.transport().frames_received(FrameType::kData) == 2u; }));
  EXPECT_EQ(h.transport().frames_received(FrameType::kData), 2u);
}

// Dedup state must survive connection replacement: a duplicate re-delivered on the
// *replacement* connection (the realistic reset-replay shape) is still recognized,
// because both sides number frames per link, not per connection.
TEST(TransportRecvTest, DedupStateSurvivesReplacementConnection) {
  RecvHarness h;
  const std::vector<uint8_t> p1 = {1, 2};
  const std::vector<uint8_t> p2 = {3, 4, 5};
  {
    Socket a = h.Dial();
    ASSERT_TRUE(a.WriteAll(RecvHarness::Frame(p1, /*seq=*/0)));
  }  // boundary close after frame 1 delivers
  ASSERT_TRUE(h.WaitForCount(1));
  Socket b = h.Dial();
  ASSERT_TRUE(b.WriteAll(RecvHarness::Frame(p1, /*seq=*/0)));  // replayed duplicate
  ASSERT_TRUE(b.WriteAll(RecvHarness::Frame(p2, /*seq=*/1)));
  ASSERT_TRUE(h.WaitForCount(2));
  EXPECT_EQ(h.Received()[1], p2);
  EXPECT_EQ(h.transport().recv_dup_frames(), 1u);
}

// Deterministic receive-side schedule storm at the transport layer: torn reads (1-3 byte
// chunks), modeled EINTR, read stalls, dispatch delays, and adoption delays, with 50
// frames of varying size written as one burst so chunk boundaries land everywhere. The
// faults may only reshape timing: content, order, and counts must be exact.
class StormRecvFaults final : public RecvLinkFaultHook {
 public:
  ReadStep Next(size_t /*remaining*/) override {
    ++steps_;
    ReadStep s;
    s.max_len = 1 + steps_ % 3;
    if (steps_ % 5 == 0) {
      s.eintr_spins = 2;
    }
    if (steps_ % 17 == 0) {
      s.delay_us = 10;
    }
    return s;
  }
  uint32_t DispatchDelayUs(uint64_t frame_index) override {
    return frame_index % 4 == 0 ? 50 : 0;
  }
  uint32_t AdoptionDelayUs(uint64_t /*replacement_index*/) override { return 100; }

 private:
  uint64_t steps_ = 0;
};

class StormPlan final : public ClusterFaultPlan {
 public:
  LinkFaultHook* Link(uint32_t, uint32_t) override { return nullptr; }
  ProgressFaultHook* Progress(uint32_t) override { return nullptr; }
  RecvLinkFaultHook* RecvLink(uint32_t, uint32_t) override { return &faults_; }

 private:
  StormRecvFaults faults_;
};

TEST(TransportRecvTest, ReadFaultStormPreservesFifoAndContent) {
  StormPlan plan;
  RecvHarness h(&plan);
  constexpr size_t kFrames = 50;
  std::vector<std::vector<uint8_t>> payloads;
  std::vector<uint8_t> wire;
  for (size_t i = 0; i < kFrames; ++i) {
    std::vector<uint8_t> p(1 + (i * 13) % 47);
    for (size_t j = 0; j < p.size(); ++j) {
      p[j] = static_cast<uint8_t>(i ^ (j * 3));
    }
    const std::vector<uint8_t> frame = RecvHarness::Frame(p, /*seq=*/i);
    wire.insert(wire.end(), frame.begin(), frame.end());
    payloads.push_back(std::move(p));
  }
  Socket peer = h.Dial();
  ASSERT_TRUE(peer.WriteAll(wire));
  ASSERT_TRUE(h.WaitForCount(kFrames));
  const auto got = h.Received();
  ASSERT_EQ(got.size(), kFrames);
  for (size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(got[i], payloads[i]) << "frame " << i;
  }
  EXPECT_EQ(h.transport().recv_torn_frames(), 0u);
}

// Regression: Shutdown() while a receiver is blocked mid-frame and a silent replacement
// sits pending must return promptly. The receiver's teardown-unblocked read must neither
// count as a torn frame nor adopt the pending connection (whose dialer never closes it —
// nothing would ever unblock that read).
TEST(TransportRecvTest, ShutdownWithPendingReplacementAndBlockedReadReturns) {
  RecvHarness h;
  Socket a = h.Dial();
  std::vector<uint8_t> payload(100, 0xab);
  const std::vector<uint8_t> frame = RecvHarness::Frame(payload);
  // Park the receiver mid-body on connection A...
  ASSERT_TRUE(a.WriteAll(
      std::span<const uint8_t>(frame).first(kFrameWireHeaderBytes + 40)));
  // ...queue a replacement whose dialer stays silent forever...
  Socket b = h.Dial();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...and tear down. Both sockets stay open across the call: only Shutdown itself may
  // unblock the receiver.
  const auto t0 = std::chrono::steady_clock::now();
  h.transport().Shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_EQ(h.transport().recv_torn_frames(), 0u);  // local teardown is not a link fault
}

// Regression: a dialer that connects but never sends its identifying handshake must not
// pin Shutdown() forever (shutting the listener down unblocks Accept, but not an
// in-progress handshake read — Shutdown must unblock that fd explicitly).
TEST(TransportTest, ShutdownUnblocksStalledHandshake) {
  TcpTransport t(0, 1);  // no peers, but the acceptor loop still runs
  const uint16_t port = t.Listen();
  TcpTransport::Callbacks cb;
  cb.on_frame = [](FrameType, uint32_t, uint32_t, std::span<const uint8_t>) {};
  t.Start({port}, std::move(cb));
  Socket silent = Socket::ConnectLocal(port);
  ASSERT_TRUE(silent.valid());
  // Let the acceptor pick the connection up and park in the handshake read.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = std::chrono::steady_clock::now();
  t.Shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

// Stress regression for the adopt-after-shutdown race: a replacement queued around the
// instant of Shutdown()'s sweep must never be adopted afterwards (its dialer never closes
// it, so adoption would hang the receiver join). The test races Shutdown against the
// acceptor queuing a silent replacement; on regression it hangs rather than fails.
TEST(TransportRecvTest, ShutdownNeverAdoptsLateReplacementStress) {
  for (int iter = 0; iter < 15; ++iter) {
    auto h = std::make_unique<RecvHarness>();
    const std::vector<uint8_t> p = {1, 2, 3};
    {
      Socket a = h->Dial();
      ASSERT_TRUE(a.WriteAll(RecvHarness::Frame(p)));
    }  // boundary close: the receiver drains A and goes back to waiting
    ASSERT_TRUE(h->WaitForCount(1));
    Socket b = h->Dial();  // silent replacement, racing the sweep below
    if (iter % 2 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * iter));
    }
    h->transport().Shutdown();  // must return regardless of where b's adoption raced
  }
}

// A keyed counting vertex used for the distributed equivalence tests.
class CountPerKeyVertex final : public UnaryVertex<uint64_t, std::pair<uint64_t, uint64_t>> {
 public:
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
    for (auto [k, n] : counts_[t]) {
      output().Send(t, {k, n});
    }
    counts_.erase(t);
  }

 private:
  std::map<Timestamp, std::map<uint64_t, uint64_t>> counts_;
};

std::map<uint64_t, uint64_t> RunDistributedCount(uint32_t processes, uint32_t workers,
                                                 ProgressStrategy strategy,
                                                 ClusterStats* stats_out = nullptr) {
  std::mutex mu;
  std::map<uint64_t, uint64_t> result;
  ClusterOptions opts;
  opts.processes = processes;
  opts.workers_per_process = workers;
  opts.strategy = strategy;
  ClusterStats stats = Cluster::Run(opts, [&](Controller& ctl) {
    GraphBuilder b(ctl);
    auto [in, handle] = NewInput<uint64_t>(b);
    StageId count = b.NewStage<CountPerKeyVertex>(
        StageOptions{.name = "count"},
        [](uint32_t) { return std::make_unique<CountPerKeyVertex>(); });
    b.Connect<CountPerKeyVertex, uint64_t>(in, count, 0,
                                           [](const uint64_t& k) { return k; });
    Subscribe<std::pair<uint64_t, uint64_t>>(
        b.OutputOf<std::pair<uint64_t, uint64_t>>(count),
        [&](uint64_t, std::vector<std::pair<uint64_t, uint64_t>>& recs) {
          std::lock_guard<std::mutex> lock(mu);
          for (auto [k, n] : recs) {
            result[k] += n;
          }
        });
    ctl.Start();
    // SPMD: each process contributes its share of the records.
    const uint32_t pid = ctl.config().process_id;
    for (uint64_t epoch = 0; epoch < 3; ++epoch) {
      std::vector<uint64_t> data;
      for (uint64_t i = 0; i < 500; ++i) {
        data.push_back((pid * 977 + i) % 37);
      }
      handle->OnNext(std::move(data));
    }
    handle->OnCompleted();
    ctl.Join();
  });
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
  return result;
}

TEST(ClusterTest, DistributedCountMatchesSingleProcess) {
  std::map<uint64_t, uint64_t> single =
      RunDistributedCount(1, 4, ProgressStrategy::kDirect);
  std::map<uint64_t, uint64_t> multi =
      RunDistributedCount(3, 2, ProgressStrategy::kDirect);
  // Same total multiset of keys, scaled by process count (each process injects its share).
  uint64_t single_total = 0;
  uint64_t multi_total = 0;
  for (auto [k, n] : single) {
    single_total += n;
  }
  for (auto [k, n] : multi) {
    multi_total += n;
  }
  EXPECT_EQ(single_total, 3 * 500u);
  EXPECT_EQ(multi_total, 3 * 3 * 500u);
}

class StrategyTest : public ::testing::TestWithParam<ProgressStrategy> {};

TEST_P(StrategyTest, AllStrategiesProduceIdenticalResults) {
  ClusterStats stats;
  std::map<uint64_t, uint64_t> got = RunDistributedCount(2, 2, GetParam(), &stats);
  std::map<uint64_t, uint64_t> want;
  for (uint32_t pid = 0; pid < 2; ++pid) {
    for (uint64_t epoch = 0; epoch < 3; ++epoch) {
      for (uint64_t i = 0; i < 500; ++i) {
        ++want[(pid * 977 + i) % 37];
      }
    }
  }
  EXPECT_EQ(got, want);
  EXPECT_GT(stats.progress_frames, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
                         ::testing::Values(ProgressStrategy::kDirect,
                                           ProgressStrategy::kLocalAcc,
                                           ProgressStrategy::kGlobalAcc,
                                           ProgressStrategy::kLocalGlobalAcc),
                         [](const ::testing::TestParamInfo<ProgressStrategy>& info) {
                           switch (info.param) {
                             case ProgressStrategy::kDirect:
                               return "Direct";
                             case ProgressStrategy::kLocalAcc:
                               return "LocalAcc";
                             case ProgressStrategy::kGlobalAcc:
                               return "GlobalAcc";
                             case ProgressStrategy::kLocalGlobalAcc:
                               return "LocalGlobalAcc";
                           }
                           return "Unknown";
                         });

TEST(ClusterTest, AccumulationReducesProtocolTraffic) {
  ClusterStats direct;
  ClusterStats accumulated;
  RunDistributedCount(2, 2, ProgressStrategy::kDirect, &direct);
  RunDistributedCount(2, 2, ProgressStrategy::kLocalGlobalAcc, &accumulated);
  EXPECT_GT(direct.progress_bytes, 0u);
  // Accumulation should never send more than direct broadcast for the same computation.
  EXPECT_LE(accumulated.progress_bytes, direct.progress_bytes);
}

// Distributed loop: the countdown fixed-point from the runtime tests, across processes.
class LoopCountdownVertex final : public Unary2Vertex<uint64_t, uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    for (uint64_t x : batch) {
      if (x > 0) {
        output1().Send(t, x - 1);
      } else {
        output2().Send(t, t.coords.back());
      }
    }
  }
};

TEST(ClusterTest, DistributedLoopReachesFixedPoint) {
  std::mutex mu;
  std::multiset<uint64_t> exits;
  ClusterOptions opts;
  opts.processes = 2;
  opts.workers_per_process = 2;
  Cluster::Run(opts, [&](Controller& ctl) {
    GraphBuilder b(ctl);
    auto [in, handle] = NewInput<uint64_t>(b);
    LoopContext loop(b, 0);
    FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>();
    Stream<uint64_t> entered = loop.Ingress<uint64_t>(in);
    StageId body = b.NewStage<LoopCountdownVertex>(
        StageOptions{.name = "countdown", .depth = 1},
        [](uint32_t) { return std::make_unique<LoopCountdownVertex>(); });
    // Exchange inside the loop so iterations hop between processes.
    b.Connect<LoopCountdownVertex, uint64_t>(entered, body, 0,
                                             [](const uint64_t& x) { return x; });
    b.Connect<LoopCountdownVertex, uint64_t>(fb.stream(), body, 0,
                                             [](const uint64_t& x) { return x; });
    fb.ConnectLoop(b.OutputOf<uint64_t>(body, 0));
    Stream<uint64_t> done = loop.Egress<uint64_t>(b.OutputOf<uint64_t>(body, 1));
    Subscribe<uint64_t>(done, [&](uint64_t, std::vector<uint64_t>& recs) {
      std::lock_guard<std::mutex> lock(mu);
      exits.insert(recs.begin(), recs.end());
    });
    ctl.Start();
    if (ctl.config().process_id == 0) {
      handle->OnNext({4, 9});
    } else {
      handle->OnNext({6});
    }
    handle->OnCompleted();
    ctl.Join();
  });
  EXPECT_EQ(exits, (std::multiset<uint64_t>{4, 6, 9}));
}

// The quiet-point verdict (quiet ∧ stable ∧ balanced) as a pure table function: one case
// per clause and per kind-specific balance rule.
using QuietKind = ClusterControl::QuietKind;
using QuietReport = ClusterControl::QuietReport;

QuietReport Rep(uint64_t round, bool quiet, std::vector<uint64_t> counters) {
  QuietReport r;
  r.round = round;
  r.quiet = quiet;
  r.counters = std::move(counters);
  r.valid = true;
  return r;
}

// Per-link stall counters for one process of three: {sent-to, received-from} per frame
// type, 6 entries per peer.
std::vector<uint64_t> Links(std::vector<std::array<uint64_t, 6>> per_peer) {
  std::vector<uint64_t> v;
  for (const auto& p : per_peer) {
    v.insert(v.end(), p.begin(), p.end());
  }
  return v;
}

TEST(QuietVerdictTest, RoundZeroIsNeverOk) {
  const std::vector<QuietReport> cur(2, Rep(0, true, {5, 5, 0, 0, 0, 0}));
  const std::vector<QuietReport> none(2);  // no previous round yet
  for (QuietKind k : {QuietKind::kTermination, QuietKind::kCheckpoint}) {
    EXPECT_FALSE(ClusterControl::QuietVerdict(k, 0, cur, none));
  }
}

TEST(QuietVerdictTest, StableQuietBalancedRoundIsOk) {
  const std::vector<QuietReport> prev = {Rep(0, true, {3, 1, 2, 2, 0, 0}),
                                         Rep(0, true, {1, 3, 2, 2, 0, 0})};
  std::vector<QuietReport> cur = prev;
  for (QuietReport& r : cur) {
    r.round = 1;
  }
  EXPECT_TRUE(ClusterControl::QuietVerdict(QuietKind::kCheckpoint, 7, cur, prev));
  EXPECT_TRUE(ClusterControl::QuietVerdict(QuietKind::kTermination, 0, cur, prev));
}

TEST(QuietVerdictTest, CounterChangeBetweenRoundsIsNotOk) {
  const std::vector<QuietReport> prev = {Rep(0, true, {3, 1, 2, 2, 0, 0}),
                                         Rep(0, true, {1, 3, 2, 2, 0, 0})};
  // Both rounds balanced and quiet, but process 1 received two more data frames.
  const std::vector<QuietReport> cur = {Rep(1, true, {5, 1, 2, 2, 0, 0}),
                                        Rep(1, true, {1, 5, 2, 2, 0, 0})};
  for (QuietKind k : {QuietKind::kTermination, QuietKind::kCheckpoint}) {
    EXPECT_FALSE(ClusterControl::QuietVerdict(k, 0, cur, prev));
  }
}

TEST(QuietVerdictTest, OneParticipantNotQuietIsNotOk) {
  const std::vector<QuietReport> prev = {Rep(0, true, {0, 0, 4, 4, 0, 0}),
                                         Rep(0, true, {0, 0, 4, 4, 0, 0})};
  const std::vector<QuietReport> cur = {Rep(1, true, {0, 0, 4, 4, 0, 0}),
                                        Rep(1, false, {0, 0, 4, 4, 0, 0})};
  for (QuietKind k : {QuietKind::kTermination, QuietKind::kCheckpoint}) {
    EXPECT_FALSE(ClusterControl::QuietVerdict(k, 0, cur, prev));
  }
}

TEST(QuietVerdictTest, CheckpointRejectsUnbalancedSumsTerminationDoesNot) {
  // Quiet and stable, but one progress frame sent and never received: in flight.
  const std::vector<QuietReport> prev = {Rep(0, true, {2, 2, 3, 1, 0, 0}),
                                         Rep(0, true, {2, 2, 1, 2, 0, 0})};
  std::vector<QuietReport> cur = prev;
  for (QuietReport& r : cur) {
    r.round = 1;
  }
  EXPECT_FALSE(ClusterControl::QuietVerdict(QuietKind::kCheckpoint, 0, cur, prev));
  // Termination has no balance clause: each participant's drained tracker already rules
  // out live traffic, and the rounds only make the participants agree.
  EXPECT_TRUE(ClusterControl::QuietVerdict(QuietKind::kTermination, 0, cur, prev));
}

TEST(QuietVerdictTest, StallIgnoresVictimSlotAndFramesTowardIt) {
  // Three processes, victim 2. Survivors 0 and 1 exchanged 4 data frames each way; each
  // also sent frames toward the victim that it never received. The victim's slot holds no
  // report at all.
  const uint32_t victim = 2;
  std::vector<QuietReport> prev = {
      Rep(0, true, Links({{0, 0, 0, 0, 0, 0}, {4, 4, 0, 0, 0, 0}, {9, 1, 2, 0, 0, 0}})),
      Rep(0, true, Links({{4, 4, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}, {7, 0, 0, 0, 1, 0}})),
      QuietReport{}};
  std::vector<QuietReport> cur = prev;
  cur[0].round = cur[1].round = 1;
  EXPECT_TRUE(ClusterControl::QuietVerdict(QuietKind::kStall, victim, cur, prev));
}

TEST(QuietVerdictTest, StallSurvivorPairMismatchIsNotOk) {
  // Victim 0. Survivor 2 sent 5 progress frames to 1, which has received only 4 of them.
  const uint32_t victim = 0;
  std::vector<QuietReport> prev = {
      QuietReport{},
      Rep(0, true, Links({{0, 0, 0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}, {0, 0, 0, 4, 0, 0}})),
      Rep(0, true, Links({{0, 0, 0, 0, 0, 0}, {0, 0, 5, 0, 0, 0}, {0, 0, 0, 0, 0, 0}}))};
  std::vector<QuietReport> cur = prev;
  cur[1].round = cur[2].round = 1;
  EXPECT_FALSE(ClusterControl::QuietVerdict(QuietKind::kStall, victim, cur, prev));
}

}  // namespace
}  // namespace naiad
