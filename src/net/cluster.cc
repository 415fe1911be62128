#include "src/net/cluster.h"

#include "src/net/job_server.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "src/base/event_count.h"
#include "src/base/stopwatch.h"
#include "src/ser/bytes.h"

namespace naiad {

namespace {

// Every state a barrier waits for is published under mu_ (or, for the atomic flags,
// followed by WakeWaiters) and notified on cv_, so barrier waits use kIdleBackstop or their
// deadline only as a backstop.
//
// Pacing between quiet-point rounds that came back not quiet: the resumed workers absorb
// the traffic still in flight before the next round pauses them again. Not a wait for any
// event; a shorter gap only spends more control-frame round trips per barrier.
constexpr auto kRoundPacing = std::chrono::microseconds(200);

// Stall-barrier patience: a survivor that cannot reach the quiet cut in this window
// (e.g. a peer that already finished and never joins the barrier) resumes and falls back
// to coordinated restart. The seed exchange gets longer — by then every process has
// already torn down its old generation, so there is nothing to fall back to and the only
// honest failure mode is a dead peer.
constexpr auto kStallTimeout = std::chrono::seconds(5);
constexpr auto kSeedTimeout = std::chrono::seconds(30);

}  // namespace

ClusterControl::TrafficCounters ClusterControl::SnapshotCounters() const {
  TrafficCounters c;
  if (traffic_ != nullptr) {
    // Job-server mode: only this job's wire traffic feeds the stability check, so another
    // job's concurrent chatter cannot keep this barrier from stabilizing (and a quiet job
    // cannot be declared stable while its own frames are still in flight).
    const auto sent = [&](FrameType t) {
      return traffic_->frames_sent[static_cast<size_t>(t)].load(std::memory_order_relaxed);
    };
    const auto recv = [&](FrameType t) {
      return traffic_->frames_received[static_cast<size_t>(t)].load(
          std::memory_order_relaxed);
    };
    c.v = {sent(FrameType::kData),        recv(FrameType::kData),
           sent(FrameType::kProgress),    recv(FrameType::kProgress),
           sent(FrameType::kProgressAcc), recv(FrameType::kProgressAcc)};
    return c;
  }
  const TcpTransport& t = *transport_;
  c.v = {t.frames_sent(FrameType::kData),        t.frames_received(FrameType::kData),
         t.frames_sent(FrameType::kProgress),    t.frames_received(FrameType::kProgress),
         t.frames_sent(FrameType::kProgressAcc), t.frames_received(FrameType::kProgressAcc)};
  return c;
}

void ClusterControl::HandleControl(uint32_t src, std::span<const uint8_t> payload) {
  ByteReader r(payload);
  const uint8_t kind = r.ReadU8();
  switch (kind) {
    case kCtlVerdict: {
      const uint64_t round = r.ReadU64();
      const bool ok = r.ReadU8() != 0;
      NAIAD_CHECK(r.ok());
      {
        std::lock_guard<std::mutex> lock(mu_);
        term_verdict_round_ = round;
        term_verdict_ok_ = ok;
        term_have_verdict_ = true;
      }
      cv_.notify_all();
      return;
    }
    case kCtlReport:
      HandleTerminationReport(src, r);
      return;
    case kCtlCkptReport:
      HandleCheckpointReport(src, r);
      return;
    case kCtlCkptVerdict: {
      const uint64_t epoch = r.ReadU64();
      const uint64_t round = r.ReadU64();
      const bool ok = r.ReadU8() != 0;
      NAIAD_CHECK(r.ok());
      {
        std::lock_guard<std::mutex> lock(mu_);
        ckpt_verdict_epoch_ = epoch;
        ckpt_verdict_round_ = round;
        ckpt_verdict_ok_ = ok;
        ckpt_have_verdict_ = true;
      }
      cv_.notify_all();
      return;
    }
    case kCtlCkptDurable: {
      const uint64_t epoch = r.ReadU64();
      const bool ok = r.ReadU8() != 0;
      NAIAD_CHECK(r.ok());
      NAIAD_CHECK(transport_->process_id() == 0);  // durables only go to the coordinator
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (epoch != durable_epoch_) {
          durable_epoch_ = epoch;
          durable_acks_ = 0;
          durable_all_ok_ = true;
        }
        ++durable_acks_;
        if (!ok) {
          durable_all_ok_ = false;
        }
      }
      cv_.notify_all();
      return;
    }
    case kCtlCkptCommit: {
      const uint64_t epoch = r.ReadU64();
      const bool ok = r.ReadU8() != 0;
      NAIAD_CHECK(r.ok());
      {
        std::lock_guard<std::mutex> lock(mu_);
        ckpt_commit_epoch_ = epoch;
        ckpt_commit_ok_ = ok;
        ckpt_have_commit_ = true;
      }
      cv_.notify_all();
      return;
    }
    case kCtlFailure: {
      const uint32_t victim = r.ReadU32();
      NAIAD_CHECK(r.ok());
      if (!finished()) {
        BroadcastRecover(victim);
      }
      return;
    }
    case kCtlRecover: {
      r.ReadU32();  // victim; informational only
      NAIAD_CHECK(r.ok());
      if (!finished()) {
        recovery_requested_.store(true, std::memory_order_release);
        WakeWaiters();
      }
      return;
    }
    case kCtlSelectiveRecover: {
      const uint32_t victim = r.ReadU32();
      NAIAD_CHECK(r.ok());
      if (!finished()) {
        NoteVictim(victim);
        recovery_requested_.store(true, std::memory_order_release);
        WakeWaiters();
      }
      return;
    }
    case kCtlStallAbort: {
      stall_aborted_.store(true, std::memory_order_release);
      WakeWaiters();
      return;
    }
    case kCtlStallReport:
      HandleStallReport(src, r);
      return;
    case kCtlStallVerdict: {
      const uint64_t round = r.ReadU64();
      const bool ok = r.ReadU8() != 0;
      NAIAD_CHECK(r.ok());
      {
        std::lock_guard<std::mutex> lock(mu_);
        stall_verdict_round_ = round;
        stall_verdict_ok_ = ok;
        stall_have_verdict_ = true;
      }
      cv_.notify_all();
      return;
    }
    case kCtlSeedState: {
      // Applied on the receive thread, exactly like a progress frame; the sender paused
      // its workers before broadcasting, so per-link FIFO puts this ahead of anything
      // else it will ever emit in this generation.
      ctl_->tracker().Apply(
          DistributedProgressRouter::DecodeUpdates(payload.subspan(1)));
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++seed_frames_;
      }
      cv_.notify_all();
      return;
    }
    case kCtlSeedAck: {
      NAIAD_CHECK(transport_->process_id() == 0);  // acks only go to the coordinator
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++seed_acks_;
      }
      cv_.notify_all();
      return;
    }
    case kCtlSeedRelease: {
      {
        std::lock_guard<std::mutex> lock(mu_);
        seed_released_ = true;
      }
      cv_.notify_all();
      return;
    }
    default:
      NAIAD_CHECK(false);
  }
}

void ClusterControl::HandleTerminationReport(uint32_t src, ByteReader& r) {
  NAIAD_CHECK(transport_->process_id() == 0);  // reports only go to process 0
  Report rep;
  rep.round = r.ReadU64();
  rep.quiet = r.ReadU8() != 0;
  for (uint64_t& c : rep.counters.v) {
    c = r.ReadU64();
  }
  rep.valid = true;
  NAIAD_CHECK(r.ok());

  std::vector<uint8_t> verdict_payload;
  {
    std::lock_guard<std::mutex> lock(coord_mu_);
    const uint32_t n = transport_->processes();
    term_reports_.resize(n);
    term_prev_reports_.resize(n);
    term_reports_[src] = rep;
    for (const Report& existing : term_reports_) {
      if (!existing.valid || existing.round != term_round_) {
        return;
      }
    }
    bool ok = true;
    for (uint32_t p = 0; p < n; ++p) {
      const Report& cur = term_reports_[p];
      const Report& prev = term_prev_reports_[p];
      if (!cur.quiet || !prev.valid || !(cur.counters == prev.counters)) {
        ok = false;
        break;
      }
    }
    term_prev_reports_ = term_reports_;
    for (Report& existing : term_reports_) {
      existing.valid = false;
    }
    ByteWriter w(&verdict_payload);
    w.WriteU8(kCtlVerdict);
    w.WriteU64(term_round_);
    w.WriteU8(ok ? 1 : 0);
    ++term_round_;
  }
  transport_->BroadcastFrame(FrameType::kControl, verdict_payload, /*include_self=*/true,
                             job_);
}

void ClusterControl::HandleCheckpointReport(uint32_t src, ByteReader& r) {
  NAIAD_CHECK(transport_->process_id() == 0);
  const uint64_t epoch = r.ReadU64();
  Report rep;
  rep.round = r.ReadU64();
  rep.quiet = r.ReadU8() != 0;
  for (uint64_t& c : rep.counters.v) {
    c = r.ReadU64();
  }
  rep.valid = true;
  NAIAD_CHECK(r.ok());

  std::vector<uint8_t> verdict_payload;
  {
    std::lock_guard<std::mutex> lock(coord_mu_);
    const uint32_t n = transport_->processes();
    if (epoch != ckpt_epoch_) {  // new barrier: rounds restart per checkpoint epoch
      ckpt_epoch_ = epoch;
      ckpt_reports_.assign(n, Report{});
      ckpt_prev_reports_.assign(n, Report{});
    }
    ckpt_reports_[src] = rep;
    for (const Report& existing : ckpt_reports_) {
      if (!existing.valid || existing.round != rep.round) {
        return;
      }
    }
    // Quiet verdict: everyone locally quiet, nothing happened since the previous round
    // (two-round stability), and no frame in flight anywhere (cluster-wide sent ==
    // received per frame type; barrier control traffic is deliberately not counted).
    bool ok = true;
    for (uint32_t p = 0; p < n; ++p) {
      const Report& cur = ckpt_reports_[p];
      const Report& prev = ckpt_prev_reports_[p];
      if (!cur.quiet || !prev.valid || !(cur.counters == prev.counters)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      std::array<uint64_t, 6> sums = {};
      for (uint32_t p = 0; p < n; ++p) {
        for (size_t i = 0; i < sums.size(); ++i) {
          sums[i] += ckpt_reports_[p].counters.v[i];
        }
      }
      for (size_t i = 0; i < sums.size(); i += 2) {
        if (sums[i] != sums[i + 1]) {
          ok = false;
          break;
        }
      }
    }
    ckpt_prev_reports_ = ckpt_reports_;
    for (Report& existing : ckpt_reports_) {
      existing.valid = false;
    }
    ByteWriter w(&verdict_payload);
    w.WriteU8(kCtlCkptVerdict);
    w.WriteU64(epoch);
    w.WriteU64(rep.round);
    w.WriteU8(ok ? 1 : 0);
  }
  transport_->BroadcastFrame(FrameType::kControl, verdict_payload, /*include_self=*/true,
                             job_);
}

void ClusterControl::NoteVictim(uint32_t victim) {
  // First attribution wins: every survivor must target the same stall barrier and log
  // replay even if a second (spurious) report names someone else.
  uint32_t expected = kNoVictim;
  recovery_victim_.compare_exchange_strong(expected, victim, std::memory_order_acq_rel);
}

void ClusterControl::BroadcastRecover(uint32_t victim) {
  if (recover_broadcast_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  // Selective mode broadcasts the victim-carrying verb so survivors can stall in place
  // rather than tear down; everything else about the fan-out is identical.
  w.WriteU8(selective_mode_.load(std::memory_order_acquire) ? kCtlSelectiveRecover
                                                            : kCtlRecover);
  w.WriteU32(victim);
  // Includes self, which sets this process's own recovery flag; the send to the dead
  // victim fails harmlessly (its peer-down report deduplicates against the flag).
  transport_->BroadcastFrame(FrameType::kControl, payload, /*include_self=*/true, job_);
}

void ClusterControl::ReportFailure(uint32_t victim) {
  if (finished()) {
    return;
  }
  if (recovery_requested()) {
    // A DIFFERENT peer going down while a recovery is already pending is a survivor
    // tearing down for its coordinated restart (or a genuine second failure) — either
    // way the selective attempt is dead, and a member parked in RunStallBarrier would
    // otherwise wait out the whole verdict timeout for reports that can no longer come.
    // The kCtlStallAbort broadcast covers the graceful path; this link-EOF path is the
    // one that survives the aborter's teardown racing its own abort frame.
    if (victim != recovery_victim()) {
      stall_aborted_.store(true, std::memory_order_release);
      WakeWaiters();
    }
    return;
  }
  // Request recovery locally first: the report below can itself be lost to dying links,
  // and the supervisor's rendezvous — not this broadcast — is what guarantees liveness.
  NoteVictim(victim);
  recovery_requested_.store(true, std::memory_order_release);
  WakeWaiters();
  const uint32_t coordinator = victim == 0 ? 1 : 0;  // lowest-ranked survivor
  if (transport_->process_id() == coordinator) {
    BroadcastRecover(victim);
    return;
  }
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  w.WriteU8(kCtlFailure);
  w.WriteU32(victim);
  transport_->Send(coordinator, FrameType::kControl, std::move(payload), job_);
}

void ClusterControl::RequestRecovery(uint32_t victim) {
  if (finished()) {
    return;
  }
  if (victim != kNoVictim) {
    NoteVictim(victim);
  }
  recovery_requested_.store(true, std::memory_order_release);
  WakeWaiters();
}

void ClusterControl::Finish() { finished_.store(true, std::memory_order_release); }

void ClusterControl::WakeWaiters() {
  // The empty critical section orders the caller's flag store before any cv_ waiter's
  // predicate check under mu_, so the notify below cannot fall between check and wait.
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
  // RunTerminationBarrier waits for recovery_requested() on the tracker's drained edge
  // (WaitDrained); the recovery harness's epoch waits check it inside tracker WaitFor
  // predicates, which park on the controller's event.
  ctl_->tracker().WakeDrainWaiters();
  ctl_->event().NotifyAll();
}

ClusterControl::LinkCounters ClusterControl::SnapshotLinkCounters() const {
  const uint32_t n = transport_->processes();
  LinkCounters c;
  c.v.assign(static_cast<size_t>(n) * 6, 0);
  for (uint32_t q = 0; q < n; ++q) {
    if (q == transport_->process_id()) {
      continue;  // self-sends never cross the wire and are not in the per-link counters
    }
    const size_t base = static_cast<size_t>(q) * 6;
    c.v[base + 0] = transport_->frames_sent_to(q, FrameType::kData);
    c.v[base + 1] = transport_->frames_received_from(q, FrameType::kData);
    c.v[base + 2] = transport_->frames_sent_to(q, FrameType::kProgress);
    c.v[base + 3] = transport_->frames_received_from(q, FrameType::kProgress);
    c.v[base + 4] = transport_->frames_sent_to(q, FrameType::kProgressAcc);
    c.v[base + 5] = transport_->frames_received_from(q, FrameType::kProgressAcc);
  }
  return c;
}

void ClusterControl::HandleStallReport(uint32_t src, ByteReader& r) {
  const uint32_t victim = r.ReadU32();
  StallReport rep;
  rep.round = r.ReadU64();
  rep.quiet = r.ReadU8() != 0;
  const uint32_t n = transport_->processes();
  NAIAD_CHECK(transport_->process_id() == (victim == 0 ? 1u : 0u));
  rep.counters.v.resize(static_cast<size_t>(n) * 6);
  for (uint64_t& c : rep.counters.v) {
    c = r.ReadU64();
  }
  rep.valid = true;
  NAIAD_CHECK(r.ok());

  std::vector<uint8_t> verdict_payload;
  {
    std::lock_guard<std::mutex> lock(coord_mu_);
    if (victim != stall_victim_) {  // first report arms the tables for this victim
      stall_victim_ = victim;
      stall_reports_.assign(n, StallReport{});
      stall_prev_reports_.assign(n, StallReport{});
    }
    stall_reports_[src] = rep;
    for (uint32_t p = 0; p < n; ++p) {
      if (p == victim) {
        continue;  // the dead slot never reports
      }
      if (!stall_reports_[p].valid || stall_reports_[p].round != rep.round) {
        return;
      }
    }
    // Quiet cut among the survivors: everyone locally quiet (workers parked, inboxes and
    // accumulators empty, the victim's receive link drained to EOF), two-round counter
    // stability, and — per surviving pair, per frame type — i's sent-to-j equals j's
    // received-from-i, so no frame between survivors is in flight. Frames sent toward the
    // victim are deliberately unconstrained: they died with it, and the outbound logs are
    // what re-materializes them for the replacement.
    bool ok = true;
    for (uint32_t p = 0; p < n && ok; ++p) {
      if (p == victim) {
        continue;
      }
      const StallReport& cur = stall_reports_[p];
      const StallReport& prev = stall_prev_reports_[p];
      if (!cur.quiet || !prev.valid || !(cur.counters == prev.counters)) {
        ok = false;
      }
    }
    if (ok) {
      for (uint32_t i = 0; i < n && ok; ++i) {
        for (uint32_t j = 0; j < n && ok; ++j) {
          if (i == j || i == victim || j == victim) {
            continue;
          }
          for (uint32_t t = 0; t < 3; ++t) {
            const uint64_t sent = stall_reports_[i].counters.v[j * 6 + 2 * t];
            const uint64_t recv = stall_reports_[j].counters.v[i * 6 + 2 * t + 1];
            if (sent != recv) {
              ok = false;
              break;
            }
          }
        }
      }
    }
    stall_prev_reports_ = stall_reports_;
    for (StallReport& existing : stall_reports_) {
      existing.valid = false;
    }
    ByteWriter w(&verdict_payload);
    w.WriteU8(kCtlStallVerdict);
    w.WriteU64(rep.round);
    w.WriteU8(ok ? 1 : 0);
  }
  transport_->BroadcastFrame(FrameType::kControl, verdict_payload, /*include_self=*/true,
                             job_);
}

void ClusterControl::AbortSelectiveStall() {
  stall_aborted_.store(true, std::memory_order_release);
  WakeWaiters();
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  w.WriteU8(kCtlStallAbort);
  transport_->BroadcastFrame(FrameType::kControl, payload, /*include_self=*/false, job_);
}

bool ClusterControl::RunStallBarrier(uint32_t victim) {
  const uint64_t t0 = obs::MonotonicNs();
  const auto deadline = std::chrono::steady_clock::now() + kStallTimeout;
  const uint32_t coordinator = victim == 0 ? 1 : 0;  // lowest survivor
  bool ok = false;
  uint64_t rounds = 0;
  for (uint64_t round = 0; !stall_aborted(); ++round) {
    ++rounds;
    ctl_->PauseAndDrain();
    router_->FlushAll();
    const LinkCounters counters = SnapshotLinkCounters();
    const bool quiet = ctl_->InboxesEmpty() && router_->Empty() &&
                       transport_->RecvLinkDrained(victim);
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlStallReport);
    w.WriteU32(victim);
    w.WriteU64(round);
    w.WriteU8(quiet ? 1 : 0);
    for (uint64_t c : counters.v) {
      w.WriteU64(c);
    }
    transport_->Send(coordinator, FrameType::kControl, std::move(payload), job_);
    bool got = false;
    bool verdict = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (stall_have_verdict_ && stall_verdict_round_ == round) {
          verdict = stall_verdict_ok_;
          stall_have_verdict_ = false;
          got = true;
          break;
        }
        if (stall_aborted() || std::chrono::steady_clock::now() >= deadline) {
          break;
        }
        cv_.wait_until(lock, deadline);
      }
    }
    if (got && verdict) {
      ok = true;  // workers stay paused: the caller captures its image at this cut
      break;
    }
    ctl_->Resume();
    if (!got || std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(kRoundPacing);
  }
  ctl_->obs().tracer().ControlSpan(obs::TraceKind::kSelectiveStall, t0,
                                   obs::MonotonicNs(), victim, rounds, ok ? 1 : 0);
  return ok;
}

bool ClusterControl::RunSeedExchange(const std::vector<ProgressUpdate>& seeds) {
  const uint32_t n = transport_->processes();
  const auto deadline = std::chrono::steady_clock::now() + kSeedTimeout;
  {
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlSeedState);
    const std::vector<uint8_t> encoded = DistributedProgressRouter::EncodeUpdates(seeds);
    w.WriteBytes(encoded.data(), encoded.size());
    transport_->BroadcastFrame(FrameType::kControl, payload, /*include_self=*/true, job_);
  }
  auto wait_until = [&](auto pred) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!pred()) {
      if (std::chrono::steady_clock::now() >= deadline) {
        return false;
      }
      cv_.wait_until(lock, deadline);
    }
    return true;
  };
  // Hold the full cut before acking; resume only after everyone does. The release is the
  // ordering root: any −delta a process emits after its release is preceded — at every
  // other process, by the ack/release chain — by all n seed contributions, so the seeded
  // could-result-in ancestors dominate exactly as the symmetric start seeds do in a
  // normal boot.
  if (!wait_until([&] { return seed_frames_ >= n; })) {
    return false;
  }
  {
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlSeedAck);
    transport_->Send(0, FrameType::kControl, std::move(payload), job_);
  }
  if (transport_->process_id() == 0) {
    if (!wait_until([&] { return seed_acks_ >= n; })) {
      return false;
    }
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlSeedRelease);
    transport_->BroadcastFrame(FrameType::kControl, payload, /*include_self=*/true, job_);
  }
  return wait_until([&] { return seed_released_; });
}

bool ClusterControl::RunTerminationBarrier() {
  for (uint64_t round = 0;; ++round) {
    ctl_->tracker().WaitDrained([&] { return recovery_requested(); });
    if (recovery_requested()) {
      return false;
    }
    // Let the accumulators drain anything still held before counting traffic. This must
    // not be deferrable by fault injection: the stability check below assumes it ran.
    router_->FlushAll();
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlReport);
    w.WriteU64(round);
    w.WriteU8(ctl_->tracker().Empty() ? 1 : 0);
    for (uint64_t c : SnapshotCounters().v) {
      w.WriteU64(c);
    }
    transport_->Send(0, FrameType::kControl, std::move(payload), job_);
    bool ok = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (term_have_verdict_ && term_verdict_round_ == round) {
          ok = term_verdict_ok_;
          term_have_verdict_ = false;
          break;
        }
        // Check the verdict before the recovery flag: a successful verdict that raced a
        // (necessarily spurious) recovery request wins, keeping all survivors agreed
        // that the run finished.
        if (recovery_requested_.load(std::memory_order_acquire)) {
          return false;
        }
        cv_.wait_for(lock, kIdleBackstop);
      }
    }
    if (ok) {
      Finish();
      return true;
    }
  }
}

bool ClusterControl::RunCheckpointBarrier(
    uint64_t epoch, const std::function<bool(uint64_t)>& write_image,
    const std::function<bool(uint64_t)>& write_manifest,
    const std::function<void(uint64_t)>& at_cut) {
  const uint64_t t0 = obs::MonotonicNs();
  uint64_t rounds = 0;
  // Phase 1: quiet-point rounds, until the coordinator sees the whole cluster quiet.
  for (uint64_t round = 0;; ++round) {
    if (recovery_requested()) {
      return false;
    }
    ++rounds;
    ctl_->PauseAndDrain();
    router_->FlushAll();
    // Snapshot counters BEFORE probing local quiet: receivers count a frame only after
    // dispatching it, so every frame in this snapshot is already visible to the probes
    // below, and a frame missing from it trips the coordinator's sent/received check.
    const TrafficCounters counters = SnapshotCounters();
    const bool quiet = ctl_->InboxesEmpty() && router_->Empty();
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlCkptReport);
    w.WriteU64(epoch);
    w.WriteU64(round);
    w.WriteU8(quiet ? 1 : 0);
    for (uint64_t c : counters.v) {
      w.WriteU64(c);
    }
    transport_->Send(0, FrameType::kControl, std::move(payload), job_);
    bool got = false;
    bool ok = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (ckpt_have_verdict_ && ckpt_verdict_epoch_ == epoch &&
            ckpt_verdict_round_ == round) {
          ok = ckpt_verdict_ok_;
          ckpt_have_verdict_ = false;
          got = true;
          break;
        }
        if (recovery_requested_.load(std::memory_order_acquire)) {
          break;
        }
        cv_.wait_for(lock, kIdleBackstop);
      }
    }
    if (!got) {
      ctl_->Resume();
      return false;
    }
    if (ok) {
      break;
    }
    // Not quiet yet: let the workers absorb whatever was still in flight, then retry.
    ctl_->Resume();
    std::this_thread::sleep_for(kRoundPacing);
  }

  // Phase 2: globally quiet, workers still paused — first the cut hook (log windows must
  // anchor exactly here, before ANY process resumes), then capture and durably publish
  // this process's image. write_image resumes the workers; that is safe before commit
  // because a quiet cluster with no new input generates no traffic.
  if (at_cut) {
    at_cut(epoch);
  }
  const bool durable = write_image(epoch);
  {
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlCkptDurable);
    w.WriteU64(epoch);
    w.WriteU8(durable ? 1 : 0);
    transport_->Send(0, FrameType::kControl, std::move(payload), job_);
  }

  // Phase 3: the coordinator commits the manifest strictly after every process reported
  // durable, then broadcasts the commit; everyone waits for it.
  if (transport_->process_id() == 0) {
    const uint32_t n = transport_->processes();
    bool all_ok = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (durable_epoch_ == epoch && durable_acks_ == n) {
          all_ok = durable_all_ok_;
          break;
        }
        if (recovery_requested_.load(std::memory_order_acquire)) {
          return false;
        }
        cv_.wait_for(lock, kIdleBackstop);
      }
    }
    const bool commit = all_ok && write_manifest(epoch);
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlCkptCommit);
    w.WriteU64(epoch);
    w.WriteU8(commit ? 1 : 0);
    transport_->BroadcastFrame(FrameType::kControl, payload, /*include_self=*/true, job_);
  }
  bool committed = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (ckpt_have_commit_ && ckpt_commit_epoch_ == epoch) {
        committed = ckpt_commit_ok_;
        ckpt_have_commit_ = false;
        break;
      }
      if (recovery_requested_.load(std::memory_order_acquire)) {
        return false;
      }
      cv_.wait_for(lock, kIdleBackstop);
    }
  }
  if (committed) {
    committed_epochs_.fetch_add(1, std::memory_order_relaxed);
    if (obs::ProcessMetrics* pm = ctl_->obs().metrics().process()) {
      pm->cluster_checkpoints.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ctl_->obs().tracer().ControlSpan(obs::TraceKind::kClusterCheckpoint, t0,
                                   obs::MonotonicNs(), epoch, rounds, committed ? 1 : 0);
  return committed;
}

ClusterStats Cluster::Run(const ClusterOptions& opts, const Body& body) {
  // One-job run on the resident job server: the legacy single-dataflow entry point is now
  // just a register/wait/stop sequence, so every Cluster::Run user exercises the same
  // demux, stash, and per-job control plane the multi-tenant path does.
  JobServer server(opts);
  server.Start();
  const JobId id = server.Submit(body);
  server.Wait(id);
  return server.Stop();
}

}  // namespace naiad
