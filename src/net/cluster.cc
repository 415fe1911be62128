#include "src/net/cluster.h"

#include "src/net/job_server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>

#include "src/base/event_count.h"
#include "src/base/stopwatch.h"
#include "src/ser/bytes.h"

namespace naiad {

namespace {

// Every state a barrier waits for is published under mu_ (or, for the atomic flags,
// followed by WakeWaiters) and notified on cv_, so barrier waits use kIdleBackstop or their
// deadline only as a backstop.
//
// Stall-barrier patience: a survivor that cannot reach the quiet cut in this window
// (e.g. a peer that already finished and never joins the barrier) resumes and falls back
// to coordinated restart. The seed exchange gets longer — by then every process has
// already torn down its old generation, so there is nothing to fall back to and the only
// honest failure mode is a dead peer.
constexpr auto kStallTimeout = std::chrono::seconds(5);
constexpr auto kSeedTimeout = std::chrono::seconds(30);

}  // namespace

std::vector<uint64_t> ClusterControl::SnapshotCounters() const {
  const TcpTransport& t = *transport_;
  return {t.frames_sent(FrameType::kData),        t.frames_received(FrameType::kData),
          t.frames_sent(FrameType::kProgress),    t.frames_received(FrameType::kProgress),
          t.frames_sent(FrameType::kProgressAcc), t.frames_received(FrameType::kProgressAcc)};
}

std::vector<uint64_t> ClusterControl::SnapshotLinkCounters() const {
  const uint32_t n = transport_->processes();
  std::vector<uint64_t> c(static_cast<size_t>(n) * 6, 0);
  for (uint32_t q = 0; q < n; ++q) {
    if (q == transport_->process_id()) {
      continue;  // self-sends never cross the wire and are not in the per-link counters
    }
    const size_t base = static_cast<size_t>(q) * 6;
    c[base + 0] = transport_->frames_sent_to(q, FrameType::kData);
    c[base + 1] = transport_->frames_received_from(q, FrameType::kData);
    c[base + 2] = transport_->frames_sent_to(q, FrameType::kProgress);
    c[base + 3] = transport_->frames_received_from(q, FrameType::kProgress);
    c[base + 4] = transport_->frames_sent_to(q, FrameType::kProgressAcc);
    c[base + 5] = transport_->frames_received_from(q, FrameType::kProgressAcc);
  }
  return c;
}

void ClusterControl::HandleControl(uint32_t src, std::span<const uint8_t> payload) {
  ByteReader r(payload);
  const uint8_t kind = r.ReadU8();
  switch (kind) {
    case kCtlQuietReport:
      HandleQuietReport(src, r);
      return;
    case kCtlQuietVerdict: {
      const uint8_t quiet_kind = r.ReadU8();
      Verdict v;
      v.have = true;
      v.key = r.ReadU64();
      v.round = r.ReadU64();
      v.ok = r.ReadU8() != 0;
      NAIAD_CHECK(r.ok() && quiet_kind < verdicts_.size());
      {
        std::lock_guard<std::mutex> lock(mu_);
        verdicts_[quiet_kind] = v;
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
        commit_.have = true;
        commit_.key = epoch;
        commit_.ok = ok;
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

bool ClusterControl::QuietVerdict(QuietKind kind, uint64_t key,
                                  const std::vector<QuietReport>& cur,
                                  const std::vector<QuietReport>& prev) {
  const uint32_t n = static_cast<uint32_t>(cur.size());
  const auto participant = [&](uint32_t p) {
    return kind != QuietKind::kStall || p != key;  // the stall victim never reports
  };
  for (uint32_t p = 0; p < n; ++p) {
    if (participant(p) && (!cur[p].quiet || !prev[p].valid ||
                           cur[p].counters != prev[p].counters)) {
      return false;  // not quiet, or not stable since the previous round
    }
  }
  switch (kind) {
    case QuietKind::kTermination:
      // Deliberately unbalanced: every participant's drained tracker already proves no
      // pointstamp is active anywhere; these rounds buy agreement, not safety (DESIGN.md,
      // "Does a drained local tracker already imply global termination?").
      return true;
    case QuietKind::kCheckpoint: {
      // No frame in flight anywhere: cluster-wide sent == received per frame type
      // (barrier control traffic is deliberately not counted).
      std::array<uint64_t, 6> sums = {};
      for (const QuietReport& rep : cur) {
        for (size_t i = 0; i < sums.size(); ++i) {
          sums[i] += rep.counters[i];
        }
      }
      return sums[0] == sums[1] && sums[2] == sums[3] && sums[4] == sums[5];
    }
    case QuietKind::kStall:
      // Per surviving pair, per frame type, i's sent-to-j equals j's received-from-i, so
      // no frame between survivors is in flight. Frames sent toward the victim died with
      // it; the outbound logs re-materialize them for the replacement.
      for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = 0; j < n; ++j) {
          if (i == j || !participant(i) || !participant(j)) {
            continue;
          }
          for (uint32_t t = 0; t < 3; ++t) {
            if (cur[i].counters[j * 6 + 2 * t] != cur[j].counters[i * 6 + 2 * t + 1]) {
              return false;
            }
          }
        }
      }
      return true;
  }
  return false;
}

void ClusterControl::HandleQuietReport(uint32_t src, ByteReader& r) {
  const uint8_t kind = r.ReadU8();
  const uint64_t key = r.ReadU64();
  QuietReport rep;
  rep.round = r.ReadU64();
  rep.quiet = r.ReadU8() != 0;
  rep.valid = true;
  const uint32_t n = transport_->processes();
  const uint32_t count = r.ReadU32();
  NAIAD_CHECK(r.ok() && kind < tables_.size());
  const QuietKind quiet_kind = static_cast<QuietKind>(kind);
  // The verdict indexes counters by kind: 6 per process, or 6 per peer for the stall.
  NAIAD_CHECK(count == (quiet_kind == QuietKind::kStall ? n * 6 : 6));
  rep.counters.resize(count);
  for (uint64_t& c : rep.counters) {
    c = r.ReadU64();
  }
  NAIAD_CHECK(r.ok());
  const uint32_t victim =
      quiet_kind == QuietKind::kStall ? static_cast<uint32_t>(key) : kNoVictim;
  NAIAD_CHECK(transport_->process_id() == (victim == 0 ? 1u : 0u));  // lowest participant

  std::vector<uint8_t> verdict_payload;
  {
    std::lock_guard<std::mutex> lock(coord_mu_);
    QuietTable& table = tables_[kind];
    if (key != table.key) {  // new barrier: rounds restart per key
      table.key = key;
      table.cur.assign(n, QuietReport{});
      table.prev.assign(n, QuietReport{});
    }
    table.cur[src] = std::move(rep);
    for (uint32_t p = 0; p < n; ++p) {
      const QuietReport& rep_p = table.cur[p];
      if (p != victim && (!rep_p.valid || rep_p.round != table.cur[src].round)) {
        return;  // the round is not complete yet
      }
    }
    const bool ok = QuietVerdict(quiet_kind, key, table.cur, table.prev);
    const uint64_t round = table.cur[src].round;
    table.prev = table.cur;
    for (QuietReport& existing : table.cur) {
      existing.valid = false;
    }
    ByteWriter w(&verdict_payload);
    w.WriteU8(kCtlQuietVerdict);
    w.WriteU8(kind);
    w.WriteU64(key);
    w.WriteU64(round);
    w.WriteU8(ok ? 1 : 0);
  }
  transport_->BroadcastFrame(FrameType::kControl, verdict_payload, /*include_self=*/true);
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
  transport_->BroadcastFrame(FrameType::kControl, payload, /*include_self=*/true);
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
  transport_->Send(coordinator, FrameType::kControl, std::move(payload));
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

void ClusterControl::AbortSelectiveStall() {
  stall_aborted_.store(true, std::memory_order_release);
  WakeWaiters();
  std::vector<uint8_t> payload;
  ByteWriter w(&payload);
  w.WriteU8(kCtlStallAbort);
  transport_->BroadcastFrame(FrameType::kControl, payload, /*include_self=*/false);
}

bool ClusterControl::Await(const std::function<bool()>& done,
                           const std::function<bool()>& stop, Deadline deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (done()) {
      return true;
    }
    const auto now = std::chrono::steady_clock::now();
    if (stop() || now >= deadline) {
      return false;
    }
    cv_.wait_until(lock, std::min(deadline, now + kIdleBackstop));
  }
}

bool ClusterControl::RunQuietRounds(QuietKind kind, uint64_t key,
                                    const std::function<bool()>& quiet) {
  const uint64_t t0 = obs::MonotonicNs();
  const size_t k = static_cast<size_t>(kind);
  // Termination's cut is a drained tracker, reached without stopping anyone; the others
  // pause and drain the workers, and resume them after a round that was not quiet.
  const bool pauses = kind != QuietKind::kTermination;
  const uint32_t victim =
      kind == QuietKind::kStall ? static_cast<uint32_t>(key) : kNoVictim;
  // The stall barrier runs while recovery is already requested; only an abort (or its
  // deadline) ends it. The others end on a recovery request.
  const auto stopped = [&] {
    return kind == QuietKind::kStall ? stall_aborted() : recovery_requested();
  };
  const Deadline deadline = kind == QuietKind::kStall
                                ? std::chrono::steady_clock::now() + kStallTimeout
                                : Deadline::max();
  bool ok = false;
  uint64_t rounds = 0;
  for (uint64_t round = 0; !stopped() && std::chrono::steady_clock::now() < deadline;
       ++round) {
    if (pauses) {
      ctl_->PauseAndDrain();
    } else {
      ctl_->tracker().WaitDrained(stopped);
      if (stopped()) {
        break;
      }
    }
    ++rounds;
    // Let the accumulators drain anything still held, then snapshot counters BEFORE
    // probing local quiet: receivers count a frame only after dispatching it, so every
    // frame in this snapshot is already visible to the probe, and a frame missing from it
    // trips the stability or balance check.
    router_->FlushAll();
    const std::vector<uint64_t> counters =
        kind == QuietKind::kStall ? SnapshotLinkCounters() : SnapshotCounters();
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlQuietReport);
    w.WriteU8(static_cast<uint8_t>(kind));
    w.WriteU64(key);
    w.WriteU64(round);
    w.WriteU8(quiet() ? 1 : 0);
    w.WriteU32(static_cast<uint32_t>(counters.size()));
    for (uint64_t c : counters) {
      w.WriteU64(c);
    }
    transport_->Send(victim == 0 ? 1 : 0, FrameType::kControl, std::move(payload));
    bool verdict = false;
    const bool got = Await(
        [&] {
          Verdict& v = verdicts_[k];
          if (!v.have || v.key != key || v.round != round) {
            return false;
          }
          verdict = v.ok;
          v.have = false;
          return true;
        },
        stopped, deadline);
    if (got && verdict) {
      ok = true;  // a pausing kind leaves the workers paused at the cut
      break;
    }
    // Not quiet yet: the next round's own PauseAndDrain lets the workers absorb whatever
    // was still in flight.
    if (pauses) {
      ctl_->Resume();
    }
    if (!got) {
      break;
    }
  }
  if (obs::ProcessMetrics* pm = ctl_->obs().metrics().process()) {
    pm->barrier_rounds.fetch_add(rounds, std::memory_order_relaxed);
  }
  static constexpr obs::TraceKind kSpan[] = {obs::TraceKind::kTerminationBarrier,
                                             obs::TraceKind::kClusterCheckpoint,
                                             obs::TraceKind::kSelectiveStall};
  ctl_->obs().tracer().ControlSpan(kSpan[k], t0, obs::MonotonicNs(), key, rounds,
                                   ok ? 1 : 0);
  return ok;
}

bool ClusterControl::RunStallBarrier(uint32_t victim) {
  return RunQuietRounds(QuietKind::kStall, victim, [&] {
    return ctl_->InboxesEmpty() && router_->Empty() && transport_->RecvLinkDrained(victim);
  });
}

bool ClusterControl::RunTerminationBarrier() {
  const bool ok =
      RunQuietRounds(QuietKind::kTermination, 0, [&] { return ctl_->tracker().Empty(); });
  if (ok) {
    Finish();
  }
  return ok;
}

bool ClusterControl::RunSeedExchange(const std::vector<ProgressUpdate>& seeds) {
  const uint32_t n = transport_->processes();
  const Deadline deadline = std::chrono::steady_clock::now() + kSeedTimeout;
  const auto never = [] { return false; };
  {
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlSeedState);
    const std::vector<uint8_t> encoded = DistributedProgressRouter::EncodeUpdates(seeds);
    w.WriteBytes(encoded.data(), encoded.size());
    transport_->BroadcastFrame(FrameType::kControl, payload, /*include_self=*/true);
  }
  // Hold the full cut before acking; resume only after everyone does. The release is the
  // ordering root: any −delta a process emits after its release is preceded — at every
  // other process, by the ack/release chain — by all n seed contributions, so the seeded
  // could-result-in ancestors dominate exactly as the symmetric start seeds do in a
  // normal boot.
  if (!Await([&] { return seed_frames_ >= n; }, never, deadline)) {
    return false;
  }
  {
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlSeedAck);
    transport_->Send(0, FrameType::kControl, std::move(payload));
  }
  if (transport_->process_id() == 0) {
    if (!Await([&] { return seed_acks_ >= n; }, never, deadline)) {
      return false;
    }
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlSeedRelease);
    transport_->BroadcastFrame(FrameType::kControl, payload, /*include_self=*/true);
  }
  return Await([&] { return seed_released_; }, never, deadline);
}

bool ClusterControl::RunCheckpointBarrier(
    uint64_t epoch, const std::function<bool(uint64_t)>& write_image,
    const std::function<bool(uint64_t)>& write_manifest,
    const std::function<void(uint64_t)>& at_cut) {
  const auto recovery = [&] { return recovery_requested(); };
  // Phase 1: quiet-point rounds, until the coordinator sees the whole cluster quiet.
  if (!RunQuietRounds(QuietKind::kCheckpoint, epoch,
                      [&] { return ctl_->InboxesEmpty() && router_->Empty(); })) {
    return false;
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
    transport_->Send(0, FrameType::kControl, std::move(payload));
  }

  // Phase 3: the coordinator commits the manifest strictly after every process reported
  // durable, then broadcasts the commit; everyone waits for it.
  if (transport_->process_id() == 0) {
    const uint32_t n = transport_->processes();
    bool all_ok = false;
    if (!Await(
            [&] {
              if (durable_epoch_ != epoch || durable_acks_ != n) {
                return false;
              }
              all_ok = durable_all_ok_;
              return true;
            },
            recovery)) {
      return false;
    }
    const bool commit = all_ok && write_manifest(epoch);
    std::vector<uint8_t> payload;
    ByteWriter w(&payload);
    w.WriteU8(kCtlCkptCommit);
    w.WriteU64(epoch);
    w.WriteU8(commit ? 1 : 0);
    transport_->BroadcastFrame(FrameType::kControl, payload, /*include_self=*/true);
  }
  bool committed = false;
  if (!Await(
          [&] {
            if (!commit_.have || commit_.key != epoch) {
              return false;
            }
            committed = commit_.ok;
            commit_.have = false;
            return true;
          },
          recovery)) {
    return false;
  }
  if (committed) {
    committed_epochs_.fetch_add(1, std::memory_order_relaxed);
    if (obs::ProcessMetrics* pm = ctl_->obs().metrics().process()) {
      pm->cluster_checkpoints.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return committed;
}

ClusterStats Cluster::Run(const ClusterOptions& opts, const Body& body) {
  // One-job run on the resident job server: the legacy single-dataflow entry point is now
  // just a register/wait/stop sequence, so every Cluster::Run user exercises the same
  // demux, stash, and drained-edge termination the multi-tenant path does.
  JobServer server(opts);
  server.Start();
  const JobId id = server.Submit(body);
  server.Wait(id);
  return server.Stop();
}

}  // namespace naiad
