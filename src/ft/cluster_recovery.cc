#include "src/ft/cluster_recovery.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/base/rng.h"
#include "src/base/stopwatch.h"
#include "src/ft/log_recovery.h"
#include "src/ft/recovery.h"
#include "src/net/job_context.h"
#include "src/ser/bytes.h"

namespace naiad {

namespace {

constexpr uint32_t kManifestMagic = 0x4e4d4653;  // "NMFS"

// ---- supervisor <-> member pipe records (fixed 25 bytes) ----------------------------

struct Record {
  uint8_t tag = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;
};
constexpr size_t kRecordBytes = 25;

// member -> supervisor
constexpr uint8_t kStPort = 1;           // a = listen port
constexpr uint8_t kStStarting = 2;       // a = epoch, b = generation
constexpr uint8_t kStCheckpointing = 3;  // a = epoch, b = generation
constexpr uint8_t kStCommitted = 4;      // a = epoch
constexpr uint8_t kStRecovering = 5;     // a = candidate generation, b = 1 when the
                                         // selective preconditions held, c = last
                                         // rebase epoch (the log watermark)
constexpr uint8_t kStDone = 6;           // a = recoveries, b = committed epochs,
                                         // c = replayed frames deduped
constexpr uint8_t kStRecoverStats = 7;   // a = survivor stall ns, b = downtime ns,
                                         // c = 1 for a selective rebuild
constexpr uint8_t kStDetected = 8;       // a = generation; sent the moment this member's
                                         // in-band detection aborted its epoch loop

// supervisor -> member
constexpr uint8_t kCtPort = 1;     // a = slot, b = port (one record per slot)
constexpr uint8_t kCtRecover = 2;  // a = generation being aborted, b = victim slot
constexpr uint8_t kCtGo = 3;       // a = new generation, b = restore epoch (or none),
                                   // c = 1 to recover selectively (0 = coordinated)
constexpr uint8_t kCtExit = 4;

bool WriteRecord(int fd, const Record& rec) {
  uint8_t buf[kRecordBytes];
  buf[0] = rec.tag;
  std::memcpy(buf + 1, &rec.a, 8);
  std::memcpy(buf + 9, &rec.b, 8);
  std::memcpy(buf + 17, &rec.c, 8);
  size_t off = 0;
  while (off < sizeof(buf)) {
    const ssize_t n = ::write(fd, buf + off, sizeof(buf) - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

Record ParseRecord(const uint8_t* buf) {
  Record rec;
  rec.tag = buf[0];
  std::memcpy(&rec.a, buf + 1, 8);
  std::memcpy(&rec.b, buf + 9, 8);
  std::memcpy(&rec.c, buf + 17, 8);
  return rec;
}

bool ReadRecord(int fd, Record* rec) {
  uint8_t buf[kRecordBytes];
  size_t off = 0;
  while (off < sizeof(buf)) {
    const ssize_t n = ::read(fd, buf + off, sizeof(buf) - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  *rec = ParseRecord(buf);
  return true;
}

// ---- the member (child) side --------------------------------------------------------

// One cluster member: a TcpTransport and, per generation, a JobContext (job 0) and a
// ClusterControl over it, plus the pipe protocol to the supervisor. Lives in the forked
// child; never returns to the test body (the child _exits with Run's result).
class MemberRunner {
 public:
  MemberRunner(const ClusterRunConfig& cfg, uint32_t slot, int status_fd, int ctl_fd,
               bool replacement)
      : cfg_(cfg),
        slot_(slot),
        status_fd_(status_fd),
        ctl_fd_(ctl_fd),
        replacement_(replacement) {}

  int Run(const ClusterAppFactory& factory);

 private:
  void SendStatus(uint8_t tag, uint64_t a, uint64_t b, uint64_t c = 0) {
    NAIAD_CHECK(WriteRecord(status_fd_, Record{tag, a, b, c}));
  }

  void ControlReaderMain();
  // Blocks for a GO record; false means EXIT arrived (or the supervisor died) instead.
  bool WaitGo(uint32_t* gen, uint64_t* restore, uint64_t* mode);
  // After DONE: 0 = EXIT (normal), 1 = GO (a restart raced our completion; rejoin it).
  int WaitExitOrGo(uint32_t* gen, uint64_t* restore, uint64_t* mode);

  // Builds generation `gen` and seeds it through the seed exchange. A member holding a
  // stall image (PrepareSelective, then a selective GO) is a survivor and keeps that
  // state; every other member restores its image at `restore_epoch`, or starts from zero.
  // `selective` is the GO's policy: whether this generation skips the per-epoch barriers.
  void Build(uint32_t gen, uint64_t restore_epoch, bool selective, uint64_t* start_epoch);
  void Teardown();
  // Runs epochs [start_epoch, total) plus the termination barrier; false = recovery.
  bool RunEpochs(uint64_t start_epoch);
  bool ShouldCheckpoint(uint64_t e) const {
    return (cfg_.checkpoint_every != 0 && (e + 1) % cfg_.checkpoint_every == 0) ||
           e + 1 == cfg_.total_epochs;
  }
  // Called with the live (pre-Teardown) stack when a recovery begins under kSelective:
  // runs the survivor stall barrier, captures the in-memory image, and validates the
  // outbound log toward the victim. False = fall back to a coordinated restart.
  bool PrepareSelective();
  // Log GC: RebaseLogsAtCut runs inside the barrier's global quiet point (workers paused
  // cluster-wide): truncates every outbound log and snapshots the receive watermarks.
  // PruneImages runs only after the commit broadcast: retain-K GC over this slot's
  // committed images (see PruneClusterImages) — unlinking at the cut would be premature,
  // a barrier that dies between cut and commit still restores from the OLD manifest.
  void RebaseLogsAtCut(uint64_t epoch);
  void PruneImages(uint64_t committed_epoch) {
    PruneClusterImages(cfg_.ckpt_dir, slot_,
                       CheckpointSchedule(cfg_.total_epochs, cfg_.checkpoint_every),
                       committed_epoch, cfg_.checkpoint_retain);
  }
  // Survivor-stall accounting: the stall ends when this member has re-passed the last
  // epoch it had fed before the failure (for a coordinated restart that includes
  // re-executing every epoch since the manifest; for selective it is just the pause).
  void ResolveStallIfRepassed(uint64_t epoch_passed);
  void ExportLogCounters();
  void NoteRecovered(uint64_t t0_ns, uint64_t restore_epoch, uint64_t mode);
  int Cleanup(int rc) {
    if (reader_.joinable()) {
      reader_.join();
    }
    return rc;
  }

  const ClusterRunConfig& cfg_;
  const uint32_t slot_;
  const int status_fd_;
  const int ctl_fd_;
  const bool replacement_;
  const ClusterAppFactory* factory_ = nullptr;
  std::vector<uint16_t> ports_;

  std::unique_ptr<TcpTransport> transport_;
  std::unique_ptr<JobContext> job_;  // this generation's stack (job 0)
  std::unique_ptr<ClusterControl> control_;  // this generation's barriers and recovery
  std::unique_ptr<ClusterApp> app_;
  std::unique_ptr<OutboundLogSet> outlogs_;  // kSelective config only
  uint32_t gen_ = 0;
  uint64_t recoveries_ = 0;
  uint64_t total_commits_ = 0;

  // Selective-recovery state carried across Teardown into the next Build.
  std::vector<uint64_t> recv_rebase_;  // per-peer data frames received at last rebase
  uint64_t last_rebase_epoch_ = kNoManifestEpoch;  // the log watermark (R)
  std::vector<uint8_t> mem_image_;           // survivor stall image (PrepareSelective)
  std::vector<OutboundRecord> resend_;       // validated log tail toward the victim
  uint32_t victim_ = kNoVictim;
  uint64_t replay_expect_ = 0;     // victim data frames received since the watermark
  uint64_t synth_next_ = 0;        // next regenerated-duplicate seq expected
  uint64_t replay_dropped_ = 0;    // regenerated frames deduped, lifetime total
  bool selective_gen_ = false;     // this generation was built selectively
  uint64_t last_fed_epoch_ = 0;    // highest epoch fed in this generation
  bool stall_pending_ = false;     // stall stopwatch armed across a recovery
  uint64_t stall_t0_ = 0;
  uint64_t stall_target_ = 0;      // epoch to re-pass before the stall ends
  uint64_t stall_ns_ = 0;
  uint64_t downtime_ns_ = 0;
  uint64_t last_mode_ = 0;

  std::thread reader_;
  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  ClusterControl* current_control_ = nullptr;  // guarded by sup_mu_
  uint32_t current_gen_ = 0;                   // guarded by sup_mu_
  bool have_go_ = false;
  uint32_t go_gen_ = 0;
  uint64_t go_restore_ = kNoManifestEpoch;
  uint64_t go_mode_ = 0;
  bool exit_requested_ = false;
};

void MemberRunner::ControlReaderMain() {
  Record rec;
  while (ReadRecord(ctl_fd_, &rec)) {
    std::unique_lock<std::mutex> lock(sup_mu_);
    switch (rec.tag) {
      case kCtRecover:
        // Generation-guarded: a hint for an already-abandoned generation must not abort
        // the one we just rebuilt. The hint names the victim so a selective stall can
        // target the right peer even when the in-band failure report never arrived.
        if (current_control_ != nullptr && current_gen_ == rec.a) {
          current_control_->RequestRecovery(static_cast<uint32_t>(rec.b));
        }
        break;
      case kCtGo:
        go_gen_ = static_cast<uint32_t>(rec.a);
        go_restore_ = rec.b;
        go_mode_ = rec.c;
        have_go_ = true;
        sup_cv_.notify_all();
        break;
      case kCtExit:
        exit_requested_ = true;
        sup_cv_.notify_all();
        return;
      default:
        NAIAD_CHECK(false) << "bad supervisor record";
    }
  }
  // EOF: the supervisor died. Unblock the main thread so it can exit.
  std::lock_guard<std::mutex> lock(sup_mu_);
  exit_requested_ = true;
  sup_cv_.notify_all();
}

bool MemberRunner::WaitGo(uint32_t* gen, uint64_t* restore, uint64_t* mode) {
  std::unique_lock<std::mutex> lock(sup_mu_);
  sup_cv_.wait(lock, [&] { return have_go_ || exit_requested_; });
  if (!have_go_) {
    return false;
  }
  have_go_ = false;
  *gen = go_gen_;
  *restore = go_restore_;
  *mode = go_mode_;
  return true;
}

int MemberRunner::WaitExitOrGo(uint32_t* gen, uint64_t* restore, uint64_t* mode) {
  std::unique_lock<std::mutex> lock(sup_mu_);
  sup_cv_.wait(lock, [&] { return have_go_ || exit_requested_; });
  if (have_go_) {  // records arrive in order, so a pending GO precedes any EXIT
    have_go_ = false;
    *gen = go_gen_;
    *restore = go_restore_;
    *mode = go_mode_;
    return 1;
  }
  return 0;
}

void MemberRunner::Build(uint32_t gen, uint64_t restore_epoch, bool selective,
                         uint64_t* start_epoch) {
  gen_ = gen;
  Config c;
  c.process_id = slot_;
  c.processes = cfg_.processes;
  c.workers_per_process = cfg_.workers_per_process;
  c.batch_size = cfg_.batch_size;
  c.default_parallelism = cfg_.default_parallelism;
  c.obs = cfg_.obs;
  if (!c.obs.trace_path.empty()) {
    c.obs.trace_path += ".p" + std::to_string(slot_);  // one file per member process
  }
  if (!transport_) {
    transport_ = std::make_unique<TcpTransport>(slot_, cfg_.processes);
    const uint16_t port = transport_->Listen(ports_[slot_]);
    NAIAD_CHECK(port == ports_[slot_]);
  }
  job_ = std::make_unique<JobContext>(c, transport_.get(), cfg_.strategy, cfg_.fault_plan,
                                      /*job=*/0);
  control_ = std::make_unique<ClusterControl>(job_->ctl.get(), transport_.get(),
                                              job_->router.get());
  transport_->SetFaultPlan(cfg_.fault_plan);
  transport_->SetObs(&job_->ctl->obs());
  transport_->SetGeneration(gen);
  {
    // In-band failure detection: heartbeats keep every link's lease fresh through idle
    // stretches (barrier waits), and the lease detector turns a peer's silence into the
    // same ReportFailure path that EOF detection drives — the hint-disabled CI rows
    // recover on this alone.
    LinkPolicy lp;
    lp.heartbeat_interval_ms = cfg_.heartbeat_interval_ms;
    lp.heartbeat_timeout_ms = cfg_.heartbeat_timeout_ms;
    transport_->SetLinkPolicy(lp);
  }
  if (cfg_.recovery_mode == RecoveryMode::kSelective) {
    // Every generation opens fresh (truncated) outbound logs: their window is anchored
    // at this generation's start point, and record index k toward a peer equals the
    // link's post-rebase data sequence k because the tap holds the destination lock
    // across {append, enqueue}.
    outlogs_ = std::make_unique<OutboundLogSet>(cfg_.ckpt_dir, slot_, cfg_.processes);
    OutboundLogSet* logs = outlogs_.get();
    TcpTransport* tr = transport_.get();
    job_->ctl->SetSendTap([logs, tr](uint32_t dst, ConnectorId ch, const Timestamp& t,
                                     int64_t count, std::vector<uint8_t>&& frame) {
      logs->RecordAndSend(*tr, dst, ch, t, count, std::move(frame));
    });
    control_->SetSelectiveMode(true);
    recv_rebase_.assign(cfg_.processes, 0);
    last_rebase_epoch_ = restore_epoch;
  }
  app_ = (*factory_)(*job_->ctl);

  selective_gen_ = selective;
  const bool survivor = !mem_image_.empty();
  NAIAD_CHECK(!survivor || selective);
  std::vector<ProgressUpdate> seeds;  // this process's contributions, filled at Start
  std::vector<InputEpochs> inputs;
  if (survivor) {
    // Resume from the in-memory stall image: state is KEPT, nothing replays locally.
    inputs = RestoreProcess(*job_->ctl, std::move(mem_image_), &seeds);
    mem_image_.clear();
  } else if (restore_epoch != kNoManifestEpoch) {
    CheckpointReadResult res =
        ReadCheckpointFileEx(ClusterImagePath(cfg_.ckpt_dir, slot_, restore_epoch));
    // The manifest commit rule guarantees this image was durable before the epoch became
    // adoptable, so anything other than a clean read is a protocol violation.
    NAIAD_CHECK(res.ok()) << "manifest-committed image unreadable: epoch " << restore_epoch
                          << " status " << static_cast<int>(res.status);
    inputs = RestoreProcess(*job_->ctl, std::move(res.image), &seeds);
  } else {
    FreshStart(*job_->ctl, &seeds);
  }
  app_->RestoreInputs(inputs);
  // The feed resumes where the image's open inputs stand (epoch 0 from zero).
  *start_epoch = 0;
  for (const InputEpochs& in : inputs) {
    if (!in.closed) {
      *start_epoch = std::max(*start_epoch, in.next_epoch);
    }
  }

  {
    std::lock_guard<std::mutex> lock(sup_mu_);
    current_control_ = control_.get();
    current_gen_ = gen;
  }
  TcpTransport::Callbacks cb;
  JobContext* job = job_.get();
  ClusterControl* control = control_.get();
  cb.on_frame = [job, control](FrameType type, uint32_t src, uint32_t /*job*/,
                               std::span<const uint8_t> p) {
    if (type == FrameType::kControl) {
      control->HandleControl(src, p);
    } else {
      job->Deliver(type, src, p);
    }
  };
  cb.on_peer_down = [control](uint32_t peer) { control->ReportFailure(peer); };
  if (survivor) {
    // The replacement deterministically regenerates the data frames the victim already
    // sent us since the watermark; our state already reflects them. Seeding the receive
    // expectation routes those first replay_expect_ frames through the dedup path,
    // where each is discarded with a compensating -count so the progress charge of the
    // replacement's RouteBundle nets out (DiscardRemoteBundle).
    transport_->SeedRecvExpectation(victim_, FrameType::kData, replay_expect_);
    synth_next_ = 0;
    cb.on_dup_frame = [this, job](FrameType type, uint32_t src, uint32_t /*job*/,
                                  uint64_t seq, std::span<const uint8_t> p) -> bool {
      if (type != FrameType::kData || src != victim_ || seq != synth_next_ ||
          synth_next_ >= replay_expect_) {
        return false;  // not a replayed frame; normal dup accounting applies
      }
      ++synth_next_;
      ++replay_dropped_;
      job->ctl->DiscardRemoteBundle(p);
      return true;  // count as received: the replacement's send side was counted
    };
  }

  // The controller starts before the transport, so no peer frame can reach it earlier;
  // it starts paused, so no worker runs until the cluster's progress state is assembled.
  // Every generation reassembles it by summing every process's own contributions (each
  // at its own restart point: the checkpoint, a survivor's stall cut, or zero), plus one
  // +count per cached log record a survivor is about to re-send — the replacement
  // re-processes exactly those. Nobody resumes until every contribution is globally
  // applied (the ack/release barrier), so no transient negative can be observed as a
  // frontier.
  const uint64_t resend_n = resend_.size();
  job_->ctl->StartPaused();
  transport_->Start(ports_, std::move(cb));
  const uint64_t seed_t0 = obs::MonotonicNs();
  if (survivor) {
    for (const OutboundRecord& rec : resend_) {
      seeds.push_back(
          ProgressUpdate{Pointstamp{rec.time, Location::Connector(rec.ch)}, rec.count});
    }
  }
  NAIAD_CHECK(control_->RunSeedExchange(seeds))
      << "seed exchange failed (p" << slot_ << " gen " << gen << ")";
  if (survivor) {
    // Re-send the validated log tail so it is re-logged: record k of the new window
    // rides link sequence k again, keeping the invariant for a later rebase. No
    // progress updates accompany these sends — the seeds above carried their +counts.
    // ResendTail appends the whole tail and makes it durable with a single Sync
    // before the first frame is sent, instead of one fsync per frame.
    outlogs_->ResendTail(*transport_, victim_, std::move(resend_));
  }
  job_->ctl->Resume();  // also wakes a worker for updates the router holds
  if (job_->ctl->obs().tracer().enabled()) {
    job_->ctl->obs().tracer().ControlSpan(obs::TraceKind::kSeedExchange, seed_t0,
                                          obs::MonotonicNs(), seeds.size(), resend_n,
                                          survivor ? 1 : 0);
  }
  resend_.clear();
}

void MemberRunner::Teardown() {
  {
    std::lock_guard<std::mutex> lock(sup_mu_);
    current_control_ = nullptr;
  }
  transport_->Abort();  // unblocks senders mid-write; joins all transport threads
  job_->ctl->Stop();
  ExportLogCounters();  // workers are joined: the tap can no longer run
  app_.reset();
  outlogs_.reset();
  transport_.reset();  // releases the listen socket so Build can rebind the same port
  control_.reset();    // after the transport, whose receive threads call into it
  job_.reset();        // after the transport, which traces into the controller's obs
}

void MemberRunner::ExportLogCounters() {
  if (!outlogs_ || !job_) {
    return;
  }
  if (obs::ProcessMetrics* pm = job_->ctl->obs().metrics().process()) {
    pm->log_records_logged.fetch_add(outlogs_->records_logged(),
                                     std::memory_order_relaxed);
    pm->log_bytes_logged.fetch_add(outlogs_->bytes_logged(), std::memory_order_relaxed);
    pm->log_rebases.fetch_add(outlogs_->rebases(), std::memory_order_relaxed);
  }
}

void MemberRunner::RebaseLogsAtCut(uint64_t epoch) {
  if (!outlogs_) {
    return;
  }
  // Runs inside the checkpoint barrier's at_cut hook: every worker in the cluster is
  // paused at the verified quiet point and no peer has resumed. Both halves of the
  // watermark MUST be taken here. Truncating later would race our own workers' sends
  // back into a window the new images already cover; snapshotting the receive counters
  // later would race a faster peer's next-epoch frames under the watermark — its
  // replacement would then replay those frames and the dedup, seeded with a
  // too-high expectation, would deliver them a second time (a TSan-exposed double
  // count before this hook existed).
  NAIAD_CHECK(outlogs_->RebaseAll());
  for (uint32_t q = 0; q < cfg_.processes; ++q) {
    // No self link: loopback routing never touches the wire counters.
    recv_rebase_[q] =
        q == slot_ ? 0 : transport_->frames_received_from(q, FrameType::kData);
  }
  // Recorded before the commit broadcast on purpose: if the barrier fails after the cut,
  // the logs are already truncated and only anchor here — R must say so. PrepareSelective
  // then sees R disagree with the durable manifest and falls back to the coordinated
  // path instead of replaying from a window that no longer reaches the manifest.
  last_rebase_epoch_ = epoch;
}

void MemberRunner::ResolveStallIfRepassed(uint64_t epoch_passed) {
  if (!stall_pending_ || epoch_passed < stall_target_) {
    return;
  }
  stall_pending_ = false;
  stall_ns_ = obs::MonotonicNs() - stall_t0_;
  SendStatus(kStRecoverStats, stall_ns_, downtime_ns_, last_mode_);
}

bool MemberRunner::RunEpochs(uint64_t start_epoch) {
  auto write_image = [this](uint64_t epoch) {
    std::vector<uint8_t> image = CheckpointProcess(*job_->ctl);
    return WriteCheckpointFile(ClusterImagePath(cfg_.ckpt_dir, slot_, epoch), image);
  };
  auto write_manifest = [this](uint64_t epoch) {
    return WriteClusterManifest(cfg_.ckpt_dir, epoch, cfg_.processes);
  };
  auto rebase_at_cut = [this](uint64_t epoch) { RebaseLogsAtCut(epoch); };
  const bool dbg = ::getenv("NAIAD_CLUSTER_DEBUG") != nullptr;
  for (uint64_t e = start_epoch; e < cfg_.total_epochs; ++e) {
    SendStatus(kStStarting, e, gen_);
    app_->FeedEpoch(e);
    last_fed_epoch_ = e;
    if (dbg) std::fprintf(stderr, "[p%u g%u] fed epoch %llu\n", slot_, gen_, (unsigned long long)e);
    job_->ctl->tracker().WaitFor([&] {
      // The stall stopwatch stops the moment the re-pass target clears the frontier,
      // not when this member's own current epoch later passes: a selective survivor
      // waits here several epochs ahead of the replacement's catch-up, and resolving
      // only on its own epoch would overcharge the stall by most of an epoch.
      if (stall_pending_ && app_->EpochPassed(stall_target_)) {
        ResolveStallIfRepassed(stall_target_);
      }
      return app_->EpochPassed(e) || control_->recovery_requested();
    });
    if (dbg) std::fprintf(stderr, "[p%u g%u] epoch %llu passed (rec=%d)\n", slot_, gen_, (unsigned long long)e, (int)control_->recovery_requested());
    if (control_->recovery_requested()) {
      return false;
    }
    ResolveStallIfRepassed(e);
    // A selectively-built generation skips the per-epoch barriers: its members resume
    // from DIFFERENT epochs, so their ShouldCheckpoint schedules would disagree and the
    // collective barrier would hang. One final checkpoint below re-establishes the
    // durable cut (and the byte-identical final images the sweep compares).
    if (!selective_gen_ && ShouldCheckpoint(e)) {
      SendStatus(kStCheckpointing, e, gen_);
      if (dbg) std::fprintf(stderr, "[p%u g%u] entering ckpt barrier e=%llu\n", slot_, gen_, (unsigned long long)e);
      if (!control_->RunCheckpointBarrier(e, write_image, write_manifest, rebase_at_cut)) {
        NAIAD_CHECK(control_->recovery_requested())
            << "cluster checkpoint failed outright";
        return false;
      }
      ++total_commits_;
      PruneImages(e);
      SendStatus(kStCommitted, e, gen_);
      if (dbg) std::fprintf(stderr, "[p%u g%u] ckpt committed e=%llu\n", slot_, gen_, (unsigned long long)e);
    }
  }
  if (selective_gen_) {
    const uint64_t last = cfg_.total_epochs - 1;
    // A survivor whose inputs were already past the last epoch skipped the loop above;
    // it still owes the cluster the final collective checkpoint, and its own probe only
    // passes once the replacement's replay catches up.
    job_->ctl->tracker().WaitFor([&] {
      if (stall_pending_ && app_->EpochPassed(stall_target_)) {
        ResolveStallIfRepassed(stall_target_);
      }
      return app_->EpochPassed(last) || control_->recovery_requested();
    });
    if (control_->recovery_requested()) {
      return false;
    }
    ResolveStallIfRepassed(last);
    SendStatus(kStCheckpointing, last, gen_);
    if (!control_->RunCheckpointBarrier(last, write_image, write_manifest, rebase_at_cut)) {
      NAIAD_CHECK(control_->recovery_requested())
          << "cluster checkpoint failed outright";
      return false;
    }
    ++total_commits_;
    PruneImages(last);
    SendStatus(kStCommitted, last, gen_);
  }
  ResolveStallIfRepassed(cfg_.total_epochs - 1);  // rejoin path: loop may not have run
  app_->CloseInputs();
  if (dbg) std::fprintf(stderr, "[p%u g%u] inputs closed; termination barrier\n", slot_, gen_);
  if (!control_->RunTerminationBarrier()) {
    return false;
  }
  job_->ctl->Stop();
  return true;
}

bool MemberRunner::PrepareSelective() {
  // Every fallback return goes through `abort`: the decision is local, but a peer that
  // reached its stall barrier is waiting for OUR report — the kCtlStallAbort broadcast
  // releases it immediately instead of letting it burn the verdict timeout (e.g. a kill
  // inside the final checkpoint barrier can leave one survivor committed — fast local
  // fallback — while the other's barrier aborted and it still has epochs to protect).
  const auto abort = [this] {
    control_->AbortSelectiveStall();
    return false;
  };
  if (::getenv("NAIAD_SELECTIVE_FALLBACK_INJECT") != nullptr) {
    return abort();  // test hook: force the coordinated fallback path
  }
  if (selective_gen_) {
    // Second failure inside a selectively-built generation: the survivors' log windows
    // are anchored at their stall cut, not at the manifest, so a new replacement
    // restoring from the manifest could not be caught up from them.
    return abort();
  }
  if (last_rebase_epoch_ != kNoManifestEpoch &&
      last_rebase_epoch_ + 1 >= cfg_.total_epochs) {
    // The final checkpoint already committed; nothing is left to replay selectively and
    // the rejoin semantics of the coordinated path handle the termination race.
    return abort();
  }
  victim_ = control_->recovery_victim();
  if (victim_ == kNoVictim || victim_ == slot_) {
    return abort();  // nobody attributed the failure; only a coordinated restart is safe
  }
  if (!control_->RunStallBarrier(victim_)) {
    return abort();  // couldn't establish a clean survivor cut; workers were resumed
  }
  // Workers are parked at the stall cut. Everything the victim sent us since the
  // watermark is reflected in the state we are about to capture; its regenerated
  // replays must therefore be deduped up to this count.
  replay_expect_ =
      transport_->frames_received_from(victim_, FrameType::kData) - recv_rebase_[victim_];
  mem_image_ = CheckpointProcess(*job_->ctl);
  for (const InputEpochs& in : PeekImageInputs(mem_image_)) {
    if (in.closed) {
      // The kill landed during termination: a closed input cannot be reopened for the
      // replacement's replay window, so roll everyone back together instead.
      return abort();
    }
  }
  if (!outlogs_->ValidateAndLoad(victim_, &resend_)) {
    return abort();  // torn or incomplete log: cannot prove what the victim received
  }
  return true;
}

void MemberRunner::NoteRecovered(uint64_t t0_ns, uint64_t restore_epoch, uint64_t mode) {
  ++recoveries_;
  job_->ctl->obs().tracer().ControlSpan(
      obs::TraceKind::kClusterRecover, t0_ns, obs::MonotonicNs(),
      restore_epoch == kNoManifestEpoch ? 0 : restore_epoch, gen_,
      restore_epoch == kNoManifestEpoch ? 0 : 1);
  if (obs::ProcessMetrics* pm = job_->ctl->obs().metrics().process()) {
    pm->cluster_recoveries.fetch_add(1, std::memory_order_relaxed);
    if (mode == 1) {
      pm->selective_recoveries.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

int MemberRunner::Run(const ClusterAppFactory& factory) {
  factory_ = &factory;
  // Phase A: port rendezvous. A fresh member binds an ephemeral port and announces it; a
  // replacement inherits the victim's published port from the map.
  if (!replacement_) {
    transport_ = std::make_unique<TcpTransport>(slot_, cfg_.processes);
    const uint16_t port = transport_->Listen(0);
    SendStatus(kStPort, port, 0);
  }
  ports_.resize(cfg_.processes);
  for (uint32_t i = 0; i < cfg_.processes; ++i) {
    Record rec;
    if (!ReadRecord(ctl_fd_, &rec)) {
      return 1;
    }
    NAIAD_CHECK(rec.tag == kCtPort && rec.a < cfg_.processes);
    ports_[rec.a] = static_cast<uint16_t>(rec.b);
  }
  reader_ = std::thread([this] { ControlReaderMain(); });

  uint64_t start_epoch = 0;
  if (replacement_) {
    // A replacement is born into a restart: rendezvous, then build at GO. The GO's mode
    // says whether the survivors kept their state (selective) or everyone rolls back.
    const uint64_t t0 = obs::MonotonicNs();
    SendStatus(kStRecovering, 0, 0, kNoManifestEpoch);
    uint32_t gen = 0;
    uint64_t restore = kNoManifestEpoch;
    uint64_t mode = 0;
    if (!WaitGo(&gen, &restore, &mode)) {
      return Cleanup(0);  // the run finished without us; nothing to rejoin
    }
    Build(gen, restore, mode == 1, &start_epoch);
    NoteRecovered(t0, restore, mode);
    downtime_ns_ = obs::MonotonicNs() - t0;
    last_mode_ = mode;
    SendStatus(kStRecoverStats, 0, downtime_ns_, mode);
  } else {
    Build(0, kNoManifestEpoch, /*selective=*/false, &start_epoch);
  }

  for (;;) {
    if (RunEpochs(start_epoch)) {
      SendStatus(kStDone, recoveries_, total_commits_, replay_dropped_);
      uint32_t gen = 0;
      uint64_t restore = kNoManifestEpoch;
      uint64_t mode = 0;
      if (WaitExitOrGo(&gen, &restore, &mode) == 0) {
        break;
      }
      // A restart was ordered after we finished (the kill raced the termination verdict):
      // rejoin it. A finished member is never ordered into a selective restart (the
      // supervisor's rule requires every survivor to be recovering), so this rebuild is
      // always coordinated. The restored epoch is final; the re-run is just the barriers.
      NAIAD_CHECK(mode == 0) << "selective GO sent to a finished member";
      const uint64_t t0 = obs::MonotonicNs();
      Teardown();
      Build(gen, restore, /*selective=*/false, &start_epoch);
      NoteRecovered(t0, restore, mode);
      continue;
    }
    // Recovery: under kSelective first try to prepare a survivor-preserving restart with
    // the stack still live (stall barrier + in-memory image + log validation); then tear
    // the generation down, rendezvous, and rebuild at GO. The supervisor only orders
    // mode 1 when EVERY survivor reported the preconditions held, so a single member's
    // fallback demotes the whole cluster to a coordinated restart.
    const uint64_t t0 = obs::MonotonicNs();
    // Announce detection immediately — before the stall barrier and teardown — so the
    // supervisor's kill→detection latency measures the detectors, not the recovery.
    SendStatus(kStDetected, gen_, 0);
    const uint32_t candidate = gen_ + 1;
    uint64_t sel_ok = 0;
    if (cfg_.recovery_mode == RecoveryMode::kSelective) {
      sel_ok = PrepareSelective() ? 1 : 0;
      if (::getenv("NAIAD_CLUSTER_DEBUG") != nullptr) {
        std::fprintf(stderr, "[p%u g%u %.3f] prepare_selective=%llu (%.3fs)\n", slot_,
                     gen_, obs::MonotonicNs() / 1e9, (unsigned long long)sel_ok,
                     (obs::MonotonicNs() - t0) / 1e9);
      }
    }
    stall_pending_ = true;
    stall_t0_ = t0;
    stall_target_ = last_fed_epoch_;
    Teardown();
    SendStatus(kStRecovering, candidate, sel_ok, last_rebase_epoch_);
    uint32_t gen = 0;
    uint64_t restore = kNoManifestEpoch;
    uint64_t mode = 0;
    if (!WaitGo(&gen, &restore, &mode)) {
      return Cleanup(1);  // the supervisor gave up on the run
    }
    if (mode == 1) {
      NAIAD_CHECK(sel_ok == 1) << "selective GO without local preconditions";
    } else {
      mem_image_.clear();  // rolled back with everyone: restore from disk instead
      resend_.clear();
      victim_ = kNoVictim;
    }
    Build(gen, restore, mode == 1, &start_epoch);
    NoteRecovered(t0, restore, mode);
    downtime_ns_ = obs::MonotonicNs() - t0;
    last_mode_ = mode;
  }
  // Supervised exit: every member reported DONE, so no peer is still inside a barrier and
  // link teardown can no longer be mistaken for a death.
  ExportLogCounters();
  transport_->Shutdown();
  return Cleanup(0);
}

}  // namespace

RecoveryMode RecoveryModeFromEnv(RecoveryMode def) {
  const char* v = ::getenv("NAIAD_RECOVERY_MODE");
  if (v == nullptr) {
    return def;
  }
  if (std::strcmp(v, "selective") == 0) {
    return RecoveryMode::kSelective;
  }
  if (std::strcmp(v, "coordinated") == 0) {
    return RecoveryMode::kCoordinated;
  }
  NAIAD_CHECK(false) << "NAIAD_RECOVERY_MODE must be 'coordinated' or 'selective', got "
                     << v;
  return def;
}

bool SupervisorHintFromEnv(bool def) {
  const char* v = ::getenv("NAIAD_SUPERVISOR_HINT");
  if (v == nullptr) {
    return def;
  }
  if (std::strcmp(v, "0") == 0) {
    return false;
  }
  if (std::strcmp(v, "1") == 0) {
    return true;
  }
  NAIAD_CHECK(false) << "NAIAD_SUPERVISOR_HINT must be '0' or '1', got " << v;
  return def;
}

std::vector<uint64_t> CheckpointSchedule(uint64_t total_epochs, uint64_t checkpoint_every) {
  std::vector<uint64_t> out;
  for (uint64_t e = 0; e < total_epochs; ++e) {
    if ((checkpoint_every != 0 && (e + 1) % checkpoint_every == 0) ||
        e + 1 == total_epochs) {
      out.push_back(e);
    }
  }
  return out;
}

size_t PruneClusterImages(const std::string& dir, uint32_t process,
                          const std::vector<uint64_t>& schedule, uint64_t committed_epoch,
                          uint32_t retain) {
  if (retain == 0) {
    return 0;
  }
  std::vector<uint64_t> committed;
  for (uint64_t e : schedule) {
    if (e <= committed_epoch) {
      committed.push_back(e);
    }
  }
  if (committed.size() <= retain) {
    return 0;
  }
  size_t unlinked = 0;
  for (size_t i = 0; i + retain < committed.size(); ++i) {
    // unlink of an already-missing image succeeds in spirit: a crash between commit and
    // GC leaves extra images behind, and the next commit's call sweeps them.
    if (::unlink(ClusterImagePath(dir, process, committed[i]).c_str()) == 0) {
      ++unlinked;
    }
  }
  return unlinked;
}

// ---- paths and manifest -------------------------------------------------------------

std::string ClusterImagePath(const std::string& dir, uint32_t process, uint64_t epoch) {
  return dir + "/ckpt_p" + std::to_string(process) + "_e" + std::to_string(epoch);
}

std::string ClusterManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

bool WriteClusterManifest(const std::string& dir, uint64_t epoch, uint32_t processes,
                          const std::vector<uint32_t>& jobs) {
  ByteWriter w;
  w.WriteU32(kManifestMagic);
  w.WriteU64(epoch);
  w.WriteU32(processes);
  // The registered-job set at commit time: a recovering cluster must re-register exactly
  // these dataflows before adopting the epoch. The single-job harness writes {0}.
  w.WriteU32(static_cast<uint32_t>(jobs.size()));
  for (uint32_t j : jobs) {
    w.WriteU32(j);
  }
  return WriteCheckpointFile(ClusterManifestPath(dir), w.buffer());
}

uint64_t ReadClusterManifest(const std::string& dir, uint32_t expect_processes,
                             std::vector<uint32_t>* jobs) {
  CheckpointReadResult res = ReadCheckpointFileEx(ClusterManifestPath(dir));
  if (!res.ok()) {
    return kNoManifestEpoch;  // absent or unverifiable: not adoptable, fall back to fresh
  }
  ByteReader r(res.image);
  NAIAD_CHECK(r.ReadU32() == kManifestMagic) << "not a cluster manifest";
  const uint64_t epoch = r.ReadU64();
  NAIAD_CHECK(r.ReadU32() == expect_processes) << "manifest from a different cluster shape";
  const uint32_t njobs = r.ReadU32();
  NAIAD_CHECK(njobs >= 1) << "manifest committed with no registered job";
  if (jobs != nullptr) {
    jobs->clear();
  }
  for (uint32_t i = 0; i < njobs; ++i) {
    const uint32_t j = r.ReadU32();
    if (jobs != nullptr) {
      jobs->push_back(j);
    }
  }
  NAIAD_CHECK(r.ok());
  return epoch;
}

// ---- the supervisor (parent) side ---------------------------------------------------

ClusterKillOutcome ClusterKillDriver::Run(const Options& opts,
                                          const ClusterAppFactory& factory) {
  const ClusterRunConfig& cfg = opts.cfg;
  const uint32_t n = cfg.processes;
  NAIAD_CHECK(n >= 2);
  NAIAD_CHECK(cfg.total_epochs >= 2);
  NAIAD_CHECK(!cfg.ckpt_dir.empty());
  // The supervisor writes into pipes whose reader may have been SIGKILLed; EPIPE is
  // handled, SIGPIPE must not be fatal.
  ::signal(SIGPIPE, SIG_IGN);

  ClusterKillOutcome out;
  Stopwatch sw;
  const bool dbg = ::getenv("NAIAD_CLUSTER_DEBUG") != nullptr;

  struct Member {
    pid_t pid = -1;
    int status_fd = -1;  // read end of the member's status pipe
    int ctl_fd = -1;     // write end of the member's control pipe
    bool done = false;
    bool exit_sent = false;
    bool eof = false;
    bool accounted = false;   // restart rendezvous: DONE or RECOVERING seen since the kill
    bool recovering = false;
    bool selective_ok = false;           // this survivor's preconditions held
    uint64_t rebase_epoch = kNoManifestEpoch;  // its reported log watermark
    uint64_t stall_ns = 0;
    uint64_t downtime_ns = 0;
    uint64_t mode = 0;                   // 1 when it rebuilt selectively
    uint64_t replay_drops = 0;
    uint64_t done_recoveries = 0;
    uint64_t done_commits = 0;
    std::vector<uint8_t> buf;
  };
  std::vector<Member> members(n);

  // The supervisor must stay single-threaded: every member is forked from it, and a fork
  // of a multi-threaded process would start its child with locks in unknowable states.
  auto spawn = [&](uint32_t slot, bool replacement) {
    int sp[2];
    int cp[2];
    NAIAD_CHECK(::pipe(sp) == 0);
    NAIAD_CHECK(::pipe(cp) == 0);
    const pid_t pid = ::fork();
    NAIAD_CHECK(pid >= 0);
    if (pid == 0) {
      ::close(sp[0]);
      ::close(cp[1]);
      for (const Member& m : members) {  // drop inherited ends of the other members' pipes
        if (m.status_fd >= 0) ::close(m.status_fd);
        if (m.ctl_fd >= 0) ::close(m.ctl_fd);
      }
      MemberRunner runner(cfg, slot, sp[1], cp[0], replacement);
      ::_exit(runner.Run(factory));
    }
    ::close(sp[1]);
    ::close(cp[0]);
    members[slot] = Member{};
    members[slot].pid = pid;
    members[slot].status_fd = sp[0];
    members[slot].ctl_fd = cp[1];
  };

  auto send_ctl = [&](uint32_t slot, const Record& rec) {
    if (members[slot].ctl_fd >= 0) {
      WriteRecord(members[slot].ctl_fd, rec);  // EPIPE from an exited member is benign
    }
  };

  // Seed-derived kill schedule: victim, epoch, phase (mid-feed vs inside the checkpoint
  // barrier), and in-phase delay are all pure functions of the seed.
  uint32_t victim = 0;
  uint64_t kill_epoch = 0;
  bool barrier_kill = false;
  uint32_t kill_delay_us = 0;
  if (opts.inject_kill) {
    victim = static_cast<uint32_t>(opts.seed % n);
    kill_epoch = 1 + opts.seed % (cfg.total_epochs - 1);
    Rng kr(HashCombine(opts.seed, HashString("CLUSTER-KILL")));
    barrier_kill = (kr.Next() & 1) != 0;
    kill_delay_us = static_cast<uint32_t>(kr.Below(2000));
  }
  out.victim = victim;
  out.kill_epoch = kill_epoch;
  out.kill_in_barrier = barrier_kill;

  for (uint32_t p = 0; p < n; ++p) {
    spawn(p, /*replacement=*/false);
  }

  std::vector<uint16_t> ports(n, 0);
  uint32_t ports_seen = 0;
  bool ports_sent = false;
  bool killed = false;
  bool restart_pending = false;
  uint32_t cur_gen = 0;
  bool failed = false;
  double t_kill_s = 0;  // supervisor clock at the SIGKILL (detection-latency baseline)

  auto do_kill = [&] {
    if (kill_delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(kill_delay_us));
    }
    ::kill(members[victim].pid, SIGKILL);
    t_kill_s = sw.ElapsedSeconds();
    int ws = 0;
    ::waitpid(members[victim].pid, &ws, 0);
    ::close(members[victim].status_fd);
    ::close(members[victim].ctl_fd);
    // Cleared before spawn(): the replacement's pipes may reuse these fd numbers, and the
    // child's close-other-members sweep must not tear down its own fresh pipe ends.
    members[victim].status_fd = -1;
    members[victim].ctl_fd = -1;
    killed = true;
    out.killed = true;
    ++cur_gen;
    restart_pending = true;
    for (Member& m : members) {
      m.accounted = m.done;  // a member already done before the kill stands as accounted
      m.recovering = false;
    }
    // Replacement first (it needs the port map before anyone can dial it), then hint the
    // survivors; the in-band kRecover broadcast usually beats this, the hint is liveness.
    // With the hint disabled, liveness rests entirely on the in-band detectors: receiver
    // EOF/RST from the SIGKILLed victim, a failed write toward it, or — when every other
    // channel is idle — the heartbeat lease expiring.
    spawn(victim, /*replacement=*/true);
    for (uint32_t j = 0; j < n; ++j) {
      send_ctl(victim, Record{kCtPort, j, ports[j], 0});
    }
    if (cfg.supervisor_hint) {
      for (uint32_t p = 0; p < n; ++p) {
        if (p != victim && !members[p].done) {
          send_ctl(p, Record{kCtRecover, cur_gen - 1, victim, 0});
        }
      }
    }
  };

  auto maybe_release_restart = [&] {
    if (!restart_pending) {
      return;
    }
    for (const Member& m : members) {
      if (!m.eof && !m.accounted) {
        return;
      }
    }
    restart_pending = false;
    bool any_recovering = false;
    for (uint32_t p = 0; p < n; ++p) {
      if (p != victim && members[p].recovering) {
        any_recovering = true;
      }
    }
    if (!any_recovering) {
      // Every survivor finished before the restart reached it (the kill raced the
      // termination verdict): the run is over, the replacement is superfluous.
      send_ctl(victim, Record{kCtExit, 0, 0, 0});
      members[victim].exit_sent = true;
      members[victim].done = true;
      return;
    }
    const uint64_t restore = ReadClusterManifest(cfg.ckpt_dir, n);
    out.restore_epoch = restore;
    // Selective only when EVERY survivor can hold its state: each must be recovering
    // (not finished), have passed its local preconditions, and report a log watermark
    // equal to the manifest epoch — a survivor rebased past a commit the coordinator
    // died before broadcasting would otherwise double-feed the replacement.
    uint64_t mode = 0;
    if (cfg.recovery_mode == RecoveryMode::kSelective && killed) {
      mode = 1;
      for (uint32_t p = 0; p < n; ++p) {
        if (p == victim) {
          continue;
        }
        const Member& m = members[p];
        if (!m.recovering || !m.selective_ok || m.rebase_epoch != restore) {
          mode = 0;
          break;
        }
      }
    }
    for (uint32_t p = 0; p < n; ++p) {
      members[p].done = false;  // a finished member ordered into a restart reports anew
      send_ctl(p, Record{kCtGo, cur_gen, restore, mode});
    }
  };

  auto handle = [&](uint32_t p, const Record& rec) {
    switch (rec.tag) {
      case kStPort:
        NAIAD_CHECK(!ports_sent);
        ports[p] = static_cast<uint16_t>(rec.a);
        if (++ports_seen == n) {
          for (uint32_t m = 0; m < n; ++m) {
            for (uint32_t j = 0; j < n; ++j) {
              send_ctl(m, Record{kCtPort, j, ports[j], 0});
            }
          }
          ports_sent = true;
          out.launched = true;
        }
        break;
      case kStStarting:
        if (opts.inject_kill && !killed && !barrier_kill && p == victim &&
            rec.a == kill_epoch) {
          do_kill();
        }
        break;
      case kStCheckpointing:
        if (opts.inject_kill && !killed && barrier_kill && p == victim &&
            rec.a >= kill_epoch) {
          do_kill();
        }
        break;
      case kStCommitted:
        break;
      case kStRecovering:
        if (restart_pending) {
          members[p].accounted = true;
          members[p].recovering = true;
          members[p].selective_ok = rec.b != 0;
          members[p].rebase_epoch = rec.c;
        } else if (!killed) {
          if (dbg) std::fprintf(stderr, "[sup] member %u recovering with no kill\n", p);
          failed = true;  // a recovery with no kill means a member falsely suspected death
        }
        break;
      case kStDetected:
        // First detection report after the kill stamps the kill→detection latency; with
        // the hint disabled this is the in-band detectors (EOF/RST or lease) alone.
        if (killed && out.detection_seconds == 0) {
          out.detection_seconds = sw.ElapsedSeconds() - t_kill_s;
        }
        break;
      case kStRecoverStats:
        members[p].stall_ns = std::max(members[p].stall_ns, rec.a);
        members[p].downtime_ns = std::max(members[p].downtime_ns, rec.b);
        if (rec.c == 1) {
          members[p].mode = 1;
        }
        break;
      case kStDone:
        members[p].done = true;
        members[p].done_recoveries = rec.a;
        members[p].done_commits = rec.b;
        members[p].replay_drops = rec.c;
        members[p].accounted = true;
        break;
      default:
        if (dbg) std::fprintf(stderr, "[sup] bad record tag %u from %u\n", rec.tag, p);
        failed = true;
        break;
    }
    if (dbg) std::fprintf(stderr, "[sup %.3f] rec p%u tag=%u a=%llu b=%llu c=%llu\n",
                          obs::MonotonicNs() / 1e9, p, rec.tag,
                          (unsigned long long)rec.a, (unsigned long long)rec.b,
                          (unsigned long long)rec.c);
  };

  for (;;) {
    bool all_done = true;
    for (const Member& m : members) {
      if (!m.done && !(m.eof && m.exit_sent)) {
        all_done = false;
      }
    }
    if (ports_sent && all_done && !restart_pending) {
      break;
    }
    if (failed || sw.ElapsedSeconds() > 180.0) {
      failed = true;
      break;
    }

    std::vector<pollfd> fds;
    std::vector<uint32_t> idx;
    for (uint32_t p = 0; p < n; ++p) {
      if (members[p].status_fd >= 0) {
        fds.push_back(pollfd{members[p].status_fd, POLLIN, 0});
        idx.push_back(p);
      }
    }
    if (fds.empty()) {
      if (dbg) std::fprintf(stderr, "[sup] no live status fds\n");
      failed = true;
      break;
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (rc < 0) {
      if (errno == EINTR) {
        continue;
      }
      failed = true;
      break;
    }
    for (size_t i = 0; i < fds.size() && !failed; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const uint32_t p = idx[i];
      uint8_t tmp[512];
      const ssize_t got = ::read(members[p].status_fd, tmp, sizeof(tmp));
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got <= 0) {
        ::close(members[p].status_fd);
        members[p].status_fd = -1;
        members[p].eof = true;
        if (!members[p].exit_sent) {
          if (dbg) std::fprintf(stderr, "[sup] member %u EOF without exit\n", p);
          failed = true;  // a member died without being told to exit
        }
        continue;
      }
      Member& m = members[p];
      m.buf.insert(m.buf.end(), tmp, tmp + got);
      size_t off = 0;
      while (m.buf.size() - off >= kRecordBytes) {
        const Record rec = ParseRecord(m.buf.data() + off);
        off += kRecordBytes;
        handle(p, rec);
        if (m.buf.size() < off) {  // handle() killed + respawned this very slot
          off = 0;
          break;
        }
      }
      m.buf.erase(m.buf.begin(), m.buf.begin() + static_cast<ptrdiff_t>(off));
    }
    maybe_release_restart();
  }

  if (!failed) {
    for (uint32_t p = 0; p < n; ++p) {
      if (!members[p].exit_sent) {
        send_ctl(p, Record{kCtExit, 0, 0, 0});
        members[p].exit_sent = true;
      }
    }
  } else {
    for (const Member& m : members) {
      if (m.pid >= 0 && !m.eof) {
        ::kill(m.pid, SIGKILL);
      }
    }
  }
  bool all_zero = true;
  for (Member& m : members) {
    if (m.pid < 0) {
      continue;
    }
    int ws = 0;
    ::waitpid(m.pid, &ws, 0);
    if (!(WIFEXITED(ws) && WEXITSTATUS(ws) == 0)) {
      all_zero = false;
      if (dbg) {
        std::fprintf(stderr, "[sup] member slot pid=%d exited=%d code=%d signaled=%d sig=%d\n",
                     (int)m.pid, WIFEXITED(ws), WIFEXITED(ws) ? WEXITSTATUS(ws) : -1,
                     WIFSIGNALED(ws), WIFSIGNALED(ws) ? WTERMSIG(ws) : 0);
      }
    }
    if (m.status_fd >= 0) ::close(m.status_fd);
    if (m.ctl_fd >= 0) ::close(m.ctl_fd);
  }
  out.ok = !failed && all_zero;
  out.stats.elapsed_seconds = sw.ElapsedSeconds();
  for (const Member& m : members) {
    out.stats.recoveries = std::max(out.stats.recoveries, m.done_recoveries);
    out.stats.checkpoint_epochs = std::max(out.stats.checkpoint_epochs, m.done_commits);
    out.stats.selective_recoveries += m.mode;
    out.stats.replayed_frames_dropped += m.replay_drops;
    out.stats.survivor_stall_seconds =
        std::max(out.stats.survivor_stall_seconds, static_cast<double>(m.stall_ns) / 1e9);
    out.stats.recovery_downtime_seconds = std::max(
        out.stats.recovery_downtime_seconds, static_cast<double>(m.downtime_ns) / 1e9);
  }
  return out;
}

}  // namespace naiad
