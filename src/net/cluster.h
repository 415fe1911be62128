// Multi-process execution harness.
//
// The paper's deployment is N processes on N computers; this reproduction runs N processes
// as N threads of one binary, each with its own Controller, worker pool, logical graph
// copy (SPMD construction, §3.1), and real TCP connections to every peer. Record exchange,
// serialization, and the distributed progress protocol all cross genuine sockets; only the
// wire is loopback (see DESIGN.md substitution #1). Cluster::Run is a one-job run on the
// job server (src/net/job_server.h), whose jobs end on each process's drained tracker and
// need no control plane. ClusterControl serves the forked-process cluster of
// src/ft/cluster_recovery.h, where each "process" really is an OS process that can be
// SIGKILLed, and where the survivors must agree on how a run ended.
//
// Every cluster-wide agreement that "nothing is happening" is one quiet-point round
// machine (ClusterControl::RunQuietRounds). Each round, every participant brings itself to
// a local cut, reports (locally quiet, traffic counters) to the coordinator — the lowest
// participant — and waits for the round's verdict: every participant quiet, every
// participant's counters unchanged since the previous round (two-round stability), and the
// counters balanced as the barrier's kind demands. Three barriers run on it:
// - termination: a drained tracker is the cut; no balance check.
// - checkpoint (§3.4): paused-and-drained workers are the cut, and the cluster-wide
//   sent/received sums must match per frame type (no frame in flight). Only then does
//   each process serialize its image; process 0 commits the checkpoint epoch to the
//   manifest strictly after every process reports its image durable, so a torn cluster
//   checkpoint is never adoptable.
// - stall (selective recovery): the checkpoint cut among the survivors of a victim, with
//   per-pair sent/received balance and the victim's receive link drained.

#ifndef SRC_NET_CLUSTER_H_
#define SRC_NET_CLUSTER_H_

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/core/controller.h"
#include "src/net/progress_router.h"
#include "src/net/transport.h"
#include "src/ser/bytes.h"

namespace naiad {

// Control-frame verbs (first payload byte of every kControl frame). kCtlQuietReport/
// kCtlQuietVerdict drive every quiet-point barrier (the kind travels in the frame);
// kCtlCkpt* finish the cluster checkpoint (the durable/commit exchange); kCtlFailure/
// kCtlRecover drive the coordinated restart of src/ft/cluster_recovery.h. Those verbs
// belong to ClusterControl and so to the recovery member alone. kCtlRegisterJob/
// kCtlTeardownJob are the job server's only verbs (src/net/job_server.h); its demux
// drops a kControl frame carrying any other verb as a stray.
inline constexpr uint8_t kCtlQuietReport = 0;
inline constexpr uint8_t kCtlQuietVerdict = 1;
inline constexpr uint8_t kCtlCkptDurable = 4;
inline constexpr uint8_t kCtlCkptCommit = 5;
inline constexpr uint8_t kCtlFailure = 6;
inline constexpr uint8_t kCtlRecover = 7;
inline constexpr uint8_t kCtlRegisterJob = 8;
inline constexpr uint8_t kCtlTeardownJob = 9;
// Selective rollback recovery (src/ft/log_recovery.h). kCtlSelectiveRecover replaces the
// whole-cluster kCtlRecover broadcast when selective mode is on (it carries the victim so
// every survivor can target its stall barrier and log replay); kCtlStallAbort ends every
// survivor's stall barrier at once; kCtlSeed* drive the post-rebuild seed-state exchange —
// each process broadcasts its own tracker contributions, acks once it holds all of them,
// and resumes only after the release, so every −delta any process ever emits is preceded
// everywhere by its seeded could-result-in ancestor.
inline constexpr uint8_t kCtlSelectiveRecover = 10;
inline constexpr uint8_t kCtlSeedState = 13;
inline constexpr uint8_t kCtlSeedAck = 14;
inline constexpr uint8_t kCtlSeedRelease = 15;
inline constexpr uint8_t kCtlStallAbort = 16;
// 2, 3, 11 and 12 are unused. 17 is kCtlHeartbeat (src/net/transport.h) — consumed inside
// the transport, never demuxed here. New cluster verbs continue from 18.

// "No process": recovery_victim() before any failure, and manifest-absent rebase tags.
inline constexpr uint32_t kNoVictim = 0xffffffffu;

struct ClusterOptions {
  uint32_t processes = 2;
  uint32_t workers_per_process = 2;
  ProgressStrategy strategy = ProgressStrategy::kLocalGlobalAcc;
  size_t batch_size = 4096;
  uint32_t default_parallelism = 0;
  // Optional fault-injection plan (src/testing/fault.h); must outlive the run. Faults are
  // schedule perturbations only — results must be identical to a fault-free run.
  ClusterFaultPlan* fault_plan = nullptr;
  // Observability toggles, applied to every process. When obs.trace_path is nonempty and
  // tracing is on, one combined Chrome trace-event file (one pid per process) is written
  // there after the run.
  obs::ObsOptions obs;
  // Job-server quota: per process, per job, the bytes of frames buffered for a job that is
  // announced but not yet registered locally. A job exceeding it has further pre-
  // registration frames dropped (counted in ClusterStats::stash_overflow_drops) — it can
  // stall itself, never the server or its neighbors.
  size_t job_stash_limit_bytes = 16 << 20;
  // In-band robustness (TcpTransport::LinkPolicy, applied to every process's transport
  // before Start). All default-off: no heartbeats, no lease detector, unbounded send
  // queues — exactly the pre-policy behavior.
  uint32_t heartbeat_interval_ms = 0;  // keeper emits kCtlHeartbeat every interval
  uint32_t heartbeat_timeout_ms = 0;   // lease: silence beyond this declares the peer down
  size_t max_send_queue_bytes = 0;     // per-link bound on queued data bytes (0 = none)
  size_t max_send_queue_frames = 0;    // per-link bound on queued data frames (0 = none)
  size_t credit_window_bytes = 0;      // max unconsumed data bytes in flight (0 = none)
  bool shed_data = false;              // full queue: shed-and-count instead of blocking
  // Checkpoint GC: how many committed cluster-checkpoint images to retain per process
  // slot (the newest K). Older images are unlinked only after a newer commit lands, so a
  // crash between commit and GC leaves extra images, never too few. 0 = keep everything.
  uint32_t checkpoint_retain = 2;
};

struct ClusterStats {
  uint64_t progress_bytes = 0;     // protocol traffic over the wire (Fig. 6c)
  uint64_t progress_frames = 0;
  uint64_t data_bytes = 0;         // record-bundle traffic over the wire (Fig. 6a)
  uint64_t data_frames = 0;
  uint64_t reconnects = 0;         // link resets survived (fault injection)
  uint64_t recoveries = 0;         // coordinated cluster restarts survived (§3.4)
  uint64_t checkpoint_epochs = 0;  // cluster checkpoint epochs committed to the manifest
  // Scope attribution of the progress traffic (see DistributedProgressRouter): bytes of
  // emitted updates whose pointstamps live in the root space, bytes of loop-internal
  // updates a per-scope deployment would keep local, and the summarized boundary deltas
  // (ProgressTracker::Stats) that would cross instead. A loop-free dataflow has one
  // scope: everything is cross-scope and boundary bytes are zero.
  uint64_t progress_cross_scope_bytes = 0;
  uint64_t progress_in_scope_bytes = 0;
  uint64_t progress_boundary_bytes = 0;
  uint64_t progress_boundary_updates = 0;
  uint64_t occ_map_peak = 0;       // Σ over processes of the trackers' occurrence peaks
  uint64_t occ_map_peak_root = 0;  // same, root scope only (all of it when loop-free)
  double elapsed_seconds = 0;
  // Merged metrics across all processes; empty unless opts.obs.metrics was set.
  obs::ObsSnapshot obs;
  // Job-server accounting. `jobs` has one entry per registered job (wire traffic summed
  // across processes); the counters below record frames the demux refused to deliver.
  struct JobStats {
    uint32_t job = 0;
    uint64_t data_frames = 0;
    uint64_t data_bytes = 0;
    uint64_t progress_frames = 0;
    uint64_t progress_bytes = 0;
    bool torn_down = false;  // cancelled mid-run rather than drained
  };
  std::vector<JobStats> jobs;
  uint64_t stray_frames_dropped = 0;    // frames for unknown / already-torn-down jobs
  uint64_t stash_overflow_drops = 0;    // pre-registration frames over the stash quota
  uint64_t duplicate_frames_dropped = 0;  // receiver-side dedup hits (seq replay)
  // Selective rollback recovery (src/ft/log_recovery.h). survivor_stall_seconds is the
  // longest any survivor spent paused (stall barrier start → state capture done) — the
  // quantity Fig.-style recovery benchmarks compare against a coordinated restart, where
  // every survivor instead tears down and replays from the checkpoint.
  uint64_t selective_recoveries = 0;
  uint64_t replayed_frames_dropped = 0;   // regenerated frames deduped at survivors
  double survivor_stall_seconds = 0;
  double recovery_downtime_seconds = 0;   // failure detection → victim slot live again
  // In-band failure detection + flow control (summed across processes).
  uint64_t heartbeats_sent = 0;
  uint64_t heartbeats_received = 0;
  uint64_t peers_declared_down = 0;    // lease expiries the detectors declared
  uint64_t credit_stalls = 0;          // data sends that blocked on queue room / credit
  uint64_t frames_shed = 0;            // data frames dropped under shed_data
  uint64_t send_queue_hwm_bytes = 0;   // max over processes of peak per-link queued bytes
};

// Per-process cluster control plane over kControl frames, for the kill-and-recover
// member (src/ft/cluster_recovery.h): the quiet-point round machine and its three
// barriers (termination, checkpoint, survivor stall), the checkpoint's durable/commit
// exchange, the selective seed exchange, and failure/recovery signalling. One instance
// per (Controller, TcpTransport) generation, over the transport's own counters; recovery
// tears it down with the rest and builds a fresh one. A barrier's coordinator is its
// lowest participant (process 0, or 1 when the stall victim is 0); failure reports go to
// the lowest-ranked survivor.
class ClusterControl {
 public:
  ClusterControl(Controller* ctl, TcpTransport* transport, DistributedProgressRouter* router)
      : ctl_(ctl), transport_(transport), router_(router) {}
  ClusterControl(const ClusterControl&) = delete;
  ClusterControl& operator=(const ClusterControl&) = delete;

  // Handles every kControl frame the member's transport receives. Runs on receive
  // threads (or inline for self-sends).
  void HandleControl(uint32_t src, std::span<const uint8_t> payload);

  // Wire to TcpTransport::Callbacks.on_peer_down (kill-and-recover harness only; the
  // thread-mode Cluster::Run leaves it unset). Reports the suspected death to the lowest
  // surviving process, which broadcasts kRecover; also requests recovery locally at once.
  // Deduplicated; ignored after Finish().
  void ReportFailure(uint32_t victim);
  // Requests recovery directly (supervisor hint path), as if a kRecover frame arrived.
  // The hint may carry the victim (selective mode needs it even when the in-band
  // broadcast was lost).
  void RequestRecovery(uint32_t victim);

  // Selective mode: failure broadcasts carry the victim (kCtlSelectiveRecover), and the
  // stall/seed machinery below becomes live. Set once, right after construction.
  void SetSelectiveMode(bool on) { selective_mode_.store(on, std::memory_order_release); }
  // The process whose death triggered the pending recovery (first report wins), or
  // kNoVictim when no failure has been attributed yet.
  uint32_t recovery_victim() const {
    return recovery_victim_.load(std::memory_order_acquire);
  }

  // Survivor stall barrier: the checkpoint barrier's quiet-point rounds, but among the
  // survivors of `victim` on the live (pre-teardown) mesh, with per-link counters — the
  // verdict requires every surviving pair's sent==received per frame type plus the
  // victim's receive link fully drained, so the survivors' paused state is a consistent
  // cut that has absorbed everything the victim ever put on the wire. Coordinator is the
  // lowest survivor. On success the caller's workers are LEFT PAUSED (capture your image,
  // then resume); on failure (timeout, or a peer that never joins) workers are resumed
  // and the caller falls back to coordinated restart.
  bool RunStallBarrier(uint32_t victim);

  // Declares this process out of the selective attempt for the current generation and
  // tells every peer so (kCtlStallAbort). Fallback decisions are LOCAL (a member whose
  // final commit already landed, or whose victim attribution is missing, skips the stall
  // barrier entirely) — without this broadcast a peer already inside RunStallBarrier
  // would wait out the full verdict timeout for a report that is never coming. Sticky
  // for the lifetime of this control object (one generation): once any member aborts,
  // the supervisor can only order a coordinated restart anyway.
  void AbortSelectiveStall();
  bool stall_aborted() const { return stall_aborted_.load(std::memory_order_acquire); }

  // Post-rebuild seed exchange: broadcasts this process's tracker contributions (from
  // RestoreProcessSelective / FreshStartSelective, plus the caller's replay +counts),
  // applies every process's contributions as they arrive, acks to process 0 once all are
  // held, and returns after the coordinator's release — at which point it is safe to
  // Resume() and start emitting deltas. Workers must be paused (Controller::StartPaused)
  // for the duration. False on timeout (a peer died mid-rebuild).
  bool RunSeedExchange(const std::vector<ProgressUpdate>& seeds);

  // Blocks until the cluster-wide termination verdict. Returns true on successful
  // termination (and latches Finish()); false if interrupted by a recovery request. An
  // in-flight successful verdict beats a concurrent recovery request.
  bool RunTerminationBarrier();

  // Drives this process through the cluster checkpoint for `epoch`: quiet-point rounds,
  // then `at_cut(epoch)` (if set) strictly at the global quiet point — every worker in
  // the cluster paused, cluster-wide sent==received verified, no peer resumed yet — then
  // `write_image(epoch)` (must capture and durably publish this process's image and
  // leave the controller resumed — CheckpointProcess + WriteCheckpointFile does), then the
  // durable/commit exchange. On process 0, `write_manifest(epoch)` publishes the manifest
  // once every process has reported durable. Returns true once the commit for `epoch` is
  // received; false if the checkpoint failed or recovery interrupted it. All processes
  // must call this for the same epochs in the same order.
  //
  // at_cut is where selective recovery anchors its log windows (outbound-log truncation
  // and the received-frame watermark): taken any later — e.g. after this call returns —
  // a faster peer's already-resumed feed thread can slide next-epoch frames under the
  // snapshot, and a replacement's replay would then be deduplicated against a watermark
  // the survivor's state does not actually match (double delivery).
  bool RunCheckpointBarrier(uint64_t epoch,
                            const std::function<bool(uint64_t)>& write_image,
                            const std::function<bool(uint64_t)>& write_manifest,
                            const std::function<void(uint64_t)>& at_cut = nullptr);

  // After the termination verdict: ignore all further failure reports and recovery frames
  // (peers' teardown EOFs are not failures once the run is over).
  void Finish();
  bool finished() const { return finished_.load(std::memory_order_acquire); }
  bool recovery_requested() const {
    return recovery_requested_.load(std::memory_order_acquire);
  }
  // Cluster checkpoint epochs this process saw committed (ClusterStats.checkpoint_epochs).
  uint64_t committed_epochs() const {
    return committed_epochs_.load(std::memory_order_relaxed);
  }

  // The quiet-point round machine's vocabulary, public so a test can drive the verdict.
  enum class QuietKind : uint8_t { kTermination, kCheckpoint, kStall };
  // One participant's report for one round. `counters` holds sent/received frame counts
  // (even/odd index) per {data, progress, progress-acc}: 6 entries for termination and
  // checkpoint, 6 per peer (indexed by peer, self slot zero) for stall.
  struct QuietReport {
    uint64_t round = 0;
    bool quiet = false;
    std::vector<uint64_t> counters;
    bool valid = false;
  };
  // The verdict on one complete round: quiet ∧ stable ∧ balanced over every participant
  // (for kStall, every slot but the victim `key`). `prev` is the previous round's table;
  // round 0 has none, so it is never ok. Balanced: termination — always; checkpoint —
  // cluster-wide sent == received per frame type; stall — per surviving pair, sent-to ==
  // received-from per frame type (frames toward the victim are unconstrained).
  static bool QuietVerdict(QuietKind kind, uint64_t key,
                           const std::vector<QuietReport>& cur,
                           const std::vector<QuietReport>& prev);

 private:
  using Deadline = std::chrono::steady_clock::time_point;
  // Coordinator side, one per kind: the current and previous round's reports for `key`
  // (checkpoint epoch, stall victim, 0 for termination). A new key resets the table.
  struct QuietTable {
    uint64_t key = ~uint64_t{0};
    std::vector<QuietReport> cur;
    std::vector<QuietReport> prev;
  };
  // Participant side: the last verdict (or, for the checkpoint, commit) received.
  struct Verdict {
    bool have = false;
    uint64_t key = 0;
    uint64_t round = 0;
    bool ok = false;
  };

  // Runs rounds of `kind` for `key` until a verdict comes back ok (true; a pausing kind
  // leaves the workers paused) or the barrier is interrupted (false, workers resumed).
  // `quiet()` probes local quiet at this process's cut.
  bool RunQuietRounds(QuietKind kind, uint64_t key, const std::function<bool()>& quiet);
  void HandleQuietReport(uint32_t src, ByteReader& r);
  std::vector<uint64_t> SnapshotCounters() const;
  std::vector<uint64_t> SnapshotLinkCounters() const;
  // Waits on cv_ under mu_ until `done()` (true), or until `stop()` or `deadline` (false).
  // `done` is checked first: a result that already arrived beats a concurrent stop.
  bool Await(const std::function<bool()>& done, const std::function<bool()>& stop,
             Deadline deadline = Deadline::max());
  void BroadcastRecover(uint32_t victim);
  void NoteVictim(uint32_t victim);
  // Call after storing an atomic flag a barrier, WaitFor or WaitDrained predicate watches
  // (recovery_requested_, stall_aborted_).
  void WakeWaiters();

  Controller* ctl_;
  TcpTransport* transport_;
  DistributedProgressRouter* router_;

  std::atomic<bool> finished_{false};
  std::atomic<bool> recovery_requested_{false};
  std::atomic<uint64_t> committed_epochs_{0};
  std::atomic<bool> selective_mode_{false};
  std::atomic<uint32_t> recovery_victim_{kNoVictim};
  std::atomic<bool> stall_aborted_{false};

  std::mutex mu_;
  std::condition_variable cv_;
  // Participant side, under mu_: one verdict slot per kind, the checkpoint commit, and
  // seed-exchange progress.
  std::array<Verdict, 3> verdicts_;
  Verdict commit_;
  uint32_t seed_frames_ = 0;    // kCtlSeedState frames applied (incl. own)
  uint32_t seed_acks_ = 0;      // coordinator: processes holding the full seed set
  bool seed_released_ = false;
  // Durable acks (coordinator side, but under mu_: the coordinator's barrier thread
  // cv-waits on them).
  uint64_t durable_epoch_ = ~uint64_t{0};
  uint32_t durable_acks_ = 0;
  bool durable_all_ok_ = true;
  // Coordinator side, touched by receive threads.
  std::mutex coord_mu_;
  std::array<QuietTable, 3> tables_;
  std::atomic<bool> recover_broadcast_{false};
};

class Cluster {
 public:
  // `body(ctl)` runs once per process on its own thread (SPMD): build the dataflow, call
  // ctl.Start(), drive the inputs, and call ctl.Join(). Join returns once this process's
  // tracker has drained, which means the whole cluster has (§3.3). Returns aggregate
  // traffic statistics.
  // Implemented as a one-job run on the resident JobServer (src/net/job_server.h).
  using Body = std::function<void(Controller&)>;
  static ClusterStats Run(const ClusterOptions& opts, const Body& body);
};

}  // namespace naiad

#endif  // SRC_NET_CLUSTER_H_
