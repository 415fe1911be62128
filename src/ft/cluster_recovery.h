// Cluster-wide checkpointing and single-process kill-and-recover (§3.4).
//
// This is the forked-process counterpart of src/net/cluster.h: N real OS processes, driven
// by a single-threaded supervisor (the test parent) over pipes. Each member builds its
// per-generation stack as the job server builds a job's: one JobContext
// (src/net/job_context.h, job 0) over the member's TcpTransport, whose Deliver takes
// every data and progress frame. Unlike a job-server job, the member also builds a
// ClusterControl per generation, which takes every kControl frame: its barriers give the
// survivors one agreed outcome (finished, checkpointed or restarting). The member starts
// the context's controller, paused, before its transport, so no peer frame can reach it
// before Start(). Because the members are processes, one of them can be SIGKILLed
// mid-epoch; the survivors then run the coordinated restart that the thread-mode cluster
// can only simulate.
//
// Protocol between a member and the supervisor (fixed 25-byte records, see
// cluster_recovery.cc): the member announces its listen port, each epoch start, each
// checkpoint attempt and commit, each recovery rendezvous, and final completion; the
// supervisor distributes the port map, hints recovery after a kill, releases the restart
// with a (generation, restore-epoch) GO record, and releases final teardown with EXIT —
// teardown is supervisor-gated so a finished member can never be mistaken for a dead one
// by a peer still inside a barrier.
//
// Recovery: on a recovery request (in-band kRecover, a peer-down report, or the supervisor
// hint) every member aborts its barriers, tears its whole runtime down, reports RECOVERING,
// and waits for GO. The supervisor forks a replacement for the killed slot, reads the last
// manifest-complete checkpoint epoch (the manifest is written atomically and only after
// every image is durable, so a kill during the barrier itself simply rolls back to the
// previous manifest), and GOes everyone into the next generation: fresh Controller, same
// fixed port, generation-tagged re-dial, RestoreProcess from the member's own image, the
// seed exchange (every process contributes its own open inputs and pending notifications
// while paused, and resumes once all contributions are applied everywhere), and input
// replay from the recorded InputEpochs. Every generation, the first included, is seeded
// through that exchange.

#ifndef SRC_FT_CLUSTER_RECOVERY_H_
#define SRC_FT_CLUSTER_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/controller.h"
#include "src/ft/checkpoint.h"
#include "src/net/cluster.h"

namespace naiad {

// The application half of a cluster member. The factory builds the dataflow graph on a
// not-yet-started controller; the harness then drives epochs through this interface.
//
// Contract (what makes checkpoint epochs clean cut points): the probe consulted by
// EpochPassed must be downstream (in the could-result-in order) of every stage that
// requests notifications, so an epoch that has passed the probe has no pending work other
// than notifications the checkpoint captures; and FeedEpoch(e) must be deterministic given
// (config, e) — replay after restore feeds the same records.
class ClusterApp {
 public:
  virtual ~ClusterApp() = default;
  // Feed this process's share of epoch `e` into the input handles (OnNext).
  virtual void FeedEpoch(uint64_t epoch) = 0;
  // Non-blocking: has `epoch` fully passed the app's probe? (Polled via WaitFor.)
  virtual bool EpochPassed(uint64_t epoch) = 0;
  // Fast-forward the input handles to the positions RestoreProcess recovered.
  virtual void RestoreInputs(const std::vector<InputEpochs>& inputs) = 0;
  // Close every input (OnCompleted), releasing the computation toward termination.
  virtual void CloseInputs() = 0;
};

// Builds the graph for one member process; called once per generation on a fresh
// controller, before Start().
using ClusterAppFactory =
    std::function<std::unique_ptr<ClusterApp>(Controller& ctl)>;

// How the cluster recovers from a member death (§3.4 vs ROADMAP item 3).
//   kCoordinated  every member tears down and restores from the last committed manifest.
//   kSelective    Falkirk Wheel: survivors stall at a clean cut but KEEP their state;
//                 only the replacement restores from its checkpoint, and survivors
//                 re-send their outbound-log tails to it (src/ft/log_recovery.h). Falls
//                 back to a coordinated restart whenever the selective preconditions
//                 fail (stall barrier timeout, torn log, closed inputs, rebase/manifest
//                 mismatch, a second failure within a selective generation).
// The mode is policy only — whom to roll back, and whether a selective generation skips
// the per-epoch barriers. Both restart through the same seed exchange.
enum class RecoveryMode : uint8_t {
  kCoordinated = 0,
  kSelective = 1,
};

// Reads NAIAD_RECOVERY_MODE ("coordinated" / "selective"); the kill-sweep tests and the
// CI matrix use it to run the same binaries under both recovery paths.
RecoveryMode RecoveryModeFromEnv(RecoveryMode def = RecoveryMode::kCoordinated);

struct ClusterRunConfig {
  uint32_t processes = 3;
  uint32_t workers_per_process = 2;
  ProgressStrategy strategy = ProgressStrategy::kLocalGlobalAcc;
  size_t batch_size = 4096;
  uint32_t default_parallelism = 0;
  uint64_t total_epochs = 6;
  // A cluster checkpoint runs after epoch e when (e+1) % checkpoint_every == 0, and always
  // after the final epoch (so the final state is always on disk for comparison).
  uint64_t checkpoint_every = 2;
  // Directory for per-process images and the MANIFEST; must exist.
  std::string ckpt_dir;
  // Optional fault plan (reset injection must be off: with on_peer_down armed, an injected
  // reset is indistinguishable from a death). Must outlive the run.
  ClusterFaultPlan* fault_plan = nullptr;
  obs::ObsOptions obs;  // trace_path, when set, gets a ".p<id>" suffix per member
  // Selective recovery additionally keeps per-destination outbound logs in ckpt_dir
  // (outlog_p<src>_to_<dst>) and garbage-collects superseded per-process images at each
  // checkpoint commit (the low watermark).
  RecoveryMode recovery_mode = RecoveryMode::kCoordinated;
  // In-band failure detection (TcpTransport::LinkPolicy). When the timeout is nonzero,
  // every member arms the lease detector: a peer silent beyond the lease is declared
  // down in-band and drives the same ReportFailure path the EOF detection uses — no
  // supervisor hint required. Size the lease generously under sanitizers: a false
  // positive is safe (it degenerates to a restart) but wastes a generation.
  uint32_t heartbeat_interval_ms = 0;
  uint32_t heartbeat_timeout_ms = 0;
  // When false, the supervisor does NOT hint survivors after a kill (cluster_recovery.cc
  // do_kill): recovery then rests entirely on in-band detection — receiver EOF/RST, a
  // failed write, or lease expiry. The detector-driven CI rows run with this off.
  bool supervisor_hint = true;
  // Checkpoint GC: retain the newest K committed images per process slot, unlinking
  // older ones only after a newer commit (see ClusterOptions::checkpoint_retain).
  // 0 = keep everything.
  uint32_t checkpoint_retain = 2;
};

// Reads NAIAD_SUPERVISOR_HINT ("1"/"0"); the CI kill-recover matrix uses it to run the
// same binary with and without the out-of-band supervisor hint.
bool SupervisorHintFromEnv(bool def = true);

// The epochs after which a cluster checkpoint runs under `cfg`-style scheduling: every
// (e+1) % checkpoint_every == 0, plus the final epoch. Exposed so GC and tests agree on
// the schedule without re-deriving it.
std::vector<uint64_t> CheckpointSchedule(uint64_t total_epochs, uint64_t checkpoint_every);

// Retain-K image GC for one process slot: given the committed checkpoint `schedule` and
// the newest `committed_epoch`, unlinks this slot's images for all but the newest
// `retain` committed epochs (0 = keep everything). Idempotent — missing files are fine,
// so a crash between commit and GC (leaving extra images) is repaired by the next call.
// Returns the number of images actually unlinked.
size_t PruneClusterImages(const std::string& dir, uint32_t process,
                          const std::vector<uint64_t>& schedule, uint64_t committed_epoch,
                          uint32_t retain);

// Image and manifest naming inside ClusterRunConfig::ckpt_dir.
std::string ClusterImagePath(const std::string& dir, uint32_t process, uint64_t epoch);
std::string ClusterManifestPath(const std::string& dir);

// Atomically publishes "checkpoint epoch `epoch` is complete for `processes` processes,
// with `jobs` registered on the job server at commit time". Called only by process 0,
// only after every process acked durable (the commit rule). The single-job harness
// records job 0.
bool WriteClusterManifest(const std::string& dir, uint64_t epoch, uint32_t processes,
                          const std::vector<uint32_t>& jobs = {0});

// Returns the last committed checkpoint epoch, or kNoManifestEpoch when no (valid)
// manifest exists; when `jobs` is non-null it receives the manifest's registered-job set.
// A manifest for a different process count fails loudly.
inline constexpr uint64_t kNoManifestEpoch = ~uint64_t{0};
uint64_t ReadClusterManifest(const std::string& dir, uint32_t expect_processes,
                             std::vector<uint32_t>* jobs = nullptr);

struct ClusterKillOutcome {
  bool launched = false;   // all members forked and the port map was distributed
  bool ok = false;         // every member exited 0 after a supervised EXIT
  bool killed = false;     // a victim was SIGKILLed
  uint32_t victim = 0;
  uint64_t kill_epoch = 0;
  bool kill_in_barrier = false;        // kill targeted the checkpoint barrier, not the feed
  uint64_t restore_epoch = kNoManifestEpoch;  // manifest epoch adopted (or none = fresh)
  // Kill → first member's failure detection (its RECOVERING report reaching the
  // supervisor). Only meaningful when killed; with the hint disabled this measures the
  // in-band detectors (EOF/RST or heartbeat lease) alone.
  double detection_seconds = 0;
  // recoveries / checkpoint_epochs / elapsed, plus the selective-recovery block
  // (selective_recoveries counts members that rebuilt selectively; zero means the
  // coordinated fallback ran).
  ClusterStats stats;
};

// Forks cfg.processes members running `factory`-built apps, optionally SIGKILLs one of
// them at a seed-chosen point (victim = seed % processes, kill epoch = 1 + seed %
// (total_epochs - 1); the feed-vs-barrier phase and in-phase delay are also pure
// functions of `seed`), supervises the restart, and reaps everyone.
// Determinism contract: the final epoch's checkpoint images are byte-identical to a clean
// (inject_kill = false) run's for every seed — that is the property under test.
class ClusterKillDriver {
 public:
  struct Options {
    ClusterRunConfig cfg;
    uint64_t seed = 0;
    bool inject_kill = true;
  };
  static ClusterKillOutcome Run(const Options& opts, const ClusterAppFactory& factory);
};

}  // namespace naiad

#endif  // SRC_FT_CLUSTER_RECOVERY_H_
