// Resident multi-tenant job server (ROADMAP item 1; the paper's §6 shared-cluster
// scenario).
//
// One JobServer owns a long-lived cluster generation: per process, one TcpTransport mesh,
// one pool of host threads, and a table of per-job contexts. Jobs register and tear down
// at runtime over kControl frames (kCtlRegisterJob / kCtlTeardownJob), run concurrently on
// the shared hosts and links, and are isolated by the JobId every frame header carries:
//
//   - Each job gets its own JobContext (src/net/job_context.h, shared with the
//     kill-and-recover member): a Controller (graph, tracker with its own epoch space,
//     input stages, vertices, keep-alive holders) and a DistributedProgressRouter, so
//     frontiers and epochs never mix across jobs. A job has no control plane: it ends
//     on each process when that process's tracker drains (§3.3), with no cluster-wide
//     rounds, and a kControl frame with any verb but register or teardown is a stray.
//   - Each process has one HostPool (src/core/host_pool.h): host thread k drives worker
//     k of every running job (one scheduling pass per job per tick), preserving the
//     one-owner-thread contract each Worker assumes.
//   - The demux delivers a frame to its job's context while holding the jobs table's
//     shared lock; teardown retires a context under the exclusive lock, so a frame is
//     either delivered to a live job or dropped — never handed to freed vertices. A frame
//     for a job whose controller has not started here is stashed and replayed in arrival
//     order by the controller's start hook; this is the only place early frames wait.
//     While the job is not yet registered locally the stash is bounded by
//     ClusterOptions::job_stash_limit_bytes per job (over-quota frames are counted in
//     ClusterStats::stash_overflow_drops); once registered, its frames are held whole
//     until Start(). Frames for unknown or already-torn-down jobs, and frames still held
//     when a job is torn down before Start(), are dropped deterministically: counted
//     (ClusterStats::stray_frames_dropped) and traced (kStrayFrame).
//
// Job lifecycle: registering (announced, context under construction) → registered (body
// building its graph; frames held) → running (started, stash replayed, context accepting)
// → draining (Join waits for the drained tracker, or is cancelled by teardown) → torn down
// (context retired; subsequent frames are stray).
//
// Cluster::Run is now a thin wrapper: Start → Submit(body) → Wait → Stop.

#ifndef SRC_NET_JOB_SERVER_H_
#define SRC_NET_JOB_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/base/stopwatch.h"
#include "src/net/cluster.h"
#include "src/net/job_context.h"

namespace naiad {

using JobId = uint32_t;

class JobServer {
 public:
  // `body(ctl)` runs once per process on a driver thread (SPMD), exactly like a
  // Cluster::Run body: build the dataflow, ctl.Start(), feed inputs, ctl.Join(). A body
  // that may be torn down mid-run must use cancellation-aware waits
  // (`ctl.cancelled()` in tracker WaitFor predicates) instead of unconditional ones.
  using Body = std::function<void(Controller&)>;

  explicit JobServer(ClusterOptions opts);
  ~JobServer();
  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  // Brings up the transport mesh and host threads. No job exists yet.
  void Start();

  // Registers `body` as a new job on every process and returns its id. The announcement
  // is queued on every link of process 0 before process 0 registers the job inline, so
  // no frame its body sends can overtake the announcement to a peer. Returns immediately;
  // the job runs concurrently with any other registered job.
  JobId Submit(Body body);

  // Requests isolated teardown: cancels the job's Join and retires its context on every
  // process. Other jobs are unaffected. No-op if the job already completed.
  void Teardown(JobId id);

  // Blocks until the job's context has been retired on every process (normal completion
  // or teardown).
  void Wait(JobId id);

  // Tears down any still-registered job, waits for all of them, stops the hosts, shuts
  // the transports down, and returns the aggregate statistics (per-job split in
  // ClusterStats::jobs).
  ClusterStats Stop();

  uint32_t processes() const { return opts_.processes; }
  // Test hooks: the live mesh (e.g. to inject a raw frame for a retired job) and the
  // demux drop counters.
  TcpTransport& transport(uint32_t process);
  uint64_t stray_frames_dropped() const;
  uint64_t stash_overflow_drops() const;

 private:
  struct ProcessState;

  void OnFrame(ProcessState& ps, FrameType type, uint32_t src, uint32_t job,
               std::span<const uint8_t> payload);
  void StashOrDrop(ProcessState& ps, FrameType type, uint32_t src, uint32_t job,
                   std::span<const uint8_t> payload);
  void DropStray(ProcessState& ps, FrameType type, uint32_t src, uint32_t job);
  void HandleRegister(ProcessState& ps, JobId job);
  void OpenGate(ProcessState& ps, JobContext& ctx);
  void HandleTeardown(ProcessState& ps, JobId job);
  void DriverMain(ProcessState& ps, std::shared_ptr<JobContext> ctx, const Body& body);
  void RetireJob(ProcessState& ps, std::shared_ptr<JobContext> ctx);

  ClusterOptions opts_;
  std::vector<std::unique_ptr<ProcessState>> procs_;
  Stopwatch sw_;
  bool started_ = false;
  bool stopped_ = false;

  std::mutex reg_mu_;  // job id allocation + the body registry
  JobId next_job_ = 1;
  std::map<JobId, Body> registry_;
  // Highest allocated id + 1, readable without reg_mu_: the demux uses it to distinguish
  // a frame for a not-yet-registered job (stash) from one for a never-allocated id
  // (deterministic stray drop). Ids are allocated before any frame can carry them.
  std::atomic<JobId> next_job_hint_{1};

  // Retirement bookkeeping and cross-process stats accumulation.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::map<JobId, uint32_t> retired_count_;
  std::map<JobId, ClusterStats::JobStats> job_stats_;
  ClusterStats agg_;  // scope-byte / occ-peak fields, accumulated as jobs retire
  obs::SnapshotBuilder snapshot_builder_;
};

}  // namespace naiad

#endif  // SRC_NET_JOB_SERVER_H_
