// Resident multi-tenant job server (ROADMAP item 1; the paper's §6 shared-cluster
// scenario).
//
// One JobServer owns a long-lived cluster generation: per process, one TcpTransport mesh,
// one pool of host threads, and a table of per-job contexts. Jobs register and tear down
// at runtime over kControl frames (kCtlRegisterJob / kCtlTeardownJob), run concurrently on
// the shared hosts and links, and are isolated by the JobId every frame header carries:
//
//   - Each job gets its own Controller (graph, tracker with its own epoch space, input
//     stages, vertices, keep-alive holders), DistributedProgressRouter, and
//     ClusterControl, so frontiers, epochs, and termination barriers never mix across
//     jobs. The per-job ClusterControl also makes completion per-job: one job's
//     termination verdict latches only its own finished_ flag, so the server keeps
//     accepting reports and registrations afterwards.
//   - Each process has one HostPool (src/core/host_pool.h): host thread k drives worker
//     k of every running job (one scheduling pass per job per tick), preserving the
//     one-owner-thread contract each Worker assumes.
//   - The demux delivers a frame to its job's context while holding the jobs table's
//     shared lock; teardown retires a context under the exclusive lock, so a frame is
//     either delivered to a live job or dropped — never handed to freed vertices. Frames
//     for a job announced but not yet registered locally are stashed (bounded by
//     ClusterOptions::job_stash_limit_bytes, the per-job buffered-bytes quota) and
//     replayed in arrival order at registration, which generalizes the Controller's
//     early_frames_ stash across the registration race. Frames for unknown or
//     already-torn-down jobs are dropped deterministically: counted
//     (ClusterStats::stray_frames_dropped) and traced (kStrayFrame).
//
// Job lifecycle: registering (announced, context under construction or stash replaying)
// → running (context accepting, body driving it) → draining (termination barrier, or
// cancelled by teardown) → torn down (context retired; subsequent frames are stray).
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

  // Registers `body` as a new job on every process and returns its id. The coordinator
  // process registers inline before the announcement reaches any peer, so per-job barrier
  // reports always find their context. Returns immediately; the job runs concurrently
  // with any other registered job.
  JobId Submit(Body body);

  // Requests isolated teardown: interrupts the job's barrier, cancels its Join, and
  // retires its context on every process. Other jobs are unaffected. No-op if the job
  // already completed.
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
  struct JobContext;
  struct ProcessState;

  void OnFrame(ProcessState& ps, FrameType type, uint32_t src, uint32_t job,
               std::span<const uint8_t> payload, bool wire);
  void StashOrDrop(ProcessState& ps, FrameType type, uint32_t src, uint32_t job,
                   std::span<const uint8_t> payload, bool wire);
  void Deliver(ProcessState& ps, JobContext& ctx, FrameType type, uint32_t src,
               std::span<const uint8_t> payload, bool wire);
  void HandleRegister(ProcessState& ps, JobId job);
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
