// One dataflow's stack on one process, and the only way a data or progress frame enters it.
//
// Both owners of a live dataflow build it here: the job server (src/net/job_server.h), one
// context per registered job on every process, and the kill-and-recover member
// (src/ft/cluster_recovery.h), one context (job 0) per generation. The context wires a
// Controller to the shared TcpTransport through a DistributedProgressRouter and a data
// adapter that tags the job id; Deliver is the one demux for data and progress frames.
// Control frames never reach it: the job server handles its own register and teardown
// verbs, and the member, the only owner with a control plane, routes the rest to its own
// barriers (src/ft/cluster_recovery.cc).
//
// Admission rule (§3.1, §3.3): every process builds the same graph, but a peer's frame can
// reach this process before its Controller::Start() has frozen the graph, instantiated the
// vertices and seeded the tracker. Deliver may only run after Start(); the owner holds
// earlier frames. The job server holds them in its per-job stash and flips `accepting`
// from the controller's start hook; the member starts its controller (paused) before its
// transport, so no frame can arrive early.

#ifndef SRC_NET_JOB_CONTEXT_H_
#define SRC_NET_JOB_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/controller.h"
#include "src/net/progress_router.h"
#include "src/net/transport.h"

namespace naiad {

struct JobContext {
  // Builds the controller from `cfg` and wires it to `transport`.
  JobContext(const Config& cfg, TcpTransport* transport, ProgressStrategy strategy,
             ClusterFaultPlan* fault_plan, uint32_t job);
  JobContext(const JobContext&) = delete;
  JobContext& operator=(const JobContext&) = delete;

  // Hands one data or progress frame of this job to its controller or router. Only after
  // ctl->Start() (see the admission rule above).
  void Deliver(FrameType type, uint32_t src, std::span<const uint8_t> payload);

  const uint32_t id;
  JobTraffic traffic;

  // DataTransport adapter: stamps this job's id into every record-bundle frame and
  // credits the job's accounting alongside the transport's global counters.
  struct Data final : DataTransport {
    TcpTransport* transport = nullptr;
    JobContext* ctx = nullptr;
    void SendBundle(uint32_t dst_process, std::vector<uint8_t> frame) override {
      transport->Send(dst_process, FrameType::kData, std::move(frame), ctx->id,
                      &ctx->traffic);
    }
  };
  Data data;

  std::unique_ptr<Controller> ctl;
  std::unique_ptr<DistributedProgressRouter> router;

  // Job server only: flips true once the controller has started and the server's stash
  // for this job has been replayed; the demux delivers directly only after that.
  std::atomic<bool> accepting{false};
};

}  // namespace naiad

#endif  // SRC_NET_JOB_CONTEXT_H_
