#include "src/net/job_context.h"

namespace naiad {

JobContext::JobContext(const Config& cfg, TcpTransport* transport,
                       ProgressStrategy strategy, ClusterFaultPlan* fault_plan, uint32_t job)
    : id(job) {
  ctl = std::make_unique<Controller>(cfg);
  data.transport = transport;
  data.ctx = this;
  router = std::make_unique<DistributedProgressRouter>(
      ctl.get(), transport, strategy, /*hold_limit=*/1024,
      fault_plan != nullptr ? fault_plan->Progress(cfg.process_id) : nullptr);
  router->SetJobAccounting(job, &traffic);
  ctl->SetProgressRouter(router.get());
  ctl->SetDataTransport(&data);
  control = std::make_unique<ClusterControl>(ctl.get(), transport, router.get(), job,
                                             job != 0 ? &traffic : nullptr);
}

void JobContext::Deliver(FrameType type, uint32_t src, std::span<const uint8_t> payload,
                         bool wire) {
  switch (type) {
    case FrameType::kData:
      ctl->ReceiveRemoteBundle(payload);
      break;
    case FrameType::kProgress:
      router->OnProgressFrame(src, payload);
      break;
    case FrameType::kProgressAcc:
      router->OnAccumulatorFrame(src, payload);
      break;
    case FrameType::kControl:
      control->HandleControl(src, payload);
      break;
  }
  if (wire) {
    // Counted after delivery, mirroring the transport's global counters: a counted
    // received frame is already visible to the job's quiet probes.
    traffic.frames_received[static_cast<size_t>(type)].fetch_add(1,
                                                                 std::memory_order_relaxed);
  }
}

}  // namespace naiad
