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
}

void JobContext::Deliver(FrameType type, uint32_t src, std::span<const uint8_t> payload) {
  if (type == FrameType::kData) {
    ctl->ReceiveRemoteBundle(payload);
  } else if (type == FrameType::kProgress) {
    router->OnProgressFrame(src, payload);
  } else if (type == FrameType::kProgressAcc) {
    router->OnAccumulatorFrame(src, payload);
  }
}

}  // namespace naiad
