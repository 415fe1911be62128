// The distributed progress-tracking protocol (§3.3).
//
// Workers hand their flushed (pointstamp, delta) batches to this router, which must ensure
// every process's tracker eventually applies them. Four strategies reproduce Fig. 6c:
//
//   kDirect          every worker flush is broadcast to all processes immediately ("None").
//   kLocalAcc        flushes accumulate in a per-process buffer first.
//   kGlobalAcc       flushes go to a central accumulator (process 0) which broadcasts the
//                    combined net effect.
//   kLocalGlobalAcc  both levels, the Naiad default.
//
// Accumulators hold an update for pointstamp p only while it is safe (§3.3): a negative
// delta is always safe to delay (other workers merely overestimate activity), and a
// positive delta is safe while p is already active locally or while some other active
// pointstamp could-result-in p (so no frontier decision depends on p yet). Any violation —
// or a worker running out of work — flushes the whole buffer, positives first (the
// ProgressBuffer ordering).
//
// Wake rule: a held batch is released only by some worker's idle edge, so whoever makes the
// hold must make sure a worker reaches that edge. A worker's own flush reaches its idle
// edge by itself; other callers of Broadcast notify the event (ProgressRouter::Broadcast).
// Central holds come from a peer's frame on the receive thread while process 0's workers
// may be parked, so OnAccumulatorFrame notifies the event whenever it keeps a batch.

#ifndef SRC_NET_PROGRESS_ROUTER_H_
#define SRC_NET_PROGRESS_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "src/core/controller.h"
#include "src/core/progress.h"
#include "src/net/fault_hooks.h"
#include "src/net/transport.h"

namespace naiad {

enum class ProgressStrategy : uint8_t {
  kDirect = 0,
  kLocalAcc = 1,
  kGlobalAcc = 2,
  kLocalGlobalAcc = 3,
};

inline const char* ToString(ProgressStrategy s) {
  switch (s) {
    case ProgressStrategy::kDirect:
      return "None";
    case ProgressStrategy::kLocalAcc:
      return "LocalAcc";
    case ProgressStrategy::kGlobalAcc:
      return "GlobalAcc";
    case ProgressStrategy::kLocalGlobalAcc:
      return "Local+GlobalAcc";
  }
  return "?";
}

class DistributedProgressRouter final : public ProgressRouter {
 public:
  // `faults` (optional, test-only) perturbs flush timing and intra-batch order within the
  // §3.3 safety rule; see src/net/fault_hooks.h.
  DistributedProgressRouter(Controller* ctl, TcpTransport* transport,
                            ProgressStrategy strategy, size_t hold_limit = 1024,
                            ProgressFaultHook* faults = nullptr)
      : ctl_(ctl),
        transport_(transport),
        strategy_(strategy),
        hold_limit_(hold_limit),
        faults_(faults) {}

  // Job-server mode: tag every emitted frame with `job` and credit it to `acct` so the
  // server can split progress traffic per job. Must be set before Start() exposes the
  // router to concurrent use.
  void SetJobAccounting(uint32_t job, JobTraffic* acct) {
    job_ = job;
    acct_ = acct;
  }

  // From local workers (and input handles).
  void Broadcast(std::vector<ProgressUpdate> updates) override;
  bool OnWorkerIdle() override;

  // Unconditional flush of every held update, bypassing any fault-injected deferral. The
  // termination barrier must use this: its report reads the tracker immediately after the
  // flush, and a deferred flush there could hide updates from the stability check.
  void FlushAll();

  // Transport receive paths.
  void OnProgressFrame(uint32_t src, std::span<const uint8_t> payload);
  void OnAccumulatorFrame(uint32_t src, std::span<const uint8_t> payload);

  // True when neither accumulator level holds any update. The cluster checkpoint barrier
  // uses this as part of its local-quiet predicate: a held update is in-flight progress
  // traffic even though no frame carries it yet.
  bool Empty() const;

  // Scope attribution of the emitted updates (bench/fig6c accounting). An update is
  // cross-scope when its pointstamp lives in the root space — it must reach every
  // process's root occurrence map. An update at a loop-internal location is in-scope: its
  // occurrence count lives in a per-scope map and only the (cheaper) summarized boundary
  // deltas, counted by ProgressTracker::Stats, would cross; the broadcast carrying it
  // anyway is precisely the overhead §3.3's single space pays. The sum of both is the
  // whole-protocol baseline.
  uint64_t cross_scope_update_bytes() const {
    return cross_scope_update_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t in_scope_update_bytes() const {
    return in_scope_update_bytes_.load(std::memory_order_relaxed);
  }

  // Wire form of a progress-update batch; the selective-recovery seed exchange
  // (ClusterControl::RunSeedExchange) reuses it for kCtlSeedState payloads.
  static std::vector<uint8_t> EncodeUpdates(const std::vector<ProgressUpdate>& ups);
  static std::vector<ProgressUpdate> DecodeUpdates(std::span<const uint8_t> payload);

 private:
  bool IsCentral() const { return ctl_->config().process_id == 0; }

  void AccountScopes(const std::vector<ProgressUpdate>& updates);

  // Serializes and emits `updates` one level up: to all processes (direct) or to the
  // central accumulator, depending on the strategy.
  void Emit(std::vector<ProgressUpdate> updates);
  // Central accumulator output: broadcast to every process including self.
  void EmitFromCentral(std::vector<ProgressUpdate> updates);

  void AddToBuffer(std::map<Pointstamp, int64_t>& buf, std::span<const ProgressUpdate> ups);
  bool SafeToHold(const std::map<Pointstamp, int64_t>& buf) const;
  std::vector<ProgressUpdate> TakeBuffer(std::map<Pointstamp, int64_t>& buf);

  void FlushLocal();
  void FlushCentral();

  Controller* ctl_;
  TcpTransport* transport_;
  ProgressStrategy strategy_;
  size_t hold_limit_;
  ProgressFaultHook* faults_;
  uint32_t job_ = 0;
  JobTraffic* acct_ = nullptr;

  mutable std::mutex local_mu_;
  std::map<Pointstamp, int64_t> local_buf_;

  mutable std::mutex central_mu_;  // process 0 only
  std::map<Pointstamp, int64_t> central_buf_;

  std::atomic<uint64_t> cross_scope_update_bytes_{0};
  std::atomic<uint64_t> in_scope_update_bytes_{0};
};

}  // namespace naiad

#endif  // SRC_NET_PROGRESS_ROUTER_H_
