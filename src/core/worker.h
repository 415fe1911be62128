// Workers (§3.2): each worker owns a partition of the vertices and delivers messages and
// notifications to them. Workers share no state beyond their inbound queues and the
// progress tracker; a vertex only ever executes on the host thread that drives its worker
// (src/core/host_pool.h).
//
// Scheduling policy (§3.2): runnable messages are delivered before notifications to keep
// queues small; deliverable notifications are taken in timestamp order.

#ifndef SRC_CORE_WORKER_H_
#define SRC_CORE_WORKER_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/base/mpsc_queue.h"
#include "src/core/progress.h"
#include "src/core/timestamp.h"
#include "src/core/vertex.h"
#include "src/core/work_item.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace naiad {

class Controller;

class Worker {
 public:
  Worker(Controller* ctl, uint32_t local_index);
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  uint32_t local_index() const { return local_index_; }
  uint32_t global_index() const { return global_index_; }
  Controller& controller() const { return *ctl_; }

  // Cross-thread delivery (other workers, network receive threads, input threads).
  void EnqueueExternal(std::unique_ptr<WorkItemBase> item);
  // Same-thread delivery: a vertex on this worker sent to a (non-re-entrant) vertex on this
  // worker; the bundle is delivered after the current callback returns.
  void EnqueueLocal(std::unique_ptr<WorkItemBase> item);
  // Bounded re-entrancy (§3.2): run the bundle synchronously inside the current callback.
  void RunNested(std::unique_ptr<WorkItemBase> item);

  // Owner-thread only (or pre-start): queue a notification request. The matching +1 must be
  // buffered by the caller (VertexBase::NotifyAt does both).
  void AddNotificationRequest(VertexBase* v, const Timestamp& t);

  // §2.4 "state purging" notifications: guarantee time t, capability ⊤. Holds no
  // occurrence count, so it never delays anyone else's frontier; the callback may free
  // state but must not send or request notifications (enforced by in_purge()).
  void AddPurgeRequest(VertexBase* v, const Timestamp& t);
  bool in_purge() const { return in_purge_; }

  ProgressBuffer& progress() { return progress_; }
  void FlushProgress();

  // The timestamp of the callback currently executing, for the "no sends into the past"
  // check (§2.2); nullptr outside callbacks.
  const Timestamp* current_time() const { return in_callback_ ? &current_time_ : nullptr; }
  uint32_t reentry_depth() const { return reentry_depth_; }

  // One scheduling pass, made by the HostPool thread that drives this worker: messages
  // before notifications, or messages only while paused (§3.4). True if a callback ran.
  bool RunPass();
  // Idle duties of a pass that ran nothing (flush, router poke). True when the host must
  // rescan rather than park: a deferred flush, an arrival, or an unhandled pause change.
  bool IdleEdge();
  bool parked() const { return parked_; }  // paused and counted as parked (§3.4)

  struct PendingNotify {
    Timestamp time;
    VertexBase* vertex;
    uint64_t requested_ns = 0;  // NotifyAt wall time, for delivery-lag metrics (0 = off)
  };
  // Checkpoint support: only valid while the controller holds the workers paused (§3.4).
  const std::vector<PendingNotify>& pending_notifications() const { return pending_; }

 private:
  friend class Controller;  // reads inboxes for pause; Stop forces the final purges

  bool PausedPass();   // messages only, then park; true if any callback ran
  bool RunMessages();  // until the local queue and inbox are empty; true if any ran
  void RunItem(WorkItemBase& item);
  bool TryDeliverNotifications();
  bool TryDeliverPurges(bool force);

  Controller* ctl_;
  uint32_t local_index_;
  uint32_t global_index_;

  MpscQueue<std::unique_ptr<WorkItemBase>> inbox_;
  std::deque<std::unique_ptr<WorkItemBase>> local_;
  std::vector<std::unique_ptr<WorkItemBase>> drain_scratch_;
  std::vector<PendingNotify> pending_;
  std::vector<PendingNotify> purges_;

  ProgressBuffer progress_;
  Timestamp current_time_;
  bool in_callback_ = false;
  bool in_purge_ = false;
  uint32_t reentry_depth_ = 0;
  bool parked_ = false;  // counted in the controller's parked total

  // Observability (nullptr / false when disabled — the hot paths then pay one predictable
  // branch and no clock reads). metrics_ points into the controller's Obs; trace_ is the
  // driving host's ring, registered at its first pass and drained only after Stop.
  obs::WorkerMetrics* metrics_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  bool obs_time_ = false;  // metrics_ != nullptr: stamp enqueue/request times
};

}  // namespace naiad

#endif  // SRC_CORE_WORKER_H_
