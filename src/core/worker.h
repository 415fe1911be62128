// Workers (§3.2): each worker owns a partition of the vertices and delivers messages and
// notifications to them. Workers share no state beyond their inbound queues and the
// progress tracker; a vertex only ever executes on its owning worker's thread.
//
// Scheduling policy (§3.2): runnable messages are delivered before notifications to keep
// queues small; deliverable notifications are taken in timestamp order.

#ifndef SRC_CORE_WORKER_H_
#define SRC_CORE_WORKER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <thread>
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
  ~Worker();
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

  void Start();
  void RequestStop();
  void JoinThread();

  // Job-server mode (Config::external_workers): a shared host thread drives the worker
  // instead of a dedicated one. The same host thread must make every call for a given
  // worker — the single-owner-thread contract carries over unchanged.
  bool RunPass();             // one scheduling pass; true if any callback ran
  // The idle-edge duties of ThreadMain (flush + router poke). Returns true when the router
  // deferred its flush: the caller must rescan rather than park.
  bool IdleFlush();
  void DeliverFinalPurges();  // the shutdown duties of ThreadMain (forced purge drain)
  bool InboxEmpty() const { return inbox_.Empty(); }

  // Test support: run pending work on the calling thread until none remains; returns
  // whether anything ran. Only valid when the worker thread is not running.
  bool DrainForTest();

  struct PendingNotify {
    Timestamp time;
    VertexBase* vertex;
    uint64_t requested_ns = 0;  // NotifyAt wall time, for delivery-lag metrics (0 = off)
  };
  // Checkpoint support: only valid while the controller holds the workers paused (§3.4).
  const std::vector<PendingNotify>& pending_notifications() const { return pending_; }

 private:
  friend class Controller;  // pause coordination inspects the inbox

  void ThreadMain();
  bool DispatchOnce();  // one scheduling pass; true if any callback ran
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

  // Observability (nullptr / false when disabled — the hot paths then pay one predictable
  // branch and no clock reads). metrics_ points into the controller's Obs; trace_ is this
  // thread's ring, registered at ThreadMain entry and drained only after JoinThread.
  obs::WorkerMetrics* metrics_ = nullptr;
  obs::TraceRing* trace_ = nullptr;
  bool obs_time_ = false;  // metrics_ != nullptr: stamp enqueue/request times

  std::thread thread_;
  std::atomic<bool> stop_{false};
};

}  // namespace naiad

#endif  // SRC_CORE_WORKER_H_
