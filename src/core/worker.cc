#include "src/core/worker.h"

#include <algorithm>

#include "src/core/controller.h"

namespace naiad {

Worker::Worker(Controller* ctl, uint32_t local_index)
    : ctl_(ctl),
      local_index_(local_index),
      global_index_(ctl->config().process_id * ctl->config().workers_per_process +
                    local_index) {
  metrics_ = ctl->obs().metrics().worker(local_index);
  obs_time_ = metrics_ != nullptr;
}

void Worker::EnqueueExternal(std::unique_ptr<WorkItemBase> item) {
  if (obs_time_) {
    item->set_enqueue_ns(obs::MonotonicNs());
  }
  inbox_.Push(std::move(item));
  ctl_->event().NotifyAll();
}

void Worker::EnqueueLocal(std::unique_ptr<WorkItemBase> item) {
  if (obs_time_) {
    item->set_enqueue_ns(obs::MonotonicNs());
  }
  local_.push_back(std::move(item));
}

void Worker::RunNested(std::unique_ptr<WorkItemBase> item) {
  ++reentry_depth_;
  // Preserve the enclosing callback's context across the nested delivery. A nested
  // delivery is an ordinary message callback, so it runs with the item's own capability
  // rather than an enclosing purge's ⊤-restriction — and that restriction must come back
  // once it returns, or the remainder of the purge callback could send (§2.4).
  Timestamp saved_time = current_time_;
  bool saved_in = in_callback_;
  bool saved_purge = in_purge_;
  in_purge_ = false;
  RunItem(*item);
  current_time_ = saved_time;
  in_callback_ = saved_in;
  in_purge_ = saved_purge;
  --reentry_depth_;
}

void Worker::AddNotificationRequest(VertexBase* v, const Timestamp& t) {
  pending_.push_back(PendingNotify{t, v, obs_time_ ? obs::MonotonicNs() : 0});
}

void Worker::AddPurgeRequest(VertexBase* v, const Timestamp& t) {
  purges_.push_back(PendingNotify{t, v});
}

bool Worker::TryDeliverPurges(bool force) {
  if (purges_.empty()) {
    return false;
  }
  bool any = false;
  for (size_t i = 0; i < purges_.size();) {
    const Pointstamp p{purges_[i].time, Location::Stage(purges_[i].vertex->address().stage)};
    if (!force && !ctl_->tracker().FrontierPassed(p)) {
      ++i;
      continue;
    }
    PendingNotify n = purges_[i];
    purges_.erase(purges_.begin() + static_cast<ptrdiff_t>(i));
    const uint64_t t0 =
        (metrics_ != nullptr || trace_ != nullptr) ? obs::MonotonicNs() : 0;
    in_callback_ = true;
    in_purge_ = true;  // capability ⊤: the callback may only free state (§2.4)
    current_time_ = n.time;
    n.vertex->OnNotify(n.time);
    in_purge_ = false;
    in_callback_ = false;
    if (metrics_ != nullptr) {
      metrics_->purges_delivered.fetch_add(1, std::memory_order_relaxed);
    }
    if (trace_ != nullptr) {
      trace_->Record(obs::TraceKind::kPurgeDelivered, t0, obs::MonotonicNs() - t0,
                     p.loc.id, n.time.epoch, 0);
    }
    any = true;
  }
  return any;
}

void Worker::FlushProgress() {
  if (progress_.Empty()) {
    return;
  }
  std::vector<ProgressUpdate> updates = progress_.Take();
  if (metrics_ != nullptr) {
    metrics_->progress_flushes.fetch_add(1, std::memory_order_relaxed);
    metrics_->flush_updates.Record(updates.size());
  }
  ctl_->progress_router().Broadcast(std::move(updates));
}

void Worker::RunItem(WorkItemBase& item) {
  uint64_t t0 = 0;
  if (metrics_ != nullptr) {
    t0 = obs::MonotonicNs();
    if (item.enqueue_ns() != 0) {
      metrics_->dispatch_latency_ns.Record(t0 - item.enqueue_ns());
    }
  }
  in_callback_ = true;
  current_time_ = item.time();
  item.Run();
  if (item.target() != nullptr) {
    item.target()->FlushOutputs();
  }
  in_callback_ = false;
  if (metrics_ != nullptr) {
    metrics_->items_run.fetch_add(1, std::memory_order_relaxed);
    metrics_->run_time_ns.Record(obs::MonotonicNs() - t0);
  }
  progress_.Add(Pointstamp{item.time(), Location::Connector(item.connector())},
                -item.count());
  FlushProgress();
}

bool Worker::RunMessages() {
  bool any = false;
  for (;;) {
    if (local_.empty()) {
      drain_scratch_.clear();
      if (inbox_.DrainInto(drain_scratch_) > 0) {
        for (auto& it : drain_scratch_) {
          local_.push_back(std::move(it));
        }
        drain_scratch_.clear();
        if (metrics_ != nullptr) {
          metrics_->local_queue_depth.Record(local_.size());
        }
      }
    }
    if (local_.empty()) {
      return any;
    }
    std::unique_ptr<WorkItemBase> item = std::move(local_.front());
    local_.pop_front();
    RunItem(*item);
    any = true;
  }
}

bool Worker::TryDeliverNotifications() {
  if (pending_.empty()) {
    return false;
  }
  FlushProgress();  // our own +1/-1s must be visible before consulting the frontier
  // Deliver the earliest deliverable notification (by the total order, which refines the
  // partial order), then return so queued messages regain priority.
  std::sort(pending_.begin(), pending_.end(),
            [](const PendingNotify& a, const PendingNotify& b) { return a.time < b.time; });
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Pointstamp p{pending_[i].time, Location::Stage(pending_[i].vertex->address().stage)};
    if (!ctl_->tracker().CanDeliver(p)) {
      continue;
    }
    PendingNotify n = pending_[i];
    pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
    const uint64_t t0 =
        (metrics_ != nullptr || trace_ != nullptr) ? obs::MonotonicNs() : 0;
    in_callback_ = true;
    current_time_ = n.time;
    n.vertex->OnNotify(n.time);
    n.vertex->FlushOutputs();
    in_callback_ = false;
    if (t0 != 0) {
      const uint64_t t1 = obs::MonotonicNs();
      const uint64_t lag = n.requested_ns != 0 ? t0 - n.requested_ns : 0;
      if (metrics_ != nullptr) {
        metrics_->notifications_delivered.fetch_add(1, std::memory_order_relaxed);
        if (n.requested_ns != 0) {
          metrics_->notify_lag_ns.Record(lag);
        }
      }
      if (trace_ != nullptr) {
        // Delivery proves the frontier passed p — record the advance alongside the
        // delivery span.
        trace_->Record(obs::TraceKind::kFrontierAdvance, t0, 0, p.loc.id, n.time.epoch,
                       n.time.coords.empty() ? 0 : n.time.coords[0]);
        trace_->Record(obs::TraceKind::kNotifyDelivered, t0, t1 - t0, p.loc.id,
                       n.time.epoch, lag);
      }
    }
    progress_.Add(p, -1);
    FlushProgress();
    return true;
  }
  return false;
}

bool Worker::RunPass() {
  // The ring is registered lazily, on the first pass a host runs for this worker.
  if (trace_ == nullptr && ctl_->obs().tracer().enabled()) {
    trace_ = ctl_->obs().tracer().RegisterThread("worker" + std::to_string(global_index_));
  }
  if (ctl_->pause_requested()) {
    return PausedPass();
  }
  if (parked_) {
    parked_ = false;
    ctl_->NoteWorkerUnparked();
  }
  // Messages before notifications (§3.2). A pause requested meanwhile holds the
  // notifications and purges back until Resume.
  bool did = RunMessages();
  if (ctl_->pause_requested()) {
    return did;
  }
  did = TryDeliverNotifications() || did;
  did = TryDeliverPurges(/*force=*/false) || did;
  return did;
}

bool Worker::PausedPass() {
  // §3.4: deliver outstanding messages, never notifications or purges, and park. A parked
  // worker stays parked across wakeups meant for others (the event is shared): parking
  // again would notify again and keep every parked worker bouncing. It unparks before it
  // drains, and NoteWorkerUnparked counts the unpark, so PauseAndDrain can tell that a
  // worker unparked and popped between its parked-count and inbox reads.
  if (parked_) {
    if (inbox_.Empty()) {
      return false;
    }
    parked_ = false;
    ctl_->NoteWorkerUnparked();
  }
  const bool any = RunMessages();
  FlushProgress();
  if (inbox_.Empty()) {
    parked_ = true;
    ctl_->NoteWorkerParked();
  }
  return any;
}

bool Worker::IdleEdge() {
  if (ctl_->pause_requested()) {
    return !parked_ || !inbox_.Empty();  // not parked yet, or a message to run first
  }
  if (parked_) {
    return true;  // resumed since the last pass: unpark and rescan before sleeping
  }
  FlushProgress();
  return ctl_->progress_router().OnWorkerIdle() || !inbox_.Empty();
}

}  // namespace naiad
