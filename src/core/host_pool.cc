#include "src/core/host_pool.h"

#include <algorithm>
#include <mutex>

#include "src/base/logging.h"
#include "src/core/controller.h"

namespace naiad {

HostPool::HostPool(uint32_t threads, EventCount& event, obs::ProcessMetrics* metrics)
    : event_(event), metrics_(metrics) {
  threads_.reserve(threads);
  for (uint32_t k = 0; k < threads; ++k) {
    threads_.emplace_back([this, k] { HostLoop(k); });
  }
}

HostPool::~HostPool() {
  stop_.store(true, std::memory_order_release);
  event_.NotifyAll();
  for (std::thread& t : threads_) {
    t.join();
  }
  NAIAD_CHECK(ctls_.empty()) << "host pool destroyed with attached controllers";
}

void HostPool::Attach(Controller* ctl) {
  NAIAD_CHECK(ctl->config().workers_per_process == threads());
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    ctls_.push_back(ctl);
    ++generation_;
  }
  event_.NotifyAll();
}

void HostPool::Detach(Controller* ctl) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = std::find(ctls_.begin(), ctls_.end(), ctl);
  NAIAD_CHECK(it != ctls_.end());
  ctls_.erase(it);
  ++generation_;
}

void HostPool::HostLoop(uint32_t k) {
  uint64_t idle_fingerprint = ~uint64_t{0};
  while (!stop_.load(std::memory_order_acquire)) {
    bool ran = false;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      for (Controller* ctl : ctls_) {
        ran = ctl->worker(k).RunPass() || ran;
      }
    }
    if (ran) {
      idle_fingerprint = ~uint64_t{0};
      continue;
    }
    // Snapshot the ticket, run the idle duties, re-check every work source, and only then
    // park. Any controller's progress bumps its tracker version (and notifies the event),
    // so a moved fingerprint forces another pass. A rescan request forces one too: a
    // deferred flush or a pause transition has no notify that would end the wait.
    const EventCount::Ticket ticket = event_.PrepareWait();
    uint64_t fingerprint = 0;
    bool rescan = false;
    bool live = false;
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      fingerprint = generation_;
      for (Controller* ctl : ctls_) {
        Worker& w = ctl->worker(k);
        rescan = w.IdleEdge() || rescan;
        live = live || !w.parked();
        fingerprint += ctl->tracker().version();
      }
    }
    if (rescan || stop_.load(std::memory_order_acquire)) {
      continue;
    }
    if (fingerprint != idle_fingerprint) {
      idle_fingerprint = fingerprint;
      continue;
    }
    // With a live worker, an expiry is a lost wakeup or a controller that gave this host
    // nothing to do for a whole backstop; count it. Parked or absent workers miss
    // nothing.
    if (!event_.CommitWait(ticket) && live && metrics_ != nullptr) {
      metrics_->idle_backstop_expiries.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace naiad
