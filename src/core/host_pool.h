// The scheduler loop (§3.2). Host thread k of a pool runs worker k of every attached
// Controller, one pass per controller per tick, and parks on the pool's event when a
// whole tick ran nothing. A standalone Controller owns a private pool; the job server
// keeps one pool per process. Pause (§3.4) is per worker state (Worker::RunPass).

#ifndef SRC_CORE_HOST_POOL_H_
#define SRC_CORE_HOST_POOL_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "src/base/event_count.h"
#include "src/obs/metrics.h"

namespace naiad {

class Controller;

class HostPool {
 public:
  // Starts `threads` host threads parked on `event`, which every attached controller uses
  // as its wait/notify channel. Backstop expiries of a host with a live (attached, not
  // parked) worker are counted into `metrics` when it is non-null.
  HostPool(uint32_t threads, EventCount& event, obs::ProcessMetrics* metrics);
  // Stops and joins the hosts. Every controller must be detached first.
  ~HostPool();
  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

  uint32_t threads() const { return static_cast<uint32_t>(threads_.size()); }
  EventCount& event() const { return event_; }

  // Starts driving `ctl`, whose workers must be fully seeded (Controller::Start).
  void Attach(Controller* ctl);
  // Stops driving `ctl`. Returns once no host is inside a pass for it; the caller then
  // owns its workers.
  void Detach(Controller* ctl);

 private:
  void HostLoop(uint32_t k);

  EventCount& event_;
  obs::ProcessMetrics* metrics_;
  // Hosts hold mu_ shared for each pass and idle edge; Attach and Detach take it
  // exclusively, which hands a detached controller's workers to the caller.
  // Lock order: a pass that sends a frame to its own process takes the job server's
  // jobs_mu shared inside mu_ (JobServer::OnFrame). So Attach and Detach must never run
  // while jobs_mu is held.
  std::shared_mutex mu_;
  std::vector<Controller*> ctls_;  // guarded by mu_
  uint64_t generation_ = 0;        // guarded by mu_; bumped per attach/detach
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace naiad

#endif  // SRC_CORE_HOST_POOL_H_
