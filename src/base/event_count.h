// Eventcount synchronization primitive (Reed & Kanodia [37], as used in §3.3).
//
// A worker that finds no runnable events reads the count (PrepareWait), re-checks its work
// sources, and then blocks in CommitWait unless the count advanced in between. Producers
// advance the count and wake either every waiter (NotifyAll — used for progress-frontier
// changes that may unblock any worker) or one waiter (NotifyOne — used for targeted message
// delivery). This avoids the lost-wakeup race without holding a lock around the work check.

#ifndef SRC_BASE_EVENT_COUNT_H_
#define SRC_BASE_EVENT_COUNT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace naiad {

// Backstop for every idle wait in src/core and src/net. Long on purpose: a wait that
// expires while work is pending is a lost wakeup, and a lost wakeup should cost visibly
// rather than hide inside a short poll period. A host wait counts in
// ProcessMetrics::idle_backstop_expiries when it expires and the host then finds work to
// run, so an expiry on a host that simply had nothing to do is not counted.
inline constexpr std::chrono::microseconds kIdleBackstop = std::chrono::milliseconds(20);

class EventCount {
 public:
  using Ticket = uint64_t;

  // Snapshot the generation before re-checking work predicates.
  Ticket PrepareWait() const {
    std::lock_guard<std::mutex> lock(mu_);
    return epoch_;
  }

  // Blocks until the generation advances past `ticket` (returns immediately if it already
  // has) or `timeout` expires. Returns true when notified, false when the timeout ran out.
  bool CommitWait(Ticket ticket, std::chrono::microseconds timeout = kIdleBackstop) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return epoch_ != ticket; });
  }

  void NotifyAll() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epoch_;
    }
    cv_.notify_all();
  }

  void NotifyOne() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++epoch_;
    }
    cv_.notify_one();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t epoch_ = 0;
};

}  // namespace naiad

#endif  // SRC_BASE_EVENT_COUNT_H_
