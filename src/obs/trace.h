// Event tracer: fixed-capacity per-thread ring buffers drained at shutdown into Chrome
// trace-event JSON (chrome://tracing / Perfetto).
//
// Concurrency contract (what keeps the fault sweep TSan-clean):
//   - RegisterThread() hands the calling thread its own TraceRing; only that thread ever
//     writes it. Registration itself is mutex-protected.
//   - Control-plane events (epoch open/close, checkpoint/restore spans) go through
//     Tracer::Control*/record under the same mutex — they are rare by construction.
//   - Rings are only read (WriteFile) after every recording thread has been joined; the
//     join provides the happens-before edge, so the record path needs no atomics at all.
//
// The record path is a timestamp read plus a store into a preallocated slot — no
// allocation, no branches beyond the ring mask. When the ring wraps, the oldest events
// are overwritten and the drain reports how many were dropped.

#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace naiad::obs {

// Monotonic nanoseconds, one clock for metrics durations and trace timestamps. All
// in-binary "processes" share it, so cluster traces align across pids for free.
inline uint64_t MonotonicNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

enum class TraceKind : uint8_t {
  kFrontierAdvance = 0,  // a0=stage, a1=epoch, a2=first loop counter (0 at depth 0)
  kNotifyDelivered,      // a0=stage, a1=epoch, a2=lag_ns (NotifyAt → delivery); dur=callback
  kPurgeDelivered,       // a0=stage, a1=epoch; dur=callback
  kEpochOpen,            // a0=input stage, a1=epoch
  kEpochClose,           // a0=input stage, a1=epoch, a2=1 when the input closed
  kLinkReset,            // a0=dst/src process, a1=1 on the receive side
  kLinkReconnect,        // a0=dst/src process, a1=1 on the receive side
  kLinkTornFrame,        // a0=src process, a1=bytes consumed, a2=1 if torn in the body
  kCheckpoint,           // a0=image bytes; dur=pause+serialize span
  kRestore,              // a0=image bytes; dur=restore span
  kClusterCheckpoint,    // a0=checkpoint epoch, a1=barrier rounds, a2=1 when quiet;
                         // dur=quiet-point rounds (pause → verdict)
  kClusterRecover,       // a0=restored epoch (UINT64_MAX = fresh start), a1=generation;
                         // dur=teardown + restore + re-dial span
  kLinkDupFrame,         // a0=sequence number, a1=frame type, a2=1 on the receive side
  kStrayFrame,           // a0=job id, a1=src process, a2=frame type
  kSelectiveStall,       // a0=victim process, a1=barrier rounds, a2=1 on success;
                         // dur=survivor stall span (pause → verdict)
  kSeedExchange,         // a0=seed updates contributed, a1=log records replayed,
                         // a2=1 when a survivor kept its state; dur=seed exchange span
  kLeaseExpired,         // a0=peer process, a1=silence_ns, a2=lease timeout_ns
  kTerminationBarrier,   // a0=0, a1=barrier rounds, a2=1 on termination;
                         // dur=termination rounds (first drained wait → verdict)
};

struct TraceEvent {
  TraceKind kind;
  uint64_t ts_ns;   // event time (span start for dur_ns != 0)
  uint64_t dur_ns;  // 0 for instant events
  uint64_t a0, a1, a2;
};

// Single-writer ring. The owning thread records; everyone else waits for the drain.
class TraceRing {
 public:
  TraceRing(std::string name, size_t capacity)
      : name_(std::move(name)),
        events_(std::bit_ceil(capacity < 2 ? size_t{2} : capacity)),
        mask_(events_.size() - 1) {}

  void Record(TraceKind kind, uint64_t ts_ns, uint64_t dur_ns, uint64_t a0, uint64_t a1,
              uint64_t a2) {
    events_[head_ & mask_] = TraceEvent{kind, ts_ns, dur_ns, a0, a1, a2};
    ++head_;
  }

  const std::string& name() const { return name_; }
  uint64_t recorded() const { return head_; }
  uint64_t dropped() const { return head_ > events_.size() ? head_ - events_.size() : 0; }

  // Oldest-first copy of the retained events. Only valid once the writer is quiescent.
  std::vector<TraceEvent> Drain() const {
    std::vector<TraceEvent> out;
    const uint64_t keep = head_ - dropped();
    out.reserve(keep);
    for (uint64_t i = head_ - keep; i < head_; ++i) {
      out.push_back(events_[i & mask_]);
    }
    return out;
  }

 private:
  std::string name_;
  std::vector<TraceEvent> events_;
  uint64_t mask_;
  uint64_t head_ = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, size_t ring_capacity)
      : enabled_(enabled), capacity_(ring_capacity) {
    if (enabled_) {
      control_ = std::make_unique<TraceRing>("control", 4096);
    }
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Called once by each recording thread (worker/sender/receiver); returns that thread's
  // private ring, or nullptr when tracing is off. Allocates — not a record-path call.
  TraceRing* RegisterThread(const std::string& name);

  // Control-plane events from driver threads (input handles, checkpointing). Locked, so
  // callers must be off the per-item hot path.
  void Control(TraceKind kind, uint64_t a0, uint64_t a1, uint64_t a2);
  void ControlSpan(TraceKind kind, uint64_t t0_ns, uint64_t t1_ns, uint64_t a0, uint64_t a1,
                   uint64_t a2);

  // Drains every ring of every (pid, tracer) pair into one Chrome trace-event JSON file.
  // Callers must have joined all recording threads first. Returns false on I/O failure.
  static bool WriteFile(const std::string& path,
                        const std::vector<std::pair<uint32_t, const Tracer*>>& parts);

  // Appends this tracer's events (metadata + sorted events per ring) to `out` as JSON
  // trace-event objects under process `pid`. `first` tracks comma placement across calls;
  // `base_ns` is subtracted from every timestamp.
  void AppendChromeEvents(std::string& out, uint32_t pid, uint64_t base_ns,
                          bool& first) const;

  // Smallest timestamp recorded by any ring (UINT64_MAX if no events) — used to normalize
  // a multi-tracer file to t=0.
  uint64_t MinTimestampNs() const;

 private:
  bool enabled_;
  size_t capacity_;
  mutable std::mutex mu_;  // guards rings_ registration and all control_ writes
  std::unique_ptr<TraceRing> control_;
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

}  // namespace naiad::obs

#endif  // SRC_OBS_TRACE_H_
