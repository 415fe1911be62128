// Fault-injection hook interfaces for the distributed runtime.
//
// The networking and progress layers accept these (optional, default-off) hooks so a test
// harness can impose adversarial schedules — partial writes, send stalls, connection resets
// at chosen frame indices, deferred/reordered accumulator flushes — without changing any
// protocol contract: every injected fault is FIFO- and content-preserving, and flush
// perturbations stay within the §3.3 safety rule. Implementations live in
// src/testing/fault.h; production code only ever sees null pointers.

#ifndef SRC_NET_FAULT_HOOKS_H_
#define SRC_NET_FAULT_HOOKS_H_

#include <cstdint>
#include <vector>

#include "src/core/progress.h"
#include "src/net/socket.h"

namespace naiad {

// Per simplex connection (one (src, dst) process pair direction). Consumed only by that
// connection's sender thread, so implementations need no internal locking for these calls.
class LinkFaultHook : public WriteFaultHook {
 public:
  // Consulted before frame `frame_index` (0-based count of frames written on this link) is
  // handed to the socket. Returning true makes the transport close the connection and
  // transparently re-dial before sending the frame — a reset that lands exactly on a frame
  // boundary, so the receiver sees EOF between frames and no frame is torn or reordered.
  virtual bool ShouldResetBefore(uint64_t frame_index) = 0;
  // Consulted after frame `frame_index` is staged for the socket. Returning true makes
  // the transport write the frame a second time, adjacently and with the same sequence
  // number — a duplicate delivery the receiver must detect and drop. Defaults to off so
  // hooks written before duplication faults existed stay valid.
  virtual bool ShouldDuplicateFrame(uint64_t /*frame_index*/) { return false; }
};

// Receive half of a simplex connection: consumed only by the destination process's
// receiver thread for that link, so implementations need no internal locking. The legal
// schedules are strictly perturbations of *when* the receiver observes bytes and hands
// frames onward, never of what arrives or in what order:
//   - ReadStep faults (torn reads, modeled EINTR storms, bounded stalls) reshape the
//     recv() syscall schedule inside Socket::ReadExact.
//   - DispatchDelayUs holds a fully decoded frame for a bounded time between decode and
//     worker-queue enqueue. The single receiver thread itself sleeps, so no later frame
//     on the link can overtake — per-link FIFO is preserved by construction.
//   - AdoptionDelayUs stalls adoption of a replacement connection after the previous one
//     drained to EOF, so a sender-side reset is observed to land (and linger) on a frame
//     boundary before delivery resumes.
// Unilateral receiver-side connection *closes* are deliberately not injectable: without
// sender retransmission they would discard in-flight bytes, violating the
// content-preservation contract (see DESIGN.md "Fault injection").
class RecvLinkFaultHook : public ReadFaultHook {
 public:
  // Bounded delay in microseconds (0 = none) between decoding frame `frame_index`
  // (0-based count of frames dispatched on this link, across connections) and
  // dispatching it.
  virtual uint32_t DispatchDelayUs(uint64_t frame_index) = 0;
  // Bounded delay in microseconds (0 = none) before adopting replacement connection
  // `replacement_index` (0-based count of adopted replacements, i.e. excluding the
  // link's first connection).
  virtual uint32_t AdoptionDelayUs(uint64_t replacement_index) = 0;
};

// Heartbeat/credit-plane faults for the simplex link src -> dst, consumed only by src's
// keeper thread (one per transport), so implementations need no internal locking. All
// three perturbations are bounded and liveness-preserving: delays are capped, drops and
// credit withholds happen at most a profile-capped number of times per link, so the
// peer's lease always sees a beat eventually and every granted credit eventually arrives.
// (A lease sized for the profile's worst bounded gap therefore never false-fires.)
class HeartbeatFaultHook {
 public:
  virtual ~HeartbeatFaultHook() = default;
  // Bounded delay in microseconds (0 = none) before emitting heartbeat `hb_index`
  // (0-based count of keeper ticks for this link).
  virtual uint32_t HeartbeatDelayUs(uint64_t hb_index) = 0;
  // Returning true skips heartbeat `hb_index` entirely: the peer's lease observes a gap
  // and the tick's credit grant is not sent.
  virtual bool ShouldDropHeartbeat(uint64_t hb_index) = 0;
  // Returning true sends heartbeat `hb_index` with the previous tick's credit grant
  // instead of the current consumed count — a receiver credit-starvation stall: the
  // sender's in-flight window stays pinned until a later beat re-grants.
  virtual bool ShouldWithholdCredit(uint64_t hb_index) = 0;
};

// Per-process perturbation of the progress accumulators (§3.3). All three calls must keep
// the protocol's invariants: flushes may be delayed only boundedly (a worker whose idle
// flush was deferred rescans instead of parking, so the flush is retried), forced flushes
// are always safe, and reordering must keep every positive delta ahead of every negative
// one.
class ProgressFaultHook {
 public:
  virtual ~ProgressFaultHook() = default;
  // Called when a worker going idle would flush the accumulators. Return false to defer
  // the flush to the worker's next idle edge; implementations must return true after a
  // bounded number of consecutive deferrals or the worker spins and the computation cannot
  // terminate.
  virtual bool BeforeIdleFlush() = 0;
  // Consulted per accumulated batch; returning true flushes even though holding is safe.
  virtual bool ForceEarlyFlush() = 0;
  // May reorder `batch` within maximal same-sign runs (positives stay before negatives).
  virtual void PerturbFlushBatch(std::vector<ProgressUpdate>& batch) = 0;
};

// The per-cluster plan: hands out hooks for each link and process. Link() is called from
// every process's transport during Start() and may be called concurrently; the returned
// hooks must outlive the cluster run. Either accessor may return nullptr (no faults).
class ClusterFaultPlan {
 public:
  virtual ~ClusterFaultPlan() = default;
  virtual LinkFaultHook* Link(uint32_t src_process, uint32_t dst_process) = 0;
  virtual ProgressFaultHook* Progress(uint32_t process) = 0;
  // Receive-side hook for the simplex link src -> dst, consulted by dst's receiver
  // thread. Defaults to nullptr so plans written before receive-path injection existed
  // stay valid.
  virtual RecvLinkFaultHook* RecvLink(uint32_t /*src_process*/, uint32_t /*dst_process*/) {
    return nullptr;
  }
  // Heartbeat-plane hook for the simplex link src -> dst, consulted by src's keeper
  // thread. Defaults to nullptr so plans written before heartbeat injection existed
  // stay valid.
  virtual HeartbeatFaultHook* Heartbeat(uint32_t /*src_process*/,
                                        uint32_t /*dst_process*/) {
    return nullptr;
  }
};

}  // namespace naiad

#endif  // SRC_NET_FAULT_HOOKS_H_
