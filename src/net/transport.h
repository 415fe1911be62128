// The inter-process transport (§3): a full mesh of TCP connections, one per ordered
// process pair, with a dedicated send thread (draining a FIFO queue) and receive thread
// per peer. Per-pair FIFO is what the distributed progress protocol requires of its
// channels (§3.3).
//
// Connections are simplex: process s's frames to process d travel on a connection s dials
// to d's listener (announcing s and its restart generation in an 8-byte handshake), and
// d's frames to s travel on a separate connection d dials to s. An accept loop runs for the transport's lifetime, so a sender
// may close its connection at a frame boundary and transparently re-dial — the mechanism
// the fault-injection harness (src/testing/fault.h) uses to exercise connection resets
// without violating the FIFO contract: the receiver drains the old connection to EOF
// (TCP delivers all bytes written before the close), then resumes on the replacement.
//
// Frames: [u32 length][u8 type][u32 src_process][u32 job][u64 seq][payload]. The job id
// routes the frame to a registered dataflow on a multi-tenant job server (0 is the
// single-job/legacy id); `seq` is a per-link per-frame-type sequence number the sender
// thread assigns at write time and the receiver uses to drop duplicate deliveries.
// Self-addressed sends dispatch directly (no socket to self), preserving the "broadcast
// includes self" semantics.

#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/core/controller.h"
#include "src/net/fault_hooks.h"
#include "src/net/socket.h"
#include "src/obs/obs.h"

namespace naiad {

enum class FrameType : uint8_t {
  kData = 0,         // record bundle, handled by Controller::ReceiveRemoteBundle
  kProgress = 1,     // progress updates for direct application
  kProgressAcc = 2,  // progress updates addressed to the central accumulator
  kControl = 3,      // cluster control (termination barrier, job lifecycle)
};
inline constexpr int kNumFrameTypes = 4;

// Send() frames everything but `seq` into the queued buffer (13 bytes of header); the
// sender thread splices the 8-byte sequence number in at write time, so a broadcast's
// shared buffer stays immutable while every link still numbers its own frames.
inline constexpr size_t kFrameQueuedHeaderBytes = 13;
inline constexpr size_t kFrameWireHeaderBytes = 21;

// Control verb (first payload byte of a kControl frame) consumed inside the transport
// itself: heartbeat/credit frames, payload [u8 verb][u64 consumed_data_bytes]. They
// update the receiver's per-link last-seen timestamp and the sender's credit window and
// are never dispatched to the cluster demux — which also keeps them invisible to the
// barrier traffic accounting (that accounting already excludes kControl). Numbered above
// the cluster verbs in src/net/cluster.h (0..16); new cluster verbs continue from 18.
inline constexpr uint8_t kCtlHeartbeat = 17;

// In-band robustness knobs, all default-off so a bare transport behaves exactly as
// before. Set before Start() via TcpTransport::SetLinkPolicy.
struct LinkPolicy {
  // Heartbeats: every interval_ms the keeper thread emits one kCtlHeartbeat frame per
  // outbound link, carrying the cumulative data bytes consumed from that peer (the
  // credit grant). 0 = no heartbeats.
  uint32_t heartbeat_interval_ms = 0;
  // Lease: a peer whose inbound link has delivered nothing (no frame of any type,
  // heartbeats included) for timeout_ms is declared down — once — via on_peer_down.
  // 0 = detector off. Size the lease generously relative to the interval (and to
  // sanitizer scheduling noise): a false positive is safe but forces a restart.
  uint32_t heartbeat_timeout_ms = 0;
  // Send-path bounds on kData frames only — progress and control frames are exempt
  // (shedding or blocking them would starve the §3.3 protocol and the barriers that
  // keep the cluster live). Bounds cover bytes queued or in the current gathered write.
  // 0 = unbounded (the pre-policy behavior).
  size_t max_queue_bytes = 0;
  size_t max_queue_frames = 0;
  // Credit window: max data wire bytes in flight to a peer (enqueued here but not yet
  // consumed by its receiver, per the grants its heartbeats carry). Needs heartbeats
  // enabled on the peer; throughput is capped near window/interval. 0 = unlimited.
  size_t credit_window_bytes = 0;
  // Policy when a data frame finds no room/credit: false blocks the producer until
  // space frees (exactly-once preserved — the default), true sheds the frame and counts
  // it (for loss-tolerant feeds; never legal for traffic the barriers account).
  bool shed_data = false;
};

// Per-job wire-traffic accounting (multi-tenant job server). The transport credits the
// sending job's counters at enqueue time, exactly where the global counters are bumped;
// the receiving side's demux credits frames_received after delivery. Indexed by
// static_cast<size_t>(FrameType).
struct JobTraffic {
  std::atomic<uint64_t> frames_sent[kNumFrameTypes] = {};
  std::atomic<uint64_t> bytes_sent[kNumFrameTypes] = {};
  std::atomic<uint64_t> frames_received[kNumFrameTypes] = {};
};

class TcpTransport final : public DataTransport {
 public:
  struct Callbacks {
    // Single dispatch arm for every frame type. `job` is the frame header's job id (0
    // for single-job/legacy senders); `wire` distinguishes frames that crossed a socket
    // from inline self-dispatches (the latter are never counted as received — see
    // Dispatch). Runs on receive threads, or inline on the sender for self-sends.
    std::function<void(FrameType type, uint32_t src, uint32_t job,
                       std::span<const uint8_t> payload, bool wire)>
        on_frame;
    // Failure detection (optional). Fired from a sender or receiver thread when a link
    // dies outside Shutdown(): write failure, boundary EOF/ECONNRESET, or a torn frame.
    // Installing this makes every link death a suspected peer death, so it is
    // incompatible with fault plans that inject connection resets (which die and
    // transparently re-dial); the kill-and-recover harness runs with reset injection off.
    // May fire multiple times per peer; the consumer deduplicates.
    std::function<void(uint32_t peer)> on_peer_down;
    // Duplicate-frame observer (optional). Fired from the receive thread when a frame's
    // per-type sequence number was already dispatched on this link and the frame is about
    // to be dropped. Returning true counts the drop as received in the global per-type
    // counters: selective recovery routes a replacement's replayed frames through the
    // dedup path, and the checkpoint barrier's cluster-wide sent==received accounting
    // must still balance for frames a survivor deliberately drops (their send side WAS
    // counted). Fault-injected duplicates — whose extra wire emission was never counted
    // as sent — must return false, preserving the original accounting.
    std::function<bool(FrameType type, uint32_t src, uint32_t job, uint64_t seq,
                       std::span<const uint8_t> payload)>
        on_dup_frame;
  };

  TcpTransport(uint32_t process_id, uint32_t processes);
  ~TcpTransport() override;

  // Optional fault plan; must be set before Start() and outlive the transport.
  void SetFaultPlan(ClusterFaultPlan* plan) { fault_plan_ = plan; }

  // Optional observability runtime; must be set before Start() and outlive the
  // transport. Supplies per-link metrics blocks and sender/receiver thread trace rings.
  void SetObs(obs::Obs* obs) { obs_ = obs; }

  // Heartbeat/lease detection and send-path flow control; must be set before Start().
  // Defaults leave every mechanism off.
  void SetLinkPolicy(const LinkPolicy& policy) { policy_ = policy; }
  const LinkPolicy& link_policy() const { return policy_; }

  // Restart generation announced in the dial handshake and required of inbound dials;
  // connections from any other generation are dropped at accept time, so a stale
  // pre-recovery dial can never be adopted by a post-recovery mesh. Must be set before
  // Start(); defaults to 0 (what every pre-recovery transport uses).
  void SetGeneration(uint32_t gen) { generation_ = gen; }
  uint32_t generation() const { return generation_; }

  // Phase 1 (launcher thread): open the listener, returning its port. `preferred_port`
  // lets a recovering process rebind the port it published before the failure (0 =
  // ephemeral).
  uint16_t Listen(uint16_t preferred_port = 0);
  // Phase 2 (per-process thread): establish the mesh given everyone's ports, then start
  // the I/O threads. Callbacks fire on receive threads (or inline for self-sends).
  void Start(const std::vector<uint16_t>& ports, Callbacks cb);

  // DataTransport: ship a record bundle (single-job/legacy path, job 0). The job server
  // gives each job its own adapter that calls Send with the job's id and accounting.
  void SendBundle(uint32_t dst_process, std::vector<uint8_t> frame) override {
    Send(dst_process, FrameType::kData, std::move(frame));
  }

  // `acct`, when set, receives the same sent-frame/sent-byte credit as the global
  // counters (i.e. only frames actually enqueued; dropped-at-close and self-sends are
  // not counted).
  void Send(uint32_t dst, FrameType type, std::vector<uint8_t> payload, uint32_t job = 0,
            JobTraffic* acct = nullptr);
  // Sends to every process; when include_self, the callback runs inline.
  void BroadcastFrame(FrameType type, const std::vector<uint8_t>& payload,
                      bool include_self, uint32_t job = 0, JobTraffic* acct = nullptr);

  // Stops fault-injected link resets: no reset, and so no re-dial, starts after this
  // returns. A server hosting every process of the mesh calls it on all of them before
  // shutting any down; a reset after a peer's listener closed would re-dial that peer for
  // the whole dial backoff budget (~2 s) before giving up.
  void StopInjectedResets() { resets_stopped_.store(true, std::memory_order_release); }
  void Shutdown();
  // Recovery-path teardown: additionally shuts down (shutdown(2), not close) every send
  // socket *before* joining the sender threads, so a sender blocked in a full-buffer
  // write to a peer that is itself tearing down cannot deadlock the join. The clean path
  // (Shutdown) never needs this — termination drains both sides first.
  void Abort();

  uint64_t bytes_sent(FrameType type) const {
    return bytes_sent_[static_cast<size_t>(type)].load(std::memory_order_relaxed);
  }
  uint64_t frames_sent(FrameType type) const {
    return frames_sent_[static_cast<size_t>(type)].load(std::memory_order_relaxed);
  }
  uint64_t frames_received(FrameType type) const {
    return frames_received_[static_cast<size_t>(type)].load(std::memory_order_relaxed);
  }
  // Connections this transport re-established after a (fault-injected) reset.
  uint64_t reconnects() const { return reconnects_.load(std::memory_order_relaxed); }
  // Frames a receiver abandoned because the connection died mid-frame (EOF or error
  // inside the header or body). Torn frames are never dispatched; a nonzero count
  // outside shutdown means a peer violated the frame-boundary close contract.
  uint64_t recv_torn_frames() const {
    return recv_torn_frames_.load(std::memory_order_relaxed);
  }
  // Connection resets (ECONNRESET) a receiver observed landing exactly on a frame
  // boundary — recoverable: the receiver waits for a replacement connection.
  uint64_t recv_boundary_resets() const {
    return recv_boundary_resets_.load(std::memory_order_relaxed);
  }
  // Frames a receiver dropped because their per-type sequence number was already
  // dispatched on that link — duplicate deliveries (fault-injected), never re-delivered
  // and never counted in frames_received.
  uint64_t recv_dup_frames() const {
    return recv_dup_frames_.load(std::memory_order_relaxed);
  }
  // Heartbeat/credit frames emitted by the keeper thread / absorbed by receivers.
  uint64_t heartbeats_sent() const {
    return heartbeats_sent_.load(std::memory_order_relaxed);
  }
  uint64_t heartbeats_received() const {
    return heartbeats_received_.load(std::memory_order_relaxed);
  }
  // Peers the lease detector declared down (at most one declaration per peer).
  uint64_t peers_declared_down() const {
    return peers_declared_down_.load(std::memory_order_relaxed);
  }
  // Data sends that blocked waiting for queue room or credit.
  uint64_t credit_stalls() const {
    return credit_stalls_.load(std::memory_order_relaxed);
  }
  // Data frames dropped under LinkPolicy::shed_data (never counted as sent).
  uint64_t frames_shed() const { return frames_shed_.load(std::memory_order_relaxed); }
  // Peak data bytes queued-or-in-write on the link to `dst` / across all links.
  uint64_t send_queue_hwm_bytes(uint32_t dst) const {
    return send_links_[dst]->queue_hwm_bytes.load(std::memory_order_relaxed);
  }
  uint64_t send_queue_hwm_bytes() const {
    uint64_t peak = 0;
    for (const auto& link : send_links_) {
      if (link != nullptr) {
        peak = std::max(peak, link->queue_hwm_bytes.load(std::memory_order_relaxed));
      }
    }
    return peak;
  }

  // Pre-seeds the receiver's per-type duplicate-detection expectation for frames from
  // `src`: every frame numbered below `seq` is treated as an already-dispatched
  // duplicate. Selective recovery uses this so a survivor that already absorbed the
  // first `seq` data frames of a replaced peer's post-checkpoint window drops the
  // replayed prefix instead of re-delivering it. Must be called before Start().
  void SeedRecvExpectation(uint32_t src, FrameType type, uint64_t seq);

  // Per-link wire counters: frames enqueued toward / dispatched from one specific peer.
  // The per-link received counter advances only on dispatch (duplicate drops excluded),
  // so `frames_received_from(p, kData)` is exactly the count of p's data frames this
  // process has absorbed — the quantity a survivor snapshots as its replay watermark.
  uint64_t frames_sent_to(uint32_t dst, FrameType type) const {
    return send_links_[dst]->sent[static_cast<size_t>(type)].load(
        std::memory_order_relaxed);
  }
  uint64_t frames_received_from(uint32_t src, FrameType type) const {
    return recv_links_[src]->received[static_cast<size_t>(type)].load(
        std::memory_order_relaxed);
  }

  // True once the inbound link from `src` has no installed connection and no pending
  // replacement: the peer's socket reached EOF and every byte it ever wrote has been
  // dispatched. The survivor stall barrier polls this to know the dead peer's in-flight
  // frames have fully landed before it snapshots state.
  bool RecvLinkDrained(uint32_t src);

  uint32_t process_id() const { return pid_; }
  uint32_t processes() const { return nprocs_; }

 private:
  // Per-link cap on recycled frame buffers; beyond this, drained buffers are freed.
  static constexpr size_t kMaxFreeFrames = 64;

  // One queued, fully framed wire frame. Point-to-point sends own their buffer (recycled
  // through the link's free list after the write); broadcasts share a single immutable
  // framed buffer across all links.
  struct OutFrame {
    std::vector<uint8_t> owned;
    std::shared_ptr<const std::vector<uint8_t>> shared;
    std::span<const uint8_t> bytes() const {
      return shared != nullptr ? std::span<const uint8_t>(*shared)
                               : std::span<const uint8_t>(owned);
    }
  };

  // Outbound half: the connection we dialed to the peer, fed by a FIFO queue. The sender
  // thread drains the whole queue per wakeup and writes it as one gathered batch;
  // `free_frames` recycles the drained buffers back to Send() so the steady state
  // allocates nothing per frame.
  struct SendLink {
    Socket socket;
    std::mutex mu;
    std::condition_variable cv;       // wakes the sender thread (new frames / close)
    std::condition_variable room_cv;  // wakes producers blocked on queue room / credit
    std::deque<OutFrame> queue;
    std::vector<std::vector<uint8_t>> free_frames;
    bool closed = false;
    std::thread sender;
    LinkFaultHook* faults = nullptr;        // owned by the fault plan
    obs::LinkMetrics* metrics = nullptr;    // owned by the controller's Obs; set in Start
    obs::TraceRing* trace = nullptr;        // sender-thread ring; set/used only by SenderMain
    std::atomic<uint64_t> sent[kNumFrameTypes] = {};  // frames enqueued (== seqs assigned)
    // Flow control (guarded by mu unless noted). queued_data_* covers data frames queued
    // or inside the sender's current gathered write — the sender-side memory the policy
    // bounds; enqueued_data_bytes is the cumulative data wire bytes ever enqueued, which
    // against the peer's cumulative consumed count (acked_data_bytes, written by this
    // process's receiver thread when the peer's heartbeats arrive) gives the in-flight
    // window.
    size_t queued_data_bytes = 0;
    size_t queued_data_frames = 0;
    uint64_t enqueued_data_bytes = 0;
    std::atomic<uint64_t> acked_data_bytes{0};
    // Peak queued_data_bytes; written under mu, read lock-free by the getter.
    std::atomic<uint64_t> queue_hwm_bytes{0};
    // Set (under mu) once this peer is suspected dead — write failure, receiver EOF, or
    // lease expiry — but only when on_peer_down is installed (the same condition under
    // which link death means peer death). Sends then drop instead of queueing toward a
    // corpse, and blocked producers wake: credit from a dead peer never comes.
    std::atomic<bool> down{false};
  };

  // Inbound half: connections the peer dialed to us, delivered by the accept loop. The
  // receiver drains `pending` in arrival order; sockets are only mutated under `mu` (the
  // receiver's unlocked reads during ReadAll race with nothing, as only the receiver
  // assigns `socket` and Shutdown joins it before closing).
  struct RecvLink {
    std::mutex mu;
    std::condition_variable cv;
    Socket socket;
    bool reading = false;                // a socket is installed and being drained
    std::deque<Socket> pending;          // replacement connections, FIFO
    std::thread receiver;
    RecvLinkFaultHook* faults = nullptr;  // owned by the fault plan; set in Start
    std::atomic<uint64_t> received[kNumFrameTypes] = {};  // frames dispatched (not drops)
    uint64_t initial_expect[kNumFrameTypes] = {};  // SeedRecvExpectation, read at start
    // Lease input: monotonic ns of the last successfully read frame header from this
    // peer (any type — data traffic renews the lease as well as heartbeats do).
    std::atomic<uint64_t> last_seen_ns{0};
    // Credit output: cumulative wire bytes of data frames dispatched from this peer,
    // granted back to it on this process's outbound heartbeats.
    std::atomic<uint64_t> consumed_data_bytes{0};
  };

  // `count` distinguishes wire deliveries (receiver threads) from inline self-dispatches:
  // only the former increment frames_received_, keeping cluster-wide sum(sent) ==
  // sum(received) once the wire is drained (the checkpoint barrier's in-flight check).
  void Dispatch(FrameType type, uint32_t src, uint32_t job,
                std::span<const uint8_t> payload, bool count = true);
  void AcceptorMain();
  void SenderMain(uint32_t dst, SendLink& link);
  void ReceiverMain(uint32_t src, RecvLink& link);
  // Dials `dst` and writes the identifying handshake; invalid Socket on failure.
  Socket DialPeer(uint32_t dst);
  void FrameInto(std::vector<uint8_t>& out, FrameType type,
                 std::span<const uint8_t> payload, uint32_t job) const;
  // Writes frames [begin, end) of `batch` as one gathered write (iovec batch), assigning
  // each frame its per-type sequence number from `next_seq` and emitting a fault-injected
  // duplicate (same bytes, same seq, adjacent) where the link hook asks for one.
  // `base_index` is the link-lifetime index of batch[begin].
  bool WriteRun(SendLink& link, std::span<const OutFrame> batch, size_t begin, size_t end,
                uint64_t base_index, uint64_t* next_seq);
  // Closes `link`'s connection and transparently re-dials (fault-injected reset).
  void ResetLink(uint32_t dst, SendLink& link);
  // Fires cb_.on_peer_down(peer) if installed and not shutting down, after marking the
  // send link down so queued-toward-the-corpse producers drop/unblock.
  void NotifyPeerDown(uint32_t peer);
  // Keeper thread: emits heartbeats with piggybacked credit grants every
  // heartbeat_interval_ms and expires peers' leases after heartbeat_timeout_ms of
  // link silence. Runs only when either knob is nonzero.
  void KeeperMain();
  // Shared teardown: join acceptor, then sender and receiver threads (see Shutdown/Abort).
  void JoinThreads();

  uint32_t pid_;
  uint32_t nprocs_;
  uint32_t generation_ = 0;
  Listener listener_;
  std::vector<uint16_t> ports_;  // everyone's listener ports, for re-dialing after a reset
  std::vector<std::unique_ptr<SendLink>> send_links_;  // indexed by dst; [pid_] unused
  std::vector<std::unique_ptr<RecvLink>> recv_links_;  // indexed by src; [pid_] unused
  std::thread acceptor_;
  // The fd the acceptor is currently blocked on reading a handshake from, or -1.
  // Shutdown() shuts it down so a dialer that connected but never identified itself
  // cannot block the acceptor join forever.
  std::mutex accept_mu_;
  int handshake_fd_ = -1;
  Callbacks cb_;
  ClusterFaultPlan* fault_plan_ = nullptr;
  obs::Obs* obs_ = nullptr;
  LinkPolicy policy_;
  std::thread keeper_;
  std::mutex keeper_mu_;
  std::condition_variable keeper_cv_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> resets_stopped_{false};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> recv_torn_frames_{0};
  std::atomic<uint64_t> recv_boundary_resets_{0};
  std::atomic<uint64_t> recv_dup_frames_{0};
  std::atomic<uint64_t> heartbeats_sent_{0};
  std::atomic<uint64_t> heartbeats_received_{0};
  std::atomic<uint64_t> peers_declared_down_{0};
  std::atomic<uint64_t> credit_stalls_{0};
  std::atomic<uint64_t> frames_shed_{0};
  std::atomic<uint64_t> bytes_sent_[kNumFrameTypes] = {};
  std::atomic<uint64_t> frames_sent_[kNumFrameTypes] = {};
  std::atomic<uint64_t> frames_received_[kNumFrameTypes] = {};
};

}  // namespace naiad

#endif  // SRC_NET_TRANSPORT_H_
