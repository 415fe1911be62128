#include "src/net/transport.h"

#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/ser/bytes.h"

namespace naiad {

TcpTransport::TcpTransport(uint32_t process_id, uint32_t processes)
    : pid_(process_id), nprocs_(processes) {
  send_links_.resize(nprocs_);
  recv_links_.resize(nprocs_);
  for (uint32_t p = 0; p < nprocs_; ++p) {
    if (p != pid_) {
      send_links_[p] = std::make_unique<SendLink>();
      recv_links_[p] = std::make_unique<RecvLink>();
    }
  }
}

TcpTransport::~TcpTransport() { Shutdown(); }

uint16_t TcpTransport::Listen(uint16_t preferred_port) {
  uint16_t port = listener_.Open(preferred_port);
  // A recovering process rebinding its published port can transiently collide with the
  // previous generation's teardown; retry on the shared jittered backoff schedule
  // (seeded by the port, like Socket::ConnectLocal) instead of a fixed-cadence spin.
  if (port == 0 && preferred_port != 0) {
    Backoff backoff(BackoffPolicy{}, HashCombine(HashString("BIND"), preferred_port));
    while (port == 0 && backoff.Next()) {
      port = listener_.Open(preferred_port);
    }
  }
  NAIAD_CHECK(port != 0);
  return port;
}

Socket TcpTransport::DialPeer(uint32_t dst) {
  // Seed the backoff jitter per (src, dst, generation): every dialer of a recovering
  // peer retries on its own schedule instead of the whole mesh thundering in lockstep,
  // and a replayed seed reproduces the exact dial timing.
  const uint64_t seed = HashCombine(
      HashCombine(HashString("DIAL"), (static_cast<uint64_t>(pid_) << 32) | dst),
      generation_);
  Socket s = Socket::ConnectLocal(ports_[dst], BackoffPolicy{}, seed);
  if (!s.valid()) {
    return Socket();
  }
  uint32_t hello[2] = {pid_, generation_};
  if (!s.WriteAll(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(hello),
                                           sizeof(hello)))) {
    return Socket();
  }
  return s;
}

void TcpTransport::Start(const std::vector<uint16_t>& ports, Callbacks cb) {
  cb_ = std::move(cb);
  NAIAD_CHECK(ports.size() == nprocs_);
  ports_ = ports;
  // The accept loop owns the listener for the transport's lifetime: it feeds both the
  // initial mesh bring-up and any replacement connection after a fault-injected reset.
  acceptor_ = std::thread([this] { AcceptorMain(); });
  for (uint32_t p = 0; p < nprocs_; ++p) {
    if (p == pid_) {
      continue;
    }
    SendLink* link = send_links_[p].get();
    if (fault_plan_ != nullptr) {
      link->faults = fault_plan_->Link(pid_, p);
      recv_links_[p]->faults = fault_plan_->RecvLink(p, pid_);
    }
    if (obs_ != nullptr) {
      link->metrics = obs_->metrics().link(p);
    }
    Socket s = DialPeer(p);
    NAIAD_CHECK(s.valid()) << "connect to process " << p << " failed";
    s.SetWriteFaults(link->faults);
    link->socket = std::move(s);
  }
  for (uint32_t p = 0; p < nprocs_; ++p) {
    if (p == pid_) {
      continue;
    }
    SendLink* sl = send_links_[p].get();
    RecvLink* rl = recv_links_[p].get();
    // Lease baseline: a peer's silence is measured from mesh bring-up, not from 0.
    rl->last_seen_ns.store(obs::MonotonicNs(), std::memory_order_relaxed);
    sl->sender = std::thread([this, p, sl] { SenderMain(p, *sl); });
    rl->receiver = std::thread([this, p, rl] { ReceiverMain(p, *rl); });
  }
  if (policy_.heartbeat_interval_ms != 0 || policy_.heartbeat_timeout_ms != 0) {
    keeper_ = std::thread([this] { KeeperMain(); });
  }
}

void TcpTransport::AcceptorMain() {
  for (;;) {
    Socket s = listener_.Accept();
    if (!s.valid()) {
      return;  // listener closed (shutdown)
    }
    // Publish the handshake fd so Shutdown() can unblock this read: shutting the
    // listener down unblocks Accept() but not an in-progress handshake, so a dialer
    // that connects and then stalls would otherwise pin the acceptor join forever.
    {
      std::lock_guard<std::mutex> lock(accept_mu_);
      if (shutdown_.load(std::memory_order_acquire)) {
        return;  // Shutdown already swept; it will not see this fd
      }
      handshake_fd_ = s.fd();
    }
    uint32_t hello[2] = {0, 0};  // [src process, restart generation]
    const bool identified =
        s.ReadAll(std::span<uint8_t>(reinterpret_cast<uint8_t*>(hello), sizeof(hello)));
    {
      std::lock_guard<std::mutex> lock(accept_mu_);
      handshake_fd_ = -1;
    }
    if (!identified) {
      continue;  // dialer vanished before identifying itself
    }
    const uint32_t who = hello[0];
    if (who >= nprocs_ || who == pid_ || hello[1] != generation_) {
      continue;  // unknown peer, or a dial from a different restart generation
    }
    RecvLink& link = *recv_links_[who];
    {
      std::lock_guard<std::mutex> lock(link.mu);
      link.pending.push_back(std::move(s));
    }
    link.cv.notify_all();
  }
}

void TcpTransport::FrameInto(std::vector<uint8_t>& out, FrameType type,
                             std::span<const uint8_t> payload, uint32_t job) const {
  // Everything but the sequence number, which the sender thread splices in at write
  // time (see WriteRun).
  out.clear();
  out.reserve(payload.size() + kFrameQueuedHeaderBytes);
  ByteWriter w(&out);
  w.WriteU32(static_cast<uint32_t>(payload.size()));
  w.WriteU8(static_cast<uint8_t>(type));
  w.WriteU32(pid_);
  w.WriteU32(job);
  w.WriteBytes(payload.data(), payload.size());
}

void TcpTransport::Send(uint32_t dst, FrameType type, std::vector<uint8_t> payload,
                        uint32_t job, JobTraffic* acct) {
  if (dst == pid_) {
    // Self-sends dispatch inline and are not network traffic; byte counters track only
    // what would cross the wire (the quantity Fig. 6c reports).
    Dispatch(type, pid_, job, payload, /*count=*/false);
    return;
  }
  SendLink& link = *send_links_[dst];
  OutFrame frame;
  {
    std::lock_guard<std::mutex> lock(link.mu);
    if (!link.free_frames.empty()) {
      frame.owned = std::move(link.free_frames.back());
      link.free_frames.pop_back();
    }
  }
  FrameInto(frame.owned, type, payload, job);
  // The wire adds the 8-byte sequence number the sender thread splices in.
  const size_t frame_bytes = frame.owned.size() + 8;
  size_t depth;
  size_t queued_data_bytes = 0;
  {
    std::unique_lock<std::mutex> lock(link.mu);
    // Flow control applies to data frames only: progress and control frames always
    // enqueue — shedding or blocking them would starve the progress protocol and the
    // termination/checkpoint barriers that keep the cluster live.
    const bool flow_controlled =
        type == FrameType::kData &&
        (policy_.max_queue_bytes != 0 || policy_.max_queue_frames != 0 ||
         policy_.credit_window_bytes != 0);
    if (flow_controlled) {
      // Room exists when every configured bound admits the frame. A frame larger than a
      // bound is admitted alone (queue empty of data / window empty) so an oversized
      // payload degrades to one-at-a-time instead of deadlocking.
      auto has_room = [&] {
        if (link.closed || link.down.load(std::memory_order_relaxed)) {
          return true;  // the drop path below runs; nothing to wait for
        }
        if (policy_.max_queue_bytes != 0 && link.queued_data_frames != 0 &&
            link.queued_data_bytes + frame_bytes > policy_.max_queue_bytes) {
          return false;
        }
        if (policy_.max_queue_frames != 0 &&
            link.queued_data_frames >= policy_.max_queue_frames) {
          return false;
        }
        if (policy_.credit_window_bytes != 0) {
          const uint64_t in_flight =
              link.enqueued_data_bytes -
              link.acked_data_bytes.load(std::memory_order_relaxed);
          if (in_flight != 0 && in_flight + frame_bytes > policy_.credit_window_bytes) {
            return false;
          }
        }
        return true;
      };
      if (!has_room()) {
        if (policy_.shed_data) {
          // Shed-and-count: the frame never existed as far as the wire totals are
          // concerned (like a dropped-at-close frame), but the overload is observable.
          frames_shed_.fetch_add(1, std::memory_order_relaxed);
          if (frame.owned.capacity() > 0 && link.free_frames.size() < kMaxFreeFrames) {
            frame.owned.clear();
            link.free_frames.push_back(std::move(frame.owned));
          }
          return;
        }
        credit_stalls_.fetch_add(1, std::memory_order_relaxed);
        // Woken by the sender thread draining (queue room), the receiver thread
        // absorbing a credit grant, or close/peer-down (credit from a corpse never
        // comes — see NotifyPeerDown).
        link.room_cv.wait(lock, has_room);
      }
    }
    if (link.closed || link.down.load(std::memory_order_relaxed)) {
      // The frame is dropped, not sent: it must not count toward the wire totals (the
      // termination barrier and Fig. 6c both read them), and its buffer goes back to the
      // free list instead of leaking its capacity.
      if (frame.owned.capacity() > 0 && link.free_frames.size() < kMaxFreeFrames) {
        frame.owned.clear();
        link.free_frames.push_back(std::move(frame.owned));
      }
      return;
    }
    link.queue.push_back(std::move(frame));
    depth = link.queue.size();
    if (type == FrameType::kData) {
      link.queued_data_bytes += frame_bytes;
      link.queued_data_frames += 1;
      link.enqueued_data_bytes += frame_bytes;
      queued_data_bytes = link.queued_data_bytes;
      if (queued_data_bytes > link.queue_hwm_bytes.load(std::memory_order_relaxed)) {
        link.queue_hwm_bytes.store(queued_data_bytes, std::memory_order_relaxed);
      }
    }
  }
  frames_sent_[static_cast<size_t>(type)].fetch_add(1, std::memory_order_relaxed);
  bytes_sent_[static_cast<size_t>(type)].fetch_add(frame_bytes, std::memory_order_relaxed);
  link.sent[static_cast<size_t>(type)].fetch_add(1, std::memory_order_relaxed);
  if (acct != nullptr) {
    acct->frames_sent[static_cast<size_t>(type)].fetch_add(1, std::memory_order_relaxed);
    acct->bytes_sent[static_cast<size_t>(type)].fetch_add(frame_bytes,
                                                          std::memory_order_relaxed);
  }
  if (link.metrics != nullptr) {
    link.metrics->send_queue_depth.Record(depth);
    if (type == FrameType::kData) {
      link.metrics->send_queue_bytes.Record(queued_data_bytes);
    }
  }
  link.cv.notify_one();
}

void TcpTransport::BroadcastFrame(FrameType type, const std::vector<uint8_t>& payload,
                                  bool include_self, uint32_t job, JobTraffic* acct) {
  // Frame once; every remote link enqueues the same immutable buffer instead of
  // re-serializing the header + payload per peer.
  std::shared_ptr<std::vector<uint8_t>> frame;
  for (uint32_t p = 0; p < nprocs_; ++p) {
    if (p == pid_) {
      if (include_self) {
        Dispatch(type, pid_, job, payload, /*count=*/false);
      }
      continue;
    }
    if (frame == nullptr) {
      frame = std::make_shared<std::vector<uint8_t>>();
      FrameInto(*frame, type, payload, job);
    }
    SendLink& link = *send_links_[p];
    size_t depth;
    {
      std::lock_guard<std::mutex> lock(link.mu);
      if (link.closed || link.down.load(std::memory_order_relaxed)) {
        continue;  // dropped, so not counted as sent
      }
      link.queue.push_back(OutFrame{.owned = {}, .shared = frame});
      depth = link.queue.size();
      if (type == FrameType::kData) {
        // Broadcasts are control/progress in practice, but a data broadcast must keep
        // the sender thread's per-batch data accounting balanced (it cannot tell a
        // broadcast data frame from a point-to-point one when it decrements).
        link.queued_data_bytes += frame->size() + 8;
        link.queued_data_frames += 1;
        link.enqueued_data_bytes += frame->size() + 8;
        if (link.queued_data_bytes >
            link.queue_hwm_bytes.load(std::memory_order_relaxed)) {
          link.queue_hwm_bytes.store(link.queued_data_bytes, std::memory_order_relaxed);
        }
      }
    }
    frames_sent_[static_cast<size_t>(type)].fetch_add(1, std::memory_order_relaxed);
    bytes_sent_[static_cast<size_t>(type)].fetch_add(frame->size() + 8,
                                                     std::memory_order_relaxed);
    link.sent[static_cast<size_t>(type)].fetch_add(1, std::memory_order_relaxed);
    if (acct != nullptr) {
      acct->frames_sent[static_cast<size_t>(type)].fetch_add(1, std::memory_order_relaxed);
      acct->bytes_sent[static_cast<size_t>(type)].fetch_add(frame->size() + 8,
                                                            std::memory_order_relaxed);
    }
    if (link.metrics != nullptr) {
      link.metrics->send_queue_depth.Record(depth);
    }
    link.cv.notify_one();
  }
}

void TcpTransport::Dispatch(FrameType type, uint32_t src, uint32_t job,
                            std::span<const uint8_t> payload, bool count) {
  cb_.on_frame(type, src, job, payload);
  // Counted strictly after the callback ran: the cluster checkpoint barrier's in-flight
  // accounting relies on every counted-received frame being fully delivered (e.g. already
  // enqueued in a worker inbox, where the local quiet probe can see it). Inline
  // self-dispatches pass count=false — they never crossed the wire, and their send side
  // was never counted, so counting the receipt would skew sum(sent) vs sum(received).
  if (count) {
    frames_received_[static_cast<size_t>(type)].fetch_add(1, std::memory_order_relaxed);
  }
}

bool TcpTransport::WriteRun(SendLink& link, std::span<const OutFrame> batch, size_t begin,
                            size_t end, uint64_t base_index, uint64_t* next_seq) {
  if (begin >= end) {
    return true;
  }
  std::vector<iovec> iov;
  std::vector<uint64_t> seqs;
  iov.reserve((end - begin) * 3);
  seqs.reserve(end - begin);  // must not reallocate: iovecs point into it
  for (size_t i = begin; i < end; ++i) {
    std::span<const uint8_t> b = batch[i].bytes();
    const uint8_t type = b[4];  // [u32 len][u8 type]...
    NAIAD_CHECK(type < kNumFrameTypes);
    seqs.push_back(next_seq[type]++);
    auto* base = const_cast<uint8_t*>(b.data());
    iov.push_back(iovec{.iov_base = base, .iov_len = kFrameQueuedHeaderBytes});
    iov.push_back(iovec{.iov_base = &seqs.back(), .iov_len = 8});
    if (b.size() > kFrameQueuedHeaderBytes) {
      iov.push_back(iovec{.iov_base = base + kFrameQueuedHeaderBytes,
                          .iov_len = b.size() - kFrameQueuedHeaderBytes});
    }
    if (link.faults != nullptr && !shutdown_.load(std::memory_order_acquire) &&
        link.faults->ShouldDuplicateFrame(base_index + (i - begin))) {
      // Duplicate delivery: the same frame, with the SAME sequence number, written again
      // adjacently. Not counted as sent — the receiver's dedup drops it, so the wire
      // totals keep sum(sent) == sum(received).
      const size_t n = iov.size();
      for (size_t k = b.size() > kFrameQueuedHeaderBytes ? 3 : 2; k > 0; --k) {
        iov.push_back(iov[n - k]);
      }
      if (link.trace != nullptr) {
        link.trace->Record(obs::TraceKind::kLinkDupFrame, obs::MonotonicNs(), 0,
                           seqs.back(), static_cast<uint64_t>(type), 0);
      }
    }
  }
  return link.socket.WritevAll(iov);
}

void TcpTransport::ResetLink(uint32_t dst, SendLink& link) {
  // Reset at a frame boundary: every previously queued frame was fully written, so the
  // peer's receiver drains to EOF between frames and resumes on the replacement
  // connection — FIFO and framing both preserved.
  if (link.trace != nullptr) {
    link.trace->Record(obs::TraceKind::kLinkReset, obs::MonotonicNs(), 0, dst, 0, 0);
  }
  link.socket.Close();
  Socket s = DialPeer(dst);
  if (s.valid()) {
    s.SetWriteFaults(link.faults);
    link.socket = std::move(s);
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    if (link.trace != nullptr) {
      link.trace->Record(obs::TraceKind::kLinkReconnect, obs::MonotonicNs(), 0, dst, 0, 0);
    }
  }
}

void TcpTransport::SenderMain(uint32_t dst, SendLink& link) {
  if (obs_ != nullptr) {
    link.trace = obs_->tracer().RegisterThread("send->" + std::to_string(dst));
  }
  uint64_t frame_index = 0;
  // Per-frame-type sequence numbers, spliced into the wire header by WriteRun. They
  // persist across fault-injected reconnects (same link, same numbering) so the
  // receiver's dedup state survives connection replacement.
  uint64_t next_seq[kNumFrameTypes] = {};
  std::vector<OutFrame> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(link.mu);
      link.cv.wait(lock, [&] { return link.closed || !link.queue.empty(); });
      if (link.queue.empty()) {
        return;  // closed and drained
      }
      // Drain everything queued under one lock acquisition; the whole batch then goes to
      // the socket as (at most a few) gathered writes instead of one write per frame.
      while (!link.queue.empty()) {
        batch.push_back(std::move(link.queue.front()));
        link.queue.pop_front();
      }
    }
    if (link.metrics != nullptr) {
      link.metrics->writev_batch.Record(batch.size());
    }
    // Split the batch into maximal runs at fault-injected reset points. The hook is
    // stateful, so each frame index is consulted exactly once, in order; a reset lands
    // before the frame whose consultation requested it, exactly as in the
    // frame-at-a-time path.
    size_t run_start = 0;
    bool ok = true;
    for (size_t k = 0; k < batch.size() && ok; ++k) {
      if (link.faults != nullptr && !shutdown_.load(std::memory_order_acquire) &&
          !resets_stopped_.load(std::memory_order_acquire) &&
          link.faults->ShouldResetBefore(frame_index + k)) {
        ok = WriteRun(link, batch, run_start, k, frame_index + run_start, next_seq);
        if (ok) {
          ResetLink(dst, link);
          run_start = k;
        }
      }
    }
    if (!ok ||
        !WriteRun(link, batch, run_start, batch.size(), frame_index + run_start, next_seq)) {
      // The peer went away: during shutdown that's expected; otherwise it is the
      // sender-side symptom of a peer death, reported for coordinated recovery.
      NotifyPeerDown(dst);
      return;
    }
    frame_index += batch.size();
    // The batch is on the wire: release its data-byte accounting (the bound covers
    // queued + in-write, so the release happens here, not at drain time) and recycle
    // the drained point-to-point buffers so the next Send() on this link reuses them.
    size_t batch_data_bytes = 0;
    size_t batch_data_frames = 0;
    for (const OutFrame& f : batch) {
      const std::span<const uint8_t> b = f.bytes();
      if (static_cast<FrameType>(b[4]) == FrameType::kData) {
        batch_data_bytes += b.size() + 8;
        ++batch_data_frames;
      }
    }
    {
      std::lock_guard<std::mutex> lock(link.mu);
      link.queued_data_bytes -= batch_data_bytes;
      link.queued_data_frames -= batch_data_frames;
      for (OutFrame& f : batch) {
        if (f.shared == nullptr && f.owned.capacity() > 0 &&
            link.free_frames.size() < kMaxFreeFrames) {
          f.owned.clear();
          link.free_frames.push_back(std::move(f.owned));
        }
      }
    }
    if (batch_data_frames > 0) {
      link.room_cv.notify_all();
    }
  }
}

void TcpTransport::ReceiverMain(uint32_t src, RecvLink& link) {
  obs::TraceRing* trace =
      obs_ != nullptr ? obs_->tracer().RegisterThread("recv<-" + std::to_string(src))
                      : nullptr;
  bool first_connection = true;
  uint64_t frame_index = 0;        // frames dispatched on this link, across connections
  uint64_t replacement_index = 0;  // replacement connections adopted so far
  // Next expected per-type sequence number; persists across replacement connections
  // (the sender's numbering does too). A frame numbered below its type's expectation
  // was already dispatched — a duplicate delivery — and is dropped here. The starting
  // expectation is normally 0; selective recovery pre-seeds it (SeedRecvExpectation) so
  // a replaced peer's replayed prefix is treated as already dispatched.
  uint64_t expected_seq[kNumFrameTypes];
  for (int t = 0; t < kNumFrameTypes; ++t) {
    expected_seq[t] = link.initial_expect[t];
  }
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(link.mu);
      link.socket.Close();  // done with the previous connection, if any
      link.reading = false;
      link.cv.wait(lock, [&] {
        return !link.pending.empty() || shutdown_.load(std::memory_order_acquire);
      });
      // Check shutdown before pending: a replacement queued just before Shutdown()'s
      // sweep passed this link must not be adopted afterwards — its dialer may never
      // close it, and nothing would ever unblock the read (Shutdown only shuts down
      // the socket that was being read when the sweep ran).
      if (shutdown_.load(std::memory_order_acquire) || link.pending.empty()) {
        return;
      }
      link.socket = std::move(link.pending.front());
      link.pending.pop_front();
      link.socket.SetReadFaults(link.faults);
      link.reading = true;
    }
    if (!first_connection) {
      if (link.faults != nullptr && !shutdown_.load(std::memory_order_acquire)) {
        // Delayed adoption: the replacement sits un-adopted for a bounded time, so the
        // reset is observed to linger on the frame boundary before delivery resumes.
        const uint32_t delay_us = link.faults->AdoptionDelayUs(replacement_index);
        if (delay_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        }
      }
      ++replacement_index;
      if (trace != nullptr) {
        // Adopting a replacement connection after the peer's fault-injected reset.
        trace->Record(obs::TraceKind::kLinkReconnect, obs::MonotonicNs(), 0, src, 1, 0);
      }
    }
    first_connection = false;
    for (;;) {
      uint8_t header[kFrameWireHeaderBytes];
      const ReadResult hres = link.socket.ReadExact(header);
      if (!hres.ok()) {
        if (hres.status == ReadResult::Status::kEof) {
          // Clean EOF on a frame boundary: peer reset, the run being over, or (under
          // coordinated recovery, where resets are off) a dying peer's orderly close.
          NotifyPeerDown(src);
          break;
        }
        if (shutdown_.load(std::memory_order_acquire)) {
          return;  // local teardown unblocked the read; don't count it as a link fault
        }
        if (hres.bytes_read == 0 && hres.err == ECONNRESET) {
          // A reset landing exactly on a frame boundary: every frame written before the
          // peer's abort was delivered, so this is recoverable — wait for a replacement.
          recv_boundary_resets_.fetch_add(1, std::memory_order_relaxed);
          if (trace != nullptr) {
            trace->Record(obs::TraceKind::kLinkReset, obs::MonotonicNs(), 0, src, 1, 0);
          }
          NotifyPeerDown(src);
          break;
        }
        // EOF or error mid-header: a torn frame, distinct from a boundary close. The
        // partial frame is abandoned, never dispatched short.
        recv_torn_frames_.fetch_add(1, std::memory_order_relaxed);
        if (trace != nullptr) {
          trace->Record(obs::TraceKind::kLinkTornFrame, obs::MonotonicNs(), 0, src,
                        hres.bytes_read, 0);
        }
        NotifyPeerDown(src);
        break;
      }
      // Any successfully framed traffic renews the peer's lease, not just heartbeats.
      link.last_seen_ns.store(obs::MonotonicNs(), std::memory_order_relaxed);
      ByteReader hr(header);
      const uint32_t len = hr.ReadU32();
      const auto type = static_cast<FrameType>(hr.ReadU8());
      const uint32_t frame_src = hr.ReadU32();
      const uint32_t job = hr.ReadU32();
      const uint64_t seq = hr.ReadU64();
      NAIAD_CHECK(static_cast<uint8_t>(type) < kNumFrameTypes);
      NAIAD_CHECK(frame_src == src);
      std::vector<uint8_t> payload(len);
      if (len > 0) {
        const ReadResult bres = link.socket.ReadExact(payload);
        if (!bres.ok()) {
          if (shutdown_.load(std::memory_order_acquire)) {
            return;
          }
          // Any failure inside the body — even a "clean" close at body offset 0 — is
          // mid-frame and therefore torn: the header was already consumed.
          recv_torn_frames_.fetch_add(1, std::memory_order_relaxed);
          if (trace != nullptr) {
            trace->Record(obs::TraceKind::kLinkTornFrame, obs::MonotonicNs(), 0, src,
                          sizeof(header) + bres.bytes_read, 1);
          }
          NotifyPeerDown(src);
          break;
        }
      }
      uint64_t& expect = expected_seq[static_cast<size_t>(type)];
      if (seq != expect) {
        // FIFO links cannot lose or reorder frames, so a mismatch can only be a
        // duplicate delivery of something already dispatched. Drop it: re-delivering
        // would violate the exactly-once contract the progress protocol (§3.3) and the
        // barrier traffic accounting both assume.
        NAIAD_CHECK(seq < expect)
            << "sequence gap on link " << src << ": got " << seq << " expected " << expect;
        recv_dup_frames_.fetch_add(1, std::memory_order_relaxed);
        if (trace != nullptr) {
          trace->Record(obs::TraceKind::kLinkDupFrame, obs::MonotonicNs(), 0, seq,
                        static_cast<uint64_t>(type), 1);
        }
        if (cb_.on_dup_frame && !shutdown_.load(std::memory_order_acquire) &&
            cb_.on_dup_frame(type, frame_src, job, seq, payload)) {
          // A deliberately-dropped replayed frame: its send was counted, so its retirement
          // must be too, or the barrier's cluster-wide sent==received never balances.
          frames_received_[static_cast<size_t>(type)].fetch_add(1,
                                                               std::memory_order_relaxed);
        }
        continue;
      }
      ++expect;
      if (type == FrameType::kControl && len > 0 && payload[0] == kCtlHeartbeat) {
        // Heartbeat/credit frames are transport-internal: absorb the piggybacked credit
        // grant and move on — they are never dispatched and never counted received
        // (their control-frame sends are outside the barrier accounting anyway).
        heartbeats_received_.fetch_add(1, std::memory_order_relaxed);
        if (len >= 9) {
          ByteReader cr(std::span<const uint8_t>(payload).subspan(1));
          const uint64_t granted = cr.ReadU64();
          SendLink& sl = *send_links_[src];
          if (granted > sl.acked_data_bytes.load(std::memory_order_relaxed)) {
            {
              // Under sl.mu so a producer cannot check the window, miss this grant, and
              // then park forever: it either sees the new value or our notify.
              std::lock_guard<std::mutex> sl_lock(sl.mu);
              sl.acked_data_bytes.store(granted, std::memory_order_relaxed);
            }
            sl.room_cv.notify_all();
          }
        }
        continue;
      }
      if (link.faults != nullptr && !shutdown_.load(std::memory_order_acquire)) {
        // Bounded delayed dispatch between frame decode and worker-queue enqueue. The
        // receiver thread itself sleeps, so later frames on this link cannot overtake:
        // per-link FIFO is preserved by construction.
        const uint32_t delay_us = link.faults->DispatchDelayUs(frame_index);
        if (delay_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        }
      }
      ++frame_index;
      if (shutdown_.load(std::memory_order_acquire)) {
        return;
      }
      Dispatch(type, frame_src, job, payload);
      link.received[static_cast<size_t>(type)].fetch_add(1, std::memory_order_relaxed);
      if (type == FrameType::kData) {
        // Credit is granted at dispatch, not decode: the bytes are only "consumed" once
        // they are out of the transport's hands (e.g. parked in a worker inbox).
        link.consumed_data_bytes.fetch_add(kFrameWireHeaderBytes + len,
                                           std::memory_order_relaxed);
      }
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      return;
    }
  }
}

void TcpTransport::SeedRecvExpectation(uint32_t src, FrameType type, uint64_t seq) {
  NAIAD_CHECK(src != pid_ && src < nprocs_);
  recv_links_[src]->initial_expect[static_cast<size_t>(type)] = seq;
}

bool TcpTransport::RecvLinkDrained(uint32_t src) {
  RecvLink& link = *recv_links_[src];
  std::lock_guard<std::mutex> lock(link.mu);
  return !link.reading && link.pending.empty();
}

void TcpTransport::NotifyPeerDown(uint32_t peer) {
  if (cb_.on_peer_down && !shutdown_.load(std::memory_order_acquire)) {
    // Mark the send link down before surfacing the suspicion: new sends to the corpse
    // drop instead of queueing, and a producer parked on queue room or credit wakes up
    // (the credit it is waiting for will never be granted). Gated on on_peer_down being
    // installed — without a failure-detection consumer, link death does not mean peer
    // death (fault-injected resets re-dial), so queues must keep accepting.
    SendLink& link = *send_links_[peer];
    {
      std::lock_guard<std::mutex> lock(link.mu);
      link.down.store(true, std::memory_order_relaxed);
    }
    link.cv.notify_all();
    link.room_cv.notify_all();
    cb_.on_peer_down(peer);
  }
}

void TcpTransport::KeeperMain() {
  // One thread per transport serves both halves of the in-band failure detector: it
  // emits this process's heartbeats (each carrying the per-peer credit grant) and
  // expires peers' leases. Frames go through the normal Send path — control frames are
  // flow-control-exempt, so a keeper can never be blocked by a congested link.
  const uint64_t timeout_ns =
      static_cast<uint64_t>(policy_.heartbeat_timeout_ms) * 1000000ull;
  const uint32_t tick_ms = policy_.heartbeat_interval_ms != 0
                               ? policy_.heartbeat_interval_ms
                               : std::max<uint32_t>(1, policy_.heartbeat_timeout_ms / 4);
  std::vector<HeartbeatFaultHook*> faults(nprocs_, nullptr);
  std::vector<uint64_t> hb_index(nprocs_, 0);      // keeper ticks taken per link
  std::vector<uint64_t> last_grant(nprocs_, 0);    // last credit value actually sent
  std::vector<bool> declared(nprocs_, false);      // lease fired (at most once per peer)
  if (fault_plan_ != nullptr) {
    for (uint32_t p = 0; p < nprocs_; ++p) {
      if (p != pid_) {
        faults[p] = fault_plan_->Heartbeat(pid_, p);
      }
    }
  }
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(keeper_mu_);
      keeper_cv_.wait_for(lock, std::chrono::milliseconds(tick_ms), [&] {
        return shutdown_.load(std::memory_order_acquire);
      });
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      return;
    }
    for (uint32_t p = 0; p < nprocs_; ++p) {
      if (p == pid_) {
        continue;
      }
      if (policy_.heartbeat_interval_ms != 0) {
        const uint64_t idx = hb_index[p]++;
        bool drop = false;
        if (faults[p] != nullptr && !shutdown_.load(std::memory_order_acquire)) {
          const uint32_t delay_us = faults[p]->HeartbeatDelayUs(idx);
          if (delay_us > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
          }
          drop = faults[p]->ShouldDropHeartbeat(idx);
        }
        if (!drop) {
          uint64_t grant =
              recv_links_[p]->consumed_data_bytes.load(std::memory_order_relaxed);
          if (faults[p] != nullptr && !shutdown_.load(std::memory_order_acquire) &&
              faults[p]->ShouldWithholdCredit(idx)) {
            grant = last_grant[p];  // re-grant the stale value: a credit-starvation stall
          }
          last_grant[p] = grant;
          std::vector<uint8_t> payload;
          ByteWriter w(&payload);
          w.WriteU8(kCtlHeartbeat);
          w.WriteU64(grant);
          Send(p, FrameType::kControl, std::move(payload));
          heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (timeout_ns != 0 && !declared[p]) {
        const uint64_t last =
            recv_links_[p]->last_seen_ns.load(std::memory_order_relaxed);
        const uint64_t now = obs::MonotonicNs();
        if (now > last && now - last > timeout_ns) {
          declared[p] = true;
          peers_declared_down_.fetch_add(1, std::memory_order_relaxed);
          if (obs_ != nullptr) {
            obs_->tracer().Control(obs::TraceKind::kLeaseExpired, p, now - last,
                                   timeout_ns);
          }
          NotifyPeerDown(p);
        }
      }
    }
  }
}

void TcpTransport::Shutdown() {
  if (shutdown_.exchange(true)) {
    return;
  }
  JoinThreads();
}

void TcpTransport::Abort() {
  if (shutdown_.exchange(true)) {
    return;
  }
  // Unblock senders before joining them: a sender parked in a full-buffer write to a
  // peer that is itself aborting would otherwise deadlock JoinThreads (circular wait on
  // loopback buffers). shutdown(2) leaves the fd valid, so this is safe against a
  // concurrent send(); fault-injected resets (the only concurrent Close) are off in
  // recovery mode, and no new reset can start now that shutdown_ is set.
  for (auto& link : send_links_) {
    if (link != nullptr) {
      link->socket.ShutdownBoth();
    }
  }
  JoinThreads();
}

void TcpTransport::JoinThreads() {
  // The keeper goes first: it must not declare peers down (or send heartbeats into
  // closing sockets) while the rest of the mesh is being dismantled.
  if (keeper_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(keeper_mu_);  // pairs with the keeper's wait_for
    }
    keeper_cv_.notify_all();
    keeper_.join();
  }
  // Stop accepting replacements first so the acceptor cannot race socket teardown.
  listener_.Shutdown();
  {
    // Unblock a handshake read in progress: the acceptor either sees the shutdown flag
    // before registering the fd (and returns), or registered it here for us to shut
    // down. Either way the join below cannot hang on a silent dialer.
    std::lock_guard<std::mutex> lock(accept_mu_);
    if (handshake_fd_ >= 0) {
      ::shutdown(handshake_fd_, SHUT_RDWR);
    }
  }
  if (acceptor_.joinable()) {
    acceptor_.join();
  }
  listener_.Close();
  for (auto& link : send_links_) {
    if (link == nullptr) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(link->mu);
      link->closed = true;
    }
    link->cv.notify_all();
    link->room_cv.notify_all();  // a producer parked on room/credit sees closed and drops
    if (link->sender.joinable()) {
      link->sender.join();
    }
    link->socket.Close();
  }
  for (auto& link : recv_links_) {
    if (link == nullptr) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(link->mu);
      // Unblock a receiver parked in ReadAll; its own assignments of `socket` happen
      // before `reading` was published under the lock, so the fd we shut down here is
      // the one it is reading.
      if (link->reading) {
        link->socket.ShutdownBoth();
      }
    }
    link->cv.notify_all();
    if (link->receiver.joinable()) {
      link->receiver.join();
    }
    link->socket.Close();
    for (Socket& s : link->pending) {
      s.Close();
    }
    link->pending.clear();
  }
  // Every recording thread is joined; flush the transport's robustness counters into the
  // process metrics block exactly once (JoinThreads runs behind the shutdown_ exchange).
  if (obs_ != nullptr) {
    if (obs::ProcessMetrics* pm = obs_->metrics().process()) {
      pm->heartbeats_sent.fetch_add(heartbeats_sent_.load(std::memory_order_relaxed),
                                    std::memory_order_relaxed);
      pm->heartbeats_received.fetch_add(
          heartbeats_received_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      pm->peers_declared_down.fetch_add(
          peers_declared_down_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      pm->credit_stalls.fetch_add(credit_stalls_.load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
      pm->frames_shed.fetch_add(frames_shed_.load(std::memory_order_relaxed),
                                std::memory_order_relaxed);
      const uint64_t hwm = send_queue_hwm_bytes();
      uint64_t prev = pm->send_queue_hwm_bytes.load(std::memory_order_relaxed);
      while (prev < hwm && !pm->send_queue_hwm_bytes.compare_exchange_weak(
                               prev, hwm, std::memory_order_relaxed)) {
      }
    }
  }
}

}  // namespace naiad
