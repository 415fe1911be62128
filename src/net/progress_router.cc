#include "src/net/progress_router.h"

#include "src/ser/codec.h"

namespace naiad {

std::vector<uint8_t> DistributedProgressRouter::EncodeUpdates(
    const std::vector<ProgressUpdate>& ups) {
  ByteWriter w;
  Codec<std::vector<ProgressUpdate>>::Encode(w, ups);
  return std::move(w.buffer());
}

std::vector<ProgressUpdate> DistributedProgressRouter::DecodeUpdates(
    std::span<const uint8_t> payload) {
  ByteReader r(payload);
  std::vector<ProgressUpdate> ups;
  NAIAD_CHECK(Codec<std::vector<ProgressUpdate>>::Decode(r, ups));
  return ups;
}

void DistributedProgressRouter::AccountScopes(const std::vector<ProgressUpdate>& updates) {
  uint64_t cross = 0;
  uint64_t in_scope = 0;
  for (const ProgressUpdate& u : updates) {
    const uint64_t bytes = EncodedProgressUpdateBytes(u.point);
    if (ctl_->graph().ScopeOf(u.point.loc) != 0) {
      in_scope += bytes;
    } else {
      cross += bytes;
    }
  }
  cross_scope_update_bytes_.fetch_add(cross, std::memory_order_relaxed);
  in_scope_update_bytes_.fetch_add(in_scope, std::memory_order_relaxed);
}

void DistributedProgressRouter::Broadcast(std::vector<ProgressUpdate> updates) {
  if (updates.empty()) {
    return;
  }
  switch (strategy_) {
    case ProgressStrategy::kDirect:
    case ProgressStrategy::kGlobalAcc:
      Emit(std::move(updates));
      return;
    case ProgressStrategy::kLocalAcc:
    case ProgressStrategy::kLocalGlobalAcc: {
      bool flush;
      {
        std::lock_guard<std::mutex> lock(local_mu_);
        AddToBuffer(local_buf_, updates);
        flush = !SafeToHold(local_buf_);
      }
      // An early flush is always safe (holding is the optimization); injecting one
      // exercises schedules where the accumulator releases mid-burst.
      if (!flush && faults_ != nullptr && faults_->ForceEarlyFlush()) {
        flush = true;
      }
      if (flush) {
        FlushLocal();
      }
      return;
    }
  }
}

void DistributedProgressRouter::Emit(std::vector<ProgressUpdate> updates) {
  if (updates.empty()) {
    return;
  }
  if (faults_ != nullptr) {
    faults_->PerturbFlushBatch(updates);
  }
  if (obs::ProcessMetrics* m = ctl_->obs().metrics().process()) {
    m->progress_emit_updates.Record(updates.size());
  }
  AccountScopes(updates);
  std::vector<uint8_t> payload = EncodeUpdates(updates);
  const bool to_central = strategy_ == ProgressStrategy::kGlobalAcc ||
                          strategy_ == ProgressStrategy::kLocalGlobalAcc;
  if (to_central) {
    transport_->Send(0, FrameType::kProgressAcc, std::move(payload), job_, acct_);
  } else {
    transport_->BroadcastFrame(FrameType::kProgress, payload, /*include_self=*/true, job_,
                               acct_);
  }
}

void DistributedProgressRouter::EmitFromCentral(std::vector<ProgressUpdate> updates) {
  if (updates.empty()) {
    return;
  }
  if (faults_ != nullptr) {
    faults_->PerturbFlushBatch(updates);
  }
  if (obs::ProcessMetrics* m = ctl_->obs().metrics().process()) {
    m->progress_emit_updates.Record(updates.size());
  }
  AccountScopes(updates);
  std::vector<uint8_t> payload = EncodeUpdates(updates);
  transport_->BroadcastFrame(FrameType::kProgress, payload, /*include_self=*/true, job_,
                             acct_);
}

void DistributedProgressRouter::OnProgressFrame(uint32_t /*src*/,
                                                std::span<const uint8_t> payload) {
  ctl_->tracker().Apply(DecodeUpdates(payload));
}

void DistributedProgressRouter::OnAccumulatorFrame(uint32_t /*src*/,
                                                   std::span<const uint8_t> payload) {
  NAIAD_CHECK(IsCentral());
  std::vector<ProgressUpdate> ups = DecodeUpdates(payload);
  bool flush;
  {
    std::lock_guard<std::mutex> lock(central_mu_);
    AddToBuffer(central_buf_, ups);
    flush = !SafeToHold(central_buf_);
  }
  if (!flush && faults_ != nullptr && faults_->ForceEarlyFlush()) {
    flush = true;
  }
  if (flush) {
    FlushCentral();
  } else {
    // The batch now waits for an idle edge of this process, whose workers may all be
    // parked: nothing else they wait on will change until this batch is broadcast.
    ctl_->event().NotifyAll();
  }
}

bool DistributedProgressRouter::OnWorkerIdle() {
  // Idle flushes may be deferred (boundedly) by the fault hook. No event announces the
  // end of a deferral, so the caller rescans instead of parking and retries here; the
  // hook lets the flush pass after at most max_consecutive_defers refusals.
  if (faults_ != nullptr && !faults_->BeforeIdleFlush()) {
    return true;
  }
  FlushAll();
  return false;
}

void DistributedProgressRouter::FlushAll() {
  FlushLocal();
  if (IsCentral()) {
    FlushCentral();
  }
}

bool DistributedProgressRouter::Empty() const {
  {
    std::lock_guard<std::mutex> lock(local_mu_);
    if (!local_buf_.empty()) {
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(central_mu_);
  return central_buf_.empty();
}

void DistributedProgressRouter::AddToBuffer(std::map<Pointstamp, int64_t>& buf,
                                            std::span<const ProgressUpdate> ups) {
  for (const ProgressUpdate& u : ups) {
    int64_t& d = buf[u.point];
    d += u.delta;
    if (d == 0) {
      buf.erase(u.point);
    }
  }
}

bool DistributedProgressRouter::SafeToHold(const std::map<Pointstamp, int64_t>& buf) const {
  if (buf.size() > hold_limit_) {
    return false;
  }
  const ProgressTracker& tracker = ctl_->tracker();
  for (const auto& [p, delta] : buf) {
    if (delta <= 0) {
      continue;  // delaying retirements only makes other frontiers conservative
    }
    // A new event at p may be hidden only while p is already known active, or while some
    // other active pointstamp could-result-in p (§3.3's two conditions).
    if (tracker.Count(p) > 0) {
      continue;
    }
    if (!tracker.CanDeliver(p)) {
      continue;  // an active dominator exists
    }
    return false;
  }
  return true;
}

std::vector<ProgressUpdate> DistributedProgressRouter::TakeBuffer(
    std::map<Pointstamp, int64_t>& buf) {
  std::vector<ProgressUpdate> out;
  out.reserve(buf.size());
  for (const auto& [p, d] : buf) {
    if (d > 0) {
      out.push_back({p, d});
    }
  }
  for (const auto& [p, d] : buf) {
    if (d < 0) {
      out.push_back({p, d});
    }
  }
  buf.clear();
  return out;
}

void DistributedProgressRouter::FlushLocal() {
  std::vector<ProgressUpdate> ups;
  {
    std::lock_guard<std::mutex> lock(local_mu_);
    if (local_buf_.empty()) {
      return;
    }
    ups = TakeBuffer(local_buf_);
  }
  Emit(std::move(ups));
}

void DistributedProgressRouter::FlushCentral() {
  std::vector<ProgressUpdate> ups;
  {
    std::lock_guard<std::mutex> lock(central_mu_);
    if (central_buf_.empty()) {
      return;
    }
    ups = TakeBuffer(central_buf_);
  }
  EmitFromCentral(std::move(ups));
}

}  // namespace naiad
