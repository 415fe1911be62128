#include "src/core/controller.h"

#include <algorithm>
#include <tuple>

#include "src/base/logging.h"

namespace naiad {

namespace {
uint64_t VertexKey(StageId s, uint32_t index) {
  return (static_cast<uint64_t>(s) << 32) | index;
}
}  // namespace

Controller::Controller(Config cfg)
    : cfg_(cfg),
      tracker_(&graph_, &event()),
      local_router_(&tracker_) {
  NAIAD_CHECK(cfg_.workers_per_process > 0);
  NAIAD_CHECK(cfg_.processes > 0);
  NAIAD_CHECK(cfg_.process_id < cfg_.processes);
  obs_ = std::make_unique<obs::Obs>(cfg_.obs, cfg_.workers_per_process, cfg_.processes);
  progress_router_ = &local_router_;
  workers_.reserve(cfg_.workers_per_process);
  for (uint32_t i = 0; i < cfg_.workers_per_process; ++i) {
    workers_.push_back(std::make_unique<Worker>(this, i));
  }
}

Controller::~Controller() { Stop(); }

VertexBase* Controller::LocalVertex(StageId s, uint32_t index) {
  auto it = vertices_.find(VertexKey(s, index));
  return it == vertices_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<VertexAddress, VertexBase*>> Controller::LocalVertices() const {
  std::vector<std::pair<VertexAddress, VertexBase*>> out;
  out.reserve(vertices_.size());
  for (const auto& [key, v] : vertices_) {
    out.emplace_back(VertexAddress{static_cast<StageId>(key >> 32),
                                   static_cast<uint32_t>(key & 0xffffffffu)},
                     v.get());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.stage, a.first.index) < std::tie(b.first.stage, b.first.index);
  });
  return out;
}

void Controller::Start() {
  NAIAD_CHECK(!started_);
  started_ = true;
  if (!graph_.frozen()) {
    graph_.Freeze();
  }

  // Instantiate this process's partition of the physical graph, and seed the initial
  // active pointstamps (§2.3). The seeds are derived from the shared logical graph and
  // applied to the LOCAL tracker only, identically on every process — never broadcast.
  // This roots every causal chain in a pointstamp that is visible everywhere from time
  // zero, which is what makes in-flight progress updates safe to lag behind data: any
  // outstanding event always has a locally-visible could-result-in ancestor.
  ProgressBuffer start_updates;
  for (StageId s = 0; s < graph_.num_stages(); ++s) {
    const StageDef& def = graph_.stage(s);
    if (def.is_input) {
      // One active epoch-0 pointstamp per external producer (one per process); each
      // process seeds all of them. A restore override seeds the saved epochs instead.
      if (!start_override_) {
        start_updates.Add(Pointstamp{Timestamp(0), Location::Stage(s)}, +cfg_.processes);
      }
      continue;
    }
    if (!def.factory) {
      continue;  // virtual stage (no vertices): locations only
    }
    if (!start_override_) {
      // Every vertex of the stage (local or not) holds its initial notifications; seed
      // the full cluster-wide count locally.
      for (const Timestamp& t : def.initial_notifications) {
        start_updates.Add(Pointstamp{t, Location::Stage(s)},
                          static_cast<int64_t>(def.parallelism));
      }
    }
    for (uint32_t v = 0; v < def.parallelism; ++v) {
      if (!VertexIsLocal(v)) {
        continue;
      }
      const uint32_t gw = GlobalWorkerOfVertex(v);
      Worker* w = workers_[gw % cfg_.workers_per_process].get();
      std::unique_ptr<VertexBase> vertex = def.factory(this, v);
      NAIAD_CHECK(vertex != nullptr);
      vertex->AttachRuntime(this, VertexAddress{s, v}, w);
      if (def.wire_outputs) {
        def.wire_outputs(this, vertex.get());
      }
      if (!start_override_) {
        for (const Timestamp& t : def.initial_notifications) {
          w->AddNotificationRequest(vertex.get(), t);
        }
      }
      vertices_.emplace(VertexKey(s, v), std::move(vertex));
    }
  }
  if (start_override_) {
    start_override_(*this, start_updates);
  }
  if (!start_updates.Empty()) {
    tracker_.Apply(start_updates.Take());  // local-only: every process seeds identically
  }

  // Attach after seeding: the pool's lock publishes the seeding above to the hosts.
  pool_ = cfg_.host_pool;
  if (pool_ == nullptr) {
    own_pool_ = std::make_unique<HostPool>(cfg_.workers_per_process, event_,
                                           obs_->metrics().process());
    pool_ = own_pool_.get();
  }
  pool_->Attach(this);
  if (start_hook_) {
    start_hook_();
  }
}

void Controller::Join() {
  NAIAD_CHECK(started_);
  tracker_.WaitDrained([&] { return cancelled(); });
  if (quiesce_hook_ && !cancelled()) {
    quiesce_hook_();
  }
  Stop();
}

void Controller::Stop() {
  if (stop_.exchange(true)) {
    return;
  }
  if (pool_ != nullptr) {
    pool_->Detach(this);
    own_pool_.reset();
    // This thread now owns the workers. Every remaining purge runs, forced: after a drain
    // its guarantee time has passed, and after a cancel it frees state nobody reads. Its
    // capability is ⊤, so it cannot create new events.
    for (auto& w : workers_) {
      w->TryDeliverPurges(/*force=*/true);
      w->FlushProgress();
    }
  }
  // Publish the tracker's per-scope accounting into the process metrics block now that
  // the counters are final (workers detached).
  if (obs::ProcessMetrics* pm = obs_->metrics().process()) {
    const ProgressTrackerStats ps = tracker_.Stats();
    pm->progress_boundary_updates.store(ps.boundary_updates, std::memory_order_relaxed);
    pm->progress_boundary_bytes.store(ps.boundary_update_bytes, std::memory_order_relaxed);
    pm->progress_occ_map_peak.store(ps.occ_map_peak, std::memory_order_relaxed);
    pm->progress_occ_map_peak_root.store(ps.occ_map_peak_root, std::memory_order_relaxed);
    pm->progress_query_memo_hits.store(ps.query_memo_hits, std::memory_order_relaxed);
    pm->progress_query_scans.store(ps.query_scans, std::memory_order_relaxed);
    pm->progress_drained_notifies.store(ps.drained_notifies, std::memory_order_relaxed);
  }
  // Single-process trace dump; cluster runs clear trace_path per-process and write one
  // combined file (src/net/cluster.cc) instead. Rings are safe to read here: no host
  // drives this controller's workers any more.
  if (obs_->tracer().enabled() && !cfg_.obs.trace_path.empty()) {
    obs::Tracer::WriteFile(cfg_.obs.trace_path, {{cfg_.process_id, &obs_->tracer()}});
  }
}

bool Controller::InboxesEmpty() const {
  for (const auto& w : workers_) {
    if (!w->inbox_.Empty()) {
      return false;
    }
  }
  return true;
}

void Controller::PauseAndDrain() {
  NAIAD_CHECK(started_);
  pause_.store(true, std::memory_order_release);
  event().NotifyAll();
  // Wait until every worker is parked with nothing queued anywhere. Parked workers cannot
  // generate messages, so (parked == N && inboxes empty && local queues empty) is stable
  // provided external producers are quiet (the caller's contract). A worker drains its
  // inbox before it parks, and parking notifies the event, so the last park wakes us.
  while (true) {
    const EventCount::Ticket ticket = event().PrepareWait();
    // Workers only park with empty local queues, so parked == N plus empty inboxes means
    // no message can be in flight anywhere in this process.
    if (parked_.load(std::memory_order_acquire) == cfg_.workers_per_process &&
        InboxesEmpty()) {
      return;
    }
    event().CommitWait(ticket);
  }
}

void Controller::Resume() {
  pause_.store(false, std::memory_order_release);
  event().NotifyAll();
}

std::unique_ptr<WorkItemBase> Controller::DecodeRemoteBundle(std::span<const uint8_t> frame) {
  ByteReader r(frame);
  const ConnectorId ch = r.ReadU32();
  const uint32_t dst_vertex = r.ReadU32();
  Timestamp t;
  NAIAD_CHECK(t.Decode(r));
  NAIAD_CHECK(ch < graph_.num_connectors());
  const ConnectorDef& def = graph_.connector(ch);
  NAIAD_CHECK(def.decode_batch != nullptr);
  VertexBase* target = LocalVertex(def.dst, dst_vertex);
  NAIAD_CHECK(target != nullptr)
      << "remote bundle for non-local vertex " << def.dst << "/" << dst_vertex;
  std::unique_ptr<WorkItemBase> item = def.decode_batch(r, t, target);
  NAIAD_CHECK(item != nullptr && r.ok());
  return item;
}

void Controller::ReceiveRemoteBundle(std::span<const uint8_t> frame) {
  std::unique_ptr<WorkItemBase> item = DecodeRemoteBundle(frame);
  Worker& owner = item->target()->worker();
  owner.EnqueueExternal(std::move(item));
}

void Controller::DiscardRemoteBundle(std::span<const uint8_t> frame) {
  std::unique_ptr<WorkItemBase> item = DecodeRemoteBundle(frame);
  // Retire instead of deliver: the records are already part of this process's state (the
  // original delivery happened before the failure), so only the progress ledger needs the
  // −count the dropped redelivery would have produced.
  progress_router_->Broadcast({ProgressUpdate{
      Pointstamp{item->time(), Location::Connector(item->connector())}, -item->count()}});
  event().NotifyAll();  // the router may hold the −count until a worker's idle edge
}

}  // namespace naiad
