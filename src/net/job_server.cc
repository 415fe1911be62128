#include "src/net/job_server.h"

#include <utility>

#include "src/base/logging.h"

namespace naiad {

// One registered dataflow on one process: its controller (graph, tracker, vertices,
// workers), its progress router and control plane, and its wire-traffic accounting. Held
// by shared_ptr so the demux, the driver, and the trace epilogue can each keep
// it alive across the teardown race without coordinating destruction.
struct JobServer::JobContext {
  JobId id = 0;
  JobTraffic traffic;

  // DataTransport adapter: stamps this job's id into every record-bundle frame and
  // credits the job's accounting alongside the transport's global counters.
  struct Data final : DataTransport {
    TcpTransport* transport = nullptr;
    JobContext* ctx = nullptr;
    void SendBundle(uint32_t dst_process, std::vector<uint8_t> frame) override {
      transport->Send(dst_process, FrameType::kData, std::move(frame), ctx->id,
                      &ctx->traffic);
    }
  };
  Data data;

  std::unique_ptr<Controller> ctl;
  std::unique_ptr<DistributedProgressRouter> router;
  std::unique_ptr<ClusterControl> control;

  // Flips true (under the process's stash_mu) once the stash has been replayed; the demux
  // delivers directly only after that, so a job's frames are applied in arrival order.
  std::atomic<bool> accepting{false};
};

struct JobServer::ProcessState {
  uint32_t pid = 0;
  // Server-level observability: the transport's link metrics and sender/receiver trace
  // rings live here (the transport outlives every job); per-job rings live in each job's
  // controller and are merged into the combined trace file at Stop().
  std::unique_ptr<obs::Obs> obs;
  std::unique_ptr<TcpTransport> transport;
  // Shared wait/notify channel: every job's tracker and all host parking use it, so
  // progress on any job wakes the shared hosts.
  EventCount event;
  std::unique_ptr<HostPool> pool;  // every job's Config::host_pool

  // Registered-jobs table. The demux reads it under the shared lock; register and retire
  // mutate it under the exclusive lock, so a retired job gets no further deliveries. Hosts
  // never hold it across a pass, but a pass that sends to self takes it inside the pool's
  // lock: never attach or detach a controller while holding it.
  std::shared_mutex jobs_mu;
  std::map<JobId, std::shared_ptr<JobContext>> jobs;

  // Frames that arrived before their job registered locally, in arrival order, bounded by
  // ClusterOptions::job_stash_limit_bytes per job. stash_mu also serializes the accepting
  // flip against the demux's re-check: a racing frame either lands in the stash (and is
  // replayed in order) or observes the flip and delivers directly — per-link FIFO holds
  // across the handoff.
  struct StashedFrame {
    FrameType type;
    uint32_t src;
    bool wire;
    std::vector<uint8_t> payload;
  };
  struct Stash {
    std::vector<StashedFrame> frames;
    size_t bytes = 0;
  };
  std::mutex stash_mu;
  std::map<JobId, Stash> stash;
  std::set<JobId> retired;  // jobs whose context this process has torn down

  std::atomic<uint64_t> stray_dropped{0};
  std::atomic<uint64_t> stash_drops{0};

  std::mutex drivers_mu;
  std::vector<std::thread> drivers;
  // Retired contexts kept alive for the combined trace file (tracing runs only).
  std::vector<std::shared_ptr<JobContext>> done_ctxs;  // guarded by the server's done_mu_
};

namespace {

// Re-entrancy guard for the demux. Delivering a frame can synchronously emit another
// frame to self (a coordinator broadcasting a verdict, the central accumulator flushing),
// which dispatches inline back into OnFrame on the same thread. Re-acquiring the shared
// jobs lock there can deadlock against a writer already waiting between the two
// acquisitions, so nested entries reuse the outer hold instead.
thread_local const void* t_jobs_shared_held = nullptr;

class JobsSharedScope {
 public:
  explicit JobsSharedScope(std::shared_mutex& mu, const void* tag) : mu_(mu) {
    mu_.lock_shared();
    t_jobs_shared_held = tag;
  }
  ~JobsSharedScope() {
    t_jobs_shared_held = nullptr;
    mu_.unlock_shared();
  }
  JobsSharedScope(const JobsSharedScope&) = delete;
  JobsSharedScope& operator=(const JobsSharedScope&) = delete;

 private:
  std::shared_mutex& mu_;
};

}  // namespace

JobServer::JobServer(ClusterOptions opts) : opts_(std::move(opts)) {}

JobServer::~JobServer() {
  if (started_ && !stopped_) {
    Stop();
  }
}

TcpTransport& JobServer::transport(uint32_t process) {
  return *procs_[process]->transport;
}

uint64_t JobServer::stray_frames_dropped() const {
  uint64_t n = 0;
  for (const auto& ps : procs_) {
    n += ps->stray_dropped.load(std::memory_order_relaxed);
  }
  return n;
}

uint64_t JobServer::stash_overflow_drops() const {
  uint64_t n = 0;
  for (const auto& ps : procs_) {
    n += ps->stash_drops.load(std::memory_order_relaxed);
  }
  return n;
}

void JobServer::Start() {
  NAIAD_CHECK(!started_);
  started_ = true;
  sw_.Restart();
  const uint32_t n = opts_.processes;
  std::vector<uint16_t> ports(n);
  procs_.reserve(n);
  for (uint32_t p = 0; p < n; ++p) {
    auto ps = std::make_unique<ProcessState>();
    ps->pid = p;
    obs::ObsOptions server_obs = opts_.obs;
    server_obs.trace_path.clear();  // one combined file is written at Stop()
    ps->obs = std::make_unique<obs::Obs>(server_obs, opts_.workers_per_process, n);
    ps->transport = std::make_unique<TcpTransport>(p, n);
    ps->transport->SetFaultPlan(opts_.fault_plan);
    ps->transport->SetObs(ps->obs.get());
    LinkPolicy policy;
    policy.heartbeat_interval_ms = opts_.heartbeat_interval_ms;
    policy.heartbeat_timeout_ms = opts_.heartbeat_timeout_ms;
    policy.max_queue_bytes = opts_.max_send_queue_bytes;
    policy.max_queue_frames = opts_.max_send_queue_frames;
    policy.credit_window_bytes = opts_.credit_window_bytes;
    policy.shed_data = opts_.shed_data;
    ps->transport->SetLinkPolicy(policy);
    ports[p] = ps->transport->Listen();
    procs_.push_back(std::move(ps));
  }
  // Every listener is open, so the serial bring-up below cannot deadlock: dials land in
  // the peer's accept backlog even before its accept loop runs.
  for (uint32_t p = 0; p < n; ++p) {
    ProcessState& ps = *procs_[p];
    TcpTransport::Callbacks cb;
    cb.on_frame = [this, &ps](FrameType type, uint32_t src, uint32_t job,
                              std::span<const uint8_t> payload, bool wire) {
      OnFrame(ps, type, src, job, payload, wire);
    };
    // No on_peer_down: in thread mode nothing can die out from under the server.
    ps.transport->Start(ports, std::move(cb));
  }
  for (uint32_t p = 0; p < n; ++p) {
    ProcessState& ps = *procs_[p];
    ps.pool = std::make_unique<HostPool>(opts_.workers_per_process, ps.event,
                                         ps.obs->metrics().process());
  }
}

JobId JobServer::Submit(Body body) {
  NAIAD_CHECK(started_ && !stopped_);
  JobId id;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    id = next_job_++;
    registry_.emplace(id, std::move(body));
    next_job_hint_.store(next_job_, std::memory_order_release);
  }
  // The announcement. Process 0's copy dispatches inline (include_self), so its context
  // exists before Submit returns; peers' copies travel their p0 link in FIFO order with
  // any later teardown for the same id.
  std::vector<uint8_t> payload{kCtlRegisterJob};
  procs_[0]->transport->BroadcastFrame(FrameType::kControl, payload,
                                       /*include_self=*/true, id);
  return id;
}

void JobServer::Teardown(JobId id) {
  NAIAD_CHECK(started_);
  std::vector<uint8_t> payload{kCtlTeardownJob};
  procs_[0]->transport->BroadcastFrame(FrameType::kControl, payload,
                                       /*include_self=*/true, id);
}

void JobServer::Wait(JobId id) {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [&] { return retired_count_[id] == opts_.processes; });
}

void JobServer::Deliver(ProcessState& ps, JobContext& ctx, FrameType type, uint32_t src,
                        std::span<const uint8_t> payload, bool wire) {
  switch (type) {
    case FrameType::kData:
      ctx.ctl->ReceiveRemoteBundle(payload);
      break;
    case FrameType::kProgress:
      ctx.router->OnProgressFrame(src, payload);
      break;
    case FrameType::kProgressAcc:
      ctx.router->OnAccumulatorFrame(src, payload);
      break;
    case FrameType::kControl:
      ctx.control->HandleControl(src, payload);
      break;
  }
  if (wire) {
    // Counted after delivery, mirroring the transport's global counters: a counted
    // received frame is already visible to the job's quiet probes.
    ctx.traffic.frames_received[static_cast<size_t>(type)].fetch_add(
        1, std::memory_order_relaxed);
  }
}

void JobServer::OnFrame(ProcessState& ps, FrameType type, uint32_t src, uint32_t job,
                        std::span<const uint8_t> payload, bool wire) {
  if (type == FrameType::kControl && !payload.empty() &&
      (payload[0] == kCtlRegisterJob || payload[0] == kCtlTeardownJob)) {
    if (payload[0] == kCtlRegisterJob) {
      HandleRegister(ps, job);
    } else {
      HandleTeardown(ps, job);
    }
    return;
  }

  // Nested entry (a delivery synchronously sent to self): the outer frame of this thread
  // already holds ps.jobs_mu shared, so read the table without re-locking.
  if (t_jobs_shared_held == &ps) {
    auto it = ps.jobs.find(job);
    if (it != ps.jobs.end() &&
        it->second->accepting.load(std::memory_order_acquire)) {
      Deliver(ps, *it->second, type, src, payload, wire);
      return;
    }
    StashOrDrop(ps, type, src, job, payload, wire);
    return;
  }

  JobsSharedScope scope(ps.jobs_mu, &ps);
  auto it = ps.jobs.find(job);
  if (it != ps.jobs.end() && it->second->accepting.load(std::memory_order_acquire)) {
    Deliver(ps, *it->second, type, src, payload, wire);
    return;
  }
  StashOrDrop(ps, type, src, job, payload, wire);
}

// Slow path: the job has no accepting context here. Requires shared hold of ps.jobs_mu
// (direct or via the re-entrancy guard). A frame for a retired or never-announced job is
// dropped deterministically — counted and traced, never handed to freed vertices; a frame
// for a job still registering is stashed (bounded) for in-order replay. Control frames
// are stashed too: a late barrier verdict must survive the registration race or the
// job would hang.
void JobServer::StashOrDrop(ProcessState& ps, FrameType type, uint32_t src, uint32_t job,
                            std::span<const uint8_t> payload, bool wire) {
  std::lock_guard<std::mutex> lock(ps.stash_mu);
  // Re-check under stash_mu: HandleRegister flips `accepting` under it, strictly after
  // replaying the stash, so whichever side wins this lock preserves arrival order.
  auto it = ps.jobs.find(job);
  if (it != ps.jobs.end() && it->second->accepting.load(std::memory_order_acquire)) {
    Deliver(ps, *it->second, type, src, payload, wire);
    return;
  }
  const bool known =
      job != 0 && job < next_job_hint_.load(std::memory_order_acquire);
  if (ps.retired.count(job) != 0 || !known) {
    ps.stray_dropped.fetch_add(1, std::memory_order_relaxed);
    ps.obs->tracer().Control(obs::TraceKind::kStrayFrame, job, src,
                             static_cast<uint64_t>(type));
    return;
  }
  ProcessState::Stash& s = ps.stash[job];
  if (s.bytes + payload.size() > opts_.job_stash_limit_bytes) {
    ps.stash_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  s.bytes += payload.size();
  s.frames.push_back(ProcessState::StashedFrame{
      type, src, wire, std::vector<uint8_t>(payload.begin(), payload.end())});
}

void JobServer::HandleRegister(ProcessState& ps, JobId job) {
  Body body;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    auto it = registry_.find(job);
    NAIAD_CHECK(it != registry_.end()) << "register for unknown job " << job;
    body = it->second;
  }
  auto ctx = std::make_shared<JobContext>();
  ctx->id = job;
  Config cfg;
  cfg.process_id = ps.pid;
  cfg.processes = opts_.processes;
  cfg.workers_per_process = opts_.workers_per_process;
  cfg.batch_size = opts_.batch_size;
  cfg.default_parallelism = opts_.default_parallelism;
  cfg.obs = opts_.obs;
  cfg.obs.trace_path.clear();  // the server writes one combined file at Stop()
  cfg.host_pool = ps.pool.get();
  ctx->ctl = std::make_unique<Controller>(cfg);
  ctx->data.transport = ps.transport.get();
  ctx->data.ctx = ctx.get();
  ctx->router = std::make_unique<DistributedProgressRouter>(
      ctx->ctl.get(), ps.transport.get(), opts_.strategy, /*hold_limit=*/1024,
      opts_.fault_plan != nullptr ? opts_.fault_plan->Progress(ps.pid) : nullptr);
  ctx->router->SetJobAccounting(job, &ctx->traffic);
  ctx->ctl->SetProgressRouter(ctx->router.get());
  ctx->ctl->SetDataTransport(&ctx->data);
  ctx->control = std::make_unique<ClusterControl>(
      ctx->ctl.get(), ps.transport.get(), ctx->router.get(), job, &ctx->traffic);
  ClusterControl* control = ctx->control.get();
  ctx->ctl->SetQuiesceHook([control] { control->RunTerminationBarrier(); });
  {
    std::unique_lock<std::shared_mutex> lock(ps.jobs_mu);
    const bool inserted = ps.jobs.emplace(job, ctx).second;
    NAIAD_CHECK(inserted) << "job " << job << " registered twice";
  }
  // Replay the pre-registration stash, then flip `accepting` — atomically with the
  // emptiness check, so no frame can slip between replay and flip. Delivery itself runs
  // unlocked (a replayed frame can synchronously broadcast), so late arrivals during a
  // replay batch go back to the stash and are picked up by the next round, still in
  // order.
  for (;;) {
    std::vector<ProcessState::StashedFrame> frames;
    {
      std::lock_guard<std::mutex> lock(ps.stash_mu);
      auto sit = ps.stash.find(job);
      if (sit == ps.stash.end() || sit->second.frames.empty()) {
        ps.stash.erase(job);
        ctx->accepting.store(true, std::memory_order_release);
        break;
      }
      frames.swap(sit->second.frames);
      sit->second.bytes = 0;
    }
    for (ProcessState::StashedFrame& f : frames) {
      Deliver(ps, *ctx, f.type, f.src, f.payload, f.wire);
    }
  }
  {
    std::lock_guard<std::mutex> lock(ps.drivers_mu);
    ps.drivers.emplace_back(
        [this, &ps, ctx, body = std::move(body)] { DriverMain(ps, ctx, body); });
  }
}

void JobServer::HandleTeardown(ProcessState& ps, JobId job) {
  std::shared_ptr<JobContext> ctx;
  {
    std::shared_lock<std::shared_mutex> lock(ps.jobs_mu);
    auto it = ps.jobs.find(job);
    if (it != ps.jobs.end()) {
      ctx = it->second;
    }
  }
  if (ctx == nullptr) {
    return;  // already completed here (teardown cannot precede register: per-link FIFO)
  }
  // Isolated teardown: interrupt a barrier the job may be blocked in, then cancel its
  // Join. The driver then retires the context exactly as on normal completion; peers do
  // the same when their copy of the teardown arrives.
  ctx->control->RequestRecovery();
  ctx->ctl->RequestCancel();
}

void JobServer::DriverMain(ProcessState& ps, std::shared_ptr<JobContext> ctx,
                           const Body& body) {
  body(*ctx->ctl);
  RetireJob(ps, std::move(ctx));
}

void JobServer::RetireJob(ProcessState& ps, std::shared_ptr<JobContext> ctx) {
  {
    std::unique_lock<std::shared_mutex> lock(ps.jobs_mu);
    ps.jobs.erase(ctx->id);
  }
  // Detaches the job from the pool, handing this thread its workers, and runs the forced
  // purge drain (§2.4). Idempotent: the body's Join already stopped a drained job.
  ctx->ctl->Stop();
  {
    std::lock_guard<std::mutex> lock(ps.stash_mu);
    ps.retired.insert(ctx->id);
    auto sit = ps.stash.find(ctx->id);
    if (sit != ps.stash.end()) {
      // Stashed but never delivered (e.g. frames that raced a teardown): strays now.
      ps.stray_dropped.fetch_add(sit->second.frames.size(), std::memory_order_relaxed);
      ps.stash.erase(sit);
    }
  }
  const bool torn = ctx->ctl->cancelled();
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    ClusterStats::JobStats& js = job_stats_[ctx->id];
    js.job = ctx->id;
    const auto frames = [&](FrameType t) {
      return ctx->traffic.frames_sent[static_cast<size_t>(t)].load(
          std::memory_order_relaxed);
    };
    const auto bytes = [&](FrameType t) {
      return ctx->traffic.bytes_sent[static_cast<size_t>(t)].load(
          std::memory_order_relaxed);
    };
    js.data_frames += frames(FrameType::kData);
    js.data_bytes += bytes(FrameType::kData);
    js.progress_frames += frames(FrameType::kProgress) + frames(FrameType::kProgressAcc);
    js.progress_bytes += bytes(FrameType::kProgress) + bytes(FrameType::kProgressAcc);
    js.torn_down = js.torn_down || torn;
    agg_.progress_cross_scope_bytes += ctx->router->cross_scope_update_bytes();
    agg_.progress_in_scope_bytes += ctx->router->in_scope_update_bytes();
    const ProgressTrackerStats s = ctx->ctl->tracker().Stats();
    agg_.progress_boundary_bytes += s.boundary_update_bytes;
    agg_.progress_boundary_updates += s.boundary_updates;
    agg_.occ_map_peak += s.occ_map_peak;
    agg_.occ_map_peak_root += s.occ_map_peak_root;
    if (opts_.obs.metrics) {
      // The job's workers are quiescent (detached by Stop above) and its blocks are
      // final; merge them now so the context can be dropped.
      ctx->ctl->obs().metrics().AccumulateInto(snapshot_builder_, ps.pid);
    }
    if (opts_.obs.tracing && !opts_.obs.trace_path.empty()) {
      ps.done_ctxs.push_back(ctx);  // keep the job's trace rings alive for the epilogue
    }
    ++retired_count_[ctx->id];
  }
  done_cv_.notify_all();
}

ClusterStats JobServer::Stop() {
  NAIAD_CHECK(started_ && !stopped_);
  stopped_ = true;
  // Tear down whatever is still running, then wait for every job ever submitted.
  std::vector<JobId> ids;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    for (const auto& [id, body] : registry_) {
      ids.push_back(id);
    }
  }
  for (JobId id : ids) {
    bool done;
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done = retired_count_[id] == opts_.processes;
    }
    if (!done) {
      Teardown(id);
    }
  }
  for (JobId id : ids) {
    Wait(id);
  }
  for (auto& ps : procs_) {
    ps->pool.reset();
  }
  for (auto& ps : procs_) {
    std::lock_guard<std::mutex> lock(ps->drivers_mu);
    for (std::thread& t : ps->drivers) {
      t.join();
    }
  }
  for (auto& ps : procs_) {
    ps->transport->StopInjectedResets();
  }
  for (auto& ps : procs_) {
    ps->transport->Shutdown();
  }

  ClusterStats stats;
  stats.elapsed_seconds = sw_.ElapsedSeconds();
  for (auto& ps : procs_) {
    const TcpTransport& t = *ps->transport;
    stats.progress_bytes +=
        t.bytes_sent(FrameType::kProgress) + t.bytes_sent(FrameType::kProgressAcc);
    stats.progress_frames +=
        t.frames_sent(FrameType::kProgress) + t.frames_sent(FrameType::kProgressAcc);
    stats.data_bytes += t.bytes_sent(FrameType::kData);
    stats.data_frames += t.frames_sent(FrameType::kData);
    stats.reconnects += t.reconnects();
    stats.duplicate_frames_dropped += t.recv_dup_frames();
    stats.heartbeats_sent += t.heartbeats_sent();
    stats.heartbeats_received += t.heartbeats_received();
    stats.peers_declared_down += t.peers_declared_down();
    stats.credit_stalls += t.credit_stalls();
    stats.frames_shed += t.frames_shed();
    stats.send_queue_hwm_bytes = std::max(stats.send_queue_hwm_bytes,
                                          t.send_queue_hwm_bytes());
    stats.stray_frames_dropped += ps->stray_dropped.load(std::memory_order_relaxed);
    stats.stash_overflow_drops += ps->stash_drops.load(std::memory_order_relaxed);
    {
      // Stash entries that never found their job (junk ids under the quota) are strays.
      std::lock_guard<std::mutex> lock(ps->stash_mu);
      for (const auto& [id, s] : ps->stash) {
        stats.stray_frames_dropped += s.frames.size();
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    stats.progress_cross_scope_bytes = agg_.progress_cross_scope_bytes;
    stats.progress_in_scope_bytes = agg_.progress_in_scope_bytes;
    stats.progress_boundary_bytes = agg_.progress_boundary_bytes;
    stats.progress_boundary_updates = agg_.progress_boundary_updates;
    stats.occ_map_peak = agg_.occ_map_peak;
    stats.occ_map_peak_root = agg_.occ_map_peak_root;
    for (const auto& [id, js] : job_stats_) {
      stats.jobs.push_back(js);
    }
    // Observability epilogue: every host, driver, sender, and receiver thread has been
    // joined, so the remaining blocks and rings are quiescent. Job metrics were merged at
    // retirement; the server-level blocks (links, process counters) merge here.
    if (opts_.obs.metrics) {
      for (uint32_t p = 0; p < opts_.processes; ++p) {
        procs_[p]->obs->metrics().AccumulateInto(snapshot_builder_, p);
      }
      stats.obs = snapshot_builder_.Finalize();
    }
    if (opts_.obs.tracing && !opts_.obs.trace_path.empty()) {
      // One combined file. Server-level tracers (send/recv rings) keep pid = process id;
      // job tracers (worker rings) get pid = 1000 * job + process id, so two tracers
      // under one pid never collide tids (job ids start at 1).
      std::vector<std::pair<uint32_t, const obs::Tracer*>> parts;
      for (uint32_t p = 0; p < opts_.processes; ++p) {
        parts.emplace_back(p, &procs_[p]->obs->tracer());
      }
      for (uint32_t p = 0; p < opts_.processes; ++p) {
        for (const auto& ctx : procs_[p]->done_ctxs) {
          parts.emplace_back(1000 * ctx->id + p, &ctx->ctl->obs().tracer());
        }
      }
      obs::Tracer::WriteFile(opts_.obs.trace_path, parts);
    }
  }
  return stats;
}

}  // namespace naiad
