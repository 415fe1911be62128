// The per-process runtime (§3): owns the logical graph, the physical vertices of this
// process, its workers (driven by a HostPool), and the progress tracker. In distributed
// mode (src/net) one Controller instance exists per process and they are linked by a
// DataTransport and a distributed ProgressRouter; the single-process defaults keep
// everything in memory.

#ifndef SRC_CORE_CONTROLLER_H_
#define SRC_CORE_CONTROLLER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/base/event_count.h"
#include "src/core/graph.h"
#include "src/core/host_pool.h"
#include "src/core/progress.h"
#include "src/core/vertex.h"
#include "src/core/worker.h"
#include "src/obs/obs.h"

namespace naiad {

struct Config {
  uint32_t workers_per_process = 2;
  uint32_t process_id = 0;
  uint32_t processes = 1;
  // Default stage parallelism; 0 means one vertex per worker across the cluster.
  uint32_t default_parallelism = 0;
  // Records buffered per (connector, destination, time) before an eager flush.
  size_t batch_size = 4096;
  // Observability: metrics registry and event tracer (both default-off). When
  // obs.trace_path is nonempty, Stop() writes this process's trace there; cluster runs
  // clear it per-process and write one combined file instead.
  obs::ObsOptions obs;
  // The pool whose workers_per_process host threads drive the workers, and whose event
  // the tracker and every wait use (the job server shares one per process). Null: Start()
  // creates a private pool and Stop() joins it.
  HostPool* host_pool = nullptr;
};

// Ships serialized record bundles to peer processes; implemented by src/net.
class DataTransport {
 public:
  virtual ~DataTransport() = default;
  virtual void SendBundle(uint32_t dst_process, std::vector<uint8_t> frame) = 0;
};

class Controller {
 public:
  explicit Controller(Config cfg = {});
  ~Controller();
  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  LogicalGraph& graph() { return graph_; }
  const LogicalGraph& graph() const { return graph_; }
  ProgressTracker& tracker() { return tracker_; }
  EventCount& event() { return cfg_.host_pool ? cfg_.host_pool->event() : event_; }
  const Config& config() const { return cfg_; }

  uint32_t total_workers() const { return cfg_.processes * cfg_.workers_per_process; }
  uint32_t default_parallelism() const {
    return cfg_.default_parallelism != 0 ? cfg_.default_parallelism : total_workers();
  }
  bool started() const { return started_; }

  // Freezes the graph, instantiates this process's vertices, seeds the initial pointstamps
  // (§2.3: one per input stage at epoch 0), attaches the controller to its host pool, and
  // last runs the start hook. No peer frame may reach the controller before Start().
  void Start();
  // Start with worker execution gated: the pause flag is armed before the pool attaches,
  // so workers park before running anything. Selective recovery boots every rebuilt
  // process this way while the cluster exchanges its progress-seed contributions — an
  // empty tracker would otherwise fire restored notifications the moment a worker ran.
  // Resume() releases the workers once all seeds are applied.
  void StartPaused() {
    pause_.store(true, std::memory_order_release);
    Start();
  }
  // Waits until the computation has drained (all inputs closed, no active pointstamps),
  // runs the quiesce hook if any (distributed termination barrier), then stops workers.
  // A cancelled controller skips the hook: a torn-down job must not wait on a barrier
  // its peers will never complete.
  void Join();
  // Detaches from the host pool, then delivers every remaining purge on this thread.
  // Idempotent. Never call it holding the job server's jobs_mu (HostPool's lock order).
  void Stop();

  // Job teardown: unblocks Join() without waiting for the computation to drain. Join
  // parks on the tracker's drained edge; a job body's own tracker WaitFor with
  // `cancelled()` in its predicate parks on the host event. Both are woken.
  void RequestCancel() {
    cancelled_.store(true, std::memory_order_release);
    tracker_.WakeDrainWaiters();
    event().NotifyAll();
  }
  bool cancelled() const { return cancelled_.load(std::memory_order_acquire); }

  Worker& worker(uint32_t local_index) { return *workers_[local_index]; }
  VertexBase* LocalVertex(StageId s, uint32_t index);

  uint32_t GlobalWorkerOfVertex(uint32_t vertex_index) const {
    return vertex_index % total_workers();
  }
  uint32_t ProcessOfGlobalWorker(uint32_t gw) const { return gw / cfg_.workers_per_process; }
  bool VertexIsLocal(uint32_t vertex_index) const {
    return ProcessOfGlobalWorker(GlobalWorkerOfVertex(vertex_index)) == cfg_.process_id;
  }

  // Routes one bundle to its destination vertex: same worker (queued or re-entrant), peer
  // worker (inbox), or peer process (serialized frame). Buffers the +count progress update
  // for (t, connector) into `progress`. Defined in stage.h (needs DataItem<T>).
  template <typename T>
  void RouteBundle(ConnectorId ch, uint32_t dst_vertex, const Timestamp& t,
                   std::vector<T>&& recs, ProgressBuffer& progress, Worker* src);

  // Called by the network receive path with a frame produced by RouteBundle's remote arm.
  void ReceiveRemoteBundle(std::span<const uint8_t> frame);

  // Decodes a RouteBundle frame far enough to learn its record count and retires its
  // pointstamp (−count broadcast through the progress router) WITHOUT delivering the
  // records. Selective recovery uses this for replayed frames a survivor's transport
  // dedup dropped: their +count was broadcast by the replaying sender, so someone must
  // account the retirement the delivery would have produced.
  void DiscardRemoteBundle(std::span<const uint8_t> frame);

  // When set (before Start), RouteBundle's remote arm hands each outbound frame to the
  // tap instead of calling transport->SendBundle directly. The tap owns the ordering
  // contract of selective recovery's outbound logs: it must append the frame to the
  // per-destination log and enqueue it on the transport under one lock, so log order
  // always equals the link's data sequence numbering.
  using SendTap = std::function<void(uint32_t dst_process, ConnectorId ch,
                                     const Timestamp& t, int64_t count,
                                     std::vector<uint8_t>&& frame)>;
  void SetSendTap(SendTap tap) { send_tap_ = std::move(tap); }

  // The observability runtime — always constructed (cheap no-op objects when disabled),
  // so workers and the transport can hold unconditional pointers into it.
  obs::Obs& obs() const { return *obs_; }

  ProgressRouter& progress_router() { return *progress_router_; }
  void SetProgressRouter(ProgressRouter* router) { progress_router_ = router; }
  void SetDataTransport(DataTransport* transport) { transport_ = transport; }
  void SetQuiesceHook(std::function<void()> hook) { quiesce_hook_ = std::move(hook); }
  // Runs at the end of Start(), on the starting thread. The job server opens the job's
  // frame gate here.
  void SetStartHook(std::function<void()> hook) { start_hook_ = std::move(hook); }

  void RegisterInputStage(StageId s) {
    input_stages_.push_back(s);
    local_input_state_[s] = LocalInputState{};
  }
  const std::vector<StageId>& input_stages() const { return input_stages_; }

  // This process's OWN producer position for an input stage, maintained by its
  // InputHandle. Checkpointing must read the position here rather than from the
  // tracker's active pointstamps: the tracker holds the cluster-wide view, and at a
  // selective-recovery stall a dead peer's open-input pointstamp (at an older epoch) is
  // still active — indistinguishable from ours by location alone. Driven only by the
  // feed thread, which is also the thread that checkpoints.
  struct LocalInputState {
    uint64_t next_epoch = 0;
    bool closed = false;
  };
  void NoteLocalInputEpoch(StageId s, uint64_t next_epoch, bool closed) {
    local_input_state_[s] = LocalInputState{next_epoch, closed};
  }
  LocalInputState local_input_state(StageId s) const {
    auto it = local_input_state_.find(s);
    NAIAD_CHECK(it != local_input_state_.end()) << "not an input stage: " << s;
    return it->second;
  }

  // Enumerates this process's vertices (stable order). Valid after Start().
  std::vector<std::pair<VertexAddress, VertexBase*>> LocalVertices() const;

  // Fault tolerance: when set (before Start), replaces the default initial pointstamps and
  // initial notifications with the override's — used to boot from a checkpoint (§3.4).
  void SetStartOverride(std::function<void(Controller&, ProgressBuffer&)> f) {
    start_override_ = std::move(f);
  }
  // Keeps typed helper objects (input handles, subscribe state) alive with the controller.
  void KeepAlive(std::shared_ptr<void> holder) { holders_.push_back(std::move(holder)); }

  // Checkpoint support (§3.4): stop delivering notifications, drain all queued messages,
  // park the workers. Only meaningful when external producers are also quiet.
  void PauseAndDrain();
  void Resume();
  bool pause_requested() const { return pause_.load(std::memory_order_acquire); }

  // Pause bookkeeping (called by workers, at most once per park). Parking notifies so
  // PauseAndDrain can wait on the event instead of polling.
  void NoteWorkerParked() {
    parked_.fetch_add(1, std::memory_order_acq_rel);
    event().NotifyAll();
  }
  void NoteWorkerUnparked() { parked_.fetch_sub(1, std::memory_order_acq_rel); }

  // Local-quiescence probe for the cluster checkpoint barrier: no worker inbox holds an
  // undelivered item. Racy by nature — callers must re-check across barrier rounds (the
  // two-round stability rule) rather than trust one reading.
  bool InboxesEmpty() const;

  // Traffic statistics (Fig. 6a / 6c accounting).
  std::atomic<uint64_t> data_bytes_sent{0};
  std::atomic<uint64_t> data_bundles_sent{0};

 private:
  // Decodes a RouteBundle frame into a work item for its local target vertex.
  std::unique_ptr<WorkItemBase> DecodeRemoteBundle(std::span<const uint8_t> frame);

  Config cfg_;
  std::unique_ptr<obs::Obs> obs_;  // before workers_: they cache pointers into it
  LogicalGraph graph_;
  EventCount event_;
  ProgressTracker tracker_;
  LocalProgressRouter local_router_;
  ProgressRouter* progress_router_;
  DataTransport* transport_ = nullptr;
  std::function<void()> quiesce_hook_;
  std::function<void()> start_hook_;
  std::function<void(Controller&, ProgressBuffer&)> start_override_;
  SendTap send_tap_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<HostPool> own_pool_;  // the private pool when cfg_.host_pool is null
  HostPool* pool_ = nullptr;            // the pool this controller is attached to
  std::unordered_map<uint64_t, std::unique_ptr<VertexBase>> vertices_;
  std::vector<StageId> input_stages_;
  std::unordered_map<StageId, LocalInputState> local_input_state_;
  std::vector<std::shared_ptr<void>> holders_;

  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> pause_{false};
  std::atomic<uint32_t> parked_{0};
};

}  // namespace naiad

#endif  // SRC_CORE_CONTROLLER_H_
