// The typed graph-assembly layer (§4.3): streams, stages, outlets, and the graph builder.
//
// A *stage* is a collection of identically-programmed vertices; a *stream* is one output
// port of a stage, carrying records of one C++ type at one loop depth. Connecting a stream
// to a stage input creates a connector, optionally with a partitioning function — the
// system then routes each record to `partition(rec) % parallelism` (§3.1; no re-hashing, so
// a partitioner that needs mixing applies it itself). Without one, records stay local.
//
// Vertices subclass one of the typed bases (UnaryVertex, BinaryVertex, Unary2Vertex,
// SinkVertex), which expose the paper's OnRecv/OnNotify/SendBy/NotifyAt programming model
// with batched OnRecv for efficiency.

#ifndef SRC_CORE_STAGE_H_
#define SRC_CORE_STAGE_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/core/controller.h"
#include "src/core/graph.h"
#include "src/core/timestamp.h"
#include "src/core/vertex.h"
#include "src/core/work_item.h"
#include "src/core/worker.h"
#include "src/ser/codec.h"

namespace naiad {

template <typename T>
using Partitioner = std::function<uint64_t(const T&)>;

template <typename T>
using DeliverFn = std::function<void(VertexBase*, const Timestamp&, std::vector<T>&&)>;

// ------------------------------------------------------------------------------------
// Typed work item.
// ------------------------------------------------------------------------------------

template <typename T>
class DataItem final : public WorkItemBase {
 public:
  DataItem(ConnectorId ch, const Timestamp& t, VertexBase* target, const DeliverFn<T>* deliver,
           std::vector<T> recs)
      : WorkItemBase(ch, t, static_cast<int64_t>(recs.size()), target),
        deliver_(deliver),
        recs_(std::move(recs)) {}

  void Run() override { (*deliver_)(target(), time(), std::move(recs_)); }

 private:
  const DeliverFn<T>* deliver_;
  std::vector<T> recs_;
};

// ------------------------------------------------------------------------------------
// Controller::RouteBundle (declared in controller.h).
// ------------------------------------------------------------------------------------

template <typename T>
void Controller::RouteBundle(ConnectorId ch, uint32_t dst_vertex, const Timestamp& t,
                             std::vector<T>&& recs, ProgressBuffer& progress, Worker* src) {
  if (recs.empty()) {
    return;
  }
  const ConnectorDef& def = graph_.connector(ch);
  progress.Add(Pointstamp{t, Location::Connector(ch)}, static_cast<int64_t>(recs.size()));
  const uint32_t gw = GlobalWorkerOfVertex(dst_vertex);
  const uint32_t proc = ProcessOfGlobalWorker(gw);
  if (proc == cfg_.process_id) {
    VertexBase* target = LocalVertex(def.dst, dst_vertex);
    NAIAD_CHECK(target != nullptr);
    const auto* deliver = std::any_cast<DeliverFn<T>>(&def.deliver);
    NAIAD_CHECK(deliver != nullptr);
    auto item = std::make_unique<DataItem<T>>(ch, t, target, deliver, std::move(recs));
    Worker* w = workers_[gw % cfg_.workers_per_process].get();
    if (w == src) {
      const StageDef& dst_stage = graph_.stage(def.dst);
      if (dst_stage.reentrancy > src->reentry_depth()) {
        src->RunNested(std::move(item));  // bounded re-entrancy (§3.2)
      } else {
        src->EnqueueLocal(std::move(item));
      }
    } else {
      w->EnqueueExternal(std::move(item));
    }
  } else {
    NAIAD_CHECK(def.encode_batch != nullptr)
        << "connector " << ch << " carries a non-serializable type across processes";
    NAIAD_CHECK(transport_ != nullptr);
    const int64_t count = static_cast<int64_t>(recs.size());
    ByteWriter w;
    w.WriteU32(ch);
    w.WriteU32(dst_vertex);
    t.Encode(w);
    def.encode_batch(w, &recs);
    data_bytes_sent.fetch_add(w.size(), std::memory_order_relaxed);
    data_bundles_sent.fetch_add(1, std::memory_order_relaxed);
    if (send_tap_) {
      // The tap (selective recovery's outbound logger) appends the frame to its durable
      // per-destination log and forwards it to the transport under one lock, so the log's
      // record order equals the link's sequence numbering.
      send_tap_(proc, ch, t, count, std::move(w.buffer()));
    } else {
      transport_->SendBundle(proc, std::move(w.buffer()));
    }
  }
}

// ------------------------------------------------------------------------------------
// Outlet: a vertex's typed output port with per-destination buffering (SendBy; §2.2).
//
// The routing buffers are flat per-route × per-destination arrays. Since a callback
// overwhelmingly sends at one (adjusted) timestamp, the outlet keeps a single-entry
// timestamp cache and flushes everything on a miss rather than keying buffers by time.
// Buffers reserve(batch_size) on first use; fan-out copies records into every route but
// the last, which takes them by move. SendBatch moves a batch whole when a route sends all
// of it to one destination with nothing buffered, and buckets it per record otherwise.
// ------------------------------------------------------------------------------------

template <typename T>
class Outlet {
 public:
  // One attached connector.
  struct Route {
    ConnectorId ch = 0;
    uint32_t dst_parallelism = 1;
    const Partitioner<T>* partitioner = nullptr;  // null: keep local
  };

  void Configure(Controller* ctl, VertexBase* v, TimestampAction action,
                 uint64_t feedback_limit) {
    ctl_ = ctl;
    vertex_ = v;
    action_ = action;
    feedback_limit_ = feedback_limit;
    batch_size_ = ctl->config().batch_size;
  }
  void AddRoute(Route r) {
    routes_.push_back(r);
    RouteBuffers rb;
    rb.by_dst.resize(r.dst_parallelism);
    // Destination dispatch is decided once here, not per record: a route with no
    // partitioner always targets the vertex-aligned destination, one destination needs
    // no partitioning at all, and a power-of-two parallelism partitions with a mask
    // instead of a hardware divide.
    if (r.partitioner == nullptr) {
      rb.const_dstv =
          static_cast<int64_t>(vertex_->address().index % r.dst_parallelism);
    } else if (r.dst_parallelism == 1) {
      rb.const_dstv = 0;
    } else if ((r.dst_parallelism & (r.dst_parallelism - 1)) == 0) {
      rb.mask = r.dst_parallelism - 1;
    }
    bufs_.push_back(std::move(rb));
  }
  bool wired() const { return ctl_ != nullptr; }
  size_t route_count() const { return routes_.size(); }

  // SendBy(e, m, t): buffers `rec` for delivery at (the stage-action-adjusted) time t.
  void Send(const Timestamp& t, const T& rec) { SendImpl(t, rec); }
  void Send(const Timestamp& t, T&& rec) { SendImpl(t, std::move(rec)); }

  void SendBatch(const Timestamp& t, std::vector<T>&& recs) {
    if (recs.empty()) {
      return;
    }
    Timestamp adj = Adjust(t);
    if (Dropped(adj)) {
      return;
    }
    CheckNotPast(t);
    for (uint32_t i = 0; i < routes_.size(); ++i) {
      // Per route: a moved bundle may re-enter this vertex (§3.2) and retarget the cache.
      SwitchTime(adj);
      const bool last = i + 1 == routes_.size();
      const int64_t dstv = SoleDest(i, recs);
      if (dstv >= 0 && bufs_[i].by_dst[dstv].empty()) {
        ctl_->RouteBundle<T>(routes_[i].ch, static_cast<uint32_t>(dstv), adj,
                             last ? std::move(recs) : std::vector<T>(recs),
                             vertex_->worker().progress(), &vertex_->worker());
      } else {
        for (T& rec : recs) {
          Append(i, last ? std::move(rec) : T(rec));  // copy for all routes but the last
        }
      }
    }
  }

  void Flush() { FlushAll(); }

 private:
  // Buffered records for one route, indexed by destination vertex. `active` lists the
  // destinations with buffered records in first-use order, so a flush never scans the
  // (possibly wide) destination array. `const_dstv` / `mask` carry the destination
  // dispatch precomputed in AddRoute.
  struct RouteBuffers {
    std::vector<std::vector<T>> by_dst;
    std::vector<uint32_t> active;
    int64_t const_dstv = -1;  // >= 0: every record goes to this destination
    uint32_t mask = 0;        // nonzero: dst = key & mask (power-of-two parallelism)
  };

  uint32_t DestOf(const RouteBuffers& rb, uint32_t route_idx, const T& rec) const {
    if (rb.const_dstv >= 0) {
      return static_cast<uint32_t>(rb.const_dstv);
    }
    const Route& r = routes_[route_idx];
    const uint64_t key = (*r.partitioner)(rec);
    return rb.mask != 0 ? static_cast<uint32_t>(key & rb.mask)
                        : static_cast<uint32_t>(key % r.dst_parallelism);
  }

  // The one destination of every record in `recs` on a route, or -1; stops at a mismatch.
  int64_t SoleDest(uint32_t route_idx, const std::vector<T>& recs) const {
    const RouteBuffers& rb = bufs_[route_idx];
    if (rb.const_dstv >= 0) {
      return rb.const_dstv;
    }
    const uint32_t first = DestOf(rb, route_idx, recs.front());
    for (const T& rec : recs) {
      if (DestOf(rb, route_idx, rec) != first) {
        return -1;
      }
    }
    return first;
  }

  template <typename U>
  void SendImpl(const Timestamp& t, U&& rec) {
    NAIAD_DCHECK(wired());
    Timestamp adj = Adjust(t);
    if (Dropped(adj)) {
      return;
    }
    CheckNotPast(t);
    if (routes_.empty()) {
      return;
    }
    SwitchTime(adj);
    const uint32_t last = static_cast<uint32_t>(routes_.size()) - 1;
    for (uint32_t i = 0; i < last; ++i) {
      Append(i, T(rec));  // fan-out copy; the last route below consumes `rec`
    }
    Append(last, std::forward<U>(rec));
  }

  // All buffered records share cached_time_; a send at a different time flushes first
  // (single-entry timestamp cache — callbacks overwhelmingly send at one time).
  void SwitchTime(const Timestamp& adj) {
    if (has_time_ && adj == cached_time_) {
      return;
    }
    if (buffered_ > 0) {
      FlushAll();
    }
    cached_time_ = adj;
    has_time_ = true;
  }

  template <typename U>
  void Append(uint32_t route_idx, U&& rec) {
    RouteBuffers& rb = bufs_[route_idx];
    const uint32_t dstv = DestOf(rb, route_idx, rec);
    std::vector<T>& buf = rb.by_dst[dstv];
    if (buf.empty()) {
      rb.active.push_back(dstv);
      if (buf.capacity() == 0) {
        buf.reserve(batch_size_);
      }
    }
    buf.push_back(std::forward<U>(rec));
    ++buffered_;
    if (buf.size() >= batch_size_) {
      FlushOne(route_idx, dstv);
    }
  }

  void FlushOne(uint32_t route_idx, uint32_t dstv) {
    RouteBuffers& rb = bufs_[route_idx];
    // Detach before routing: RouteBundle may re-enter this vertex (§3.2) and send.
    std::vector<T> recs = std::move(rb.by_dst[dstv]);
    rb.by_dst[dstv].clear();
    std::erase(rb.active, dstv);
    if (recs.empty()) {
      return;
    }
    buffered_ -= recs.size();
    const Timestamp t = cached_time_;  // re-entrant sends may retarget the cache
    ctl_->RouteBundle<T>(routes_[route_idx].ch, dstv, t, std::move(recs),
                         vertex_->worker().progress(), &vertex_->worker());
  }

  void FlushAll() {
    has_time_ = false;
    if (buffered_ == 0) {
      return;
    }
    buffered_ = 0;
    const Timestamp t = cached_time_;
    // Detach every pending buffer first: RouteBundle may re-enter this vertex
    // (re-entrancy, §3.2) and buffer new records mid-flush.
    struct Pending {
      uint32_t route;
      uint32_t dstv;
      std::vector<T> recs;
    };
    std::vector<Pending> pending;
    for (uint32_t i = 0; i < routes_.size(); ++i) {
      RouteBuffers& rb = bufs_[i];
      for (uint32_t dstv : rb.active) {
        pending.push_back(Pending{i, dstv, std::move(rb.by_dst[dstv])});
        rb.by_dst[dstv].clear();
      }
      rb.active.clear();
    }
    for (Pending& p : pending) {
      if (p.recs.empty()) {
        continue;
      }
      ctl_->RouteBundle<T>(routes_[p.route].ch, p.dstv, t, std::move(p.recs),
                           vertex_->worker().progress(), &vertex_->worker());
    }
  }

  Timestamp Adjust(const Timestamp& t) const {
    switch (action_) {
      case TimestampAction::kNone:
        return t;
      case TimestampAction::kIngress:
        return t.Pushed(0);
      case TimestampAction::kEgress:
        return t.Popped();
      case TimestampAction::kFeedback:
        return t.Incremented();
    }
    NAIAD_CHECK(false);
    return t;
  }

  bool Dropped(const Timestamp& adj) const {
    return action_ == TimestampAction::kFeedback && feedback_limit_ != 0 &&
           adj.coords.back() >= feedback_limit_;
  }

  void CheckNotPast(const Timestamp& t) const {
    NAIAD_CHECK(!vertex_->worker().in_purge())
        << "purge callbacks have capability top and cannot send (§2.4)";
#ifndef NDEBUG
    if (const Timestamp* now = vertex_->worker().current_time();
        now != nullptr && now->depth() == t.depth()) {
      NAIAD_DCHECK(Timestamp::PartialLeq(*now, t));  // §2.2: no sends into the past
    }
#endif
  }

  Controller* ctl_ = nullptr;
  VertexBase* vertex_ = nullptr;
  TimestampAction action_ = TimestampAction::kNone;
  uint64_t feedback_limit_ = 0;
  std::vector<Route> routes_;
  std::vector<RouteBuffers> bufs_;  // parallel to routes_
  Timestamp cached_time_;
  bool has_time_ = false;
  size_t buffered_ = 0;  // total records across all route buffers, all at cached_time_
  size_t batch_size_ = 4096;  // cached from Config in Configure()
};

// ------------------------------------------------------------------------------------
// Typed vertex base classes.
// ------------------------------------------------------------------------------------

template <typename TIn, typename TOut>
class UnaryVertex : public VertexBase {
 public:
  using InputType = TIn;
  using OutputType = TOut;
  virtual void OnRecv(const Timestamp& t, std::vector<TIn>& batch) = 0;
  Outlet<TOut>& output() { return output_; }
  void FlushOutputs() override { output_.Flush(); }

 private:
  Outlet<TOut> output_;
};

template <typename TIn1, typename TIn2, typename TOut>
class BinaryVertex : public VertexBase {
 public:
  virtual void OnRecv1(const Timestamp& t, std::vector<TIn1>& batch) = 0;
  virtual void OnRecv2(const Timestamp& t, std::vector<TIn2>& batch) = 0;
  Outlet<TOut>& output() { return output_; }
  void FlushOutputs() override { output_.Flush(); }

 private:
  Outlet<TOut> output_;
};

template <typename TIn, typename TOut1, typename TOut2>
class Unary2Vertex : public VertexBase {
 public:
  virtual void OnRecv(const Timestamp& t, std::vector<TIn>& batch) = 0;
  Outlet<TOut1>& output1() { return output1_; }
  Outlet<TOut2>& output2() { return output2_; }
  void FlushOutputs() override {
    output1_.Flush();
    output2_.Flush();
  }

 private:
  Outlet<TOut1> output1_;
  Outlet<TOut2> output2_;
};

template <typename TIn1, typename TIn2, typename TOut1, typename TOut2>
class Binary2Vertex : public VertexBase {
 public:
  virtual void OnRecv1(const Timestamp& t, std::vector<TIn1>& batch) = 0;
  virtual void OnRecv2(const Timestamp& t, std::vector<TIn2>& batch) = 0;
  Outlet<TOut1>& output1() { return output1_; }
  Outlet<TOut2>& output2() { return output2_; }
  void FlushOutputs() override {
    output1_.Flush();
    output2_.Flush();
  }

 private:
  Outlet<TOut1> output1_;
  Outlet<TOut2> output2_;
};

template <typename TIn>
class SinkVertex : public VertexBase {
 public:
  using InputType = TIn;
  virtual void OnRecv(const Timestamp& t, std::vector<TIn>& batch) = 0;
};

// ------------------------------------------------------------------------------------
// Streams and the graph builder.
// ------------------------------------------------------------------------------------

template <typename T>
struct Stream {
  StageId stage = 0;
  uint32_t port = 0;
  uint32_t depth = 0;
  class GraphBuilder* builder = nullptr;

  bool valid() const { return builder != nullptr; }
};

struct StageOptions {
  std::string name;
  uint32_t depth = 0;
  TimestampAction action = TimestampAction::kNone;
  uint32_t parallelism = 0;  // 0: controller default (one vertex per worker)
  uint32_t reentrancy = 0;
  uint64_t feedback_limit = 0;
  std::vector<Timestamp> initial_notifications;
};

class GraphBuilder {
 public:
  explicit GraphBuilder(Controller& ctl) : ctl_(&ctl) {}

  Controller& controller() { return *ctl_; }
  LogicalGraph& graph() { return ctl_->graph(); }

  // Creates a stage whose vertices are produced by `make(index)`. V must be a typed vertex
  // base subclass; its outlets are wired automatically.
  template <typename V>
  StageId NewStage(StageOptions opts, std::function<std::unique_ptr<V>(uint32_t)> make) {
    StageDef def;
    def.name = std::move(opts.name);
    def.depth = opts.depth;
    def.action = opts.action;
    def.parallelism =
        opts.parallelism != 0 ? opts.parallelism : ctl_->default_parallelism();
    def.reentrancy = opts.reentrancy;
    def.feedback_limit = opts.feedback_limit;
    def.initial_notifications = std::move(opts.initial_notifications);
    def.factory = [make = std::move(make)](Controller*, uint32_t index) {
      return std::unique_ptr<VertexBase>(make(index));
    };
    StageId sid = graph().AddStage(std::move(def));
    graph().mutable_stage(sid).wire_outputs = [sid](Controller* c, VertexBase* vb) {
      WireVertexOutputs(c, sid, static_cast<V*>(vb));
    };
    return sid;
  }

  // Names the output port `port` of stage `sid` as a stream of TOut records.
  template <typename TOut>
  Stream<TOut> OutputOf(StageId sid, uint32_t port = 0) {
    const StageDef& def = graph().stage(sid);
    return Stream<TOut>{sid, port, def.output_depth(), this};
  }

  // Connects `s` to input port `dst_port` of stage `dst` (whose vertex class is V),
  // exchanging records by `part` when provided.
  template <typename V, typename T>
  ConnectorId Connect(const Stream<T>& s, StageId dst, uint32_t dst_port = 0,
                      Partitioner<T> part = nullptr) {
    NAIAD_CHECK(s.builder == this);
    ConnectorDef def;
    def.src = s.stage;
    def.src_port = s.port;
    def.dst = dst;
    def.dst_port = dst_port;
    if (part) {
      def.partitioner = std::move(part);
    }
    def.deliver = MakeDeliver<V, T>(dst_port);
    if constexpr (Encodable<T>) {
      def.encode_batch = [](ByteWriter& w, const void* batch) {
        Codec<std::vector<T>>::Encode(w, *static_cast<const std::vector<T>*>(batch));
      };
      ConnectorId pending_id = graph().num_connectors();
      def.decode_batch = [ctl = ctl_, pending_id](ByteReader& r, const Timestamp& t,
                                                  VertexBase* target)
          -> std::unique_ptr<WorkItemBase> {
        std::vector<T> recs;
        if (!Codec<std::vector<T>>::Decode(r, recs)) {
          return nullptr;
        }
        const auto* deliver =
            std::any_cast<DeliverFn<T>>(&ctl->graph().connector(pending_id).deliver);
        return std::make_unique<DataItem<T>>(pending_id, t, target, deliver,
                                             std::move(recs));
      };
    }
    return graph().AddConnector(std::move(def));
  }

  // Wires one vertex's outlets to the connectors attached to the stage's output ports.
  template <typename V>
  static void WireVertexOutputs(Controller* c, StageId sid, V* v) {
    if constexpr (requires { v->output(); }) {
      WireOutlet(c, sid, 0, v->output(), v);
    }
    if constexpr (requires { v->output1(); }) {
      WireOutlet(c, sid, 0, v->output1(), v);
      WireOutlet(c, sid, 1, v->output2(), v);
    }
  }

 private:
  // Picks the typed callback matching (vertex class, record type, input port). Binary
  // vertices may have differently-typed ports, so each arm is checked independently.
  template <typename V, typename T>
  static DeliverFn<T> MakeDeliver(uint32_t dst_port) {
    if (dst_port == 0) {
      if constexpr (requires(V v, const Timestamp& t, std::vector<T>& b) { v.OnRecv(t, b); }) {
        return [](VertexBase* vb, const Timestamp& t, std::vector<T>&& recs) {
          static_cast<V*>(vb)->OnRecv(t, recs);
        };
      } else if constexpr (requires(V v, const Timestamp& t, std::vector<T>& b) {
                             v.OnRecv1(t, b);
                           }) {
        return [](VertexBase* vb, const Timestamp& t, std::vector<T>&& recs) {
          static_cast<V*>(vb)->OnRecv1(t, recs);
        };
      } else {
        NAIAD_CHECK(false) << "vertex has no OnRecv/OnRecv1 taking this record type";
        return nullptr;
      }
    }
    NAIAD_CHECK(dst_port == 1);
    if constexpr (requires(V v, const Timestamp& t, std::vector<T>& b) { v.OnRecv2(t, b); }) {
      return [](VertexBase* vb, const Timestamp& t, std::vector<T>&& recs) {
        static_cast<V*>(vb)->OnRecv2(t, recs);
      };
    } else {
      NAIAD_CHECK(false) << "vertex has no OnRecv2 taking this record type";
      return nullptr;
    }
  }

  template <typename T>
  static void WireOutlet(Controller* c, StageId sid, uint32_t port, Outlet<T>& outlet,
                         VertexBase* v) {
    const StageDef& def = c->graph().stage(sid);
    outlet.Configure(c, v, def.action, def.feedback_limit);
    if (port >= def.outputs.size()) {
      return;
    }
    for (ConnectorId ch : def.outputs[port]) {
      const ConnectorDef& cd = c->graph().connector(ch);
      typename Outlet<T>::Route r;
      r.ch = ch;
      r.dst_parallelism = c->graph().stage(cd.dst).parallelism;
      r.partitioner = std::any_cast<Partitioner<T>>(&cd.partitioner);
      outlet.AddRoute(r);
    }
  }

  Controller* ctl_;
};

}  // namespace naiad

#endif  // SRC_CORE_STAGE_H_
