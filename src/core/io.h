// Input and output stages (§2.1, §4.1): the push-based boundary of a computation.
//
// An input stage is a location in the logical graph standing for the external producer;
// the producer supplies one epoch of records per OnNext call and Close()s the input when
// finished. Under SPMD execution each process drives its own handle with its share of the
// data; epoch e completes globally once every process has advanced past e.
//
// Subscribe attaches a callback fired once per epoch with all of that epoch's records
// (delivered on completeness notification, §2.2); Probe exposes frontier queries so a
// driver thread can wait for an epoch to drain without consuming the data.

#ifndef SRC_CORE_IO_H_
#define SRC_CORE_IO_H_

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/stage.h"

namespace naiad {

template <typename T>
class InputHandle {
 public:
  InputHandle(Controller* ctl, StageId stage)
      : ctl_(ctl),
        stage_(stage),
        rr_cursor_(ctl->config().process_id * ctl->config().workers_per_process) {}

  uint64_t next_epoch() const { return next_epoch_; }
  bool closed() const { return closed_; }

  // Supplies this process's records for the next epoch and marks the epoch complete
  // (§2.1: the producer labels messages with an epoch and notifies the input when the
  // epoch is done; this API fuses the two, like the original's OnNext).
  void OnNext(std::vector<T> data) {
    NAIAD_CHECK(!closed_);
    NAIAD_CHECK(ctl_->started());
    const Timestamp t(next_epoch_);
    const StageDef& def = ctl_->graph().stage(stage_);
    const auto& fanout = def.outputs[0];
    for (size_t i = 0; i < fanout.size(); ++i) {
      std::vector<T> copy = (i + 1 == fanout.size()) ? std::move(data) : data;
      RouteRecords(fanout[i], t, std::move(copy));
    }
    // Open epoch e+1, then retire epoch e (§2.3's ordering), atomically with the +counts
    // for the records injected above.
    progress_.Add(Pointstamp{Timestamp(next_epoch_ + 1), Location::Stage(stage_)}, +1);
    progress_.Add(Pointstamp{t, Location::Stage(stage_)}, -1);
    ctl_->progress_router().Broadcast(progress_.Take());
    ctl_->event().NotifyAll();
    if (ctl_->obs().tracer().enabled()) {
      obs::Tracer& tr = ctl_->obs().tracer();
      tr.Control(obs::TraceKind::kEpochClose, stage_, next_epoch_, 0);
      tr.Control(obs::TraceKind::kEpochOpen, stage_, next_epoch_ + 1, 0);
    }
    ++next_epoch_;
    ctl_->NoteLocalInputEpoch(stage_, next_epoch_, closed_);
  }

  void OnNext() { OnNext(std::vector<T>{}); }

  // Streams a chunk of the *current* epoch without completing it: records are routed and
  // their +counts broadcast, but the epoch-(e)-open pointstamp at the input location is
  // untouched, so downstream completeness for e cannot fire until OnNext seals it. Lets a
  // driver feed a 10^8-record epoch through a bounded buffer (see PowerLawEdgeStream)
  // instead of materializing it for one OnNext call.
  void OnPartial(std::vector<T> data) {
    NAIAD_CHECK(!closed_);
    NAIAD_CHECK(ctl_->started());
    if (data.empty()) {
      return;
    }
    const Timestamp t(next_epoch_);
    const StageDef& def = ctl_->graph().stage(stage_);
    const auto& fanout = def.outputs[0];
    for (size_t i = 0; i < fanout.size(); ++i) {
      std::vector<T> copy = (i + 1 == fanout.size()) ? std::move(data) : data;
      RouteRecords(fanout[i], t, std::move(copy));
    }
    ctl_->progress_router().Broadcast(progress_.Take());
    ctl_->event().NotifyAll();
  }

  // Fault tolerance: fast-forward this handle to the epoch saved in a checkpoint image.
  // Only valid before any OnNext call on this handle (§3.4 restore path).
  void RestoreEpoch(uint64_t next_epoch, bool closed) {
    NAIAD_CHECK(next_epoch_ == 0 && !closed_);
    next_epoch_ = next_epoch;
    closed_ = closed;
    ctl_->NoteLocalInputEpoch(stage_, next_epoch_, closed_);
  }

  // §2.1: "close" the input — no more epochs; lets the computation drain and terminate.
  void OnCompleted() {
    NAIAD_CHECK(!closed_);
    NAIAD_CHECK(ctl_->started());
    closed_ = true;
    ctl_->NoteLocalInputEpoch(stage_, next_epoch_, closed_);
    progress_.Add(Pointstamp{Timestamp(next_epoch_), Location::Stage(stage_)}, -1);
    ctl_->progress_router().Broadcast(progress_.Take());
    ctl_->event().NotifyAll();
    if (ctl_->obs().tracer().enabled()) {
      ctl_->obs().tracer().Control(obs::TraceKind::kEpochClose, stage_, next_epoch_, 1);
    }
  }

 private:
  void RouteRecords(ConnectorId ch, const Timestamp& t, std::vector<T>&& recs) {
    if (recs.empty()) {
      return;
    }
    const ConnectorDef& def = ctl_->graph().connector(ch);
    const uint32_t parallelism = ctl_->graph().stage(def.dst).parallelism;
    const auto* part = std::any_cast<Partitioner<T>>(&def.partitioner);
    if (part != nullptr && parallelism == 1) {
      // One destination: the partition function cannot change the answer.
      ctl_->RouteBundle<T>(ch, 0, t, std::move(recs), progress_, nullptr);
    } else if (part != nullptr) {
      // Flat destination buckets (destination counts are small and dense); one pass to
      // bucket, one to ship — no per-record ordered-map lookup, and power-of-two
      // parallelism partitions with a mask instead of a divide.
      std::vector<std::vector<T>> by_dst(parallelism);
      const uint32_t mask =
          (parallelism & (parallelism - 1)) == 0 ? parallelism - 1 : 0;
      for (T& rec : recs) {
        const uint64_t key = (*part)(rec);
        const uint32_t dstv = mask != 0 ? static_cast<uint32_t>(key & mask)
                                        : static_cast<uint32_t>(key % parallelism);
        by_dst[dstv].push_back(std::move(rec));
      }
      for (uint32_t dstv = 0; dstv < parallelism; ++dstv) {
        if (!by_dst[dstv].empty()) {
          ctl_->RouteBundle<T>(ch, dstv, t, std::move(by_dst[dstv]), progress_, nullptr);
        }
      }
    } else {
      // Spread the epoch's records over the stage's vertices in contiguous chunks,
      // rotating the starting vertex across epochs.
      const uint32_t chunks =
          static_cast<uint32_t>(std::min<size_t>(parallelism, recs.size()));
      const size_t per = (recs.size() + chunks - 1) / chunks;
      for (uint32_t c = 0; c < chunks; ++c) {
        const size_t lo = c * per;
        const size_t hi = std::min(recs.size(), lo + per);
        if (lo >= hi) {
          break;
        }
        std::vector<T> chunk(std::make_move_iterator(recs.begin() + lo),
                             std::make_move_iterator(recs.begin() + hi));
        const uint32_t dstv = (rr_cursor_ + c) % parallelism;
        ctl_->RouteBundle<T>(ch, dstv, t, std::move(chunk), progress_, nullptr);
      }
      rr_cursor_ = (rr_cursor_ + chunks) % parallelism;
    }
  }

  Controller* ctl_;
  StageId stage_;
  uint64_t next_epoch_ = 0;
  bool closed_ = false;
  uint32_t rr_cursor_;
  ProgressBuffer progress_;
};

template <typename T>
struct InputPair {
  Stream<T> stream;
  std::shared_ptr<InputHandle<T>> handle;
};

// Creates an input stage (§4.1 step 1a).
template <typename T>
InputPair<T> NewInput(GraphBuilder& b, std::string name = "input") {
  StageDef def;
  def.name = std::move(name);
  def.is_input = true;
  def.parallelism = 1;  // no physical vertices; the location stands for the producer
  StageId sid = b.graph().AddStage(std::move(def));
  b.controller().RegisterInputStage(sid);
  auto handle = std::make_shared<InputHandle<T>>(&b.controller(), sid);
  b.controller().KeepAlive(handle);
  return InputPair<T>{Stream<T>{sid, 0, 0, &b}, handle};
}

// Frontier observation for a stage: has epoch e fully drained past it?
class Probe {
 public:
  Probe() = default;
  Probe(Controller* ctl, StageId stage) : ctl_(ctl), stage_(stage) {}

  bool Passed(uint64_t epoch) const {
    // Epoch probes are only meaningful at streaming-context depth; inner-loop stages'
    // pointstamps carry loop counters and need a full Timestamp to compare against.
    NAIAD_CHECK(ctl_->graph().stage(stage_).depth == 0)
        << "Probe::Passed requires a depth-0 stage";
    return ctl_->tracker().FrontierPassed(
        Pointstamp{Timestamp(epoch), Location::Stage(stage_)});
  }
  void WaitPassed(uint64_t epoch) const {
    ctl_->tracker().WaitFor([&] { return Passed(epoch); });
  }

  StageId stage_id() const { return stage_; }

 private:
  Controller* ctl_ = nullptr;
  StageId stage_ = 0;
};

template <typename T>
class SubscribeVertex final : public SinkVertex<T> {
 public:
  using Callback = std::function<void(uint64_t epoch, std::vector<T>&)>;
  explicit SubscribeVertex(Callback cb) : cb_(std::move(cb)) {}

  void OnRecv(const Timestamp& t, std::vector<T>& batch) override {
    auto [it, fresh] = pending_.try_emplace(t);
    if (fresh) {
      this->NotifyAt(t);
    }
    it->second.insert(it->second.end(), std::make_move_iterator(batch.begin()),
                      std::make_move_iterator(batch.end()));
  }

  void OnNotify(const Timestamp& t) override {
    auto it = pending_.find(t);
    if (it == pending_.end()) {
      return;
    }
    cb_(t.epoch, it->second);
    pending_.erase(it);
  }

 private:
  Callback cb_;
  std::map<Timestamp, std::vector<T>> pending_;
};

// §4.1 step 1c: invokes `cb(epoch, records)` once per completed epoch with data. All
// records converge on one vertex (worker 0 of process 0); the callback runs on that
// worker's thread. Returns a Probe on the subscribe stage for epoch-completion waits.
template <typename T>
Probe Subscribe(const Stream<T>& s, typename SubscribeVertex<T>::Callback cb) {
  GraphBuilder& b = *s.builder;
  NAIAD_CHECK(s.depth == 0);  // outputs live in the streaming context
  StageId sid = b.NewStage<SubscribeVertex<T>>(
      StageOptions{.name = "subscribe", .depth = 0, .parallelism = 1},
      [cb = std::move(cb)](uint32_t) { return std::make_unique<SubscribeVertex<T>>(cb); });
  b.Connect<SubscribeVertex<T>, T>(s, sid);
  return Probe(&b.controller(), sid);
}

// A data-parallel sink invoking `fn(t, batch)` on every delivered bundle, with no
// completeness coordination (useful for tests and asynchronous consumers).
template <typename T>
class ForEachVertex final : public SinkVertex<T> {
 public:
  using Fn = std::function<void(const Timestamp&, std::vector<T>&)>;
  explicit ForEachVertex(Fn fn) : fn_(std::move(fn)) {}
  void OnRecv(const Timestamp& t, std::vector<T>& batch) override { fn_(t, batch); }

 private:
  Fn fn_;
};

template <typename T>
Probe ForEach(const Stream<T>& s, typename ForEachVertex<T>::Fn fn,
              Partitioner<T> part = nullptr) {
  GraphBuilder& b = *s.builder;
  StageId sid = b.NewStage<ForEachVertex<T>>(
      StageOptions{.name = "foreach", .depth = s.depth},
      [fn = std::move(fn)](uint32_t) { return std::make_unique<ForEachVertex<T>>(fn); });
  b.Connect<ForEachVertex<T>, T>(s, sid, 0, std::move(part));
  return Probe(&b.controller(), sid);
}

}  // namespace naiad

#endif  // SRC_CORE_IO_H_
