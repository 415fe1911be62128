#include "src/ft/checkpoint.h"

#include <algorithm>
#include <tuple>

#include "src/base/logging.h"
#include "src/core/worker.h"
#include "src/ser/bytes.h"

namespace naiad {

namespace {
constexpr uint32_t kMagic = 0x4e414944;  // "NAID"
}  // namespace

std::vector<uint8_t> CheckpointProcess(Controller& ctl) {
  NAIAD_CHECK(ctl.started());
  const uint64_t span_t0 = obs::MonotonicNs();
  ctl.PauseAndDrain();

  ByteWriter w;
  w.WriteU32(kMagic);

  // (a) Open input epochs, from the controller's local producer positions. These must NOT
  // be recovered from the tracker's active pointstamps: the tracker is cluster-wide, and
  // at a selective-recovery stall the dead victim's open-input pointstamp (stuck at an
  // older epoch) is still active at the same location — scanning actives would record the
  // victim's position as ours and make the survivor re-feed epochs it already ran. At a
  // coordinated quiet point the two views agree, so this is strictly more precise.
  const std::vector<StageId>& inputs = ctl.input_stages();
  w.WriteU32(static_cast<uint32_t>(inputs.size()));
  for (StageId s : inputs) {
    const Controller::LocalInputState in = ctl.local_input_state(s);
    w.WriteU32(s);
    w.WriteU8(in.closed ? 0 : 1);
    w.WriteU64(in.closed ? 0 : in.next_epoch);
  }

  // (b) Vertex state, length-prefixed so a vertex that writes nothing stays cheap.
  const auto vertices = ctl.LocalVertices();
  w.WriteU32(static_cast<uint32_t>(vertices.size()));
  for (const auto& [addr, v] : vertices) {
    w.WriteU32(addr.stage);
    w.WriteU32(addr.index);
    const size_t len_at = w.size();
    w.WriteU32(0);
    const size_t body_at = w.size();
    v->Checkpoint(w);
    w.PatchU32(len_at, static_cast<uint32_t>(w.size() - body_at));
  }

  // (c) Pending notification requests (the queues themselves are empty after the drain),
  // in a canonical order: a worker holds them in request order, which varies from run to
  // run, and the image must be a function of the computation's state alone.
  std::vector<std::tuple<StageId, uint32_t, Timestamp>> pending;
  for (uint32_t i = 0; i < ctl.config().workers_per_process; ++i) {
    for (const Worker::PendingNotify& n : ctl.worker(i).pending_notifications()) {
      const VertexAddress addr = n.vertex->address();
      pending.emplace_back(addr.stage, addr.index, n.time);
    }
  }
  std::sort(pending.begin(), pending.end());
  w.WriteU32(static_cast<uint32_t>(pending.size()));
  for (const auto& [stage, index, t] : pending) {
    w.WriteU32(stage);
    w.WriteU32(index);
    t.Encode(w);
  }

  ctl.Resume();
  if (ctl.obs().tracer().enabled()) {
    ctl.obs().tracer().ControlSpan(obs::TraceKind::kCheckpoint, span_t0, obs::MonotonicNs(),
                                   w.size(), 0, 0);
  }
  return std::move(w.buffer());
}

std::vector<InputEpochs> PeekImageInputs(const std::vector<uint8_t>& image) {
  ByteReader r(image);
  NAIAD_CHECK(r.ReadU32() == kMagic) << "not a checkpoint image";
  std::vector<InputEpochs> inputs(r.ReadU32());
  for (InputEpochs& in : inputs) {
    in.stage = r.ReadU32();
    const bool open = r.ReadU8() != 0;
    const uint64_t epoch = r.ReadU64();
    in.next_epoch = open ? epoch : 0;
    in.closed = !open;
  }
  NAIAD_CHECK(r.ok());
  return inputs;
}

// A process contributes only what it owns: +1 per open input it hosts (its own producer
// handle, at its own epoch) and +1 per pending notification of its local vertices. With
// `seeds` the contributions go to the caller's seed exchange; without, this is the only
// process and they seed the local tracker.
std::vector<InputEpochs> RestoreProcess(Controller& ctl, std::vector<uint8_t> image,
                                        std::vector<ProgressUpdate>* seeds) {
  NAIAD_CHECK(!ctl.started());
  NAIAD_CHECK(seeds != nullptr || ctl.config().processes == 1)
      << "a cluster restore contributes its seeds through the seed exchange";
  std::vector<InputEpochs> inputs = PeekImageInputs(image);
  if (seeds != nullptr) {
    seeds->clear();
  }
  ctl.SetStartOverride([image = std::move(image), seeds](Controller& c,
                                                         ProgressBuffer& updates) {
    const uint64_t span_t0 = obs::MonotonicNs();
    const auto contribute = [&](const Pointstamp& p) {
      if (seeds != nullptr) {
        seeds->push_back(ProgressUpdate{p, +1});
      } else {
        updates.Add(p, +1);
      }
    };
    ByteReader r(image);
    NAIAD_CHECK(r.ReadU32() == kMagic);
    const uint32_t n_inputs = r.ReadU32();
    for (uint32_t i = 0; i < n_inputs; ++i) {
      const StageId s = r.ReadU32();
      const bool open = r.ReadU8() != 0;
      const uint64_t epoch = r.ReadU64();
      if (open) {
        contribute(Pointstamp{Timestamp(epoch), Location::Stage(s)});
      }
    }
    const uint32_t n_vertices = r.ReadU32();
    for (uint32_t i = 0; i < n_vertices; ++i) {
      const StageId s = r.ReadU32();
      const uint32_t index = r.ReadU32();
      const uint32_t len = r.ReadU32();
      NAIAD_CHECK(r.ok() && r.remaining() >= len);
      VertexBase* v = c.LocalVertex(s, index);
      NAIAD_CHECK(v != nullptr) << "checkpoint does not match graph: stage " << s;
      ByteReader body(
          std::span<const uint8_t>(image.data() + (image.size() - r.remaining()), len));
      NAIAD_CHECK(v->Restore(body));
      for (uint32_t skip = 0; skip < len; ++skip) {
        r.ReadU8();
      }
    }
    const uint32_t n_pending = r.ReadU32();
    for (uint32_t i = 0; i < n_pending; ++i) {
      const StageId s = r.ReadU32();
      const uint32_t index = r.ReadU32();
      Timestamp t;
      NAIAD_CHECK(t.Decode(r));
      VertexBase* v = c.LocalVertex(s, index);
      NAIAD_CHECK(v != nullptr);
      v->worker().AddNotificationRequest(v, t);
      contribute(Pointstamp{t, Location::Stage(s)});
    }
    NAIAD_CHECK(r.ok());
    if (c.obs().tracer().enabled()) {
      c.obs().tracer().ControlSpan(obs::TraceKind::kRestore, span_t0, obs::MonotonicNs(),
                                   image.size(), 0, 0);
    }
  });
  return inputs;
}

void FreshStart(Controller& ctl, std::vector<ProgressUpdate>* seeds) {
  NAIAD_CHECK(!ctl.started() && seeds != nullptr);
  seeds->clear();
  // Logical time zero under the same contribution rule: this process's epoch-0 producer
  // handles and the initial notifications of its local vertices (a plain Start seeds the
  // cluster-wide counts locally on every process instead).
  ctl.SetStartOverride([seeds](Controller& c, ProgressBuffer&) {
    const LogicalGraph& g = c.graph();
    for (StageId s = 0; s < g.num_stages(); ++s) {
      const StageDef& def = g.stage(s);
      if (def.is_input) {
        seeds->push_back(
            ProgressUpdate{Pointstamp{Timestamp(0), Location::Stage(s)}, +1});
        continue;
      }
      if (!def.factory || def.initial_notifications.empty()) {
        continue;
      }
      for (uint32_t v = 0; v < def.parallelism; ++v) {
        if (!c.VertexIsLocal(v)) {
          continue;
        }
        VertexBase* vert = c.LocalVertex(s, v);
        NAIAD_CHECK(vert != nullptr);
        for (const Timestamp& t : def.initial_notifications) {
          vert->worker().AddNotificationRequest(vert, t);
          seeds->push_back(ProgressUpdate{Pointstamp{t, Location::Stage(s)}, +1});
        }
      }
    }
  });
}

}  // namespace naiad
