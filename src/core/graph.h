// The logical dataflow graph (§3.1): stages linked by typed connectors, organized into
// nested loop contexts, plus the all-pairs minimal-path-summary matrix Ψ used to evaluate
// the could-result-in relation on (projected) pointstamps.
//
// The graph is built by the typed layer in stage.h/loop.h; this header is type-agnostic —
// record types appear only as type-erased hooks (partitioner, deliver, codec) stored on
// each connector.

#ifndef SRC_CORE_GRAPH_H_
#define SRC_CORE_GRAPH_H_

#include <algorithm>
#include <any>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/logging.h"
#include "src/core/location.h"
#include "src/core/path_summary.h"
#include "src/core/timestamp.h"
#include "src/ser/bytes.h"

namespace naiad {

class VertexBase;
class WorkItemBase;
class Controller;

// What a stage does to the timestamps of messages passing through it (§2.1).
enum class TimestampAction : uint8_t { kNone, kIngress, kEgress, kFeedback };

struct StageDef {
  std::string name;
  uint32_t depth = 0;  // loop-nesting depth of the stage's *inputs*
  TimestampAction action = TimestampAction::kNone;
  uint32_t parallelism = 1;  // number of physical vertices across the whole cluster
  bool is_input = false;     // external producer stage (§2.1): no vertices, only a location
  uint64_t feedback_limit = 0;  // kFeedback only: drop records at iterations >= limit (0 = none)
  uint32_t reentrancy = 0;   // max re-entrant OnRecv depth for same-worker sends (§3.2)

  // Vertex instantiation (typed layer): create local vertex `index`, then wire its outlets.
  std::function<std::unique_ptr<VertexBase>(Controller*, uint32_t index)> factory;
  std::function<void(Controller*, VertexBase*)> wire_outputs;

  // Notifications each vertex should hold before the computation starts (epoch 0 based).
  std::vector<Timestamp> initial_notifications;

  std::vector<ConnectorId> inputs;                 // all inbound connectors
  std::vector<std::vector<ConnectorId>> outputs;   // per output port: fanout list

  uint32_t output_depth() const {
    switch (action) {
      case TimestampAction::kIngress:
        return depth + 1;
      case TimestampAction::kEgress:
        NAIAD_CHECK(depth >= 1);
        return depth - 1;
      default:
        return depth;
    }
  }

  PathSummary ActionSummary() const {
    switch (action) {
      case TimestampAction::kNone:
        return PathSummary::Identity(depth);
      case TimestampAction::kIngress:
        return PathSummary::Ingress(depth);
      case TimestampAction::kEgress:
        return PathSummary::Egress(depth);
      case TimestampAction::kFeedback:
        return PathSummary::Feedback(depth);
    }
    NAIAD_CHECK(false);
    return {};
  }
};

struct ConnectorDef {
  ConnectorId id = 0;
  StageId src = 0;
  uint32_t src_port = 0;
  StageId dst = 0;
  uint32_t dst_port = 0;
  uint32_t depth = 0;  // == src.output_depth() == dst.depth

  // std::function<uint64_t(const T&)> — empty when the connector does not exchange.
  std::any partitioner;
  // std::function<void(VertexBase*, const Timestamp&, std::vector<T>&&)>.
  std::any deliver;

  // Cross-process support; null when T has no Codec (then the graph must be single-process)
  // or installed lazily by the typed layer.
  // encode_batch serializes `static_cast<const std::vector<T>*>(batch)` into `w`.
  std::function<void(ByteWriter& w, const void* batch)> encode_batch;
  // decode_batch builds a ready-to-run work item for `target` from the wire bytes.
  std::function<std::unique_ptr<WorkItemBase>(ByteReader& r, const Timestamp& t,
                                              VertexBase* target)>
      decode_batch;
};

// One summarized hand-off from a scope-internal location to a boundary-exit connector of
// its scope (scoped progress tracking): `summaries` is Ψ(loc, exit), so applying any
// element to a timestamp at `loc` yields the earliest timestamp the activity could reach
// the parent scope with (the loop counter stripped by the egress on the way out).
struct BoundaryProjection {
  Location exit;
  SummaryAntichain summaries;
};

class LogicalGraph {
 public:
  StageId AddStage(StageDef def) {
    NAIAD_CHECK(!frozen());
    def.outputs.resize(1);  // every stage gets at least one output port slot
    stages_.push_back(std::move(def));
    return static_cast<StageId>(stages_.size() - 1);
  }

  ConnectorId AddConnector(ConnectorDef def) {
    NAIAD_CHECK(!frozen());
    NAIAD_CHECK(def.src < stages_.size() && def.dst < stages_.size());
    StageDef& src = stages_[def.src];
    StageDef& dst = stages_[def.dst];
    NAIAD_CHECK(src.output_depth() == dst.depth);
    def.depth = dst.depth;
    def.id = static_cast<ConnectorId>(connectors_.size());
    if (src.outputs.size() <= def.src_port) {
      src.outputs.resize(def.src_port + 1);
    }
    src.outputs[def.src_port].push_back(def.id);
    dst.inputs.push_back(def.id);
    connectors_.push_back(std::move(def));
    return connectors_.back().id;
  }

  const StageDef& stage(StageId s) const { return stages_[s]; }
  StageDef& mutable_stage(StageId s) {
    NAIAD_CHECK(!frozen());
    return stages_[s];
  }
  const ConnectorDef& connector(ConnectorId c) const { return connectors_[c]; }
  ConnectorDef& mutable_connector(ConnectorId c) {
    NAIAD_CHECK(!frozen());
    return connectors_[c];
  }

  uint32_t num_stages() const { return static_cast<uint32_t>(stages_.size()); }
  uint32_t num_connectors() const { return static_cast<uint32_t>(connectors_.size()); }
  uint32_t num_locations() const { return num_stages() + num_connectors(); }
  // Acquire-ordered: in distributed mode, network receive threads may probe the graph
  // while the SPMD body thread is still freezing it; a true result publishes psi_.
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

  uint32_t LocationIndex(const Location& l) const {
    return l.is_stage() ? l.id : num_stages() + l.id;
  }

  uint32_t LocationDepth(const Location& l) const {
    return l.is_stage() ? stages_[l.id].depth : connectors_[l.id].depth;
  }

  // ---- Scope tree (scoped progress tracking) ------------------------------------------
  //
  // A scope is a maximal set of same-depth locations connected without crossing an
  // ingress or egress stage boundary: scope 0 (the root) is everything at depth 0, and
  // each loop context contributes one scope per nesting level. The parent of a loop
  // scope is the scope holding its ingress stage; a scope's exit locations are the
  // output connectors of its egress stages (the first parent-depth location on every
  // path that leaves the scope). All of this is derived at Freeze() time.
  uint32_t num_scopes() const { return static_cast<uint32_t>(scope_parent_.size()); }
  uint32_t ScopeOf(const Location& l) const { return scope_of_[LocationIndex(l)]; }
  uint32_t ScopeParent(uint32_t s) const { return scope_parent_[s]; }
  uint32_t ScopeDepth(uint32_t s) const { return scope_depth_[s]; }
  // Projections of `l` onto the exit connectors of its scope; empty for root-scope
  // locations and for locations that cannot reach any exit (e.g. a loop that only
  // discards at its feedback limit).
  const std::vector<BoundaryProjection>& Projections(const Location& l) const {
    return projections_[LocationIndex(l)];
  }

  // Freezes the graph and computes the minimal-summary matrix Ψ by worklist propagation
  // over the elementary hops (connector → destination stage with the identity summary;
  // stage → outbound connector with the stage's action summary).
  void Freeze() {
    NAIAD_CHECK(!frozen());
    const uint32_t n = num_locations();
    psi_.assign(static_cast<size_t>(n) * n, SummaryAntichain{});

    struct Hop {
      uint32_t dst;
      PathSummary summary;
    };
    std::vector<std::vector<Hop>> hops(n);
    for (const ConnectorDef& c : connectors_) {
      hops[LocationIndex(Location::Connector(c.id))].push_back(
          Hop{LocationIndex(Location::Stage(c.dst)), PathSummary::Identity(c.depth)});
    }
    for (StageId s = 0; s < num_stages(); ++s) {
      const PathSummary action = stages_[s].ActionSummary();
      for (const auto& port : stages_[s].outputs) {
        for (ConnectorId o : port) {
          hops[LocationIndex(Location::Stage(s))].push_back(
              Hop{LocationIndex(Location::Connector(o)), action});
        }
      }
    }

    struct Pending {
      uint32_t src;
      uint32_t via;
      PathSummary summary;
    };
    std::vector<Pending> work;
    for (uint32_t i = 0; i < n; ++i) {
      const PathSummary ident = PathSummary::Identity(DepthOfIndex(i));
      At(i, i).Insert(ident);
      work.push_back(Pending{i, i, ident});
    }
    while (!work.empty()) {
      Pending p = std::move(work.back());
      work.pop_back();
      for (const Hop& h : hops[p.via]) {
        PathSummary s = PathSummary::Compose(p.summary, h.summary);
        if (p.src == h.dst) {
          // A cycle summary mapping some timestamp at-or-before itself would deadlock the
          // scheduler; valid graphs route every cycle through a feedback stage (§2.1).
          NAIAD_CHECK(!PathSummary::Dominates(s, PathSummary::Identity(DepthOfIndex(p.src))))
              << "cycle without feedback through location index " << p.src;
        }
        if (At(p.src, h.dst).Insert(s)) {
          work.push_back(Pending{p.src, h.dst, std::move(s)});
        }
      }
    }
    BuildScopeTree();
    frozen_.store(true, std::memory_order_release);  // publishes psi_ and the scope tree
  }

  const SummaryAntichain& Summaries(const Location& from, const Location& to) const {
    NAIAD_CHECK(frozen());
    return psi_[static_cast<size_t>(LocationIndex(from)) * num_locations() +
                LocationIndex(to)];
  }

  // The could-result-in relation on pointstamps (§2.3): reflexive at equal pointstamps by
  // the empty path; callers decide whether to exclude p == q.
  bool CouldResultIn(const Pointstamp& a, const Pointstamp& b) const {
    return Summaries(a.loc, b.loc).CouldResultIn(a.time, b.time);
  }

 private:
  uint32_t DepthOfIndex(uint32_t i) const {
    return i < num_stages() ? stages_[i].depth : connectors_[i - num_stages()].depth;
  }
  SummaryAntichain& At(uint32_t i, uint32_t j) {
    return psi_[static_cast<size_t>(i) * num_locations() + j];
  }

  uint32_t UfFind(std::vector<uint32_t>& uf, uint32_t i) const {
    while (uf[i] != i) {
      uf[i] = uf[uf[i]];
      i = uf[i];
    }
    return i;
  }

  // Partitions locations into scopes by union-find over same-depth adjacency: a connector
  // always shares its destination stage's scope, and a stage shares its output
  // connectors' scope unless it changes depth (ingress/egress) — those edges are the
  // scope boundaries. Runs after psi_ is complete so per-location boundary projections
  // can reuse the Ψ antichains.
  void BuildScopeTree() {
    const uint32_t n = num_locations();
    std::vector<uint32_t> uf(n);
    for (uint32_t i = 0; i < n; ++i) {
      uf[i] = i;
    }
    auto unite = [&](uint32_t a, uint32_t b) { uf[UfFind(uf, a)] = UfFind(uf, b); };
    for (const ConnectorDef& c : connectors_) {
      unite(LocationIndex(Location::Connector(c.id)), LocationIndex(Location::Stage(c.dst)));
    }
    uint32_t max_depth = 0;
    for (StageId s = 0; s < num_stages(); ++s) {
      const StageDef& def = stages_[s];
      max_depth = std::max(max_depth, def.depth);
      if (def.output_depth() != def.depth) {
        continue;  // ingress/egress: the stage→output edge crosses a scope boundary
      }
      for (const auto& port : def.outputs) {
        for (ConnectorId o : port) {
          unite(LocationIndex(Location::Stage(s)), LocationIndex(Location::Connector(o)));
        }
      }
    }

    // A scope is a maximal region connected by paths that never drop BELOW its depth —
    // so two depth-(d-1) regions joined only through a depth-d loop (its ingress on one
    // side, its egress on the other) are one scope. Same-depth adjacency alone misses
    // those; fix up deepest-first, uniting every parent-side attachment point (ingress
    // stage, egress output connector) of each depth-d component. Deeper passes run first,
    // so each depth-d component is final when its attachments are merged.
    for (uint32_t d = max_depth; d >= 1; --d) {
      std::unordered_map<uint32_t, uint32_t> attach;  // child UF root -> parent location
      auto attach_to = [&](uint32_t child_loc, uint32_t parent_loc) {
        auto [it, fresh] = attach.try_emplace(UfFind(uf, child_loc), parent_loc);
        if (!fresh) {
          unite(parent_loc, it->second);
        }
      };
      for (StageId s = 0; s < num_stages(); ++s) {
        const StageDef& def = stages_[s];
        const bool ingress = def.action == TimestampAction::kIngress &&
                             def.output_depth() == d;  // stage at d-1, connectors at d
        const bool egress =
            def.action == TimestampAction::kEgress && def.depth == d;  // connectors at d-1
        if (!ingress && !egress) {
          continue;
        }
        for (const auto& port : def.outputs) {
          for (ConnectorId o : port) {
            const uint32_t stage_loc = LocationIndex(Location::Stage(s));
            const uint32_t conn_loc = LocationIndex(Location::Connector(o));
            if (ingress) {
              attach_to(conn_loc, stage_loc);
            } else {
              attach_to(stage_loc, conn_loc);
            }
          }
        }
      }
    }

    // Scope 0 is the whole depth-0 root region (even if the UF left it in several
    // components — a disconnected root is still one pointstamp space in §3.3 terms).
    scope_of_.assign(n, 0);
    std::vector<uint32_t> root_scope(n, UINT32_MAX);  // UF root index -> scope id
    scope_parent_.assign(1, 0);
    scope_depth_.assign(1, 0);
    for (uint32_t i = 0; i < n; ++i) {
      if (DepthOfIndex(i) == 0) {
        continue;
      }
      const uint32_t r = UfFind(uf, i);
      if (root_scope[r] == UINT32_MAX) {
        root_scope[r] = static_cast<uint32_t>(scope_parent_.size());
        scope_parent_.push_back(0);  // provisional; fixed up from the ingress stages below
        scope_depth_.push_back(DepthOfIndex(i));
      }
      scope_of_[i] = root_scope[r];
    }

    // Parent links: an ingress stage lives in the parent scope while its output
    // connectors live in the child; an egress stage lives in the child while its output
    // connectors live in the parent. Both must agree.
    for (StageId s = 0; s < num_stages(); ++s) {
      const StageDef& def = stages_[s];
      const uint32_t stage_scope = scope_of_[LocationIndex(Location::Stage(s))];
      for (const auto& port : def.outputs) {
        for (ConnectorId o : port) {
          const uint32_t conn_scope = scope_of_[LocationIndex(Location::Connector(o))];
          if (def.action == TimestampAction::kIngress) {
            NAIAD_CHECK(scope_parent_[conn_scope] == 0 ||
                        scope_parent_[conn_scope] == stage_scope)
                << "loop scope with two distinct ingress parents";
            scope_parent_[conn_scope] = stage_scope;
          } else if (def.action == TimestampAction::kEgress) {
            NAIAD_CHECK(scope_parent_[stage_scope] == 0 ||
                        scope_parent_[stage_scope] == conn_scope)
                << "loop scope egressing into two distinct parents";
            scope_parent_[stage_scope] = conn_scope;
          }
        }
      }
    }
    for (uint32_t sc = 1; sc < num_scopes(); ++sc) {
      NAIAD_CHECK(scope_depth_[scope_parent_[sc]] + 1 == scope_depth_[sc] ||
                  (scope_parent_[sc] == 0 && scope_depth_[sc] >= 1))
          << "scope parent depth mismatch";
    }

    // Exit locations per scope: the output connectors of its egress stages.
    std::vector<std::vector<Location>> exits(num_scopes());
    for (StageId s = 0; s < num_stages(); ++s) {
      if (stages_[s].action != TimestampAction::kEgress) {
        continue;
      }
      const uint32_t sc = scope_of_[LocationIndex(Location::Stage(s))];
      for (const auto& port : stages_[s].outputs) {
        for (ConnectorId o : port) {
          exits[sc].push_back(Location::Connector(o));
        }
      }
    }

    // Per-location projections onto the owning scope's exits, read straight out of Ψ.
    projections_.assign(n, {});
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t sc = scope_of_[i];
      if (sc == 0) {
        continue;
      }
      for (const Location& e : exits[sc]) {
        const SummaryAntichain& a = psi_[static_cast<size_t>(i) * n + LocationIndex(e)];
        if (!a.elements().empty()) {
          projections_[i].push_back(BoundaryProjection{e, a});
        }
      }
    }
  }

  std::atomic<bool> frozen_{false};
  std::vector<StageDef> stages_;
  std::vector<ConnectorDef> connectors_;
  std::vector<SummaryAntichain> psi_;

  // Scope tree, valid once frozen. scope_of_ is indexed by LocationIndex; parent/depth by
  // scope id (0 = root).
  std::vector<uint32_t> scope_of_;
  std::vector<uint32_t> scope_parent_;
  std::vector<uint32_t> scope_depth_;
  std::vector<std::vector<BoundaryProjection>> projections_;
};

}  // namespace naiad

#endif  // SRC_CORE_GRAPH_H_
