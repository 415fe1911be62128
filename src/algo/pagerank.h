// PageRank (§6.1, Fig. 7a) — two "native" timely dataflow implementations:
//
//  * Vertex variant: edges partitioned by source node (the paper's 30-line version).
//    Each physical vertex owns a shard of nodes; one loop iteration = one synchronous
//    PageRank iteration, coordinated by chained notifications.
//  * Edge variant: edges partitioned into 2D blocks along a space-filling curve (the
//    paper's 547-line version, "similar in spirit to PowerGraph's edge partitioning").
//    A block stage turns rank messages into per-destination partial sums, so high-degree
//    nodes' traffic scales with the number of blocks touching them rather than with their
//    degree.
//
// The Pregel variant lives in src/lib/pregel.h; the PowerGraph-style shared-memory GAS
// baseline in src/baseline/gas_engine.h.

#ifndef SRC_ALGO_PAGERANK_H_
#define SRC_ALGO_PAGERANK_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/algo/csr.h"
#include "src/core/loop.h"
#include "src/core/stage.h"
#include "src/gen/graphs.h"
#include "src/ser/columns.h"

namespace naiad {

using NodeRank = std::pair<uint64_t, double>;

inline constexpr double kPrDamping = 0.85;
inline constexpr double kPrBase = 0.15;

// ---------------------------------------------------------------------------------------
// Vertex variant.
// ---------------------------------------------------------------------------------------

class PageRankVertex final : public Binary2Vertex<Edge, NodeRank, NodeRank, NodeRank> {
 public:
  explicit PageRankVertex(uint64_t iters) : iters_(iters) {}

  void OnRecv1(const Timestamp& t, std::vector<Edge>& edges) override {
    Ctx& c = ctx_[t.Popped()];
    for (const Edge& e : edges) {
      c.nodes[e.first].out.push_back(e.second);
    }
    if (!c.kicked) {
      c.kicked = true;
      NotifyAt(t);  // t == (e, 0): edges only enter at iteration 0
    }
  }

  void OnRecv2(const Timestamp& t, std::vector<NodeRank>& contribs) override {
    // Deliveries are asynchronous across iterations (§2.2): a contribution for iteration
    // i+1 may arrive before OnNotify(i), so accumulation is keyed by timestamp.
    Ctx& c = ctx_[t.Popped()];
    auto& acc = c.acc[t];
    for (const auto& [node, val] : contribs) {
      acc[node] += val;
    }
  }

  void OnNotify(const Timestamp& t) override {
    Ctx& c = ctx_[t.Popped()];
    const uint64_t iter = t.coords.back();
    if (iter > 0) {
      auto it = c.acc.find(t);
      for (auto& [id, n] : c.nodes) {
        n.rank = kPrBase;
      }
      if (it != c.acc.end()) {
        for (const auto& [node, sum] : it->second) {
          Node& n = c.nodes[node];
          n.rank = kPrBase + kPrDamping * sum;
        }
        c.acc.erase(it);
      }
    }
    if (iter + 1 < iters_) {
      for (const auto& [id, n] : c.nodes) {
        if (!n.out.empty()) {
          const double share = n.rank / static_cast<double>(n.out.size());
          for (uint64_t dst : n.out) {
            output1().Send(t, {dst, share});  // feedback: arrives at iteration iter+1
          }
        }
      }
      NotifyAt(t.Incremented());
    } else {
      for (const auto& [id, n] : c.nodes) {
        output2().Send(t, {id, n.rank});
      }
      ctx_.erase(t.Popped());
    }
  }

 private:
  struct Node {
    std::vector<uint64_t> out;
    double rank = 1.0;
  };
  struct Ctx {
    std::unordered_map<uint64_t, Node> nodes;
    std::map<Timestamp, std::unordered_map<uint64_t, double>> acc;
    bool kicked = false;
  };

  uint64_t iters_;
  std::map<Timestamp, Ctx> ctx_;
};

// Builds the vertex-partitioned PageRank loop; emits final (node, rank) pairs per epoch.
inline Stream<NodeRank> PageRank(const Stream<Edge>& edges, uint64_t iters) {
  GraphBuilder& b = *edges.builder;
  LoopContext loop(b, edges.depth, "pagerank");
  FeedbackHandle<NodeRank> fb = loop.NewFeedback<NodeRank>();
  Stream<Edge> in_loop =
      loop.Ingress<Edge>(edges, [](const Edge& e) { return Mix64(e.first); });
  StageId pr = b.NewStage<PageRankVertex>(
      StageOptions{.name = "pagerank", .depth = loop.inner_depth()},
      [iters](uint32_t) { return std::make_unique<PageRankVertex>(iters); });
  b.Connect<PageRankVertex, Edge>(in_loop, pr, 0);
  b.Connect<PageRankVertex, NodeRank>(fb.stream(), pr, 1,
                                      [](const NodeRank& nr) { return Mix64(nr.first); });
  fb.ConnectLoop(b.OutputOf<NodeRank>(pr, 0),
                 [](const NodeRank& nr) { return Mix64(nr.first); });
  return loop.Egress<NodeRank>(b.OutputOf<NodeRank>(pr, 1));
}

// ---------------------------------------------------------------------------------------
// CSR variant: the columnar graph substrate (src/algo/csr.h + src/ser/columns.h).
//
// Same dataflow shape as the Vertex variant — edges partitioned by source, one loop
// iteration per PageRank iteration, chained notifications — but the per-timestamp
// unordered_map state is replaced by a CsrShard built once at iteration 0 plus dense
// rank/accumulator arrays indexed by local id, and rank contributions are combined
// per destination on the sender before travelling as RankColumns struct-of-arrays
// batches routed by their precomputed `part`.
// ---------------------------------------------------------------------------------------

class PageRankCsrVertex final
    : public Binary2Vertex<Edge, RankColumns, RankColumns, NodeRank> {
 public:
  explicit PageRankCsrVertex(uint64_t iters) : iters_(iters) {}

  void OnRecv1(const Timestamp& t, std::vector<Edge>& edges) override {
    Ctx& c = ctx_[t.Popped()];
    c.edges.insert(c.edges.end(), edges.begin(), edges.end());
    if (!c.kicked) {
      c.kicked = true;
      NotifyAt(t);  // t == (e, 0): edges only enter at iteration 0
    }
  }

  void OnRecv2(const Timestamp& t, std::vector<RankColumns>& batches) override {
    // Deliveries are asynchronous across iterations (§2.2): batches for iteration i+1 may
    // arrive before OnNotify(i) — and before the CSR is even built. Stash the column
    // batches whole (moves, no per-entry work) and drain at the notification, which the
    // frontier guarantees runs in iteration order.
    Ctx& c = ctx_[t.Popped()];
    auto& inbox = c.inbox[t];
    for (RankColumns& b : batches) {
      inbox.push_back(std::move(b));
    }
  }

  void OnNotify(const Timestamp& t) override {
    Ctx& c = ctx_[t.Popped()];
    const uint64_t iter = t.coords.back();
    if (iter == 0) {
      c.csr = CsrShard::Build(std::move(c.edges), c.remap);
      // Neighbors become shard-local ids (every endpoint is already interned), so the
      // share scatter in SendShares is a dense array add per edge; owner parts are
      // precomputed per local so the combined sums route without hashing per entry.
      c.csr.TranslateNeighbors(c.remap);
      const uint32_t shards = shards_count();
      const uint32_t n = c.csr.num_nodes();
      // The combined-send set is structural: local `l` gets a (strictly positive) sum
      // every iteration iff some edge in this shard points at it. Precompute, per owner
      // shard, the send list in local-id order — the emit pass then fills column batches
      // with contiguous key slices and an ascending (cache-friendly) gather of sums.
      std::vector<uint8_t> has_in(n, 0);
      for (uint32_t local = 0; local < n; ++local) {
        const uint64_t* end = c.csr.NbrEnd(local);
        for (const uint64_t* p = c.csr.NbrBegin(local); p != end; ++p) {
          has_in[*p] = 1;
        }
      }
      c.send_locals.assign(shards, {});
      c.send_globals.assign(shards, {});
      for (uint32_t local = 0; local < n; ++local) {
        if (has_in[local]) {
          const uint64_t g = c.remap.ToGlobal(local);
          const uint32_t owner = static_cast<uint32_t>(Mix64(g) % shards);
          c.send_locals[owner].push_back(local);
          c.send_globals[owner].push_back(g);
        }
      }
      c.ranks.assign(c.remap.size(), 1.0);
      c.acc.assign(c.remap.size(), 0.0);
      c.send_acc.assign(n, 0.0);
    } else {
      // Drain this iteration's stashed batches into the dense accumulator. Keys can name
      // nodes unknown to the CSR: a pure sink has no out-edges anywhere on its owner
      // shard, so it is first seen here (the legacy variant auto-created it the same
      // way). Contributions are strictly positive (ranks >= kPrBase, degree >= 1), so
      // 0.0 doubles as the untouched sentinel and c.touched stays duplicate-free.
      if (auto it = c.inbox.find(t); it != c.inbox.end()) {
        for (const RankColumns& b : it->second) {
          for (size_t i = 0; i < b.size(); ++i) {
            const uint32_t local = c.remap.Intern(b.keys[i]);
            if (local >= c.acc.size()) {
              c.acc.resize(c.remap.size(), 0.0);
            }
            if (c.acc[local] == 0.0) {
              c.touched.push_back(local);
            }
            c.acc[local] += b.vals[i];
          }
        }
        c.inbox.erase(it);
      }
      // The touched set is structural — every sender's per-owner send list is fixed at
      // build, so the same locals receive sums each iteration. Untouched locals are
      // reset to kPrBase once (iteration 1) and never written again; later resizes only
      // cover sinks interned during this drain.
      if (iter == 1) {
        c.ranks.assign(c.remap.size(), kPrBase);
      } else {
        c.ranks.resize(c.remap.size(), kPrBase);
      }
      for (uint32_t local : c.touched) {
        c.ranks[local] = kPrBase + kPrDamping * c.acc[local];
        c.acc[local] = 0.0;
      }
      c.touched.clear();
    }
    if (iter + 1 < iters_) {
      SendShares(t, c);
      NotifyAt(t.Incremented());
    } else {
      // Emit each node from its owner shard only. Building the CSR interned this shard's
      // *destination* endpoints too, but their contributions accumulate on the owner
      // (parts are computed as Mix64(node) % shards), so emitting a non-owned node here
      // would duplicate it with a stale kPrBase rank.
      const uint32_t shards = controller().graph().stage(address().stage).parallelism;
      for (uint32_t local = 0; local < c.ranks.size(); ++local) {
        const uint64_t g = c.remap.ToGlobal(local);
        if (Mix64(g) % shards == address().index) {
          output2().Send(t, {g, c.ranks[local]});
        }
      }
      ctx_.erase(t.Popped());
    }
  }

 private:
  struct Ctx {
    std::vector<Edge> edges;  // buffered until the iteration-0 notification
    IdRemap remap;
    CsrShard csr;  // neighbors hold shard-local ids after the build
    // Per owner shard: the locals this shard sends combined sums to (ascending local id)
    // and their global ids, fixed at build — see the comment at the build site.
    std::vector<std::vector<uint32_t>> send_locals;
    std::vector<std::vector<uint64_t>> send_globals;
    std::vector<double> ranks;     // dense, indexed by local id
    std::vector<double> acc;       // dense accumulator (0.0 = untouched this iteration)
    std::vector<double> send_acc;  // per-iteration combined outgoing shares, by local id
    std::vector<uint32_t> touched;
    std::map<Timestamp, std::vector<RankColumns>> inbox;
    bool kicked = false;
  };

  // Sender-side combining: scatter each node's share into a dense local accumulator over
  // the translated (local-id) neighbor array — one array add per edge, no hashing — then
  // ship one combined (node, sum) column entry per distinct destination, filling batches
  // straight from the precomputed per-owner send lists. A Zipf head node receives at
  // most `shards` entries per iteration instead of its in-degree.
  void SendShares(const Timestamp& t, Ctx& c) {
    const size_t flush_at = controller().config().batch_size;
    const uint32_t n = c.csr.num_nodes();  // nodes interned later are all degree-0
    for (uint32_t local = 0; local < n; ++local) {
      const uint64_t deg = c.csr.OutDegree(local);
      if (deg == 0) {
        continue;
      }
      const double share = c.ranks[local] / static_cast<double>(deg);
      const uint64_t* end = c.csr.NbrEnd(local);
      for (const uint64_t* p = c.csr.NbrBegin(local); p != end; ++p) {
        c.send_acc[*p] += share;
      }
    }
    for (uint32_t owner = 0; owner < c.send_locals.size(); ++owner) {
      const std::vector<uint32_t>& locs = c.send_locals[owner];
      const std::vector<uint64_t>& globs = c.send_globals[owner];
      for (size_t at = 0; at < locs.size(); at += flush_at) {
        const size_t len = std::min(flush_at, locs.size() - at);
        RankColumns b;
        b.part = owner;
        b.keys.assign(globs.begin() + at, globs.begin() + at + len);
        b.vals.resize(len);
        for (size_t j = 0; j < len; ++j) {
          const uint32_t local = locs[at + j];
          b.vals[j] = c.send_acc[local];
          c.send_acc[local] = 0.0;
        }
        output1().Send(t, std::move(b));
      }
    }
  }

  uint32_t shards_count() {
    return controller().graph().stage(address().stage).parallelism;
  }

  uint64_t iters_;
  std::map<Timestamp, Ctx> ctx_;
};

// CSR PageRank loop: identical wiring to PageRank(), but the feedback carries RankColumns
// routed by the sender-computed `part` (the outlet applies `part % parallelism`, a no-op).
inline Stream<NodeRank> PageRankCsr(const Stream<Edge>& edges, uint64_t iters) {
  GraphBuilder& b = *edges.builder;
  LoopContext loop(b, edges.depth, "pagerank-csr");
  FeedbackHandle<RankColumns> fb = loop.NewFeedback<RankColumns>();
  Stream<Edge> in_loop =
      loop.Ingress<Edge>(edges, [](const Edge& e) { return Mix64(e.first); });
  StageId pr = b.NewStage<PageRankCsrVertex>(
      StageOptions{.name = "pagerank-csr", .depth = loop.inner_depth()},
      [iters](uint32_t) { return std::make_unique<PageRankCsrVertex>(iters); });
  b.Connect<PageRankCsrVertex, Edge>(in_loop, pr, 0);
  b.Connect<PageRankCsrVertex, RankColumns>(
      fb.stream(), pr, 1, [](const RankColumns& rc) { return rc.part; });
  fb.ConnectLoop(b.OutputOf<RankColumns>(pr, 0),
                 [](const RankColumns& rc) { return rc.part; });
  return loop.Egress<NodeRank>(b.OutputOf<NodeRank>(pr, 1));
}

// ---------------------------------------------------------------------------------------
// Edge variant: 2D block partitioning along a Morton (Z-order) space-filling curve.
// ---------------------------------------------------------------------------------------

// (node, block, degree-in-block) — a block registers how many of node's out-edges it holds.
using PrRegistration = std::tuple<uint64_t, uint64_t, uint64_t>;
// (block, node, contribution) — a node ships rank/degree once per block that needs it.
using PrRankMsg = std::tuple<uint64_t, uint64_t, double>;
// (dst node, partial sum) — a block pre-aggregates contributions per destination.
using PrPartial = std::pair<uint64_t, double>;

inline uint64_t MortonBlock(uint64_t src, uint64_t dst, uint32_t grid_bits) {
  const uint64_t x = Mix64(src) >> (64 - grid_bits);
  const uint64_t y = Mix64(dst) >> (64 - grid_bits);
  uint64_t z = 0;
  for (uint32_t i = 0; i < grid_bits; ++i) {
    z |= ((x >> i) & 1) << (2 * i);
    z |= ((y >> i) & 1) << (2 * i + 1);
  }
  return z;
}

class PrBlockVertex final : public Binary2Vertex<Edge, PrRankMsg, PrRegistration, PrPartial> {
 public:
  explicit PrBlockVertex(uint32_t grid_bits) : grid_bits_(grid_bits) {}

  void OnRecv1(const Timestamp& t, std::vector<Edge>& edges) override {
    Ctx& c = ctx_[t.Popped()];
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> reg;  // (node, block) -> count
    for (const Edge& e : edges) {
      const uint64_t block = MortonBlock(e.first, e.second, grid_bits_);
      // Several blocks can land on one physical vertex; adjacency stays per block so a
      // rank message addressed to one block never touches another block's edges.
      c.blocks[block].pending.push_back(e);
      ++reg[{e.first, block}];
    }
    for (const auto& [key, count] : reg) {
      output1().Send(t, {key.first, key.second, count});
    }
  }

  void OnRecv2(const Timestamp& t, std::vector<PrRankMsg>& msgs) override {
    Ctx& c = ctx_[t.Popped()];
    if (!c.notified.contains(t)) {
      c.notified.insert(t);
      NotifyAt(t);
    }
    if (!c.built) {
      // Safe build point: a rank message only exists because some PrNodeVertex was
      // notified at iteration 0, and that notification is held back by every unprocessed
      // edge bundle (blocks' input 1 could-result-in the node stage's notify location).
      // So the adjacency buffered in OnRecv1 is complete here. Neighbor ids are
      // translated to dst-local so the accumulation loop below is a pure array walk.
      for (auto& [block, bg] : c.blocks) {
        bg.csr = CsrShard::Build(std::move(bg.pending), bg.remap);
        bg.csr.TranslateNeighbors(c.dst_remap);
      }
      c.built = true;
    }
    Acc& acc = c.partials[t];  // keyed by time: later iterations may arrive early
    if (acc.vals.size() < c.dst_remap.size()) {
      acc.vals.resize(c.dst_remap.size(), 0.0);
    }
    for (const auto& [block, node, val] : msgs) {
      auto bit = c.blocks.find(block);
      if (bit == c.blocks.end()) {
        continue;
      }
      BlockGraph& bg = bit->second;
      const uint32_t src = bg.remap.Find(node);
      if (src == IdRemap::kAbsent) {
        continue;
      }
      const uint64_t* end = bg.csr.NbrEnd(src);
      for (const uint64_t* p = bg.csr.NbrBegin(src); p != end; ++p) {
        // Contributions are strictly positive, so 0.0 marks an untouched slot.
        if (acc.vals[*p] == 0.0) {
          acc.touched.push_back(static_cast<uint32_t>(*p));
        }
        acc.vals[*p] += val;
      }
    }
  }

  void OnNotify(const Timestamp& t) override {
    Ctx& c = ctx_[t.Popped()];
    auto it = c.partials.find(t);
    if (it != c.partials.end()) {
      for (uint32_t dst : it->second.touched) {
        output2().Send(t, {c.dst_remap.ToGlobal(dst), it->second.vals[dst]});
      }
      c.partials.erase(it);
    }
    c.notified.erase(t);
  }

 private:
  struct BlockGraph {
    IdRemap remap;              // src node -> block-local id
    CsrShard csr;               // neighbors hold dst_remap-local ids after translation
    std::vector<Edge> pending;  // buffered until the first rank message
  };
  struct Acc {
    std::vector<double> vals;  // dense partial sums indexed by dst-local id
    std::vector<uint32_t> touched;
  };
  struct Ctx {
    std::unordered_map<uint64_t, BlockGraph> blocks;
    IdRemap dst_remap;  // destination node -> dense accumulator slot (shared by blocks)
    std::map<Timestamp, Acc> partials;
    std::set<Timestamp> notified;
    bool built = false;
  };

  uint32_t grid_bits_;
  std::map<Timestamp, Ctx> ctx_;
};

class PrNodeVertex final : public Binary2Vertex<PrRegistration, PrPartial, PrRankMsg, NodeRank> {
 public:
  explicit PrNodeVertex(uint64_t iters) : iters_(iters) {}

  void OnRecv1(const Timestamp& t, std::vector<PrRegistration>& regs) override {
    Ctx& c = ctx_[t.Popped()];
    for (const auto& [node, block, count] : regs) {
      Node& n = c.nodes[Materialize(c, node)];
      n.blocks.push_back(block);
      n.degree += count;
    }
    if (!c.kicked) {
      c.kicked = true;
      NotifyAt(t);
    }
  }

  void OnRecv2(const Timestamp& t, std::vector<PrPartial>& partials) override {
    Ctx& c = ctx_[t.Popped()];
    Acc& acc = c.acc[t];  // keyed by time: later iterations may arrive early
    for (const auto& [node, val] : partials) {
      // Pure sinks have no registrations, so intern on arrival (the legacy map
      // auto-created them the same way).
      const uint32_t local = Materialize(c, node);
      if (local >= acc.vals.size()) {
        acc.vals.resize(c.nodes.size(), 0.0);
      }
      if (acc.vals[local] == 0.0) {  // partial sums are strictly positive
        acc.touched.push_back(local);
      }
      acc.vals[local] += val;
    }
  }

  void OnNotify(const Timestamp& t) override {
    Ctx& c = ctx_[t.Popped()];
    const uint64_t iter = t.coords.back();
    if (iter > 0) {
      for (Node& n : c.nodes) {
        n.rank = kPrBase;
      }
      auto it = c.acc.find(t);
      if (it != c.acc.end()) {
        for (uint32_t local : it->second.touched) {
          c.nodes[local].rank = kPrBase + kPrDamping * it->second.vals[local];
        }
        c.acc.erase(it);
      }
    }
    if (iter + 1 < iters_) {
      for (uint32_t local = 0; local < c.nodes.size(); ++local) {
        const Node& n = c.nodes[local];
        if (n.degree > 0) {
          const double share = n.rank / static_cast<double>(n.degree);
          const uint64_t id = c.remap.ToGlobal(local);
          for (uint64_t block : n.blocks) {
            output1().Send(t, {block, id, share});
          }
        }
      }
      NotifyAt(t.Incremented());
    } else {
      for (uint32_t local = 0; local < c.nodes.size(); ++local) {
        output2().Send(t, {c.remap.ToGlobal(local), c.nodes[local].rank});
      }
      ctx_.erase(t.Popped());
    }
  }

 private:
  struct Node {
    std::vector<uint64_t> blocks;
    uint64_t degree = 0;
    double rank = 1.0;
  };
  struct Acc {
    std::vector<double> vals;  // dense, indexed by local id (0.0 = untouched)
    std::vector<uint32_t> touched;
  };
  struct Ctx {
    IdRemap remap;
    std::vector<Node> nodes;  // dense, indexed by local id
    std::map<Timestamp, Acc> acc;
    bool kicked = false;
  };

  uint32_t Materialize(Ctx& c, uint64_t g) {
    const uint32_t local = c.remap.Intern(g);
    if (local >= c.nodes.size()) {
      c.nodes.emplace_back();
    }
    return local;
  }

  uint64_t iters_;
  std::map<Timestamp, Ctx> ctx_;
};

inline Stream<NodeRank> PageRankEdgePartitioned(const Stream<Edge>& edges, uint64_t iters,
                                                uint32_t grid_bits = 3) {
  GraphBuilder& b = *edges.builder;
  LoopContext loop(b, edges.depth, "pagerank-edge");
  FeedbackHandle<PrRankMsg> fb = loop.NewFeedback<PrRankMsg>();
  Stream<Edge> in_loop = loop.Ingress<Edge>(edges, [grid_bits](const Edge& e) {
    return MortonBlock(e.first, e.second, grid_bits);
  });

  StageId blocks = b.NewStage<PrBlockVertex>(
      StageOptions{.name = "pr-blocks", .depth = loop.inner_depth()},
      [grid_bits](uint32_t) { return std::make_unique<PrBlockVertex>(grid_bits); });
  StageId nodes = b.NewStage<PrNodeVertex>(
      StageOptions{.name = "pr-nodes", .depth = loop.inner_depth()},
      [iters](uint32_t) { return std::make_unique<PrNodeVertex>(iters); });

  b.Connect<PrBlockVertex, Edge>(in_loop, blocks, 0);
  b.Connect<PrBlockVertex, PrRankMsg>(
      fb.stream(), blocks, 1,
      [](const PrRankMsg& m) { return std::get<0>(m); });
  b.Connect<PrNodeVertex, PrRegistration>(
      b.OutputOf<PrRegistration>(blocks, 0), nodes, 0,
      [](const PrRegistration& r) { return Mix64(std::get<0>(r)); });
  b.Connect<PrNodeVertex, PrPartial>(
      b.OutputOf<PrPartial>(blocks, 1), nodes, 1,
      [](const PrPartial& p) { return Mix64(p.first); });
  fb.ConnectLoop(b.OutputOf<PrRankMsg>(nodes, 0),
                 [](const PrRankMsg& m) { return std::get<0>(m); });
  return loop.Egress<NodeRank>(b.OutputOf<NodeRank>(nodes, 1));
}

}  // namespace naiad

#endif  // SRC_ALGO_PAGERANK_H_
