// Figure 7a (§6.1): PageRank on a power-law follower graph, five ways.
//
// The paper compares per-iteration times of three Naiad implementations against published
// PowerGraph results: the Pregel-library port is slowest (abstraction overhead: graph
// mutation support etc.), the source-partitioned "Vertex" variant is faster, and the
// space-filling-curve edge-partitioned "Edge" variant (the 547-line low-level version) is
// fastest. The PowerGraph comparator here is the shared-memory GAS engine of
// src/baseline/gas_engine.h. The "CSR" variant is the columnar graph substrate
// (src/algo/csr.h + src/ser/columns.h): same dataflow as Vertex, flat state and columnar
// exchange. Expected shape: CSR < Edge <= Vertex < Pregel per iteration.
//
// Scale knobs (EXPERIMENTS.md "Scale sweeps"):
//   --edges=N          edge count (default 400000; 10^7–10^8 for the scale points)
//   --nodes=N          node count (default edges/4)
//   --iters=N          PageRank iterations (default 10)
//   --workers=N        worker threads (default 4)
//   --variants=a,b,c   subset of pregel,vertex,edge,csr,gas (default all)
//   --reps=N           best-of-N timing per variant (default 1; use 3+ on noisy hosts —
//                      the min is the least-interference estimate)
//   --wire=0|1         2-process wire-volume section (default on at <= 10^6 edges)
//   --cluster-edges=N  streaming multi-process CSR run at this scale (0 = skip): edges
//                      are generated shard-by-shard (PowerLawEdgeStream) and fed through
//                      InputHandle::OnPartial, so no process materializes the graph
//   --cluster-procs=N  processes for the streaming run (default 2)

#include <algorithm>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "src/algo/pagerank.h"
#include "src/baseline/gas_engine.h"
#include "src/base/stopwatch.h"
#include "src/core/io.h"
#include "src/gen/graphs.h"
#include "src/lib/operators.h"
#include "src/net/cluster.h"
#include "src/lib/pregel.h"

namespace naiad {
namespace {

constexpr double kExponent = 1.05;
constexpr uint64_t kSeed = 31;

std::atomic<uint64_t> g_sink{0};

std::string FlagStr(int argc, char** argv, const char* name, const std::string& dflt) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return dflt;
}

bool HasVariant(const std::string& list, const char* v) {
  return ("," + list + ",").find("," + std::string(v) + ",") != std::string::npos;
}

template <typename RunFn>
double BestOf(uint64_t reps, RunFn run) {
  double best = run();
  for (uint64_t r = 1; r < reps; ++r) {
    best = std::min(best, run());
  }
  return best;
}

template <typename BuildFn>
double TotalSeconds(const std::vector<Edge>& edges, uint32_t workers, BuildFn build) {
  Controller ctl(Config{.workers_per_process = workers});
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<Edge>(b);
  Stream<NodeRank> out = build(in);
  ForEach<NodeRank>(out, [](const Timestamp&, std::vector<NodeRank>& recs) {
    g_sink.fetch_add(recs.size());
  });
  ctl.Start();
  Stopwatch sw;
  handle->OnNext(edges);
  handle->OnCompleted();
  ctl.Join();
  return sw.ElapsedSeconds();
}

void Report(bench::JsonReport& report, const char* variant, uint64_t edges, uint64_t iters,
            double total_s) {
  // Throughput = edges traversed per second of wall time (the Fig. 7 y-axis quantity).
  const double rps = static_cast<double>(edges) * static_cast<double>(iters) / total_s;
  bench::Row("%-16s %-18.3f %-18.3g", variant, total_s / static_cast<double>(iters), rps);
  report.NewRow();
  report.Str("kind", "variant");
  report.Str("variant", variant);
  report.Num("sec_per_iter", total_s / static_cast<double>(iters));
  report.Num("records_per_sec", rps);
}

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  using namespace naiad;
  const uint64_t edges_n = bench::FlagU64(argc, argv, "edges", 400000);
  const uint64_t nodes_n = bench::FlagU64(argc, argv, "nodes", edges_n / 4);
  const uint64_t iters = bench::FlagU64(argc, argv, "iters", 10);
  const uint32_t workers = static_cast<uint32_t>(bench::FlagU64(argc, argv, "workers", 4));
  const std::string variants =
      FlagStr(argc, argv, "variants", "pregel,vertex,edge,csr,gas");
  const uint64_t reps = std::max<uint64_t>(1, bench::FlagU64(argc, argv, "reps", 1));
  const bool wire = bench::FlagU64(argc, argv, "wire", edges_n <= 1000000 ? 1 : 0) != 0;
  const uint64_t cluster_edges = bench::FlagU64(argc, argv, "cluster-edges", 0);
  const uint32_t cluster_procs =
      static_cast<uint32_t>(bench::FlagU64(argc, argv, "cluster-procs", 2));

  bench::Header("Fig. 7a", "PageRank on a power-law follower graph (§6.1)",
                "per-iteration time: Naiad Edge < Naiad Vertex < Naiad Pregel; layering on "
                "higher abstractions costs, low-level vertices win");
  bench::JsonReport report("fig7a");
  report.Config("nodes", static_cast<double>(nodes_n));
  report.Config("edges", static_cast<double>(edges_n));
  report.Config("iters", static_cast<double>(iters));
  report.Config("workers", static_cast<double>(workers));

  const std::vector<Edge> edges = PowerLawBothGraph(nodes_n, edges_n, kExponent, kSeed);
  bench::Row("synthetic follower graph: %llu nodes, %llu edges (Zipf %.2f in+out); "
             "%u workers; %llu iterations",
             static_cast<unsigned long long>(nodes_n),
             static_cast<unsigned long long>(edges_n), kExponent, workers,
             static_cast<unsigned long long>(iters));
  bench::Row("%-16s %-18s %-18s", "variant", "s / iteration", "records/s");

  if (HasVariant(variants, "pregel")) {
    const double s = BestOf(reps, [&] {
      return TotalSeconds(edges, workers, [iters](Stream<Edge>& in) {
      return Select(Pregel<double, double>(
                        in, 1.0, iters,
                        [](PregelNodeContext<double, double>& ctx,
                           const std::vector<double>& inbox) {
                          if (ctx.superstep() > 0) {
                            double sum = 0;
                            for (double m : inbox) {
                              sum += m;
                            }
                            ctx.state() = 0.15 + 0.85 * sum;
                          }
                          if (!ctx.out_edges().empty()) {
                            ctx.SendToAllNeighbors(
                                ctx.state() / static_cast<double>(ctx.out_edges().size()));
                          }
                        }),
                      [](const std::pair<uint64_t, double>& p) {
                        return NodeRank{p.first, p.second};
                      });
      });
    });
    Report(report, "Naiad Pregel", edges_n, iters, s);
  }
  if (HasVariant(variants, "vertex")) {
    const double s = BestOf(reps, [&] {
      return TotalSeconds(
          edges, workers, [iters](Stream<Edge>& in) { return PageRank(in, iters); });
    });
    Report(report, "Naiad Vertex", edges_n, iters, s);
  }
  if (HasVariant(variants, "edge")) {
    const double s = BestOf(reps, [&] {
      return TotalSeconds(edges, workers, [iters](Stream<Edge>& in) {
        return PageRankEdgePartitioned(in, iters);
      });
    });
    Report(report, "Naiad Edge", edges_n, iters, s);
  }
  if (HasVariant(variants, "csr")) {
    const double s = BestOf(reps, [&] {
      return TotalSeconds(
          edges, workers, [iters](Stream<Edge>& in) { return PageRankCsr(in, iters); });
    });
    Report(report, "Naiad CSR", edges_n, iters, s);
  }
  if (HasVariant(variants, "gas")) {
    const double s = BestOf(reps, [&] {
      GasPageRank gas(edges, workers);
      Stopwatch sw;
      gas.Run(iters);
      return sw.ElapsedSeconds();
    });
    bench::Row("%-16s %-18.3f %-18.3g   (shared-memory comparator)", "GAS baseline",
               s / static_cast<double>(iters),
               static_cast<double>(edges_n) * static_cast<double>(iters) / s);
    report.NewRow();
    report.Str("kind", "variant");
    report.Str("variant", "GAS baseline");
    report.Num("sec_per_iter", s / static_cast<double>(iters));
    report.Num("records_per_sec",
               static_cast<double>(edges_n) * static_cast<double>(iters) / s);
  }

  if (wire) {
    // The Edge variant's advantage is communication volume on skewed graphs (PowerGraph's
    // vertex-cut argument), not single-machine compute — measure wire bytes across a
    // 2-process cluster to show it in its own dimension.
    bench::Row("");
    bench::Row("exchange volume across 2 processes (same graph, %llu iterations):",
               static_cast<unsigned long long>(iters));
    struct WireCase {
      const char* name;
      int which;  // 0 = vertex, 1 = edge, 2 = csr
    };
    for (const WireCase& wc :
         {WireCase{"Naiad Vertex", 0}, WireCase{"Naiad Edge", 1}, WireCase{"Naiad CSR", 2}}) {
      ClusterStats stats = Cluster::Run(
          ClusterOptions{.processes = 2, .workers_per_process = 2},
          [&](Controller& ctl) {
            GraphBuilder b(ctl);
            auto [in, handle] = NewInput<Edge>(b);
            Stream<NodeRank> out =
                wc.which == 1 ? PageRankEdgePartitioned(in, iters, /*grid_bits=*/2)
                : wc.which == 2 ? PageRankCsr(in, iters)
                                : PageRank(in, iters);
            ForEach<NodeRank>(out, [](const Timestamp&, std::vector<NodeRank>&) {});
            ctl.Start();
            handle->OnNext(Shard([&] { return edges; }, ctl.config().process_id, 2));
            handle->OnCompleted();
            ctl.Join();
          });
      bench::Row("  %-14s %8.1f MB on the wire", wc.name, stats.data_bytes / 1048576.0);
      report.NewRow();
      report.Str("kind", "wire");
      report.Str("variant", wc.name);
      report.Num("wire_mb", stats.data_bytes / 1048576.0);
    }
  }

  if (cluster_edges > 0) {
    // The 10^8-edge scale point: every process generates only its shard of the graph
    // (counter-based PowerLawEdgeStream) and streams it into the epoch in bounded chunks.
    const uint64_t cluster_nodes = cluster_edges / 4;
    bench::Row("");
    bench::Row("streaming CSR run: %llu edges, %u processes x 2 workers:",
               static_cast<unsigned long long>(cluster_edges), cluster_procs);
    constexpr size_t kChunk = 1 << 20;
    Stopwatch sw;
    Cluster::Run(
        ClusterOptions{.processes = cluster_procs, .workers_per_process = 2},
        [&](Controller& ctl) {
          GraphBuilder b(ctl);
          auto [in, handle] = NewInput<Edge>(b);
          Stream<NodeRank> out = PageRankCsr(in, iters);
          ForEach<NodeRank>(out, [](const Timestamp&, std::vector<NodeRank>& recs) {
            g_sink.fetch_add(recs.size());
          });
          ctl.Start();
          PowerLawEdgeStream stream(PowerLawEdgeStream::Options{
              .nodes = cluster_nodes,
              .edges = cluster_edges,
              .exponent = kExponent,
              .seed = kSeed,
              .part = ctl.config().process_id,
              .parts = cluster_procs});
          std::vector<Edge> chunk;
          chunk.reserve(kChunk);
          while (stream.NextChunk(chunk, kChunk) > 0) {
            handle->OnPartial(std::move(chunk));
            chunk = {};
            chunk.reserve(kChunk);
          }
          handle->OnNext();  // seal epoch 0
          handle->OnCompleted();
          ctl.Join();
        });
    const double s = sw.ElapsedSeconds();
    const double rps =
        static_cast<double>(cluster_edges) * static_cast<double>(iters) / s;
    bench::Row("  %.1f s total, %.3g records/s", s, rps);
    report.NewRow();
    report.Str("kind", "cluster");
    report.Str("variant", "Naiad CSR");
    report.Num("procs", cluster_procs);
    report.Num("cluster_edges", static_cast<double>(cluster_edges));
    report.Num("seconds", s);
    report.Num("records_per_sec", rps);
  }

  report.Write();
  return 0;
}
