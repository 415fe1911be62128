// Figure 6c (§5.3): progress-tracking protocol traffic under the §3.3 optimizations.
//
// Runs the same weakly-connected-components computation on a random graph under each
// accumulation strategy and reports the bytes of progress-protocol traffic sent over the
// wire. Paper's shape: accumulation cuts traffic by one to two orders of magnitude
// (None >> GlobalAcc, LocalAcc > Local+GlobalAcc), with no significant change in results
// or (for local accumulation) running time.
//
// The bench additionally breaks progress traffic down by scope (WCC's label-propagation
// loop is a scope nested in the root scope): `cross KB` is root-space wire bytes plus
// summarized boundary bytes — the traffic that must cross scope boundaries — while
// `in-scope KB` is loop-internal traffic that a per-scope deployment keeps local. The
// tracker keeps per-scope occurrence maps and only boundary-crossing summaries reach the
// parent (`bnd upd`; `occ root` is the root scope's share of the occurrence-map peak).
// `reduction` is each strategy's progress bytes relative to None. Rows land in
// BENCH_fig6c.json keyed by NAIAD_BENCH_LABEL.

#include <mutex>
#include <set>

#include "bench/bench_util.h"
#include "src/algo/wcc.h"
#include "src/core/io.h"
#include "src/gen/graphs.h"
#include "src/net/cluster.h"

namespace naiad {
namespace {

struct Outcome {
  ClusterStats stats;
  uint64_t components = 0;
};

Outcome RunWcc(ProgressStrategy strategy, uint64_t nodes, uint64_t edges) {
  Outcome out;
  std::mutex mu;
  std::set<uint64_t> components;
  out.stats = Cluster::Run(
      ClusterOptions{.processes = 4, .workers_per_process = 1, .strategy = strategy},
      [&](Controller& ctl) {
        GraphBuilder b(ctl);
        auto [in, handle] = NewInput<Edge>(b);
        Subscribe<NodeLabel>(ConnectedComponents(in),
                             [&](uint64_t, std::vector<NodeLabel>& recs) {
                               std::lock_guard<std::mutex> lock(mu);
                               for (const NodeLabel& nl : recs) {
                                 components.insert(nl.second);
                               }
                             });
        ctl.Start();
        // SPMD: each process generates its shard of the same graph.
        const uint32_t pid = ctl.config().process_id;
        handle->OnNext(Shard([&] { return RandomGraph(nodes, edges, 11); }, pid, 4));
        handle->OnCompleted();
        ctl.Join();
      });
  out.components = components.size();
  return out;
}

}  // namespace
}  // namespace naiad

int main() {
  using namespace naiad;
  bench::Header("Fig. 6c", "progress protocol optimizations (§5.3, §3.3)",
                "accumulating updates (per-process and/or at a central accumulator) "
                "reduces protocol traffic by 1-2 orders of magnitude on a WCC run");
  constexpr uint64_t kNodes = 20000;
  constexpr uint64_t kEdges = 60000;
  bench::Row("WCC on a random graph: %llu nodes, %llu edges; 4 processes x 1 worker",
             static_cast<unsigned long long>(kNodes),
             static_cast<unsigned long long>(kEdges));

  bench::JsonReport report("fig6c");
  report.Config("nodes", static_cast<double>(kNodes));
  report.Config("edges", static_cast<double>(kEdges));
  report.Config("processes", 4.0);

  bench::Row("%-18s %-12s %-10s %-10s %-12s %-10s %-9s %-9s %-9s %-11s", "strategy",
             "progress KB", "reduction", "cross KB", "in-scope KB", "bnd upd", "occ peak",
             "occ root", "seconds", "components");
  double none_kb = 0;
  for (ProgressStrategy s : {ProgressStrategy::kDirect, ProgressStrategy::kGlobalAcc,
                             ProgressStrategy::kLocalAcc, ProgressStrategy::kLocalGlobalAcc}) {
    Outcome o = RunWcc(s, kNodes, kEdges);
    const double kb = o.stats.progress_bytes / 1024.0;
    const bench::ScopeAccounting acc = bench::ScopeAccounting::From(o.stats);
    if (s == ProgressStrategy::kDirect) {
      none_kb = kb;
    }
    const double reduction = kb > 0 ? none_kb / kb : 0;
    bench::Row("%-18s %-12.1f %-10.1f %-10.1f %-12.1f %-10.0f %-9.0f %-9.0f %-9.2f "
               "%-11llu",
               ToString(s), kb, reduction, acc.cross_total_kb, acc.in_scope_kb,
               acc.boundary_updates, acc.occ_map_peak, acc.occ_map_peak_root,
               o.stats.elapsed_seconds, static_cast<unsigned long long>(o.components));
    report.NewRow();
    report.Str("strategy", ToString(s));
    report.Num("progress_kb", kb);
    report.Num("reduction", reduction);
    acc.AddTo(report);
    report.Num("frames", static_cast<double>(o.stats.progress_frames));
    report.Num("seconds", o.stats.elapsed_seconds);
    report.Num("components", static_cast<double>(o.components));
  }
  bench::Row("(reduction = 'None' progress KB / the strategy's; 'None' = %.1f KB)",
             none_kb);
  report.Write();
  return 0;
}
