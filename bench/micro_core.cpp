// Micro-benchmarks for the mechanisms §3 engineers around: serialization, progress
// tracking (frontier evaluation vs active-set size), queue hand-off, eventcount
// wakeups, and the SendBy→OnRecv exchange path (Outlet routing buffers, destination
// bucketing, fan-out). These quantify the design choices DESIGN.md calls out (flat
// routing buffers, O(active²) frontier scans, batched MPSC drains, buffered progress
// flushes). Results are also written to BENCH_micro_core.json (see bench_util.h).

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <thread>

#include "bench/bench_util.h"
#include "src/base/event_count.h"
#include "src/base/mpsc_queue.h"
#include "src/core/graph.h"
#include "src/core/io.h"
#include "src/core/progress.h"
#include "src/core/stage.h"
#include "src/ser/codec.h"
#include "src/ser/columns.h"

namespace naiad {
namespace {

void BM_CodecEncodeU64Vector(benchmark::State& state) {
  std::vector<uint64_t> payload(static_cast<size_t>(state.range(0)), 42);
  for (auto _ : state) {
    ByteWriter w;
    Codec<std::vector<uint64_t>>::Encode(w, payload);
    benchmark::DoNotOptimize(w.buffer().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0) * 8);
}
BENCHMARK(BM_CodecEncodeU64Vector)->Arg(64)->Arg(4096);

void BM_CodecRoundTripRecords(benchmark::State& state) {
  std::vector<std::pair<uint64_t, uint64_t>> recs(1024, {7, 9});
  for (auto _ : state) {
    ByteWriter w;
    Codec<decltype(recs)>::Encode(w, recs);
    ByteReader r(w.buffer());
    decltype(recs) out;
    Codec<decltype(recs)>::Decode(r, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_CodecRoundTripRecords);

void BM_TimestampSerde(benchmark::State& state) {
  Timestamp t(42, {1, 2, 3});
  for (auto _ : state) {
    ByteWriter w;
    t.Encode(w);
    ByteReader r(w.buffer());
    Timestamp out;
    out.Decode(r);
    benchmark::DoNotOptimize(out.epoch);
  }
}
BENCHMARK(BM_TimestampSerde);

// Frontier query cost as a function of active-pointstamp count (the O(active^2) design).
void BM_FrontierCanDeliver(benchmark::State& state) {
  LogicalGraph g;
  StageDef in_def;
  StageId in = g.AddStage(std::move(in_def));
  StageDef ing;
  ing.action = TimestampAction::kIngress;
  StageId ingress = g.AddStage(std::move(ing));
  StageDef body_def;
  body_def.depth = 1;
  StageId body = g.AddStage(std::move(body_def));
  StageDef fb;
  fb.depth = 1;
  fb.action = TimestampAction::kFeedback;
  StageId feedback = g.AddStage(std::move(fb));
  auto conn = [&](StageId a, StageId b) {
    ConnectorDef c;
    c.src = a;
    c.dst = b;
    g.AddConnector(std::move(c));
  };
  conn(in, ingress);
  conn(ingress, body);
  conn(body, feedback);
  conn(feedback, body);
  g.Freeze();

  EventCount ev;
  ProgressTracker tracker(&g, &ev);
  std::vector<ProgressUpdate> ups;
  const int64_t actives = state.range(0);
  for (int64_t i = 0; i < actives; ++i) {
    ups.push_back({{Timestamp(0, {static_cast<uint64_t>(i)}), Location::Stage(body)}, +1});
  }
  tracker.Apply(ups);
  const Pointstamp probe{Timestamp(0, {0}), Location::Stage(body)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.CanDeliver(probe));
  }
}
BENCHMARK(BM_FrontierCanDeliver)->Arg(4)->Arg(32)->Arg(256);

void BM_ProgressBufferFlushCombining(benchmark::State& state) {
  const int64_t updates = state.range(0);
  for (auto _ : state) {
    ProgressBuffer buf;
    for (int64_t i = 0; i < updates; ++i) {
      buf.Add({Timestamp(0), Location::Connector(static_cast<uint32_t>(i % 8))}, +1);
      buf.Add({Timestamp(0), Location::Connector(static_cast<uint32_t>(i % 8))}, -1);
    }
    benchmark::DoNotOptimize(buf.Take());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * updates * 2);
}
BENCHMARK(BM_ProgressBufferFlushCombining)->Arg(256);

void BM_MpscQueueHandoff(benchmark::State& state) {
  MpscQueue<uint64_t> q;
  std::vector<uint64_t> out;
  for (auto _ : state) {
    for (int i = 0; i < 128; ++i) {
      q.Push(static_cast<uint64_t>(i));
    }
    out.clear();
    q.DrainInto(out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 128);
}
BENCHMARK(BM_MpscQueueHandoff);

void BM_EventCountSignal(benchmark::State& state) {
  EventCount ev;
  for (auto _ : state) {
    EventCount::Ticket t = ev.PrepareWait();
    ev.NotifyAll();
    ev.CommitWait(t, std::chrono::microseconds(0));
  }
}
BENCHMARK(BM_EventCountSignal);

// ------------------------------------------------------------------------------------
// Exchange-path microbenchmarks: the SendBy→OnRecv hot path Fig. 6a measures, in one
// process so no TCP noise — InputHandle::RouteRecords bucketing, Outlet routing buffers,
// DataItem dispatch, and per-bundle progress accumulation.
// ------------------------------------------------------------------------------------

// Re-sends every record through a partitioned route, one Send() per record.
class ResendVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    for (uint64_t x : batch) {
      output().Send(t, x + 1);
    }
  }
};

// Same, but forwards the whole batch at once (SendBatch bucketing path).
class ResendBatchVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    for (uint64_t& x : batch) {
      x += 1;
    }
    output().SendBatch(t, std::move(batch));
  }
};

// ResendBatchVertex's twin whose batches scatter: vertex v receives keys v, v+4, v+8, ...,
// and `x >> 2` deals them round-robin over all four vertices of a parallelism-4 sink, so
// SendBatch cannot move the batch whole and buckets it record by record.
class ResendMixedBatchVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    for (uint64_t& x : batch) {
      x >>= 2;
    }
    output().SendBatch(t, std::move(batch));
  }
};

// Accumulates metrics across every obs-enabled harness run, for the JSON report.
obs::SnapshotBuilder g_obs_builder;
bool g_obs_any = false;

// A one-worker pipeline input → resend (parallelism 4, hash exchange) → `sinks` ForEach
// stages (fan-out when > 1), all exchanged by value. The sinks have one vertex unless
// `sink_parallelism` says otherwise.
template <typename V>
class ExchangeHarness {
 public:
  // With `with_obs`, metrics and tracing are both on — the configuration the "*Obs"
  // benchmarks compare against their plain twins to bound observability overhead. The
  // trace lands at $NAIAD_TRACE_PATH (CI smoke-checks it) or is discarded.
  static Config MakeConfig(bool with_obs) {
    Config cfg{.workers_per_process = 1};
    if (with_obs) {
      cfg.obs.metrics = true;
      cfg.obs.tracing = true;
      if (const char* path = std::getenv("NAIAD_TRACE_PATH")) {
        cfg.obs.trace_path = path;
      }
    }
    return cfg;
  }

  explicit ExchangeHarness(uint32_t sinks, bool with_obs = false,
                           uint32_t sink_parallelism = 0)
      : with_obs_(with_obs), ctl_(MakeConfig(with_obs)) {
    GraphBuilder b(ctl_);
    auto [in, handle] = NewInput<uint64_t>(b);
    handle_ = handle;
    Partitioner<uint64_t> part = [](const uint64_t& x) { return x; };
    StageId resend =
        b.NewStage<V>(StageOptions{.name = "resend", .parallelism = 4},
                      [](uint32_t) { return std::make_unique<V>(); });
    b.Connect<V, uint64_t>(in, resend, 0, part);
    for (uint32_t s = 0; s < sinks; ++s) {
      StageId sink = b.NewStage<ForEachVertex<uint64_t>>(
          StageOptions{.name = "foreach", .parallelism = sink_parallelism}, [this](uint32_t) {
            return std::make_unique<ForEachVertex<uint64_t>>(
                [this](const Timestamp&, std::vector<uint64_t>& r) {
                  sunk_.fetch_add(r.size(), std::memory_order_relaxed);
                });
          });
      b.Connect<ForEachVertex<uint64_t>, uint64_t>(b.OutputOf<uint64_t>(resend), sink, 0,
                                                   part);
      probe_ = Probe(&ctl_, sink);
    }
    ctl_.Start();
  }
  ~ExchangeHarness() {
    handle_->OnCompleted();
    ctl_.Join();
    if (with_obs_) {
      ctl_.obs().metrics().AccumulateInto(g_obs_builder, 0);
      g_obs_any = true;
    }
  }

  void RunEpoch(std::vector<uint64_t> batch) {
    handle_->OnNext(std::move(batch));
    probe_.WaitPassed(epoch_++);
  }
  uint64_t sunk() const { return sunk_.load(std::memory_order_relaxed); }

 private:
  bool with_obs_;
  Controller ctl_;
  std::shared_ptr<InputHandle<uint64_t>> handle_;
  Probe probe_;
  uint64_t epoch_ = 0;
  std::atomic<uint64_t> sunk_{0};
};

std::vector<uint64_t> EpochBatch(size_t n) {
  std::vector<uint64_t> batch(n);
  for (size_t i = 0; i < n; ++i) {
    batch[i] = i;
  }
  return batch;
}

void BM_ExchangeSendPerRecord(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ExchangeHarness<ResendVertex> h(/*sinks=*/1);
  for (auto _ : state) {
    h.RunEpoch(EpochBatch(n));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  benchmark::DoNotOptimize(h.sunk());
}
BENCHMARK(BM_ExchangeSendPerRecord)->Arg(8192)->UseRealTime();

void BM_ExchangeSendBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ExchangeHarness<ResendBatchVertex> h(/*sinks=*/1);
  for (auto _ : state) {
    h.RunEpoch(EpochBatch(n));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  benchmark::DoNotOptimize(h.sunk());
}
BENCHMARK(BM_ExchangeSendBatch)->Arg(8192)->UseRealTime();

void BM_ExchangeSendBatchMixed(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ExchangeHarness<ResendMixedBatchVertex> h(/*sinks=*/1, /*with_obs=*/false,
                                            /*sink_parallelism=*/4);
  for (auto _ : state) {
    h.RunEpoch(EpochBatch(n));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  benchmark::DoNotOptimize(h.sunk());
}
BENCHMARK(BM_ExchangeSendBatchMixed)->Arg(8192)->UseRealTime();

// Columnar exchange: the resend stage repacks its input into ColumnBatch records via
// ColumnWriter (src/ser/columns.h) and ships whole (keys[], vals[]) columns through the
// route instead of individual records. Per-element cost should land near the bulk-memcpy
// floor BM_CodecEncodeU64Vector measures rather than BM_ExchangeSendPerRecord's per-Send
// dispatch cost.
class PackColumnsVertex final
    : public UnaryVertex<uint64_t, ColumnBatch<uint64_t, uint64_t>> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    const uint64_t dsts = 4;
    auto sink = [&](ColumnBatch<uint64_t, uint64_t>&& b) {
      output().Send(t, std::move(b));
    };
    ColumnWriter<uint64_t, uint64_t, decltype(sink)> cw(dsts, /*flush_at=*/4096, sink);
    for (uint64_t x : batch) {
      cw.Push(x % dsts, x, x + 1);
    }
    cw.Drain();
  }
};

// ExchangeHarness twin with a columnar middle leg: input → pack (parallelism 4, hash
// exchange on raw u64s) → sink stage routed by ColumnBatch::part.
class ColumnsHarness {
 public:
  using B = ColumnBatch<uint64_t, uint64_t>;

  ColumnsHarness() : ctl_(ExchangeHarness<ResendVertex>::MakeConfig(false)) {
    GraphBuilder b(ctl_);
    auto [in, handle] = NewInput<uint64_t>(b);
    handle_ = handle;
    StageId pack = b.NewStage<PackColumnsVertex>(
        StageOptions{.name = "pack", .parallelism = 4},
        [](uint32_t) { return std::make_unique<PackColumnsVertex>(); });
    b.Connect<PackColumnsVertex, uint64_t>(in, pack, 0,
                                           [](const uint64_t& x) { return x; });
    probe_ = ForEach<B>(
        b.OutputOf<B>(pack),
        [this](const Timestamp&, std::vector<B>& r) {
          for (const B& cb : r) {
            sunk_.fetch_add(cb.size(), std::memory_order_relaxed);
          }
        },
        [](const B& cb) { return cb.part; });
    ctl_.Start();
  }
  ~ColumnsHarness() {
    handle_->OnCompleted();
    ctl_.Join();
  }

  void RunEpoch(std::vector<uint64_t> batch) {
    handle_->OnNext(std::move(batch));
    probe_.WaitPassed(epoch_++);
  }
  uint64_t sunk() const { return sunk_.load(std::memory_order_relaxed); }

 private:
  Controller ctl_;
  std::shared_ptr<InputHandle<uint64_t>> handle_;
  Probe probe_;
  uint64_t epoch_ = 0;
  std::atomic<uint64_t> sunk_{0};
};

void BM_ExchangeSendColumns(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ColumnsHarness h;
  for (auto _ : state) {
    h.RunEpoch(EpochBatch(n));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  benchmark::DoNotOptimize(h.sunk());
}
BENCHMARK(BM_ExchangeSendColumns)->Arg(8192)->UseRealTime();

// The same exchange paths with metrics + tracing enabled; the delta against the plain
// variants is the observability overhead the acceptance budget bounds (< 5%).
void BM_ExchangeSendPerRecordObs(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ExchangeHarness<ResendVertex> h(/*sinks=*/1, /*with_obs=*/true);
  for (auto _ : state) {
    h.RunEpoch(EpochBatch(n));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  benchmark::DoNotOptimize(h.sunk());
}
BENCHMARK(BM_ExchangeSendPerRecordObs)->Arg(8192)->UseRealTime();

void BM_ExchangeSendBatchObs(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ExchangeHarness<ResendBatchVertex> h(/*sinks=*/1, /*with_obs=*/true);
  for (auto _ : state) {
    h.RunEpoch(EpochBatch(n));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  benchmark::DoNotOptimize(h.sunk());
}
BENCHMARK(BM_ExchangeSendBatchObs)->Arg(8192)->UseRealTime();

void BM_ExchangeFanout2(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  ExchangeHarness<ResendVertex> h(/*sinks=*/2);
  for (auto _ : state) {
    h.RunEpoch(EpochBatch(n));
  }
  // Each record crosses the exchange once and is delivered to both sinks.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * 2);
  benchmark::DoNotOptimize(h.sunk());
}
BENCHMARK(BM_ExchangeFanout2)->Arg(8192)->UseRealTime();

// Captures finished runs so main() can write BENCH_micro_core.json next to the console
// table (the machine-readable perf trajectory; see EXPERIMENTS.md).
class CapturingReporter final : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    bool is_median = false;
    double real_time_ns = 0;
    double items_per_sec = 0;
  };

  // Under --benchmark_repetitions the per-iteration runs are noise; capture the median
  // aggregate for each benchmark then, and fall back to the raw run otherwise.
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.error_occurred) {
        continue;
      }
      const bool is_median =
          r.run_type == Run::RT_Aggregate && r.aggregate_name == "median";
      if (r.run_type != Run::RT_Iteration && !is_median) {
        continue;
      }
      Captured c;
      c.name = r.run_name.str();
      c.is_median = is_median;
      c.real_time_ns = r.GetAdjustedRealTime();
      auto it = r.counters.find("items_per_second");
      if (it != r.counters.end()) {
        c.items_per_sec = it->second.value;
      }
      captured.push_back(std::move(c));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  // One row per benchmark: the median aggregate when repetitions produced one, else the
  // single raw run.
  std::vector<Captured> Rows() const {
    bool any_median = false;
    for (const Captured& c : captured) {
      any_median = any_median || c.is_median;
    }
    std::vector<Captured> rows;
    for (const Captured& c : captured) {
      if (c.is_median == any_median) {
        rows.push_back(c);
      }
    }
    return rows;
  }

  std::vector<Captured> captured;
};

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  naiad::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  naiad::bench::JsonReport json("micro_core");
  json.Config("time_unit", "ns");
  for (const auto& c : reporter.Rows()) {
    json.NewRow();
    json.Str("name", c.name);
    json.Num("real_time_ns", c.real_time_ns);
    if (c.items_per_sec > 0) {
      json.Num("records_per_sec", c.items_per_sec);
    }
  }
  if (naiad::g_obs_any) {
    naiad::bench::AddObsRows(json, naiad::g_obs_builder.Finalize());
  }
  json.Write();
  benchmark::Shutdown();
  return 0;
}
