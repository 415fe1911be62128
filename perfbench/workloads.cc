// The four benchmark workloads. Each builds its dataflow through the public API, feeds
// inputs generated from the run's seed before timing, and checks every output against an
// oracle. README.md gives the reasons each one was chosen.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "perfbench/bench.h"
#include "src/algo/pagerank.h"
#include "src/base/rng.h"
#include "src/core/io.h"
#include "src/core/loop.h"
#include "src/core/stage.h"
#include "src/gen/graphs.h"
#include "src/lib/keyed_ops.h"
#include "src/ser/codec.h"
#include "src/ser/columns.h"

namespace naiad::perfbench {
namespace {

// Encodes and decodes `batch` (holding `records` records) through the public codec for
// ~20 ms each, and reports the per-record cost.
template <typename T>
CodecCost TimeCodec(const std::vector<T>& batch, size_t records) {
  constexpr uint64_t kWindowNs = 20'000'000;
  CodecCost c;
  const std::vector<uint8_t> bytes = EncodeToBytes(batch);
  c.bytes_per_record = static_cast<double>(bytes.size()) / static_cast<double>(records);
  uint64_t reps = 0;
  size_t encoded = 0;
  uint64_t t0 = NowNs();
  do {
    ByteWriter w;
    Codec<std::vector<T>>::Encode(w, batch);
    encoded += w.size();
    ++reps;
  } while (NowNs() - t0 < kWindowNs);
  c.encode_ns_per_record = static_cast<double>(NowNs() - t0) /
                           static_cast<double>(reps * records);
  NAIAD_CHECK(encoded == reps * bytes.size());
  reps = 0;
  t0 = NowNs();
  do {
    std::vector<T> out;
    NAIAD_CHECK(DecodeFromBytes(bytes, out) && out.size() == batch.size());
    ++reps;
  } while (NowNs() - t0 < kWindowNs);
  c.decode_ns_per_record = static_cast<double>(NowNs() - t0) /
                           static_cast<double>(reps * records);
  return c;
}

// Where block `part` starts when `n` items are split into `parts` contiguous blocks.
size_t BlockStart(size_t n, uint32_t part, uint32_t parts) { return n * part / parts; }

// -----------------------------------------------------------------------------------------
// exchange: the Fig. 6a cyclic all-to-all exchange of 8-byte records.
// -----------------------------------------------------------------------------------------

struct ExchangeTally {
  std::atomic<uint64_t> count{0};      // records received by the rotate stage
  std::atomic<uint64_t> sum{0};        // their values on arrival, mod 2^64
  std::atomic<bool> corrupt{false};    // alter one record in flight, once
};

// Receives a batch, checks it into the tally, advances every record by one worker and
// sends the batch on.
class RotateVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  explicit RotateVertex(ExchangeTally* tally) : tally_(tally) {}

  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    Span span(SpanKind::kCallback);
    uint64_t sum = 0;
    for (uint64_t& x : batch) {
      sum += x;
      x += 1;  // the next hop lands on the next worker
    }
    if (tally_->corrupt.exchange(false)) {
      batch.front() += 1;
    }
    tally_->count.fetch_add(batch.size(), std::memory_order_relaxed);
    tally_->sum.fetch_add(sum, std::memory_order_relaxed);
    Span send(SpanKind::kSendBatch);
    output().SendBatch(t, std::move(batch));
  }

 private:
  ExchangeTally* tally_;
};

class Exchange final : public Workload {
 public:
  Exchange(bool smoke, bool corrupt)
      : records_(smoke ? 40'000 : 1'000'000), rounds_(smoke ? 5 : 20), corrupt_(corrupt) {}

  void Generate(uint64_t seed) override {
    Rng rng(HashCombine(seed, 0x6a));
    input_.resize(records_);
    for (uint64_t& x : input_) {
      x = rng.Next();
    }
  }

  Trial Run(const ClusterOptions& opts) override {
    const uint32_t procs = opts.processes;
    std::vector<std::vector<uint64_t>> slices(procs);
    for (uint32_t p = 0; p < procs; ++p) {
      slices[p].assign(input_.begin() + BlockStart(input_.size(), p, procs),
                       input_.begin() + BlockStart(input_.size(), p + 1, procs));
    }
    ExchangeTally tally;
    tally.corrupt = std::exchange(corrupt_, false);
    const uint64_t rounds = rounds_;
    Trial tr = RunTrial(opts, [&](Controller& ctl, TrialClock& clock) {
      GraphBuilder b(ctl);
      auto [in, handle] = NewInput<uint64_t>(b);
      LoopContext loop(b, 0, "exchange");
      FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>(rounds);
      Partitioner<uint64_t> part = [](const uint64_t& x) { return x; };
      Stream<uint64_t> entered = loop.Ingress<uint64_t>(in, part);
      StageId rotate = b.NewStage<RotateVertex>(
          StageOptions{.name = "rotate", .depth = 1},
          [&tally](uint32_t) { return std::make_unique<RotateVertex>(&tally); });
      b.Connect<RotateVertex, uint64_t>(entered, rotate, 0, part);
      b.Connect<RotateVertex, uint64_t>(fb.stream(), rotate, 0, part);
      fb.ConnectLoop(b.OutputOf<uint64_t>(rotate), part);
      ctl.Start();
      const uint32_t pid = ctl.config().process_id;
      std::vector<uint64_t> data = std::move(slices[pid]);
      clock.Ready(pid);
      {
        Span s(SpanKind::kOffer);
        handle->OnNext(std::move(data));
      }
      handle->OnCompleted();
      clock.Completed(pid);
      ctl.Join();
    });
    // Oracle: every record arrives at the rotate stage once per round, carrying its input
    // value plus the round number.
    const uint64_t n = input_.size();
    uint64_t input_sum = 0;
    for (uint64_t x : input_) {
      input_sum += x;
    }
    const uint64_t want_count = n * rounds;
    const uint64_t want_sum = rounds * input_sum + n * (rounds * (rounds - 1) / 2);
    tr.ops = want_count;
    tr.attempted = want_count;
    tr.failed = tally.count.load() == want_count && tally.sum.load() == want_sum
                    ? 0
                    : want_count;
    // The records pipeline through the rounds, so the job is the unit of latency.
    tr.op_us = {tr.job_s * 1e6};
    tr.offered = n;
    tr.sent = tally.count.load();
    return tr;
  }

  CodecCost MeasureCodec() override {
    const std::vector<uint64_t> batch(input_.begin(),
                                      input_.begin() + std::min<size_t>(4096, input_.size()));
    return TimeCodec(batch, batch.size());
  }

 private:
  uint64_t records_;
  uint64_t rounds_;
  bool corrupt_;
  std::vector<uint64_t> input_;
};

// -----------------------------------------------------------------------------------------
// barrier: the Fig. 6b empty loop of notifications.
// -----------------------------------------------------------------------------------------

class BarrierVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  // `hits` counts this vertex's notifications per iteration (the last slot counts any
  // beyond the loop); only this vertex's worker writes it. `marks` is non-null on the one
  // vertex that stamps iteration ends; `stop_at` cuts this vertex's notification chain
  // short (a lost notification, for the corruption check).
  BarrierVertex(uint64_t iters, uint64_t stop_at, std::vector<uint32_t>* hits,
                std::vector<uint64_t>* marks)
      : iters_(iters), stop_at_(stop_at), hits_(hits), marks_(marks) {}

  void OnRecv(const Timestamp&, std::vector<uint64_t>&) override {}
  void OnNotify(const Timestamp& t) override {
    Span span(SpanKind::kCallback);
    ++(*hits_)[std::min<uint64_t>(t.coords.back(), iters_)];
    if (marks_ != nullptr) {
      marks_->push_back(NowNs());
    }
    if (t.coords.back() + 1 < std::min(iters_, stop_at_)) {
      NotifyAt(t.Incremented());
    }
  }

 private:
  uint64_t iters_;
  uint64_t stop_at_;
  std::vector<uint32_t>* hits_;
  std::vector<uint64_t>* marks_;
};

class Barrier final : public Workload {
 public:
  Barrier(bool smoke, bool corrupt) : iters_(smoke ? 50 : 1000), corrupt_(corrupt) {}

  // The barrier moves no data; the seed has nothing to draw.
  void Generate(uint64_t) override {}

  Trial Run(const ClusterOptions& opts) override {
    const uint32_t total = opts.processes * opts.workers_per_process;
    std::vector<std::vector<uint32_t>> hits(total, std::vector<uint32_t>(iters_ + 1, 0));
    std::vector<uint64_t> marks;
    marks.reserve(iters_);
    uint64_t offer_start = 0;
    const uint64_t iters = iters_;
    const uint64_t stop_at = std::exchange(corrupt_, false) ? iters / 2 : iters;
    Trial tr = RunTrial(opts, [&](Controller& ctl, TrialClock& clock) {
      GraphBuilder b(ctl);
      auto [in, handle] = NewInput<uint64_t>(b);
      LoopContext loop(b, 0, "barrier");
      FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>();
      Stream<uint64_t> entered = loop.Ingress<uint64_t>(in);
      StageId barrier = b.NewStage<BarrierVertex>(
          StageOptions{.name = "barrier",
                       .depth = 1,
                       .initial_notifications = {Timestamp(0, {0})}},
          [&](uint32_t index) {
            return std::make_unique<BarrierVertex>(iters, index == total - 1 ? stop_at : iters,
                                                   &hits[index],
                                                   index == 0 ? &marks : nullptr);
          });
      b.Connect<BarrierVertex, uint64_t>(entered, barrier);
      b.Connect<BarrierVertex, uint64_t>(fb.stream(), barrier);
      fb.ConnectLoop(b.OutputOf<uint64_t>(barrier));
      ctl.Start();
      const uint32_t pid = ctl.config().process_id;
      if (pid == 0) {
        offer_start = NowNs();
      }
      clock.Ready(pid);
      handle->OnCompleted();
      clock.Completed(pid);
      ctl.Join();
    });
    // Oracle: every vertex is notified exactly once per iteration, and never beyond the
    // loop; an iteration fails if any vertex missed it or saw it twice.
    tr.ops = iters;
    tr.attempted = iters;
    std::vector<uint8_t> bad(iters, 0);
    uint64_t beyond = 0;
    for (const std::vector<uint32_t>& h : hits) {
      for (uint64_t i = 0; i < iters; ++i) {
        bad[i] |= h[i] != 1 ? 1 : 0;
      }
      beyond += h[iters];
    }
    tr.failed = static_cast<uint64_t>(std::count(bad.begin(), bad.end(), 1));
    if (beyond > 0) {
      tr.failed = std::max<uint64_t>(tr.failed, 1);
    }
    uint64_t prev = offer_start;
    for (uint64_t m : marks) {
      tr.op_us.push_back(static_cast<double>(m - prev) * 1e-3);
      prev = m;
    }
    if (!tr.op_us.empty()) {
      tr.op_us.erase(tr.op_us.begin());  // iteration 0 also covers the job's start-up
    }
    return tr;
  }

  // No record ever crosses a process, so no codec runs.
  CodecCost MeasureCodec() override { return {}; }

 private:
  uint64_t iters_;
  bool corrupt_;
};

// -----------------------------------------------------------------------------------------
// stream: an open loop of Zipf-keyed epochs through a cross-process keyed count.
// -----------------------------------------------------------------------------------------

class StreamCount final : public Workload {
 public:
  StreamCount(bool smoke, bool corrupt)
      : epochs_(smoke ? 50 : 500), corrupt_(corrupt) {}

  void Generate(uint64_t seed) override {
    batches_.assign(kProcesses, {});
    for (uint32_t p = 0; p < kProcesses; ++p) {
      ZipfSampler zipf(kKeys, kZipf, HashCombine(seed, p));
      batches_[p].resize(epochs_);
      for (std::vector<uint64_t>& batch : batches_[p]) {
        batch.resize(kPerEpoch);
        for (uint64_t& k : batch) {
          k = zipf.Next();
        }
      }
    }
  }

  Trial Run(const ClusterOptions& opts) override {
    NAIAD_CHECK(opts.processes == kProcesses);
    const uint64_t epochs = epochs_;
    const uint64_t interval_ns = kIntervalNs;
    // Written only by the sink, which runs on one worker thread.
    std::vector<uint32_t> seen(epochs, 0);
    std::vector<uint64_t> totals(epochs, 0);
    std::vector<double> latency_us(epochs, 0);
    std::atomic<uint64_t> delivered{0};
    std::atomic<bool> corrupt{std::exchange(corrupt_, false)};
    // The open loop's one clock: each process's body waits until both are ready.
    std::mutex mu;
    std::condition_variable cv;
    uint32_t arrived = 0;
    uint64_t start_ns = 0;
    std::array<std::vector<double>, kProcesses> lag_us;
    std::array<uint64_t, kProcesses> backlog_max{};
    Trial tr = RunTrial(opts, [&](Controller& ctl, TrialClock& clock) {
      GraphBuilder b(ctl);
      auto [in, handle] = NewInput<uint64_t>(b);
      auto counts = Count(in, [](const uint64_t& k) { return k; });
      auto sums = GroupBy(
          counts, [](const std::pair<uint64_t, uint64_t>&) { return uint64_t{0}; },
          [&corrupt](const uint64_t&, std::vector<std::pair<uint64_t, uint64_t>>& kv) {
            uint64_t s = 0;
            for (const auto& [key, n] : kv) {
              s += n;
            }
            if (corrupt.exchange(false)) {
              ++s;
            }
            return std::vector<uint64_t>{s};
          });
      Subscribe<uint64_t>(sums, [&](uint64_t epoch, std::vector<uint64_t>& recs) {
        Span span(SpanKind::kSink);
        const uint64_t now = NowNs();
        if (epoch < epochs) {
          ++seen[epoch];
          for (uint64_t r : recs) {
            totals[epoch] += r;
          }
          const uint64_t due = start_ns + epoch * interval_ns;
          latency_us[epoch] = now > due ? static_cast<double>(now - due) * 1e-3 : 0;
        }
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
      ctl.Start();
      const uint32_t pid = ctl.config().process_id;
      const std::vector<std::vector<uint64_t>>& mine = batches_[pid];
      clock.Ready(pid);
      {
        std::unique_lock<std::mutex> lock(mu);
        if (++arrived == kProcesses) {
          start_ns = NowNs() + kLeadNs;
          cv.notify_all();
        } else {
          cv.wait(lock, [&] { return arrived == kProcesses; });
        }
      }
      lag_us[pid].reserve(epochs);
      for (uint64_t e = 0; e < epochs; ++e) {
        const uint64_t due = start_ns + e * interval_ns;
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
        const uint64_t now = NowNs();
        lag_us[pid].push_back(now > due ? static_cast<double>(now - due) * 1e-3 : 0);
        std::vector<uint64_t> batch = mine[e];
        {
          Span s(SpanKind::kOffer);
          handle->OnNext(std::move(batch));
        }
        const uint64_t done = delivered.load(std::memory_order_relaxed);
        backlog_max[pid] = std::max(backlog_max[pid], e + 1 > done ? e + 1 - done : 0);
      }
      handle->OnCompleted();
      clock.Completed(pid);
      ctl.Join();
    });
    // Oracle: each epoch's total is delivered exactly once and equals the records offered.
    const uint64_t want = kPerEpoch * kProcesses;
    tr.ops = epochs * want;
    tr.attempted = epochs;
    for (uint64_t e = 0; e < epochs; ++e) {
      if (seen[e] != 1 || totals[e] != want) {
        ++tr.failed;
      }
    }
    tr.op_us = latency_us;
    std::vector<double> lags;
    for (const auto& l : lag_us) {
      lags.insert(lags.end(), l.begin(), l.end());
    }
    tr.layer["gen.lag_us_p99"] = Percentile(lags, 99);
    tr.layer["gen.backlog_epochs_max"] =
        static_cast<double>(std::max(backlog_max[0], backlog_max[1]));
    tr.offered = tr.ops;
    return tr;
  }

  CodecCost MeasureCodec() override { return TimeCodec(batches_[0][0], kPerEpoch); }

 private:
  static constexpr uint32_t kProcesses = 2;
  static constexpr uint64_t kKeys = 100'000;
  static constexpr double kZipf = 1.0;
  static constexpr uint64_t kPerEpoch = 1000;  // records per process per epoch
  // One epoch per process every 2 ms, 1M records/s in all: a quarter of the highest rate
  // at which this dataflow kept up on a 4-core host (4M/s; at 5M/s the backlog grew on one
  // seed of two, at 6M/s on both), so that a host that steals a third of the CPU does not
  // tip it into a growing backlog. README.md has the measurement.
  static constexpr uint64_t kIntervalNs = 2'000'000;
  static constexpr uint64_t kLeadNs = 1'000'000;      // first due time after both ready
  uint64_t epochs_;
  bool corrupt_;
  std::vector<std::vector<std::vector<uint64_t>>> batches_;  // [process][epoch]
};

// -----------------------------------------------------------------------------------------
// pagerank: CSR PageRank over a power-law graph sharded across the processes.
// -----------------------------------------------------------------------------------------

class PageRankJob final : public Workload {
 public:
  PageRankJob(bool smoke, bool corrupt)
      : nodes_(smoke ? 5'000 : 300'000),
        edges_(smoke ? 20'000 : 1'500'000),
        iters_(smoke ? 5 : 10),
        corrupt_(corrupt) {}

  void Generate(uint64_t seed) override {
    constexpr size_t kChunk = 1 << 16;
    shards_.assign(kProcesses, {});
    std::vector<Edge> all;
    all.reserve(edges_);
    for (uint32_t p = 0; p < kProcesses; ++p) {
      PowerLawEdgeStream stream(PowerLawEdgeStream::Options{.nodes = nodes_,
                                                            .edges = edges_,
                                                            .exponent = 1.05,
                                                            .seed = seed,
                                                            .part = p,
                                                            .parts = kProcesses});
      std::vector<Edge> chunk;
      while (stream.NextChunk(chunk, kChunk) > 0) {
        all.insert(all.end(), chunk.begin(), chunk.end());
        shards_[p].push_back(std::move(chunk));
        chunk = {};
      }
    }
    // Sequential reference with the CSR variant's semantics: ranks start at 1.0 and
    // iterations 1..iters-1 each apply rank = base + damping * (sum of in-shares).
    std::vector<uint32_t> degree(nodes_, 0);
    std::vector<uint8_t> present(nodes_, 0);
    for (const Edge& e : all) {
      ++degree[e.first];
      present[e.first] = present[e.second] = 1;
    }
    std::vector<double> rank(nodes_, 1.0);
    std::vector<double> acc(nodes_, 0.0);
    for (uint64_t it = 1; it < iters_; ++it) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (const Edge& e : all) {
        acc[e.second] += rank[e.first] / degree[e.first];
      }
      for (uint64_t v = 0; v < nodes_; ++v) {
        rank[v] = kPrBase + kPrDamping * acc[v];
      }
    }
    reference_ = std::move(rank);
    present_ = std::move(present);
    nodes_present_ = static_cast<uint64_t>(std::count(present_.begin(), present_.end(), 1));
    sample_edges_.assign(all.begin(), all.begin() + std::min<size_t>(4096, all.size()));
  }

  Trial Run(const ClusterOptions& opts) override {
    NAIAD_CHECK(opts.processes == kProcesses);
    std::vector<std::vector<std::vector<Edge>>> chunks = shards_;
    if (std::exchange(corrupt_, false)) {
      chunks[0][0][0].second = (chunks[0][0][0].second + 1) % nodes_;
    }
    std::vector<NodeRank> result;
    const uint64_t iters = iters_;
    Trial tr = RunTrial(opts, [&](Controller& ctl, TrialClock& clock) {
      GraphBuilder b(ctl);
      auto [in, handle] = NewInput<Edge>(b);
      Stream<NodeRank> out = PageRankCsr(in, iters);
      Subscribe<NodeRank>(out, [&result](uint64_t, std::vector<NodeRank>& recs) {
        Span span(SpanKind::kSink);
        result.insert(result.end(), recs.begin(), recs.end());
      });
      ctl.Start();
      const uint32_t pid = ctl.config().process_id;
      if (pid == 0) {
        for (StageId s = 0; s < ctl.graph().num_stages(); ++s) {
          if (ctl.graph().stage(s).name == "pagerank-csr") {
            pr_stage_ = s;
          }
        }
      }
      clock.Ready(pid);
      for (std::vector<Edge>& chunk : chunks[pid]) {
        Span s(SpanKind::kOffer);
        handle->OnPartial(std::move(chunk));
      }
      handle->OnNext();  // seal epoch 0
      handle->OnCompleted();
      clock.Completed(pid);
      ctl.Join();
    });
    // Oracle: one rank per node, within 1e-9 relative of the sequential reference.
    tr.attempted = nodes_present_;
    std::vector<uint8_t> seen(nodes_, 0);
    std::vector<double> got(nodes_, 0.0);
    for (const auto& [node, r] : result) {
      if (node >= nodes_ || !present_[node] || seen[node]++ != 0) {
        ++tr.failed;  // unknown or delivered twice
      } else {
        got[node] = r;
      }
    }
    for (uint64_t v = 0; v < nodes_; ++v) {
      if (present_[v] && (seen[v] == 0 || std::abs(got[v] - reference_[v]) >
                                              1e-9 * std::abs(reference_[v]))) {
        ++tr.failed;
      }
    }
    tr.failed = std::min(tr.failed, tr.attempted);
    tr.ops = edges_ * iters;
    tr.op_us = {tr.job_s * 1e6};
    tr.offered = edges_;
    if (!opts.obs.trace_path.empty()) {
      ReadTrace(opts.obs.trace_path, tr.layer);
    }
    return tr;
  }

  CodecCost MeasureCodec() override {
    // One column batch of rank contributions: a record is one (node, rank) entry.
    RankColumns cols;
    for (const Edge& e : sample_edges_) {
      cols.Push(e.second, 1.0 / static_cast<double>(e.first + 1));
    }
    return TimeCodec(std::vector<RankColumns>{cols}, cols.size());
  }

  bool WantsTraceFile() const override { return true; }

 private:
  static constexpr uint32_t kProcesses = 2;

  // Iteration timings from the notification events of the trace file: the CSR build runs
  // inside each vertex's iteration-0 notification, and a vertex's later notifications are
  // iterations 1, 2, ... in order.
  void ReadTrace(const std::string& path, std::map<std::string, double>& layer) const {
    std::ifstream in(path);
    std::map<std::pair<uint32_t, uint32_t>, std::vector<std::pair<double, double>>> by_vertex;
    std::string line;
    while (std::getline(in, line)) {
      unsigned pid = 0;
      unsigned tid = 0;
      double ts = 0;
      double dur = 0;
      unsigned long long stage = 0;
      if (std::sscanf(line.c_str(),
                      "{\"name\": \"notify\", \"ph\": \"X\", \"pid\": %u, \"tid\": %u, "
                      "\"ts\": %lf, \"dur\": %lf, \"args\": {\"stage\": %llu",
                      &pid, &tid, &ts, &dur, &stage) == 5 &&
          stage == pr_stage_) {
        by_vertex[{pid, tid}].emplace_back(ts, dur);
      }
    }
    double build_us = 0;
    std::vector<double> iter_end;  // per iteration, the last vertex's callback end
    for (auto& [vertex, events] : by_vertex) {
      std::sort(events.begin(), events.end());
      build_us = std::max(build_us, events[0].second);
      if (iter_end.size() < events.size()) {
        iter_end.resize(events.size(), 0);
      }
      for (size_t i = 0; i < events.size(); ++i) {
        iter_end[i] = std::max(iter_end[i], events[i].first + events[i].second);
      }
    }
    std::vector<double> iter_s;
    for (size_t i = 1; i < iter_end.size(); ++i) {
      iter_s.push_back((iter_end[i] - iter_end[i - 1]) * 1e-6);
    }
    layer["algo.pagerank.build_s"] = build_us * 1e-6;
    layer["algo.pagerank.iter_s_p50"] = Median(iter_s);
  }

  uint64_t nodes_;
  uint64_t edges_;
  uint64_t iters_;
  bool corrupt_;
  std::vector<std::vector<std::vector<Edge>>> shards_;  // [process][chunk]
  std::vector<double> reference_;  // rank by node id, valid where present_
  std::vector<uint8_t> present_;
  uint64_t nodes_present_ = 0;
  std::vector<Edge> sample_edges_;
  StageId pr_stage_ = ~StageId{0};
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke, bool corrupt) {
  if (name == "exchange") {
    return std::make_unique<Exchange>(smoke, corrupt);
  }
  if (name == "barrier") {
    return std::make_unique<Barrier>(smoke, corrupt);
  }
  if (name == "stream") {
    return std::make_unique<StreamCount>(smoke, corrupt);
  }
  if (name == "pagerank") {
    return std::make_unique<PageRankJob>(smoke, corrupt);
  }
  return nullptr;
}

}  // namespace naiad::perfbench
