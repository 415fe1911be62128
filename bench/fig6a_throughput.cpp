// Figure 6a (§5.1): all-to-all data exchange throughput.
//
// A cyclic dataflow repeatedly exchanges 8-byte records among all workers of all
// processes; the paper plots aggregate throughput against cluster size, against an "ideal"
// network bound and a raw .NET-socket baseline. Here the wire is loopback TCP, so the raw
// TCP baseline is measured the same way, and the expected shape is: Naiad's wire
// throughput tracks below the raw-socket line (serialization + partitioning overhead on
// 8-byte records is the worst case, as in the paper) and aggregate records/s grows with
// the worker count.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/stopwatch.h"
#include "src/core/io.h"
#include "src/core/loop.h"
#include "src/core/stage.h"
#include "src/net/cluster.h"
#include "src/net/socket.h"

namespace naiad {
namespace {

// Re-exchanges every record with a rotated key so each hop re-partitions (all-to-all).
class RotateVertex final : public UnaryVertex<uint64_t, uint64_t> {
 public:
  void OnRecv(const Timestamp& t, std::vector<uint64_t>& batch) override {
    for (uint64_t& x : batch) {
      x += 1;  // next hop lands on the next worker
    }
    this->output().SendBatch(t, std::move(batch));
  }
};

struct Result {
  double seconds = 0;
  uint64_t wire_bytes = 0;
  uint64_t records_moved = 0;
};

Result RunExchange(uint32_t processes, uint32_t workers, uint64_t records_per_worker,
                   uint64_t rounds) {
  Result res;
  Stopwatch sw;
  ClusterStats stats = Cluster::Run(
      ClusterOptions{.processes = processes, .workers_per_process = workers},
      [&](Controller& ctl) {
        GraphBuilder b(ctl);
        auto [in, handle] = NewInput<uint64_t>(b);
        LoopContext loop(b, 0, "exchange");
        FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>(rounds);
        Partitioner<uint64_t> part = [](const uint64_t& x) { return x; };
        Stream<uint64_t> entered = loop.Ingress<uint64_t>(in, part);
        StageId rotate = b.NewStage<RotateVertex>(
            StageOptions{.name = "rotate", .depth = 1},
            [](uint32_t) { return std::make_unique<RotateVertex>(); });
        b.Connect<RotateVertex, uint64_t>(entered, rotate, 0, part);
        b.Connect<RotateVertex, uint64_t>(fb.stream(), rotate, 0, part);
        fb.ConnectLoop(b.OutputOf<uint64_t>(rotate), part);
        ctl.Start();
        const uint32_t tw = ctl.total_workers();
        std::vector<uint64_t> data;
        data.reserve(records_per_worker * ctl.config().workers_per_process);
        for (uint64_t i = 0; i < records_per_worker * ctl.config().workers_per_process;
             ++i) {
          data.push_back(i * tw + ctl.config().process_id);  // spread over all workers
        }
        handle->OnNext(std::move(data));
        handle->OnCompleted();
        ctl.Join();
      });
  res.seconds = sw.ElapsedSeconds();
  res.wire_bytes = stats.data_bytes;
  res.records_moved = records_per_worker * workers * processes * rounds;
  return res;
}

// Raw loopback TCP throughput with 64 KB writes — the "socket baseline" line.
double RawSocketGbps() {
  Listener l;
  const uint16_t port = l.Open();
  std::atomic<uint64_t> received{0};
  std::thread server([&] {
    Socket s = l.Accept();
    std::vector<uint8_t> buf(1 << 16);
    while (s.ReadAll(std::span<uint8_t>(buf.data(), buf.size()))) {
      received.fetch_add(buf.size());
    }
  });
  Socket c = Socket::ConnectLocal(port);
  std::vector<uint8_t> buf(1 << 16, 0xab);
  Stopwatch sw;
  while (sw.ElapsedSeconds() < 0.4) {
    c.WriteAll(buf);
  }
  const double secs = sw.ElapsedSeconds();
  c.ShutdownBoth();
  server.join();
  return static_cast<double>(received.load()) * 8 / secs / 1e9;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  using namespace naiad;
  // --small: reduced scale and a single run per config, for the CI perf-smoke job.
  // --reps=N: the least number of runs per config (default 3).
  bool small = false;
  int reps_flag = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--small") {
      small = true;
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps_flag = std::atoi(argv[i] + 7);
    }
  }
  const uint64_t records_per_worker = small ? 10000 : 100000;
  const uint64_t rounds = small ? 5 : 20;
  // One run lasts 0.05-0.3 s and loopback throughput is scheduler-noisy, so each config
  // repeats until it has run for at least 1 s and at least `min_reps` times; a row reports
  // the median run and the min/max spread.
  const size_t min_reps = static_cast<size_t>(reps_flag > 0 ? reps_flag : (small ? 1 : 3));
  const double min_seconds = small ? 0.0 : 1.0;
  const std::vector<uint32_t> proc_counts = small ? std::vector<uint32_t>{1u, 2u}
                                                  : std::vector<uint32_t>{1u, 2u, 4u};
  bench::Header("Fig. 6a", "all-to-all exchange throughput (§5.1)",
                "aggregate throughput scales linearly with computers; Naiad sits below the "
                "raw-socket line because 8-byte records maximize serialization overhead");
  const double raw_gbps = RawSocketGbps();
  bench::Row("raw TCP socket baseline (loopback, 64KB writes): %.2f Gb/s", raw_gbps);
  bench::Row("%-10s %-9s %-14s %-16s %-14s %s", "processes", "workers", "records/s",
             "wire Gb/s", "seconds", "(medians; spread)");
  bench::JsonReport json("fig6a");
  json.Config("records_per_worker", static_cast<double>(records_per_worker));
  json.Config("rounds", static_cast<double>(rounds));
  json.Config("workers_per_process", 2);
  json.Config("raw_socket_gbps", raw_gbps);
  json.Config("min_seconds_per_row", min_seconds);
  for (uint32_t procs : proc_counts) {
    std::vector<double> rps;
    std::vector<double> gbps;
    std::vector<double> secs;
    Stopwatch row_sw;
    while (rps.size() < min_reps || row_sw.ElapsedSeconds() < min_seconds) {
      const Result r = RunExchange(procs, 2, records_per_worker, rounds);
      rps.push_back(static_cast<double>(r.records_moved) / r.seconds);
      gbps.push_back(static_cast<double>(r.wire_bytes) * 8 / r.seconds / 1e9);
      secs.push_back(r.seconds);
    }
    const auto [min_rps, max_rps] = std::minmax_element(rps.begin(), rps.end());
    bench::Row("%-10u %-9u %-14.3e %-16.3f %-14.2f %zu runs, %.3e-%.3e rec/s", procs,
               procs * 2, Median(rps), Median(gbps), Median(secs), rps.size(), *min_rps,
               *max_rps);
    json.NewRow();
    json.Num("processes", procs);
    json.Num("workers", procs * 2);
    json.Num("records_per_sec", Median(rps));
    json.Num("records_per_sec_min", *min_rps);
    json.Num("records_per_sec_max", *max_rps);
    json.Num("runs", static_cast<double>(rps.size()));
    json.Num("wire_gbps", Median(gbps));
    json.Num("seconds", Median(secs));
  }
  json.Write();
  bench::Row("(single-process rows exchange through shared memory: wire Gb/s ~ 0)");
  return 0;
}
