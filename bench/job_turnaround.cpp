// Short-job turnaround on the resident job server.
//
// A 2-process x 2-worker JobServer runs back-to-back tiny jobs: one input, three records
// per process, one epoch, a Subscribe sink (which gathers every record on process 0, so
// each job crosses the wire). Each job is Submit -> Wait before the next is submitted, so
// a job's turnaround is its whole life on the server: announcement, graph construction on
// every process, the epoch, the drain, and retirement everywhere. Fixed per-job costs
// dominate, which is what this driver isolates; perfbench's workloads run one long job.
//
// Each trial is a fresh server and one row of BENCH_job_turnaround.json: turnaround p50
// and p99 over the trial's jobs, and jobs_per_sec over its wall time.
//
// Usage: job_turnaround [--jobs=300] [--trials=5]

#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/stopwatch.h"
#include "src/core/io.h"
#include "src/core/stage.h"
#include "src/net/job_server.h"

namespace naiad {
namespace {

constexpr uint32_t kProcesses = 2;
constexpr uint32_t kWorkers = 2;
constexpr uint64_t kRecords = 3;

void TinyJob(Controller& ctl) {
  GraphBuilder b(ctl);
  auto [in, handle] = NewInput<uint64_t>(b);
  Subscribe<uint64_t>(in, [](uint64_t, std::vector<uint64_t>&) {});
  ctl.Start();
  std::vector<uint64_t> data;
  for (uint64_t i = 0; i < kRecords; ++i) {
    data.push_back(ctl.config().process_id * kRecords + i);
  }
  handle->OnNext(std::move(data));
  handle->OnCompleted();
  ctl.Join();
}

struct Trial {
  SampleStats turnaround_us;
  double seconds = 0;
};

Trial RunTrial(uint64_t jobs) {
  ClusterOptions opts;
  opts.processes = kProcesses;
  opts.workers_per_process = kWorkers;
  JobServer server(opts);
  server.Start();
  Trial trial;
  Stopwatch wall;
  for (uint64_t j = 0; j < jobs; ++j) {
    Stopwatch sw;
    server.Wait(server.Submit(TinyJob));
    trial.turnaround_us.Add(sw.ElapsedMicros());
  }
  trial.seconds = wall.ElapsedSeconds();
  server.Stop();
  return trial;
}

}  // namespace
}  // namespace naiad

int main(int argc, char** argv) {
  using namespace naiad;
  const uint64_t jobs = bench::FlagU64(argc, argv, "jobs", 300);
  const uint64_t trials = bench::FlagU64(argc, argv, "trials", 5);
  bench::Header("Job turnaround", "back-to-back tiny jobs on the resident job server",
                "§6 serves many dataflows on one cluster; a short job's fixed costs "
                "(registration, drain, retirement) bound how many it can turn around");
  bench::Row("%-7s %-10s %-10s %-10s %-10s", "trial", "jobs", "p50 (us)", "p99 (us)",
             "jobs/s");
  bench::JsonReport json("job_turnaround");
  json.Config("processes", kProcesses);
  json.Config("workers_per_process", kWorkers);
  json.Config("jobs", static_cast<double>(jobs));
  json.Config("records_per_process", static_cast<double>(kRecords));
  for (uint64_t t = 0; t < trials; ++t) {
    Trial trial = RunTrial(jobs);
    const double p50 = trial.turnaround_us.Median();
    const double p99 = trial.turnaround_us.Percentile(99);
    const double rate = static_cast<double>(jobs) / trial.seconds;
    bench::Row("%-7llu %-10llu %-10.1f %-10.1f %-10.0f", static_cast<unsigned long long>(t),
               static_cast<unsigned long long>(jobs), p50, p99, rate);
    json.NewRow();
    json.Str("kind", "turnaround");
    json.Num("processes", kProcesses);
    json.Num("p50_us", p50);
    json.Num("p99_us", p99);
    json.Num("jobs_per_sec", rate);
  }
  json.Write();
  return 0;
}
