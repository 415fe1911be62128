// perfbench: the repository benchmark. README.md in this directory describes the
// workloads, the metrics and how each layer metric maps to an end-to-end one.
//
// This header holds the harness shared by the four workloads: clocks and resource
// probes, benchmark-side spans around each call into a layer, and the trial runner that
// runs one job on a fresh JobServer cluster and times its phases. Everything here drives
// the system through its public API only.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/cluster.h"

namespace naiad::perfbench {

// --- clocks, resources, statistics -------------------------------------------------------

uint64_t NowNs();          // steady clock
double CpuSeconds();       // this process's user + sys CPU time
double PeakRssMb();        // this process's peak resident set
// CPU time the hypervisor withheld from this machine's CPUs while they had work (the
// steal column of /proc/stat), summed over CPUs; 0 where the kernel does not report it.
double StealSeconds();

// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

// --- spans -------------------------------------------------------------------------------
//
// In-memory spans recorded by the benchmark's own code around each call into a layer.
// Off unless enabled (the untraced runs pay one branch per span site). Each thread keeps
// a stack of open spans, so a span's self time is its duration minus that of the child
// spans it encloses on the same thread. Raw spans are kept (up to a cap) and written as
// a Chrome trace at exit.

enum class SpanKind : uint8_t {
  kStart,      // JobServer::Start
  kSubmit,     // JobServer::Submit
  kWait,       // JobServer::Wait
  kStop,       // JobServer::Stop
  kOffer,      // InputHandle::OnNext / OnPartial
  kSendBatch,  // Outlet::SendBatch from the benchmark's vertices
  kCallback,   // the benchmark's vertex callbacks (OnRecv / OnNotify)
  kSink,       // the benchmark's Subscribe callback
  kCount,
};
inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);
const char* SpanName(SpanKind k);  // e.g. "net.start"

void EnableSpans(bool on);
bool SpansEnabled();

class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

// Self seconds per span kind summed over every thread since the last call, which resets
// them. Callers must have joined every recording thread (JobServer::Stop does).
std::array<double, kSpanKinds> TakeSpanSelfSeconds();
// Writes every retained raw span as Chrome trace-event JSON. False on I/O failure.
bool WriteSpans(const std::string& path);

// --- the trial runner --------------------------------------------------------------------

inline constexpr uint32_t kMaxProcesses = 8;

// Per-process timestamps a job body reports while it runs; RunTrial reads them once the
// job has retired.
struct TrialClock {
  // About to offer the first record: set-up is over, the job's timed region begins.
  void Ready(uint32_t pid);
  // The process's input has been closed (OnCompleted returned).
  void Completed(uint32_t pid);

  std::array<std::atomic<uint64_t>, kMaxProcesses> body_ns{};
  std::array<std::atomic<uint64_t>, kMaxProcesses> ready_ns{};
  std::array<std::atomic<uint64_t>, kMaxProcesses> done_ns{};
  std::atomic<bool> cpu_taken{false};
  std::atomic<double> cpu_at_ready{0};
};

// One job on a fresh cluster.
struct Trial {
  double start_s = 0;     // JobServer::Start
  double register_s = 0;  // Submit → the body runs on every process
  double setup_s = 0;     // Start → every process ready to offer its first record
  double job_s = 0;       // first process ready → Wait returns
  double drain_s = 0;     // last OnCompleted → Wait returns
  double cpu_s = 0;       // process CPU from the first ready to Wait returning
  double steal_share = 0;  // share of the machine's CPU time stolen, Start → Wait returns
  uint64_t ops = 0;            // units of work done (the ops_per_s numerator)
  std::vector<double> op_us;    // per-operation latencies
  uint64_t attempted = 0;       // operations checked against the oracle
  uint64_t failed = 0;          // ... and found wrong or missing
  uint64_t offered = 0;         // records offered through InputHandle
  uint64_t sent = 0;            // records the benchmark's vertices passed to SendBatch
  std::map<std::string, double> layer;  // per-layer metrics only the workload can measure
  ClusterStats stats;
};

using JobBody = std::function<void(Controller&, TrialClock&)>;

// Start → Submit(body) → Wait → Stop, with spans around each call.
Trial RunTrial(const ClusterOptions& opts, const JobBody& body);

// --- workloads ---------------------------------------------------------------------------

struct CodecCost {
  double bytes_per_record = 0;
  double encode_ns_per_record = 0;
  double decode_ns_per_record = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Draws this run's inputs from `seed`. Runs before any timing.
  virtual void Generate(uint64_t seed) = 0;
  // One job on a fresh `opts.processes` x `opts.workers_per_process` cluster. With
  // opts.obs.trace_path set, the workload reads layer values from the trace file.
  virtual Trial Run(const ClusterOptions& opts) = 0;
  // Encoded size and codec cost of the workload's own cross-process batch type.
  virtual CodecCost MeasureCodec() = 0;
  // Whether the traced phase should write the system's trace file for Run to read.
  virtual bool WantsTraceFile() const { return false; }
};

// `smoke` selects tiny sizes; `corrupt` perturbs the first trial's output so the oracle
// must count it as failed.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke, bool corrupt);

}  // namespace naiad::perfbench

#endif  // PERFBENCH_BENCH_H_
