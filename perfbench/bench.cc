#include "perfbench/bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "src/net/job_server.h"

namespace naiad::perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double StealSeconds() {
  // First line: "cpu  user nice system idle iowait irq softirq steal ...", in clock ticks.
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

// --- spans -------------------------------------------------------------------------------

namespace {

struct RawSpan {
  uint64_t start_ns;
  uint64_t end_ns;
  SpanKind kind;
};

// One per recording thread; only that thread writes it. Buffers outlive their threads
// (JobServer host threads exit at every Stop) and are read after those threads joined.
struct ThreadSpans {
  uint32_t tid = 0;
  struct Open {
    SpanKind kind;
    uint64_t start_ns;
    uint64_t child_ns;
  };
  std::vector<Open> stack;
  std::array<uint64_t, kSpanKinds> self_ns{};
  std::vector<RawSpan> raw;
};

// Raw spans kept across all threads; self times keep accumulating past the cap.
constexpr size_t kRawSpanCap = 100'000;

std::atomic<bool> g_spans_on{false};
std::atomic<size_t> g_raw_spans{0};
std::mutex g_spans_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by g_spans_mu

ThreadSpans& Mine() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(g_spans_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    mine = g_threads.back().get();
    mine->tid = static_cast<uint32_t>(g_threads.size());
  }
  return *mine;
}

}  // namespace

const char* SpanName(SpanKind k) {
  switch (k) {
    case SpanKind::kStart:
      return "net.start";
    case SpanKind::kSubmit:
      return "net.submit";
    case SpanKind::kWait:
      return "net.wait";
    case SpanKind::kStop:
      return "net.stop";
    case SpanKind::kOffer:
      return "core.offer";
    case SpanKind::kSendBatch:
      return "core.send_batch";
    case SpanKind::kCallback:
      return "bench.callback";
    case SpanKind::kSink:
      return "bench.sink";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

void EnableSpans(bool on) { g_spans_on.store(on, std::memory_order_relaxed); }
bool SpansEnabled() { return g_spans_on.load(std::memory_order_relaxed); }

Span::Span(SpanKind kind) : active_(SpansEnabled()) {
  if (active_) {
    Mine().stack.push_back(ThreadSpans::Open{kind, NowNs(), 0});
  }
}

Span::~Span() {
  if (!active_) {
    return;
  }
  ThreadSpans& ts = Mine();
  const uint64_t end = NowNs();
  const ThreadSpans::Open open = ts.stack.back();
  ts.stack.pop_back();
  const uint64_t dur = end - open.start_ns;
  ts.self_ns[static_cast<size_t>(open.kind)] += dur - std::min(dur, open.child_ns);
  if (!ts.stack.empty()) {
    ts.stack.back().child_ns += dur;
  }
  if (g_raw_spans.fetch_add(1, std::memory_order_relaxed) < kRawSpanCap) {
    ts.raw.push_back(RawSpan{open.start_ns, end, open.kind});
  }
}

std::array<double, kSpanKinds> TakeSpanSelfSeconds() {
  std::array<double, kSpanKinds> out{};
  std::lock_guard<std::mutex> lock(g_spans_mu);
  for (auto& ts : g_threads) {
    for (size_t k = 0; k < kSpanKinds; ++k) {
      out[k] += static_cast<double>(ts->self_ns[k]) * 1e-9;
      ts->self_ns[k] = 0;
    }
  }
  return out;
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(g_spans_mu);
  uint64_t base = UINT64_MAX;
  for (const auto& ts : g_threads) {
    for (const RawSpan& s : ts->raw) {
      base = std::min(base, s.start_ns);
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool first = true;
  for (const auto& ts : g_threads) {
    for (const RawSpan& s : ts->raw) {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, \"tid\": %u, "
                   "\"ts\": %.3f, \"dur\": %.3f}",
                   first ? "" : ",", SpanName(s.kind), ts->tid,
                   static_cast<double>(s.start_ns - base) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// --- the trial runner --------------------------------------------------------------------

void TrialClock::Ready(uint32_t pid) {
  ready_ns[pid].store(NowNs(), std::memory_order_relaxed);
  if (!cpu_taken.exchange(true)) {
    cpu_at_ready.store(CpuSeconds(), std::memory_order_relaxed);
  }
}

void TrialClock::Completed(uint32_t pid) {
  done_ns[pid].store(NowNs(), std::memory_order_relaxed);
}

Trial RunTrial(const ClusterOptions& opts, const JobBody& body) {
  NAIAD_CHECK(opts.processes <= kMaxProcesses);
  Trial tr;
  TrialClock clock;
  const double steal0 = StealSeconds();
  const uint64_t t0 = NowNs();
  JobServer js(opts);
  {
    Span s(SpanKind::kStart);
    js.Start();
  }
  const uint64_t t1 = NowNs();
  JobId id = 0;
  {
    Span s(SpanKind::kSubmit);
    id = js.Submit([&](Controller& ctl) {
      clock.body_ns[ctl.config().process_id].store(NowNs(), std::memory_order_relaxed);
      body(ctl, clock);
    });
  }
  {
    Span s(SpanKind::kWait);
    js.Wait(id);
  }
  const uint64_t t_end = NowNs();
  const double cpu_end = CpuSeconds();
  const double stolen = StealSeconds() - steal0;
  {
    Span s(SpanKind::kStop);
    tr.stats = js.Stop();
  }
  // Every driver thread has been joined by Stop(); the clock is final.
  uint64_t body_max = 0;
  uint64_t ready_min = UINT64_MAX;
  uint64_t ready_max = 0;
  uint64_t done_max = 0;
  for (uint32_t p = 0; p < opts.processes; ++p) {
    body_max = std::max(body_max, clock.body_ns[p].load());
    ready_min = std::min(ready_min, clock.ready_ns[p].load());
    ready_max = std::max(ready_max, clock.ready_ns[p].load());
    done_max = std::max(done_max, clock.done_ns[p].load());
  }
  NAIAD_CHECK(ready_min != 0 && done_max != 0) << "job body never reported Ready/Completed";
  const auto secs = [](uint64_t a, uint64_t b) {
    return b > a ? static_cast<double>(b - a) * 1e-9 : 0.0;
  };
  tr.start_s = secs(t0, t1);
  tr.register_s = secs(t1, body_max);
  tr.setup_s = secs(t0, ready_max);
  tr.job_s = secs(ready_min, t_end);
  tr.drain_s = secs(done_max, t_end);
  tr.cpu_s = cpu_end - clock.cpu_at_ready.load();
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  tr.steal_share = stolen / (secs(t0, t_end) * cpus);
  return tr;
}

}  // namespace naiad::perfbench
