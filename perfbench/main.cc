// naiadbench: runs one benchmark workload for a fixed time and prints its metrics.
//
//   naiadbench --workload exchange|barrier|stream|pagerank --seed N --seconds S
//              --trace 0|1 [--smoke] [--corrupt] [--out DIR]
//   naiadbench --fingerprint
//
// Every trial runs one job on a fresh JobServer cluster of 2 processes x 2 workers.
// --trace 0 reports the end-to-end metrics of untraced trials. --trace 1 splits the time
// between an untraced phase and a traced one (metrics + tracing + benchmark spans) and
// reports the per-layer metrics; the two phases give obs.overhead_frac. --smoke shrinks
// every input; --corrupt alters one output so the oracle must count it as failed; --out
// names the directory for the span and trace files.
//
// Progress goes to standard error. The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace naiad::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool corrupt = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out" && has_value) {
      a.out_dir = argv[++i];
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--corrupt") {
      a.corrupt = true;
    } else {
      std::fprintf(stderr, "naiadbench: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

// Trials on `opts` until `budget_s` has passed and at least `min_trials` ran.
std::vector<Trial> RunPhase(Workload& w, const ClusterOptions& opts, double budget_s,
                            size_t min_trials, const char* label) {
  std::vector<Trial> trials;
  const uint64_t t0 = NowNs();
  while (trials.size() < min_trials || static_cast<double>(NowNs() - t0) * 1e-9 < budget_s) {
    trials.push_back(w.Run(opts));
    const Trial& t = trials.back();
    std::fprintf(stderr,
                 "  %-8s trial %2zu: setup %.4f s  job %.4f s  p50 %.1f us  p99 %.1f us  "
                 "steal %.2f%%  failed %llu\n",
                 label, trials.size(), t.setup_s, t.job_s, Percentile(t.op_us, 50),
                 Percentile(t.op_us, 99), 100 * t.steal_share,
                 static_cast<unsigned long long>(t.failed));
  }
  return trials;
}

// The trials the metrics are taken from. On a shared host the hypervisor at times
// withholds this machine's CPUs for ~10 ms at a stretch (steal): jobs slow in step with
// the stolen share, and on barrier the count of slow iterations tracks the stolen ticks.
// So metrics come from the trials that lost under 1% of the machine's CPU time to steal,
// or from the quieter half when fewer than half did. The oracle still checks every trial.
std::vector<Trial> Quiet(const std::vector<Trial>& trials) {
  constexpr double kQuietSteal = 0.01;
  std::vector<Trial> quiet;
  for (const Trial& t : trials) {
    if (t.steal_share < kQuietSteal) {
      quiet.push_back(t);
    }
  }
  if (2 * quiet.size() >= trials.size()) {
    return quiet;
  }
  quiet = trials;
  std::stable_sort(quiet.begin(), quiet.end(), [](const Trial& a, const Trial& b) {
    return a.steal_share < b.steal_share;
  });
  quiet.resize((quiet.size() + 1) / 2);
  return quiet;
}

// Where a trial is a single operation (exchange, pagerank), an untraced run makes at least
// this many trials, so the tail below always has at least three jobs beyond it.
constexpr size_t kTailJobs = 30;

// The p99_us metric. Where trials hold many operations (barrier, stream), each trial's
// operations are cut into consecutive windows of kWindow, and p99_us is the median over
// all windows of each window's 99th percentile: a stall that Quiet lets through hits a
// few windows, not the metric. Where a trial is a single operation (exchange, pagerank), a run
// has too few jobs for a 99th percentile, so it is the 90th percentile over all jobs: a
// fixed rank, so that a faster build, which fits more jobs into the run, is read at the
// same percentile.
double TailUs(const std::vector<Trial>& trials, const std::vector<double>& all_us) {
  constexpr size_t kWindow = 100;
  std::vector<double> window_p99;
  for (const Trial& t : trials) {
    for (size_t at = 0; at + kWindow <= t.op_us.size(); at += kWindow) {
      window_p99.push_back(Percentile(
          std::vector<double>(t.op_us.begin() + at, t.op_us.begin() + at + kWindow), 99));
    }
  }
  if (!window_p99.empty()) {
    return Median(window_p99);
  }
  return Percentile(all_us, 90);
}

// End-to-end summary of a phase.
struct Summary {
  double setup_s = 0;
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double job_s = 0;
  double cpu_s = 0;
};

Summary Summarize(const std::vector<Trial>& trials) {
  Summary s;
  std::vector<double> setup, job, cpu, op_us;
  double ops = 0;
  double busy = 0;
  for (const Trial& t : trials) {
    setup.push_back(t.setup_s);
    job.push_back(t.job_s);
    cpu.push_back(t.cpu_s);
    op_us.insert(op_us.end(), t.op_us.begin(), t.op_us.end());
    ops += static_cast<double>(t.ops);
    busy += t.job_s;
  }
  s.setup_s = Median(setup);
  s.ops_per_s = busy > 0 ? ops / busy : 0;
  s.p50_us = Percentile(op_us, 50);
  s.p99_us = TailUs(trials, op_us);
  s.job_s = Median(job);
  s.cpu_s = Median(cpu);
  return s;
}

// The end-to-end metric obs.overhead_frac compares, as "how much worse traced is".
double Slowdown(const std::string& workload, const Summary& plain, const Summary& traced) {
  if (workload == "exchange") {
    return traced.ops_per_s > 0 ? plain.ops_per_s / traced.ops_per_s - 1 : 0;
  }
  if (workload == "pagerank") {
    return plain.job_s > 0 ? traced.job_s / plain.job_s - 1 : 0;
  }
  return plain.p50_us > 0 ? traced.p50_us / plain.p50_us - 1 : 0;
}

const obs::HistogramSnapshot* Hist(const ClusterStats& s, const std::string& name) {
  for (const obs::HistogramSnapshot& h : s.obs.histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

double HistP50(const ClusterStats& s, const char* name) {
  const obs::HistogramSnapshot* h = Hist(s, name);
  return h != nullptr ? h->p50 : 0;
}
double HistP99(const ClusterStats& s, const char* name) {
  const obs::HistogramSnapshot* h = Hist(s, name);
  return h != nullptr ? h->p99 : 0;
}
double HistSum(const ClusterStats& s, const char* name) {
  const obs::HistogramSnapshot* h = Hist(s, name);
  return h != nullptr ? h->mean * static_cast<double>(h->count) : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Layer values of one traced trial.
std::map<std::string, double> TrialLayers(const Trial& t, const CodecCost& codec,
                                          uint32_t workers) {
  const ClusterStats& s = t.stats;
  const double ops = static_cast<double>(t.ops);
  const double items = static_cast<double>(s.obs.counter("items_run"));
  const double scans = static_cast<double>(s.obs.counter("progress_query_scans"));
  const double memo = static_cast<double>(s.obs.counter("progress_query_memo_hits"));
  const double callback_s = HistSum(s, "run_time_ns") * 1e-9;
  std::map<std::string, double> m;
  m["net.job_server.start_s"] = t.start_s;
  m["net.job_server.register_s"] = t.register_s;
  m["net.job_server.drain_s"] = t.drain_s;
  m["net.records_per_frame"] =
      Ratio(Ratio(static_cast<double>(s.data_bytes), static_cast<double>(s.data_frames)),
            codec.bytes_per_record);
  m["net.writev_batch_p50"] = HistP50(s, "writev_batch");
  m["net.progress_frames_per_op"] = Ratio(static_cast<double>(s.progress_frames), ops);
  m["net.progress_bytes_per_op"] = Ratio(static_cast<double>(s.progress_bytes), ops);
  m["net.send_queue_depth_p99"] = HistP99(s, "send_queue_depth");
  m["net.send_queue_hwm_bytes"] = static_cast<double>(s.send_queue_hwm_bytes);
  m["core.callback_s"] = callback_s;
  m["core.runtime_share"] = 1 - Ratio(callback_s, workers * t.job_s);
  m["core.worker.items_run"] = items;
  m["core.worker.flushes_per_item"] =
      Ratio(static_cast<double>(s.obs.counter("progress_flushes")), items);
  m["core.worker.dispatch_latency_ns_p50"] = HistP50(s, "dispatch_latency_ns");
  m["core.worker.dispatch_latency_ns_p99"] = HistP99(s, "dispatch_latency_ns");
  m["core.worker.notify_lag_ns_p50"] = HistP50(s, "notify_lag_ns");
  m["core.progress.scan_ratio"] = Ratio(scans, scans + memo);
  m["core.progress.occ_map_peak"] = static_cast<double>(s.occ_map_peak);
  return m;
}

struct MetricOut {
  std::string name;
  std::string unit;
  double value;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<MetricOut>& metrics) {
  for (const MetricOut& m : metrics) {
    std::fprintf(stderr, "  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// The build's half of the host fingerprint; run.py adds the host's half.
void PrintBuildFingerprint() {
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "c++";
#endif
  std::printf("{\"compiler\": \"%s %s\", \"build_type\": \"%s\"}\n", compiler, __VERSION__,
              NAIADBENCH_BUILD_TYPE);
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--fingerprint") == 0) {
    PrintBuildFingerprint();
    return 0;
  }
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: naiadbench --workload exchange|barrier|stream|pagerank --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--corrupt] [--out DIR]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.smoke, args.corrupt);
  if (w == nullptr) {
    std::fprintf(stderr, "naiadbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const ClusterOptions cluster{.processes = 2, .workers_per_process = 2};
  const uint32_t workers = cluster.processes * cluster.workers_per_process;
  const size_t min_trials = 3;
  const bool job_is_op = args.workload == "exchange" || args.workload == "pagerank";

  std::fprintf(stderr, "naiadbench %s seed %llu, %.1f s, trace %d\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  const uint64_t g0 = NowNs();
  w->Generate(args.seed);
  const double gen_s = static_cast<double>(NowNs() - g0) * 1e-9;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  const auto tally = [&](const std::vector<Trial>& trials) {
    for (const Trial& t : trials) {
      attempted += t.attempted;
      failed += t.failed;
    }
  };
  std::vector<MetricOut> out;

  if (!args.trace) {
    const std::vector<Trial> trials = RunPhase(
        *w, cluster, args.seconds, job_is_op && !args.smoke ? kTailJobs : min_trials,
        "untraced");
    tally(trials);
    const Summary s = Summarize(Quiet(trials));
    out = {{"setup_s", "s", s.setup_s},     {"ops_per_s", "op/s", s.ops_per_s},
           {"p50_us", "us", s.p50_us},      {"p99_us", "us", s.p99_us},
           {"job_s", "s", s.job_s},         {"cpu_s", "s", s.cpu_s},
           {"peak_rss_mb", "MB", PeakRssMb()}};
    PrintResult(failed == 0 && attempted > 0, attempted, failed, out);
    return 0;
  }

  // Traced run: an untraced phase, a traced phase, and for exchange and barrier a short
  // single-process phase of the same job (4 workers, no wire).
  const std::vector<Trial> plain =
      RunPhase(*w, cluster, args.seconds / 2, min_trials, "untraced");
  ClusterOptions traced_opts = cluster;
  traced_opts.obs.metrics = true;
  traced_opts.obs.tracing = true;
  traced_opts.obs.trace_ring_capacity = 1 << 15;
  if (w->WantsTraceFile()) {
    traced_opts.obs.trace_path = (args.out_dir.empty() ? "." : args.out_dir) + "/trace-" +
                                 args.workload + ".json";
  }
  EnableSpans(true);
  const std::vector<Trial> traced =
      RunPhase(*w, traced_opts, args.seconds / 2, min_trials, "traced");
  EnableSpans(false);
  const std::array<double, kSpanKinds> self_s = TakeSpanSelfSeconds();
  tally(plain);
  tally(traced);

  ClusterOptions one = cluster;
  one.processes = 1;
  one.workers_per_process = workers;
  std::vector<Trial> core_only;
  if (args.workload == "exchange" || args.workload == "barrier") {
    core_only = RunPhase(*w, one, 0, min_trials, "1-proc");
    tally(core_only);
  }

  const Summary sp = Summarize(Quiet(plain));
  const Summary st = Summarize(Quiet(traced));
  const Summary s1 = Summarize(Quiet(core_only));
  const CodecCost codec = w->MeasureCodec();

  // Per-trial layer values, medians across the quiet traced trials. The spans cover every
  // traced trial, and so do the record counts they are divided by.
  std::map<std::string, std::vector<double>> per_trial;
  for (const Trial& t : Quiet(traced)) {
    std::map<std::string, double> values = TrialLayers(t, codec, workers);
    values.insert(t.layer.begin(), t.layer.end());
    for (const auto& [name, v] : values) {
      per_trial[name].push_back(v);
    }
  }
  double offered = 0;
  double sent = 0;
  std::vector<double> steal;
  for (const Trial& t : traced) {
    offered += static_cast<double>(t.offered);
    sent += static_cast<double>(t.sent);
  }
  for (const std::vector<Trial>* phase : {&plain, &traced}) {
    for (const Trial& t : *phase) {
      steal.push_back(t.steal_share);
    }
  }
  std::map<std::string, double> layer;
  for (const auto& [name, values] : per_trial) {
    layer[name] = Median(values);
  }
  const double n_traced = static_cast<double>(traced.size());
  const auto self = [&self_s](SpanKind k) { return self_s[static_cast<size_t>(k)]; };
  layer["net.barrier_wire_us"] = args.workload == "barrier" ? sp.p50_us - s1.p50_us : 0;
  layer["core.input.on_next_ns_per_record"] = Ratio(self(SpanKind::kOffer) * 1e9, offered);
  layer["core.outlet.send_batch_ns_per_record"] =
      Ratio(self(SpanKind::kSendBatch) * 1e9, sent);
  layer["core.exchange_1proc_records_per_s"] =
      args.workload == "exchange" ? s1.ops_per_s : 0;
  layer["core.barrier_1proc_p50_us"] = args.workload == "barrier" ? s1.p50_us : 0;
  layer["ser.bytes_per_record"] = codec.bytes_per_record;
  layer["ser.encode_ns_per_record"] = codec.encode_ns_per_record;
  layer["ser.decode_ns_per_record"] = codec.decode_ns_per_record;
  layer["gen.input_s"] = gen_s;
  layer["host.steal_share"] = Median(steal);
  layer["obs.overhead_frac"] = Slowdown(args.workload, sp, st);
  for (size_t k = 0; k < kSpanKinds; ++k) {
    layer[std::string("span.") + SpanName(static_cast<SpanKind>(k)) + ".self_s"] =
        Ratio(self_s[k], n_traced);
  }

  static const std::map<std::string, std::string> kUnits = {
      {"net.job_server.start_s", "s"},
      {"net.job_server.register_s", "s"},
      {"net.job_server.drain_s", "s"},
      {"net.records_per_frame", "rec/frame"},
      {"net.writev_batch_p50", "frames"},
      {"net.progress_frames_per_op", "frames/op"},
      {"net.progress_bytes_per_op", "B/op"},
      {"net.send_queue_depth_p99", "frames"},
      {"net.send_queue_hwm_bytes", "B"},
      {"net.barrier_wire_us", "us"},
      {"core.input.on_next_ns_per_record", "ns"},
      {"core.outlet.send_batch_ns_per_record", "ns"},
      {"core.callback_s", "s"},
      {"core.runtime_share", "ratio"},
      {"core.exchange_1proc_records_per_s", "rec/s"},
      {"core.barrier_1proc_p50_us", "us"},
      {"core.worker.items_run", "count"},
      {"core.worker.flushes_per_item", "ratio"},
      {"core.worker.dispatch_latency_ns_p50", "ns"},
      {"core.worker.dispatch_latency_ns_p99", "ns"},
      {"core.worker.notify_lag_ns_p50", "ns"},
      {"core.progress.scan_ratio", "ratio"},
      {"core.progress.occ_map_peak", "count"},
      {"ser.bytes_per_record", "B"},
      {"ser.encode_ns_per_record", "ns"},
      {"ser.decode_ns_per_record", "ns"},
      {"algo.pagerank.build_s", "s"},
      {"algo.pagerank.iter_s_p50", "s"},
      {"gen.input_s", "s"},
      {"gen.lag_us_p99", "us"},
      {"gen.backlog_epochs_max", "epochs"},
      {"obs.overhead_frac", "ratio"},
      {"host.steal_share", "ratio"},
  };
  // Every metric is printed on every workload; one a workload does not reach reads 0.
  for (const auto& [name, unit] : kUnits) {
    layer.try_emplace(name, 0.0);
  }
  for (const auto& [name, v] : layer) {
    auto it = kUnits.find(name);
    out.push_back({name, it != kUnits.end() ? it->second : "s", v});
  }
  if (!args.out_dir.empty()) {
    const std::string spans_path = args.out_dir + "/spans-" + args.workload + ".json";
    if (!WriteSpans(spans_path)) {
      std::fprintf(stderr, "naiadbench: cannot write %s\n", spans_path.c_str());
    }
  }
  PrintResult(failed == 0 && attempted > 0, attempted, failed, out);
  return 0;
}

}  // namespace
}  // namespace naiad::perfbench

int main(int argc, char** argv) { return naiad::perfbench::Main(argc, argv); }
