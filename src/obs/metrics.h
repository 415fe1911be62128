// Metrics registry: per-worker / per-link / per-process blocks of relaxed-atomic counters
// and log2-bucketed histograms.
//
// Layout rules, in service of "near-nothing when disabled, cheap when enabled":
//   - every block is alignas(64) so two workers never share a cache line;
//   - all mutation is relaxed fetch_add on pre-allocated atomics — no locks, no
//     allocation, no stronger ordering (snapshots tolerate torn cross-counter views);
//   - disabled registries hand out nullptr blocks, so call sites pay one predictable
//     branch and skip the clock reads entirely.
//
// Snapshots merge across workers/links/processes at bucket granularity (SnapshotBuilder),
// then finalize to named counters and histogram percentiles (ObsSnapshot) for
// ClusterStats and the BENCH_*.json records.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace naiad::obs {

// Power-of-two-bucketed histogram: value v lands in bucket bit_width(v), so bucket b
// covers [2^(b-1), 2^b). Recording is two relaxed fetch_adds; there are no locks and no
// per-value allocation, making it safe on worker and transport hot paths.
class LogHistogram {
 public:
  static constexpr size_t kBuckets = 65;  // bit_width(uint64_t) ∈ [0, 64]

  void Record(uint64_t v) {
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t bucket(size_t b) const { return buckets_[b].load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p99 = 0;
  double max = 0;  // upper bound of the highest occupied bucket
};

// The merged, finalized view: flat counters plus histogram summaries, both sorted by name
// (deterministic output for the JSON records).
struct ObsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<HistogramSnapshot> histograms;
  bool empty() const { return counters.empty() && histograms.empty(); }

  uint64_t counter(const std::string& name) const {
    for (const auto& [n, v] : counters) {
      if (n == name) {
        return v;
      }
    }
    return 0;
  }
};

// Accumulates same-named histograms/counters from many blocks (workers, links, processes)
// before percentiles are computed — merging finalized percentiles would be wrong.
class SnapshotBuilder {
 public:
  void Counter(const std::string& name, uint64_t v) { counters_[name] += v; }

  void Histogram(const std::string& name, const LogHistogram& h) {
    Accum& a = accums_[name];
    for (size_t b = 0; b < LogHistogram::kBuckets; ++b) {
      a.buckets[b] += h.bucket(b);
    }
    a.sum += h.sum();
  }

  ObsSnapshot Finalize() const {
    ObsSnapshot out;
    out.counters.assign(counters_.begin(), counters_.end());
    for (const auto& [name, a] : accums_) {
      uint64_t count = 0;
      for (uint64_t b : a.buckets) {
        count += b;
      }
      if (count == 0) {
        continue;
      }
      HistogramSnapshot s;
      s.name = name;
      s.count = count;
      s.mean = static_cast<double>(a.sum) / static_cast<double>(count);
      s.p50 = Quantile(a, count, 0.50);
      s.p99 = Quantile(a, count, 0.99);
      for (size_t b = LogHistogram::kBuckets; b-- > 0;) {
        if (a.buckets[b] != 0) {
          s.max = UpperBound(b);
          break;
        }
      }
      out.histograms.push_back(std::move(s));
    }
    return out;
  }

 private:
  struct Accum {
    uint64_t buckets[LogHistogram::kBuckets] = {};
    uint64_t sum = 0;
  };

  // Bucket b holds values in [2^(b-1), 2^b); represent it by its geometric center-ish
  // midpoint. Bucket 0 is exactly {0}.
  static double Representative(size_t b) {
    if (b == 0) {
      return 0;
    }
    const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
    return lo * 1.5;
  }
  static double UpperBound(size_t b) {
    return b == 0 ? 0 : std::ldexp(1.0, static_cast<int>(b));
  }

  static double Quantile(const Accum& a, uint64_t count, double q) {
    const double target = q * static_cast<double>(count);
    uint64_t cum = 0;
    for (size_t b = 0; b < LogHistogram::kBuckets; ++b) {
      cum += a.buckets[b];
      if (static_cast<double>(cum) >= target) {
        return Representative(b);
      }
    }
    return Representative(LogHistogram::kBuckets - 1);
  }

  std::map<std::string, uint64_t> counters_;
  std::map<std::string, Accum> accums_;
};

// One block per worker thread; only that worker mutates it (snapshots read racily, which
// relaxed atomics make well-defined).
struct alignas(64) WorkerMetrics {
  std::atomic<uint64_t> items_run{0};
  std::atomic<uint64_t> notifications_delivered{0};
  std::atomic<uint64_t> purges_delivered{0};
  std::atomic<uint64_t> progress_flushes{0};

  LogHistogram dispatch_latency_ns;  // EnqueueExternal/Local → RunItem start
  LogHistogram run_time_ns;          // one callback + output flush
  LogHistogram local_queue_depth;    // after each inbox drain
  LogHistogram notify_lag_ns;        // NotifyAt → OnNotify wall time
  LogHistogram flush_updates;        // ProgressBuffer::Take() size per worker flush
};

// One block per outbound link (dst process); mutated by Send() callers and the link's
// sender thread.
struct alignas(64) LinkMetrics {
  LogHistogram send_queue_depth;  // queue length right after each enqueue
  LogHistogram writev_batch;      // frames coalesced per sender-thread drain
  LogHistogram send_queue_bytes;  // queued-or-in-write data bytes after each data enqueue
};

// Process-wide counters that have no single owning thread (progress router, recovery).
struct alignas(64) ProcessMetrics {
  LogHistogram progress_emit_updates;  // updates per wire flush (Emit/EmitFromCentral)
  std::atomic<uint64_t> cluster_checkpoints{0};  // committed cluster checkpoint epochs
  std::atomic<uint64_t> barrier_rounds{0};       // quiet-point rounds, every barrier kind
  std::atomic<uint64_t> cluster_recoveries{0};   // coordinated restarts participated in
  // Idle worker/host waits that ended on kIdleBackstop instead of a notify. Each one is a
  // lost wakeup or a host with nothing to do; a growing count with live work is a bug.
  std::atomic<uint64_t> idle_backstop_expiries{0};

  // Per-scope progress tracking (ProgressTracker::Stats, stored once at Stop()).
  std::atomic<uint64_t> progress_boundary_updates{0};  // image deltas crossing a scope
  std::atomic<uint64_t> progress_boundary_bytes{0};    // their encoded size
  std::atomic<uint64_t> progress_occ_map_peak{0};      // Σ scopes' occurrence-map peak
  std::atomic<uint64_t> progress_occ_map_peak_root{0};  // root scope's map peak alone
  std::atomic<uint64_t> progress_query_memo_hits{0};   // frontier queries memo-answered
  std::atomic<uint64_t> progress_query_scans{0};       // frontier queries that scanned
  std::atomic<uint64_t> progress_drained_notifies{0};  // Applies that left it empty

  // Selective rollback recovery (src/ft/log_recovery.h).
  std::atomic<uint64_t> selective_recoveries{0};     // survivor-preserving restarts
  std::atomic<uint64_t> log_records_logged{0};       // outbound data frames durably logged
  std::atomic<uint64_t> log_bytes_logged{0};         // their encoded record bytes
  std::atomic<uint64_t> log_rebases{0};              // watermark GC truncations
  std::atomic<uint64_t> replayed_frames_dropped{0};  // regenerated frames deduped at recv

  // In-band failure detection + flow control (TcpTransport; flushed once at teardown).
  std::atomic<uint64_t> heartbeats_sent{0};       // kCtlHeartbeat frames emitted
  std::atomic<uint64_t> heartbeats_received{0};   // absorbed in-transport (never dispatched)
  std::atomic<uint64_t> peers_declared_down{0};   // lease expiries the detector declared
  std::atomic<uint64_t> credit_stalls{0};         // data sends that blocked on room/credit
  std::atomic<uint64_t> frames_shed{0};           // data frames dropped under shed policy
  std::atomic<uint64_t> send_queue_hwm_bytes{0};  // peak per-link queued data bytes
};

class Metrics {
 public:
  Metrics(bool enabled, uint32_t workers, uint32_t links)
      : enabled_(enabled),
        workers_(enabled ? workers : 0),
        links_(enabled ? links : 0) {}
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  bool enabled() const { return enabled_; }
  WorkerMetrics* worker(uint32_t i) { return enabled_ ? &workers_[i] : nullptr; }
  LinkMetrics* link(uint32_t i) { return enabled_ ? &links_[i] : nullptr; }
  ProcessMetrics* process() { return enabled_ ? &process_ : nullptr; }

  // Merges this process's blocks into `b`. Histograms and the summed counters merge
  // across processes by name; per-worker counters get globally unique names.
  void AccumulateInto(SnapshotBuilder& b, uint32_t process_id) const {
    if (!enabled_) {
      return;
    }
    for (size_t i = 0; i < workers_.size(); ++i) {
      const WorkerMetrics& w = workers_[i];
      const uint64_t items = w.items_run.load(std::memory_order_relaxed);
      const uint64_t notifies = w.notifications_delivered.load(std::memory_order_relaxed);
      b.Counter("items_run", items);
      b.Counter("notifications_delivered", notifies);
      b.Counter("purges_delivered", w.purges_delivered.load(std::memory_order_relaxed));
      b.Counter("progress_flushes", w.progress_flushes.load(std::memory_order_relaxed));
      const std::string g =
          ".w" + std::to_string(process_id * workers_.size() + i);
      b.Counter("items_run" + g, items);
      b.Counter("notifications_delivered" + g, notifies);
      b.Histogram("dispatch_latency_ns", w.dispatch_latency_ns);
      b.Histogram("run_time_ns", w.run_time_ns);
      b.Histogram("local_queue_depth", w.local_queue_depth);
      b.Histogram("notify_lag_ns", w.notify_lag_ns);
      b.Histogram("flush_updates", w.flush_updates);
    }
    for (const LinkMetrics& l : links_) {
      b.Histogram("send_queue_depth", l.send_queue_depth);
      b.Histogram("writev_batch", l.writev_batch);
      b.Histogram("send_queue_bytes", l.send_queue_bytes);
    }
    b.Histogram("progress_emit_updates", process_.progress_emit_updates);
    b.Counter("cluster_checkpoints",
              process_.cluster_checkpoints.load(std::memory_order_relaxed));
    b.Counter("barrier_rounds", process_.barrier_rounds.load(std::memory_order_relaxed));
    b.Counter("cluster_recoveries",
              process_.cluster_recoveries.load(std::memory_order_relaxed));
    b.Counter("idle_backstop_expiries",
              process_.idle_backstop_expiries.load(std::memory_order_relaxed));
    b.Counter("progress_boundary_updates",
              process_.progress_boundary_updates.load(std::memory_order_relaxed));
    b.Counter("progress_boundary_bytes",
              process_.progress_boundary_bytes.load(std::memory_order_relaxed));
    b.Counter("progress_occ_map_peak",
              process_.progress_occ_map_peak.load(std::memory_order_relaxed));
    b.Counter("progress_occ_map_peak_root",
              process_.progress_occ_map_peak_root.load(std::memory_order_relaxed));
    b.Counter("progress_query_memo_hits",
              process_.progress_query_memo_hits.load(std::memory_order_relaxed));
    b.Counter("progress_query_scans",
              process_.progress_query_scans.load(std::memory_order_relaxed));
    b.Counter("progress_drained_notifies",
              process_.progress_drained_notifies.load(std::memory_order_relaxed));
    b.Counter("selective_recoveries",
              process_.selective_recoveries.load(std::memory_order_relaxed));
    b.Counter("log_records_logged",
              process_.log_records_logged.load(std::memory_order_relaxed));
    b.Counter("log_bytes_logged",
              process_.log_bytes_logged.load(std::memory_order_relaxed));
    b.Counter("log_rebases", process_.log_rebases.load(std::memory_order_relaxed));
    b.Counter("replayed_frames_dropped",
              process_.replayed_frames_dropped.load(std::memory_order_relaxed));
    b.Counter("heartbeats_sent",
              process_.heartbeats_sent.load(std::memory_order_relaxed));
    b.Counter("heartbeats_received",
              process_.heartbeats_received.load(std::memory_order_relaxed));
    b.Counter("peers_declared_down",
              process_.peers_declared_down.load(std::memory_order_relaxed));
    b.Counter("credit_stalls", process_.credit_stalls.load(std::memory_order_relaxed));
    b.Counter("frames_shed", process_.frames_shed.load(std::memory_order_relaxed));
    // Summed across processes: each addend is that process's peak link-queue bytes, so
    // the sum still witnesses "every link stayed below the configured bound" when it is
    // <= processes * bound.
    b.Counter("send_queue_hwm_bytes",
              process_.send_queue_hwm_bytes.load(std::memory_order_relaxed));
  }

  // Single-process convenience.
  ObsSnapshot Snapshot(uint32_t process_id) const {
    SnapshotBuilder b;
    AccumulateInto(b, process_id);
    return b.Finalize();
  }

 private:
  bool enabled_;
  std::vector<WorkerMetrics> workers_;  // sized once; never grows (blocks are immovable)
  std::vector<LinkMetrics> links_;      // indexed by dst process; [self] unused
  ProcessMetrics process_;
};

}  // namespace naiad::obs

#endif  // SRC_OBS_METRICS_H_
