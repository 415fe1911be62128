#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace naiad::obs {

namespace {

struct KindDesc {
  const char* name;
  bool span;  // "X" (complete) vs "i" (instant)
};

KindDesc Describe(TraceKind k) {
  switch (k) {
    case TraceKind::kFrontierAdvance:
      return {"frontier", false};
    case TraceKind::kNotifyDelivered:
      return {"notify", true};
    case TraceKind::kPurgeDelivered:
      return {"purge", true};
    case TraceKind::kEpochOpen:
      return {"epoch_open", false};
    case TraceKind::kEpochClose:
      return {"epoch_close", false};
    case TraceKind::kLinkReset:
      return {"link_reset", false};
    case TraceKind::kLinkReconnect:
      return {"link_reconnect", false};
    case TraceKind::kLinkTornFrame:
      return {"link_torn_frame", false};
    case TraceKind::kCheckpoint:
      return {"checkpoint", true};
    case TraceKind::kRestore:
      return {"restore", true};
    case TraceKind::kClusterCheckpoint:
      return {"cluster_checkpoint", true};
    case TraceKind::kClusterRecover:
      return {"cluster_recover", true};
    case TraceKind::kLinkDupFrame:
      return {"link_dup_frame", false};
    case TraceKind::kStrayFrame:
      return {"stray_frame", false};
    case TraceKind::kSelectiveStall:
      return {"selective_stall", true};
    case TraceKind::kSeedExchange:
      return {"seed_exchange", true};
    case TraceKind::kLeaseExpired:
      return {"lease_expired", false};
    case TraceKind::kTerminationBarrier:
      return {"termination_barrier", true};
  }
  return {"?", false};
}

void AppendArgs(std::string& out, const TraceEvent& e) {
  char buf[160];
  switch (e.kind) {
    case TraceKind::kFrontierAdvance:
      std::snprintf(buf, sizeof(buf),
                    "{\"stage\": %llu, \"epoch\": %llu, \"loop\": %llu}",
                    static_cast<unsigned long long>(e.a0),
                    static_cast<unsigned long long>(e.a1),
                    static_cast<unsigned long long>(e.a2));
      break;
    case TraceKind::kNotifyDelivered:
      std::snprintf(buf, sizeof(buf),
                    "{\"stage\": %llu, \"epoch\": %llu, \"lag_us\": %.3f}",
                    static_cast<unsigned long long>(e.a0),
                    static_cast<unsigned long long>(e.a1),
                    static_cast<double>(e.a2) / 1000.0);
      break;
    case TraceKind::kPurgeDelivered:
    case TraceKind::kEpochOpen:
    case TraceKind::kEpochClose:
      std::snprintf(buf, sizeof(buf), "{\"stage\": %llu, \"epoch\": %llu, \"final\": %llu}",
                    static_cast<unsigned long long>(e.a0),
                    static_cast<unsigned long long>(e.a1),
                    static_cast<unsigned long long>(e.a2));
      break;
    case TraceKind::kLinkReset:
    case TraceKind::kLinkReconnect:
      std::snprintf(buf, sizeof(buf), "{\"peer\": %llu, \"side\": \"%s\"}",
                    static_cast<unsigned long long>(e.a0), e.a1 != 0 ? "recv" : "send");
      break;
    case TraceKind::kLinkTornFrame:
      std::snprintf(buf, sizeof(buf), "{\"peer\": %llu, \"bytes\": %llu, \"in\": \"%s\"}",
                    static_cast<unsigned long long>(e.a0),
                    static_cast<unsigned long long>(e.a1),
                    e.a2 != 0 ? "body" : "header");
      break;
    case TraceKind::kCheckpoint:
    case TraceKind::kRestore:
      std::snprintf(buf, sizeof(buf), "{\"bytes\": %llu}",
                    static_cast<unsigned long long>(e.a0));
      break;
    case TraceKind::kClusterCheckpoint:
      std::snprintf(buf, sizeof(buf),
                    "{\"epoch\": %llu, \"rounds\": %llu, \"quiet\": %llu}",
                    static_cast<unsigned long long>(e.a0),
                    static_cast<unsigned long long>(e.a1),
                    static_cast<unsigned long long>(e.a2));
      break;
    case TraceKind::kClusterRecover:
      std::snprintf(buf, sizeof(buf), "{\"restored_epoch\": %lld, \"generation\": %llu}",
                    static_cast<long long>(e.a0),
                    static_cast<unsigned long long>(e.a1));
      break;
    case TraceKind::kLinkDupFrame:
      std::snprintf(buf, sizeof(buf), "{\"seq\": %llu, \"type\": %llu, \"side\": \"%s\"}",
                    static_cast<unsigned long long>(e.a0),
                    static_cast<unsigned long long>(e.a1), e.a2 != 0 ? "recv" : "send");
      break;
    case TraceKind::kStrayFrame:
      std::snprintf(buf, sizeof(buf), "{\"job\": %llu, \"src\": %llu, \"type\": %llu}",
                    static_cast<unsigned long long>(e.a0),
                    static_cast<unsigned long long>(e.a1),
                    static_cast<unsigned long long>(e.a2));
      break;
    case TraceKind::kSelectiveStall:
      std::snprintf(buf, sizeof(buf), "{\"victim\": %llu, \"rounds\": %llu, \"ok\": %llu}",
                    static_cast<unsigned long long>(e.a0),
                    static_cast<unsigned long long>(e.a1),
                    static_cast<unsigned long long>(e.a2));
      break;
    case TraceKind::kTerminationBarrier:
      std::snprintf(buf, sizeof(buf), "{\"rounds\": %llu, \"ok\": %llu}",
                    static_cast<unsigned long long>(e.a1),
                    static_cast<unsigned long long>(e.a2));
      break;
    case TraceKind::kSeedExchange:
      std::snprintf(buf, sizeof(buf),
                    "{\"seeds\": %llu, \"replayed\": %llu, \"kept_state\": %llu}",
                    static_cast<unsigned long long>(e.a0),
                    static_cast<unsigned long long>(e.a1),
                    static_cast<unsigned long long>(e.a2));
      break;
    case TraceKind::kLeaseExpired:
      std::snprintf(buf, sizeof(buf),
                    "{\"peer\": %llu, \"silence_ms\": %.3f, \"lease_ms\": %.3f}",
                    static_cast<unsigned long long>(e.a0),
                    static_cast<double>(e.a1) / 1e6, static_cast<double>(e.a2) / 1e6);
      break;
    default:
      std::snprintf(buf, sizeof(buf), "{}");
      break;
  }
  out += buf;
}

void AppendOne(std::string& out, uint32_t pid, uint32_t tid, const TraceEvent& e,
               uint64_t base_ns, bool& first) {
  const KindDesc d = Describe(e.kind);
  char buf[224];
  const double ts_us = static_cast<double>(e.ts_ns - base_ns) / 1000.0;
  if (d.span) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %u, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": ",
                  d.name, pid, tid, ts_us, static_cast<double>(e.dur_ns) / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"t\", \"pid\": %u, "
                  "\"tid\": %u, \"ts\": %.3f, \"args\": ",
                  d.name, pid, tid, ts_us);
  }
  out += first ? "\n" : ",\n";
  first = false;
  out += buf;
  AppendArgs(out, e);
  out += "}";
}

void AppendMeta(std::string& out, uint32_t pid, uint32_t tid, const char* what,
                const std::string& name, bool& first) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"name\": \"%s\", \"ph\": \"M\", \"pid\": %u, \"tid\": %u, "
                "\"args\": {\"name\": \"",
                what, pid, tid);
  out += first ? "\n" : ",\n";
  first = false;
  out += buf;
  out += name;  // thread/process names contain no JSON metacharacters by construction
  out += "\"}}";
}

}  // namespace

TraceRing* Tracer::RegisterThread(const std::string& name) {
  if (!enabled_) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<TraceRing>(name, capacity_));
  return rings_.back().get();
}

void Tracer::Control(TraceKind kind, uint64_t a0, uint64_t a1, uint64_t a2) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  control_->Record(kind, MonotonicNs(), 0, a0, a1, a2);
}

void Tracer::ControlSpan(TraceKind kind, uint64_t t0_ns, uint64_t t1_ns, uint64_t a0,
                         uint64_t a1, uint64_t a2) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  control_->Record(kind, t0_ns, t1_ns > t0_ns ? t1_ns - t0_ns : 0, a0, a1, a2);
}

uint64_t Tracer::MinTimestampNs() const {
  uint64_t min = UINT64_MAX;
  if (!enabled_) {
    return min;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto scan = [&min](const TraceRing& ring) {
    for (const TraceEvent& e : ring.Drain()) {
      min = std::min(min, e.ts_ns);
    }
  };
  scan(*control_);
  for (const auto& r : rings_) {
    scan(*r);
  }
  return min;
}

void Tracer::AppendChromeEvents(std::string& out, uint32_t pid, uint64_t base_ns,
                                bool& first) const {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  AppendMeta(out, pid, 0, "process_name", "naiad p" + std::to_string(pid), first);
  uint32_t tid = 0;
  auto emit_ring = [&](const TraceRing& ring) {
    AppendMeta(out, pid, tid, "thread_name", ring.name(), first);
    std::vector<TraceEvent> events = ring.Drain();
    // Spans are recorded at completion with ts = start, so a long span can be recorded
    // after (and start before) a short event; stable-sort restores per-thread
    // monotonicity, which the trace smoke check asserts.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent& a, const TraceEvent& b) { return a.ts_ns < b.ts_ns; });
    for (const TraceEvent& e : events) {
      AppendOne(out, pid, tid, e, base_ns, first);
    }
    if (ring.dropped() > 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    ",\n{\"name\": \"trace_dropped\", \"ph\": \"i\", \"s\": \"t\", "
                    "\"pid\": %u, \"tid\": %u, \"ts\": %.3f, \"args\": {\"events\": %llu}}",
                    pid, tid,
                    events.empty()
                        ? 0.0
                        : static_cast<double>(events.back().ts_ns - base_ns) / 1000.0,
                    static_cast<unsigned long long>(ring.dropped()));
      out += buf;
    }
    ++tid;
  };
  emit_ring(*control_);
  for (const auto& r : rings_) {
    emit_ring(*r);
  }
}

bool Tracer::WriteFile(const std::string& path,
                       const std::vector<std::pair<uint32_t, const Tracer*>>& parts) {
  uint64_t base = UINT64_MAX;
  for (const auto& [pid, tracer] : parts) {
    base = std::min(base, tracer->MinTimestampNs());
  }
  if (base == UINT64_MAX) {
    base = 0;
  }
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const auto& [pid, tracer] : parts) {
    tracer->AppendChromeEvents(out, pid, base, first);
  }
  out += "\n]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write trace %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  return ok;
}

}  // namespace naiad::obs
