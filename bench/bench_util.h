// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every bench prints (a) the paper's claim for the figure/table it regenerates and (b) a
// table of measured rows in the same shape. Absolute numbers differ from the paper's 2013
// cluster — EXPERIMENTS.md records both sides; the *shape* is the reproduction target.
//
// Benches additionally emit a machine-readable run record, BENCH_<figure>.json, so the
// repository can keep a perf trajectory across PRs (see EXPERIMENTS.md "Recording
// baselines"). A run is labelled via NAIAD_BENCH_LABEL (default "current") and written to
// NAIAD_BENCH_DIR (default the working directory). The file accumulates runs: writing a
// label that already exists replaces that run and keeps the others, so one checked-in
// file can carry pre- and post-optimization baselines side by side.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdarg>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace naiad::bench {

inline void Header(const char* id, const char* title, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("paper: %s\n", claim);
  std::printf("================================================================\n");
}

inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

// Value of a `--name=N` flag, or `dflt` when absent.
inline uint64_t FlagU64(int argc, char** argv, const char* name, uint64_t dflt) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return dflt;
}

// One benchmark run destined for BENCH_<figure>.json: a flat config block plus a list of
// measured rows, each a flat object of numeric/string fields (records_per_sec, p50_us,
// p99_us, ... — whatever the figure measures). Values are kept as preformatted JSON
// scalars so the writer needs no type dispatch.
class JsonReport {
 public:
  explicit JsonReport(std::string figure) : figure_(std::move(figure)) {}

  void Config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, Quote(value));
  }
  void Config(const std::string& key, double value) {
    config_.emplace_back(key, Number(value));
  }

  // Starts a new row; subsequent Num/Str calls fill it.
  void NewRow() { rows_.emplace_back(); }
  void Num(const std::string& key, double value) {
    rows_.back().emplace_back(key, Number(value));
  }
  void Str(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, Quote(value));
  }

  // Writes (or updates) BENCH_<figure>.json. Returns the path written (empty on failure).
  std::string Write() const {
    const char* dir = std::getenv("NAIAD_BENCH_DIR");
    const char* env_label = std::getenv("NAIAD_BENCH_LABEL");
    const std::string label = env_label != nullptr ? env_label : "current";
    std::string path =
        std::string(dir != nullptr ? dir : ".") + "/BENCH_" + figure_ + ".json";
    // One run per line lets an update replace its own label textually — no JSON parser.
    std::string line = "{\"label\": " + Quote(label) + ", \"config\": " + Object(config_) +
                       ", \"rows\": [";
    for (size_t i = 0; i < rows_.size(); ++i) {
      line += (i == 0 ? "" : ", ") + Object(rows_[i]);
    }
    line += "]}";
    std::vector<std::string> runs = ReadExistingRuns(path, label);
    runs.push_back(std::move(line));
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return "";
    }
    std::string out = "{\"figure\": " + Quote(figure_) + ", \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
      out += runs[i] + (i + 1 < runs.size() ? ",\n" : "\n");
    }
    out += "]}\n";
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s (label %s)\n", path.c_str(), label.c_str());
    return path;
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  // Returns the run lines already present in `path`, minus any run carrying `label`
  // (which the caller is about to rewrite). Run lines are the ones starting with
  // `{"label":` — the writer above puts exactly one run per line.
  static std::vector<std::string> ReadExistingRuns(const std::string& path,
                                                   const std::string& label) {
    std::vector<std::string> runs;
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
      return runs;
    }
    std::string contents;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      contents.append(buf, n);
    }
    std::fclose(f);
    const std::string skip = "{\"label\": " + Quote(label);
    size_t pos = 0;
    while (pos < contents.size()) {
      size_t eol = contents.find('\n', pos);
      if (eol == std::string::npos) {
        eol = contents.size();
      }
      std::string line = contents.substr(pos, eol - pos);
      pos = eol + 1;
      if (!line.empty() && line.back() == ',') {
        line.pop_back();
      }
      if (line.rfind("{\"label\":", 0) == 0 && line.rfind(skip, 0) != 0) {
        runs.push_back(std::move(line));
      }
    }
    return runs;
  }

  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
      }
      q += c;
    }
    return q + "\"";
  }

  static std::string Number(double v) {
    char buf[64];
    if (v == static_cast<double>(static_cast<long long>(v)) && v < 1e15 && v > -1e15) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "%.6g", v);
    }
    return buf;
  }

  static std::string Object(const Fields& fields) {
    std::string out = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
      out += (i == 0 ? "" : ",");
      out += " " + Quote(fields[i].first) + ": " + fields[i].second;
    }
    return out + " }";
  }

  std::string figure_;
  Fields config_;
  std::vector<Fields> rows_;
};

// Progress-scope accounting fields shared by the fig6c table and its JSON record: how
// many of the emitted progress bytes were cross-scope (root-space updates that must reach
// every process regardless of organization), how many were loop-internal, and what the
// summarized boundary traffic plus occurrence-map footprint looked like. `cross_total` is
// the number the per-scope organization is judged by: root-space wire bytes plus
// boundary-image bytes (the only traffic a per-scope deployment sends across scopes).
struct ScopeAccounting {
  double cross_total_kb = 0;
  double in_scope_kb = 0;
  double boundary_kb = 0;
  double boundary_updates = 0;
  double occ_map_peak = 0;
  double occ_map_peak_root = 0;

  template <typename ClusterStatsT>
  static ScopeAccounting From(const ClusterStatsT& s) {
    ScopeAccounting a;
    a.cross_total_kb =
        (s.progress_cross_scope_bytes + s.progress_boundary_bytes) / 1024.0;
    a.in_scope_kb = s.progress_in_scope_bytes / 1024.0;
    a.boundary_kb = s.progress_boundary_bytes / 1024.0;
    a.boundary_updates = static_cast<double>(s.progress_boundary_updates);
    a.occ_map_peak = static_cast<double>(s.occ_map_peak);
    a.occ_map_peak_root = static_cast<double>(s.occ_map_peak_root);
    return a;
  }

  void AddTo(JsonReport& report) const {
    report.Num("cross_scope_kb", cross_total_kb);
    report.Num("in_scope_kb", in_scope_kb);
    report.Num("boundary_kb", boundary_kb);
    report.Num("boundary_updates", boundary_updates);
    report.Num("occ_map_peak", occ_map_peak);
    report.Num("occ_map_peak_root", occ_map_peak_root);
  }
};

// Appends an observability snapshot to `report` as rows of kind "obs_counter" /
// "obs_histogram", so the BENCH_*.json trajectory carries the metric series alongside the
// figure's own measurements.
inline void AddObsRows(JsonReport& report, const obs::ObsSnapshot& snap) {
  for (const auto& [name, value] : snap.counters) {
    report.NewRow();
    report.Str("kind", "obs_counter");
    report.Str("metric", name);
    report.Num("value", static_cast<double>(value));
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    report.NewRow();
    report.Str("kind", "obs_histogram");
    report.Str("metric", h.name);
    report.Num("count", static_cast<double>(h.count));
    report.Num("mean", h.mean);
    report.Num("p50", h.p50);
    report.Num("p99", h.p99);
    report.Num("max", h.max);
  }
}

}  // namespace naiad::bench

#endif  // BENCH_BENCH_UTIL_H_
