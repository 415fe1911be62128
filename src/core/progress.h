// Progress tracking (§2.3, §3.3).
//
// Workers describe the events they create and retire as (pointstamp, delta) updates.
// Updates are buffered per worker for the duration of a callback and flushed atomically;
// a flush both applies to the local ProgressTracker and (in distributed mode) is broadcast
// to every process through a ProgressRouter. Because a consumed event's -1 always travels
// in the same flush as (or later than) the +1s it caused, and per-pair channels are FIFO,
// every local frontier is conservative with respect to the global frontier — the safety
// property of §3.3 / [4].
//
// Local occurrence counts may be transiently negative when a consumer's -1 overtakes the
// producer's +1 through a different channel; only strictly positive counts make a
// pointstamp active, which the protocol paper shows is safe.
//
// Updates are placed by the frozen graph's scope tree, so the tracker accepts none before
// Controller::Start() freezes it; a peer's early frames wait outside, in the job server's
// stash (src/net/job_context.h).
//
// Occurrence counts are kept per loop scope (see ProgressTracker). A frontier query scans
// only the counts and summarized child-scope images along the query's scope chain, and
// memoizes its verdict until something on that chain changes; the observable semantics
// are identical to the §2.3 scan over one global active set.

#ifndef SRC_CORE_PROGRESS_H_
#define SRC_CORE_PROGRESS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "src/base/event_count.h"
#include "src/base/logging.h"
#include "src/core/graph.h"
#include "src/core/location.h"
#include "src/ser/bytes.h"

namespace naiad {

struct ProgressUpdate {
  Pointstamp point;
  int64_t delta = 0;

  friend bool operator==(const ProgressUpdate&, const ProgressUpdate&) = default;

  void Encode(ByteWriter& w) const {
    point.Encode(w);
    w.WriteI64(delta);
  }
  bool Decode(ByteReader& r) {
    if (!point.Decode(r)) {
      return false;
    }
    delta = r.ReadI64();
    return r.ok();
  }
};

// Per-worker accumulation of deltas within a callback / dispatch step. Take() combines
// updates with equal pointstamps and orders positive deltas before negative ones, as §3.3
// requires of broadcast updates.
//
// The accumulator is a small open-addressed (linear-probing) table sized to the active
// pointstamp set — Add() is the per-bundle hot path (one call per routed bundle and per
// delivered callback), so it must not pay an ordered-map node allocation and pointer
// chase per delta. The table only ever grows (entries are combined in place and cleared
// wholesale by Take()), so probe chains never contain tombstones. Take() sorts each sign
// group, preserving the ordered-map output order the fault-injection harness replays.
class ProgressBuffer {
 public:
  void Add(const Pointstamp& p, int64_t delta) {
    if (delta == 0) {
      return;
    }
    // Consecutive deltas overwhelmingly hit the same pointstamp (a flush accumulates one
    // delta per bundle of the same (connector, time), and every delivered bundle retires
    // against the pointstamp it arrived on), so a one-entry cache skips the hash.
    if (last_ < slots_.size()) {
      Slot& s = slots_[last_];
      if (s.used && s.point == p) {
        NoteCombine(s.delta, delta);
        s.delta += delta;
        return;
      }
    }
    if (slots_.empty()) {
      slots_.resize(kInitialSlots);
    }
    const uint64_t h = HashOf(p);
    size_t mask = slots_.size() - 1;
    size_t i = h & mask;
    for (;;) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.hash = h;
        s.point = p;
        s.delta = delta;
        ++used_;
        ++nonzero_;  // delta != 0 (checked on entry)
        last_ = i;
        if (used_ * 4 >= slots_.size() * 3) {
          Grow();  // invalidates last_
        }
        return;
      }
      if (s.hash == h && s.point == p) {
        NoteCombine(s.delta, delta);
        s.delta += delta;
        last_ = i;
        return;
      }
      i = (i + 1) & mask;
    }
  }

  // O(1): Add() maintains the count of slots with a nonzero delta (slots whose deltas
  // cancelled back to zero stay occupied but are not pending output). This sits on the
  // per-item FlushProgress path, so it must not scan the table.
  bool Empty() const { return nonzero_ == 0; }

  std::vector<ProgressUpdate> Take() {
    std::vector<ProgressUpdate> out;
    out.reserve(used_);
    for (const Slot& s : slots_) {
      if (s.used && s.delta > 0) {
        out.push_back(ProgressUpdate{s.point, s.delta});
      }
    }
    const size_t positives = out.size();
    for (Slot& s : slots_) {
      if (s.used && s.delta < 0) {
        out.push_back(ProgressUpdate{s.point, s.delta});
      }
      s.used = false;
    }
    used_ = 0;
    nonzero_ = 0;
    last_ = static_cast<size_t>(-1);
    // Deterministic output (the ordered-map order): sort within each sign group.
    auto by_point = [](const ProgressUpdate& a, const ProgressUpdate& b) {
      return a.point < b.point;
    };
    std::sort(out.begin(), out.begin() + static_cast<ptrdiff_t>(positives), by_point);
    std::sort(out.begin() + static_cast<ptrdiff_t>(positives), out.end(), by_point);
    return out;
  }

 private:
  static constexpr size_t kInitialSlots = 16;  // power of two

  struct Slot {
    Pointstamp point;
    uint64_t hash = 0;
    int64_t delta = 0;
    bool used = false;
  };

  // One multiply-accumulate per coordinate and a single final mix — cheaper than the
  // general Pointstamp::Hash and strong enough for a small power-of-two table.
  static uint64_t HashOf(const Pointstamp& p) {
    uint64_t h = p.time.epoch;
    for (uint64_t c : p.time.coords) {
      h = h * 0x9e3779b97f4a7c15ull + c;
    }
    return Mix64(h ^ ((uint64_t(p.loc.id) << 1) | uint64_t(p.loc.kind)));
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (Slot& s : old) {
      if (!s.used) {
        continue;
      }
      size_t i = s.hash & mask;
      while (slots_[i].used) {
        i = (i + 1) & mask;
      }
      slots_[i] = std::move(s);
    }
    last_ = static_cast<size_t>(-1);
  }

  // Tracks the nonzero-delta slot count across an in-place combine (Empty()'s O(1)
  // view). Branchless: +1 when 0 -> nonzero, -1 when nonzero -> 0 (unsigned wrap is
  // fine — the two bools differ by at most one and nonzero_ > 0 whenever it decrements).
  void NoteCombine(int64_t old_delta, int64_t add) {
    nonzero_ += static_cast<size_t>(old_delta == 0) -
                static_cast<size_t>(old_delta + add == 0);
  }

  std::vector<Slot> slots_;
  size_t used_ = 0;
  size_t nonzero_ = 0;  // slots with delta != 0; Empty() == (nonzero_ == 0)
  size_t last_ = static_cast<size_t>(-1);  // slot touched by the previous Add
};

// Wire size of one encoded ProgressUpdate (Pointstamp + i64 delta); used for the
// cross-scope byte accounting in the router and the tracker.
inline uint64_t EncodedProgressUpdateBytes(const Pointstamp& p) {
  return 8 + 1 + 8 * static_cast<uint64_t>(p.time.coords.size()) + 1 + 4 + 8;
}

// Accounting the per-scope organization is measured by (bench/fig6c_progress.cpp,
// src/obs/).
struct ProgressTrackerStats {
  uint64_t boundary_updates = 0;       // image deltas pushed across a scope boundary
  uint64_t boundary_update_bytes = 0;  // their encoded size, were they wire traffic
  uint64_t query_scans = 0;            // frontier queries that walked occurrence maps
  uint64_t query_memo_hits = 0;        // frontier queries answered by the dirty-bit memo
  uint64_t scan_points = 0;            // pointstamps examined across all query scans
  uint64_t occ_map_peak = 0;           // max Σ over scopes of (counts + image) entries
  uint64_t occ_map_peak_root = 0;      // max entries in the root scope's map alone
  uint64_t drained_notifies = 0;       // Apply calls that notified the drained edge
  uint64_t num_scopes = 1;
};

// The occurrence counts of §2.3, organized as one occurrence map per loop scope
// (LogicalGraph's scope tree). An update at a scope-internal location stays in that
// scope's map; only when the scope's activity at a pointstamp starts or stops does a
// *summarized* image update (loop counter projected away via the Ψ antichain onto the
// scope's egress exits) propagate to the parent. Frontier queries walk the query's scope
// chain — own scope, ancestors, and the collapsed child images — instead of the whole
// graph's active set.
//
// Equivalence with the flat §2.3 scan over one global map (model-checked against an
// independent reference by tests/progress_scoped_model_test.cc): a chain query blocks
// iff the flat scan blocks. Soundness — every image entry is Apply(summary, q.time) for a
// real active q and a real path prefix, and Ψ from the exit onward completes the path, so
// an image that blocks corresponds to a flat blocker. Completeness — any flat blocker q
// outside the chain sits in some scope S whose chain meets ours at an ancestor A; the q→p
// path must leave S through an exit e of S, the projection antichain at e dominates the
// path's prefix summary, and PathSummary::Apply is monotone w.r.t. Timestamp::PartialLeq,
// so the image of q at e (recursively, at A) blocks whenever q does. Self-images cannot
// deadlock a pointstamp against itself: Freeze() rejects cycles whose summary dominates
// the identity, so any projected image of p that could loop back to p strictly advances
// a coordinate and fails PartialLeq.
class ProgressTracker {
 public:
  ProgressTracker(const LogicalGraph* graph, EventCount* event)
      : graph_(graph), event_(event) {}

  void Apply(std::span<const ProgressUpdate> updates) {
    if (updates.empty()) {
      return;
    }
    bool drained;
    {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureReadyLocked();
      for (const ProgressUpdate& u : updates) {
        ApplyOneLocked(u.point, u.delta);
      }
      NotePeaksLocked();
      drained = nonzero_ == 0;
      if (drained) {
        ++stats_.drained_notifies;
      }
      version_.fetch_add(1, std::memory_order_release);
    }
    event_->NotifyAll();
    if (drained) {
      drained_.NotifyAll();
    }
  }

  // §2.3: a notification with (projected) pointstamp p may be delivered when no *other*
  // active pointstamp could-result-in p. Before the graph freezes (a probe polled before
  // Start) nothing is deliverable — the conservative answer.
  bool CanDeliver(const Pointstamp& p) const {
    if (!graph_->frozen()) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    EnsureReadyLocked();
    return !BlockedLocked(p, /*exclude_self=*/true);
  }

  // True when no active pointstamp (including p itself) could-result-in p; i.e. the global
  // frontier has passed p. Used by output probes.
  bool FrontierPassed(const Pointstamp& p) const {
    if (!graph_->frozen()) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    EnsureReadyLocked();
    return !BlockedLocked(p, /*exclude_self=*/false);
  }

  // No pointstamp has a nonzero occurrence count. O(1): ApplyOneLocked maintains the
  // count of nonzero entries.
  bool Empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return nonzero_ == 0;
  }

  int64_t Count(const Pointstamp& p) const {
    std::lock_guard<std::mutex> lock(mu_);
    EnsureReadyLocked();
    const ScopeState& s = scopes_[graph_->ScopeOf(p.loc)];
    auto it = s.counts.find(p);
    return it == s.counts.end() ? 0 : it->second;
  }

  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  // Real occurrence counts only (boundary images are derived state), merged across scopes
  // in Pointstamp order — one global snapshot, which the checkpoint format
  // (src/ft/checkpoint.cc) relies on.
  std::vector<std::pair<Pointstamp, int64_t>> ActiveSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<Pointstamp, int64_t> merged;
    for (const ScopeState& s : scopes_) {
      for (const auto& [q, count] : s.counts) {
        merged[q] += count;
      }
    }
    std::vector<std::pair<Pointstamp, int64_t>> out;
    for (const auto& [q, count] : merged) {
      out.emplace_back(q, count);
    }
    return out;
  }

  ProgressTrackerStats Stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    ProgressTrackerStats out = stats_;
    out.num_scopes = scopes_.empty() ? 1 : scopes_.size();
    return out;
  }

  // Blocks the calling (non-worker) thread until `pred` holds, parked on the host event;
  // used by output probes and other frontier waits. Every tracker Apply notifies that
  // event, and so must whatever else can flip `pred` (cancellation and recovery requests
  // do); the wait's timeout is only the backstop. Waits for Empty() use WaitDrained.
  template <typename Pred>
  void WaitFor(Pred pred) const {
    while (true) {
      EventCount::Ticket ticket = event_->PrepareWait();
      if (pred()) {
        return;
      }
      event_->CommitWait(ticket);
    }
  }

  // Blocks the calling (non-worker) thread until the tracker is Empty() or `stop()` holds;
  // used by Join and the termination barrier. Parks on the drained edge, which only an
  // Apply that leaves the tracker empty notifies, so the waiter sleeps through the run's
  // other progress traffic.
  // Whatever can flip `stop` must call WakeDrainWaiters after setting its flag.
  template <typename Stop>
  void WaitDrained(Stop stop) const {
    while (true) {
      EventCount::Ticket ticket = drained_.PrepareWait();
      if (Empty() || stop()) {
        return;
      }
      drained_.CommitWait(ticket);
    }
  }
  void WakeDrainWaiters() { drained_.NotifyAll(); }

  const LogicalGraph* graph() const { return graph_; }

 private:
  struct QueryMemo {
    // A memoized verdict is valid while the sum of versions along the query's scope chain
    // is unchanged — the per-scope dirty bit. Versions start at 1, so stamp 0 ≡ unset.
    uint64_t can_stamp = 0;
    uint64_t passed_stamp = 0;
    bool can = false;
    bool passed = false;
  };

  struct ScopeState {
    std::map<Pointstamp, int64_t> counts;  // real occurrence counts at in-scope locations
    std::map<Pointstamp, int64_t> image;   // refcounted summarized child-scope activity
    uint64_t version = 1;                  // bumped whenever counts or image changes
    mutable std::map<Pointstamp, QueryMemo> memo;
  };

  static constexpr size_t kMemoLimit = 4096;  // per-scope; cleared wholesale on overflow

  // Builds the per-scope states from the frozen scope tree. Caller holds mu_. Placement
  // needs the scope tree, so nothing may be applied before the graph freezes: a peer's
  // frames are held until this process's Controller::Start() (src/net/job_context.h).
  void EnsureReadyLocked() const {
    if (!scopes_.empty()) {
      return;
    }
    NAIAD_CHECK(graph_->frozen()) << "progress tracked before the graph froze";
    scopes_.resize(graph_->num_scopes());
  }

  void ApplyOneLocked(const Pointstamp& p, int64_t delta) const {
    const uint32_t sc = graph_->ScopeOf(p.loc);
    ScopeState& s = scopes_[sc];
    auto img = s.image.find(p);
    const bool img_pos = img != s.image.end() && img->second > 0;
    int64_t& c = s.counts[p];
    const bool eff_was = c > 0 || img_pos;
    if (c == 0) {
      ++nonzero_;  // a new entry: zero counts are erased below
    }
    c += delta;
    const bool eff_now = c > 0 || img_pos;
    if (c == 0) {
      s.counts.erase(p);
      --nonzero_;
    }
    ++s.version;
    if (eff_was != eff_now && sc != 0) {
      PropagateLocked(p, eff_now ? +1 : -1);
    }
  }

  // The scope holding p.loc just transitioned between inactive and active at p: push the
  // summarized image (loop counters projected onto the scope's exits) into the parent's
  // image map, cascading further up on parent transitions. Depth-bounded recursion (scope
  // parents strictly decrease in depth).
  void PropagateLocked(const Pointstamp& p, int64_t dir) const {
    for (const BoundaryProjection& proj : graph_->Projections(p.loc)) {
      for (const PathSummary& ps : proj.summaries.elements()) {
        const Pointstamp bp{ps.Apply(p.time), proj.exit};
        ++stats_.boundary_updates;
        stats_.boundary_update_bytes += EncodedProgressUpdateBytes(bp);
        ImageDeltaLocked(bp, dir);
      }
    }
  }

  void ImageDeltaLocked(const Pointstamp& bp, int64_t dir) const {
    const uint32_t sc = graph_->ScopeOf(bp.loc);
    ScopeState& t = scopes_[sc];
    auto real = t.counts.find(bp);
    const bool real_pos = real != t.counts.end() && real->second > 0;
    int64_t& ic = t.image[bp];
    const bool eff_was = real_pos || ic > 0;
    ic += dir;
    NAIAD_CHECK(ic >= 0) << "scoped progress image refcount went negative";
    const bool eff_now = real_pos || ic > 0;
    if (ic == 0) {
      t.image.erase(bp);
    }
    ++t.version;
    if (eff_was != eff_now && sc != 0) {
      PropagateLocked(bp, eff_now ? +1 : -1);
    }
  }

  uint64_t ChainStampLocked(uint32_t sc) const {
    uint64_t stamp = 0;
    for (uint32_t t = sc;;) {
      stamp += scopes_[t].version;
      if (t == 0) {
        return stamp;
      }
      t = graph_->ScopeParent(t);
    }
  }

  // One frontier query, memoized per (pointstamp, chain version sum): scans the real
  // counts and child images of every scope on p's chain to the root. Activity in any
  // other scope is covered by an image at some chain ancestor; activity that changed
  // nothing on the chain (the sibling-scope case the O(active²) rescan paid for) leaves
  // the stamp untouched and the memoized verdict stands.
  bool BlockedLocked(const Pointstamp& p, bool exclude_self) const {
    const uint32_t sc = graph_->ScopeOf(p.loc);
    const uint64_t stamp = ChainStampLocked(sc);
    ScopeState& home = scopes_[sc];
    if (home.memo.size() >= kMemoLimit) {
      home.memo.clear();
    }
    QueryMemo& m = home.memo[p];
    uint64_t& slot_stamp = exclude_self ? m.can_stamp : m.passed_stamp;
    bool& slot_verdict = exclude_self ? m.can : m.passed;
    if (slot_stamp == stamp) {
      ++stats_.query_memo_hits;
      return slot_verdict;
    }
    ++stats_.query_scans;
    bool blocked = false;
    for (uint32_t t = sc; !blocked;) {
      const ScopeState& s = scopes_[t];
      for (const auto& [q, count] : s.counts) {
        ++stats_.scan_points;
        if (count > 0 && (!exclude_self || q != p) && graph_->CouldResultIn(q, p)) {
          blocked = true;
          break;
        }
      }
      // Image entries represent distinct pointstamps inside child scopes, never p itself,
      // so the exclude_self carve-out does not apply to them.
      for (auto it = s.image.begin(); !blocked && it != s.image.end(); ++it) {
        ++stats_.scan_points;
        if (it->second > 0 && graph_->CouldResultIn(it->first, p)) {
          blocked = true;
        }
      }
      if (t == 0) {
        break;
      }
      t = graph_->ScopeParent(t);
    }
    slot_stamp = stamp;
    slot_verdict = blocked;
    return blocked;
  }

  void NotePeaksLocked() const {
    uint64_t total = 0;
    for (const ScopeState& s : scopes_) {
      total += s.counts.size() + s.image.size();
    }
    stats_.occ_map_peak = std::max(stats_.occ_map_peak, total);
    if (!scopes_.empty()) {
      stats_.occ_map_peak_root = std::max(
          stats_.occ_map_peak_root,
          static_cast<uint64_t>(scopes_[0].counts.size() + scopes_[0].image.size()));
    }
  }

  const LogicalGraph* graph_;
  EventCount* event_;
  mutable std::mutex mu_;
  // Mutable: queries lazily build the scope states after the freeze and update the memo
  // and stats; all under mu_.
  mutable std::vector<ScopeState> scopes_;
  mutable uint64_t nonzero_ = 0;  // Σ over scopes of counts entries (all nonzero)
  mutable ProgressTrackerStats stats_;
  mutable EventCount drained_;  // notified when an Apply leaves the tracker empty
  std::atomic<uint64_t> version_{0};
};

// Where a worker's flushed updates go. The local router applies them directly; the
// distributed routers in src/progress add broadcast and accumulation (§3.3).
class ProgressRouter {
 public:
  virtual ~ProgressRouter() = default;
  // Must (eventually) apply `updates` to every process's tracker, including the caller's.
  // An accumulating router may hold them until some worker's idle edge, so a caller that
  // is not a worker flushing its own buffer must notify the controller's event afterwards.
  virtual void Broadcast(std::vector<ProgressUpdate> updates) = 0;
  // Called when a worker runs out of work; accumulating routers flush held updates here.
  // Returns true when the flush was deferred: the caller must come back (rescan) instead
  // of parking, since no event will announce that the deferral ended.
  virtual bool OnWorkerIdle() { return false; }
};

class LocalProgressRouter final : public ProgressRouter {
 public:
  explicit LocalProgressRouter(ProgressTracker* tracker) : tracker_(tracker) {}
  void Broadcast(std::vector<ProgressUpdate> updates) override {
    tracker_->Apply(updates);
  }

 private:
  ProgressTracker* tracker_;
};

}  // namespace naiad

#endif  // SRC_CORE_PROGRESS_H_
