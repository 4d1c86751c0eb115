// Scoped sampling profiler: subsystem wall-clock time accounting.
//
// A `ProfScope` brackets a hot-path region against a `ProfSite` (one static
// site per instrumented region).  The profiler accumulates wall-clock time
// into a call-path tree: each node is one (parent-path, site) pair, so the
// same site reached through different callers is accounted separately — the
// structure a flamegraph renders.  Self time is derived at export: a node's
// total minus its children's totals.
//
// Cost discipline (mirrors TraceHandle, DESIGN.md §7):
//  * disarmed (no profiler installed, or disabled): one global load and a
//    predictable branch per scope — cheap enough to leave compiled into
//    every hot path, including per-packet ones;
//  * armed but not sampled: one countdown decrement per scope.  Sites on
//    nanosecond-scale paths declare a sampling stride N (measure 1 in N
//    entries); sampled durations are scaled by N so totals stay unbiased;
//  * armed and sampled: two steady_clock reads plus two pointer-sized
//    stores.
//
// Timing is real wall-clock (std::chrono::steady_clock), not simulated time:
// the profiler answers "where does the *host* CPU go", which is what the
// parallel-engine work (ROADMAP item 1) needs to diagnose.  Profile exports
// are therefore machine-dependent by design; everything else in src/obs
// stays deterministic.
//
// Exports: collapsed-stack ("a;b;c self_ns" per line — flamegraph.pl /
// speedscope format) and JSON (nodes + flat per-site totals, consumed by
// tools/report.cc and ci/perf_smoke.py attribution diffs).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace redplane::obs {

class Profiler;

namespace internal {
extern Profiler* g_profiler;
/// Equal to g_profiler when it is installed AND enabled, else null.  The
/// ProfScope fast path tests only this pointer, so arming state costs one
/// load instead of a dependent profiler->enabled_ chase.
extern Profiler* g_armed;
/// Next value of the process-wide generation counter shared by Profiler and
/// Tracer.  Cached interned ids are keyed by generation alone, so a new
/// instance at a dead one's address never revalidates a stale cache.
std::uint64_t NextGeneration();
}  // namespace internal

/// One instrumented region.  Declare one per region, at namespace scope or
/// as a function-local static, and bracket the region with a ProfScope.
/// `stride` is the sampling period: 1 (default) measures every entry;
/// nanosecond-scale sites use a larger stride so the armed cost stays a
/// decrement.
struct ProfSite {
  explicit ProfSite(const char* name, std::uint32_t stride = 1)
      : name(name),
        stride(stride == 0 ? 1 : stride),
        countdown(stride == 0 ? 1 : stride) {}

  const char* name;
  std::uint32_t stride;
  /// Entries remaining until the next sampled one (hot; decremented per
  /// armed scope entry).
  std::uint32_t countdown;
  /// Interned site id, revalidated against the installed profiler's
  /// generation (same discipline as TraceHandle's cached component id).
  std::uint16_t id = 0;
  std::uint64_t cached_generation = 0;
};

/// One node of the call-path tree.
struct ProfNode {
  std::uint16_t site = 0;       // index into Profiler site table
  std::int32_t parent = -1;     // node index, -1 for a root
  std::uint64_t count = 0;      // entries (scaled by stride)
  std::uint64_t total_ns = 0;   // inclusive wall time (scaled by stride)
  std::vector<std::int32_t> children;
};

/// Flat per-site aggregate (what the perf-smoke attribution diff compares).
struct ProfSiteTotal {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Profiler {
 public:
  Profiler();

  /// Also updates internal::g_armed when this profiler is the installed one.
  void SetEnabled(bool enabled);
  bool enabled() const { return enabled_; }

  /// Changes whenever sites are dropped; ProfSites revalidate against this.
  std::uint64_t generation() const { return generation_; }

  static std::uint64_t NowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // --- recording (called by ProfScope) ---
  /// Interns `site` if needed, descends into (or creates) its child node
  /// under the current path, and returns the previous current node.
  std::int32_t Enter(ProfSite& site);
  /// Accumulates a sampled duration into the current node and restores the
  /// caller's node.
  void Leave(std::int32_t prev_node, std::uint64_t dur_ns,
             std::uint32_t stride);

  // --- inspection / export ---
  std::size_t NumNodes() const { return nodes_.size(); }
  const std::vector<ProfNode>& Nodes() const { return nodes_; }
  const std::string& SiteName(std::uint16_t id) const;
  /// A node's self time: total minus children's totals (clamped at 0 —
  /// strides can make a child's scaled total exceed its parent's sample).
  std::uint64_t SelfNs(std::int32_t node) const;
  /// Flat per-site totals, sorted by descending self time.
  std::vector<ProfSiteTotal> SiteTotals() const;

  /// Collapsed-stack format: one "root;child;leaf self_ns" line per node
  /// with nonzero self time, sorted by path for stable output.
  void WriteCollapsed(std::ostream& os) const;
  /// JSON: {"nodes": [...], "sites": [...]} — see tools/report.cc.
  void WriteJson(std::ostream& os) const;
  std::string Json() const;

  /// Drops all nodes and interned sites (draws a new generation).
  void Reset();

 private:
  std::uint16_t InternSite(ProfSite& site);
  std::int32_t ChildNode(std::int32_t parent, std::uint16_t site);

  bool enabled_ = false;
  std::uint64_t generation_;
  std::vector<std::string> site_names_;
  std::vector<ProfNode> nodes_;
  /// Current call-path position; -1 = at the (virtual) root.
  std::int32_t current_ = -1;
  /// Root nodes (parent == -1), in creation order.
  std::vector<std::int32_t> roots_;
};

/// Process-global profiler (null when none installed).  Single-threaded,
/// like the simulator and the tracer.
inline Profiler* GlobalProfiler() { return internal::g_profiler; }

/// Installs `profiler` as the global one; returns the previous one.
Profiler* SetGlobalProfiler(Profiler* profiler);

/// RAII scope against a site.  Constructing one when no profiler is armed
/// costs one load and a branch; see the header comment for the armed costs.
class ProfScope {
 public:
  explicit ProfScope(ProfSite& site) {
    Profiler* p = internal::g_armed;
    if (p == nullptr) return;
    if (--site.countdown != 0) return;  // armed, not sampled this time
    site.countdown = site.stride;
    prof_ = p;
    stride_ = site.stride;
    prev_ = p->Enter(site);
    start_ns_ = Profiler::NowNs();
  }

  ~ProfScope() {
    if (prof_ == nullptr) return;
    prof_->Leave(prev_, Profiler::NowNs() - start_ns_, stride_);
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

  /// True when this scope was selected for measurement.
  bool sampled() const { return prof_ != nullptr; }

 private:
  Profiler* prof_ = nullptr;
  std::int32_t prev_ = -1;
  std::uint64_t start_ns_ = 0;
  std::uint32_t stride_ = 1;
};

}  // namespace redplane::obs
