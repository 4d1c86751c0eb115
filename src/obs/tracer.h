// The one event stream: stamping, component interning, the flight-recorder
// ring and fan-out to subscribers.
//
// Components emit typed events (obs/events.h) through a `TraceHandle`,
// which caches its interned component id and costs one load and one branch
// while the stream is disarmed — cheap enough to leave in every hot path.
// The installed, enabled Tracer is the stream: it stamps each event once
// (time from an injected clock — the simulator registers `Simulator::Now` —
// and a global emission order), keeps it in a bounded ring, and hands the
// same record to every subscriber (the auditor, the recovery tracker).
// Identical seeds produce byte-identical trace exports.
//
// Exports: Chrome `trace_event` JSON (loadable in Perfetto / chrome://tracing)
// and a per-phase latency-breakdown table (p50/p99 per protocol phase),
// reconstructed by pairing begin/end events per (flow, seq).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace redplane::obs {

/// One event.  `flow` is a pre-hashed flow/key identifier (callers hash with
/// net::HashFlowKey / net::HashPartitionKey); `seq` disambiguates per-write
/// lifecycles; `arg` and `aux` carry the event-specific real and integer
/// payloads (bytes, counts, staleness; expiries, bounds, node ids).
struct TraceRecord {
  SimTime t = 0;
  std::uint64_t order = 0;  // global emission index; breaks timestamp ties
  Ev ev = Ev::kIngress;
  std::uint16_t component = 0;
  /// End-of-span record whose begin partner is absent from the record set
  /// (evicted from the ring, or never recorded).  Computed at export time by
  /// MarkOrphanedEnds; never set on the hot emit path.
  bool orphan = false;
  std::uint64_t flow = 0;
  std::uint64_t seq = 0;
  double arg = 0.0;
  /// Cross-layer request span this record belongs to (0 = none).  The switch
  /// stamps a fresh span id into each protocol request; the store echoes it
  /// through the chain and the ack, so one write's whole lifecycle shares
  /// one id across components (see obs/spans.h).
  std::uint64_t span = 0;
  /// Integer payload; see obs/events.h per kind.  A buffered read carries
  /// the span of the write it waits on here (see ParentSpan).
  std::uint64_t aux = 0;
};

/// The span a record's lifecycle was spawned by (0 = root): only a buffered
/// read has one, the write span it waits on.
inline std::uint64_t ParentSpan(const TraceRecord& r) {
  return r.ev == Ev::kBufferedRead ? r.aux : 0;
}

/// One begin→end protocol-span pairing (the pairings behind
/// Tracer::LatencyBreakdown).  Exported so the auditor's causal-slice
/// extraction can compute happens-before closure with the same rules the
/// tracer uses.
struct ProtocolPair {
  Ev begin;
  Ev end;
  bool seq_matched;  // pair on (flow, seq); otherwise on flow alone
};

/// All begin/end pairings the tracer reconstructs protocol phases from.
std::span<const ProtocolPair> ProtocolPairs();

/// The kind an event plays in begin/end pairing and span segmentation: a
/// merge join is the apply step of a mergeable flow's request.
inline Ev PairingKind(Ev ev) {
  return ev == Ev::kMergeApplied ? Ev::kStoreApplied : ev;
}

/// Marks every end-of-span record in `records` (ascending emission order)
/// whose begin partner never appears earlier in the set — the signature of a
/// begin evicted from the ring while its span was still open.  Returns the
/// number of records marked.
std::size_t MarkOrphanedEnds(std::vector<TraceRecord>& records);

/// Writes Chrome trace_event JSON for an explicit record set.  Used by the
/// tracer's own export and by the auditor's causal slices; `components[id]`
/// names the component ids referenced by the records.
void WriteChromeTraceRecords(std::ostream& os,
                             std::span<const TraceRecord> records,
                             std::span<const std::string> components);

/// Record-selection predicate for queries and exports.  Zero/empty fields
/// match everything.
struct TraceFilter {
  std::uint64_t flow = 0;            // match this flow id only (0 = any)
  std::string component;             // match this component name only
  bool Matches(const TraceRecord& r, const class Tracer& tracer) const;
};

/// Per-phase latency summary produced by Tracer::LatencyBreakdown().
struct PhaseStats {
  std::string name;
  SampleSet samples_us;  // one sample per completed begin→end pair, in µs
};

class Tracer;

/// A consumer of the event stream.  A subscriber sees every event the
/// tracer it is attached to stamps, in emission order, with the same `t`
/// and `order` the ring records; destroying it detaches it.
class Subscriber {
 public:
  virtual void OnEvent(const TraceRecord& rec) = 0;
  /// The tracer this subscriber is attached to (null when detached).
  Tracer* stream() const { return stream_; }

 protected:
  Subscriber() = default;
  ~Subscriber();
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

 private:
  friend class Tracer;
  Tracer* stream_ = nullptr;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);
  /// Detaches every subscriber and uninstalls itself if global.
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- configuration ---
  void SetClock(std::function<SimTime()> clock) { clock_ = std::move(clock); }
  void ClearClock() { clock_ = nullptr; }
  /// Arms the stream (when this tracer is the installed one).
  void SetEnabled(bool enabled);
  bool enabled() const { return enabled_; }
  /// Ring-only flow filter: when nonzero, the ring keeps only records with
  /// this flow id (or flow == 0, i.e. non-flow events).  Subscribers still
  /// see every event.
  void SetFlowFilter(std::uint64_t flow) { flow_filter_ = flow; }

  // --- subscribers ---
  /// Attaches `s` (detaching it from any other tracer first).
  void Subscribe(Subscriber& s);
  void Unsubscribe(Subscriber& s);
  const std::vector<Subscriber*>& subscribers() const { return subscribers_; }

  // --- component interning ---
  /// Interns `name`, returning its stable component id.
  std::uint16_t Intern(std::string_view name);
  const std::string& ComponentName(std::uint16_t id) const;
  std::size_t NumComponents() const { return components_.size(); }
  /// Changes whenever the name table is cleared; TraceHandles revalidate
  /// their cached id against this.  Drawn from a process-wide counter, so
  /// a new tracer at a dead one's address never matches a stale cache.
  std::uint64_t generation() const { return generation_; }

  // --- recording ---
  /// Stamps one event, records it in the ring and hands it to every
  /// subscriber.  No-op while disabled.
  void Emit(std::uint16_t component, Ev ev, std::uint64_t flow = 0,
            std::uint64_t seq = 0, double arg = 0.0, std::uint64_t span = 0,
            std::uint64_t aux = 0);

  // --- inspection ---
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Number of records evicted from the ring since the last Clear().
  std::uint64_t evicted() const { return evicted_; }
  /// Records in emission order (oldest first), optionally filtered.
  std::vector<TraceRecord> Records(const TraceFilter& filter = {}) const;
  /// End-of-span records currently in the ring whose begin partner was
  /// evicted (or never recorded); see MarkOrphanedEnds.
  std::size_t CountOrphanedEnds() const;

  /// The tracer's own health metrics ("tracer.evicted_records",
  /// "tracer.orphaned_ends", "tracer.live_records" callback gauges) — register
  /// with a MetricsHub to make ring truncation visible in every sampled run
  /// instead of silently losing span begins.
  const MetricRegistry& metrics() const { return metrics_; }

  /// Drops recorded events (keeps component names and configuration).
  void Clear();
  /// Clear() plus drops interned component names (bumps generation).
  void Reset();

  // --- export ---
  void WriteChromeTrace(std::ostream& os, const TraceFilter& filter = {}) const;
  std::string ChromeTraceJson(const TraceFilter& filter = {}) const;

  /// Pairs begin/end events per (flow, seq) into protocol phases and returns
  /// per-phase latency summaries (skips phases with no completed pairs).
  std::vector<PhaseStats> LatencyBreakdown() const;
  /// Renders LatencyBreakdown() as an aligned table.
  void PrintBreakdown(std::ostream& os) const;

 private:
  SimTime NowOrZero() const { return clock_ ? clock_() : 0; }

  std::vector<TraceRecord> ring_;
  std::size_t head_ = 0;   // index of oldest record
  std::size_t count_ = 0;  // live records in the ring
  std::uint64_t evicted_ = 0;
  std::uint64_t next_order_ = 0;
  bool enabled_ = false;
  std::uint64_t flow_filter_ = 0;
  std::function<SimTime()> clock_;
  std::vector<std::string> components_;
  std::uint64_t generation_;
  std::vector<Subscriber*> subscribers_;
  MetricRegistry metrics_;  // callback gauges over ring state; see metrics()
};

namespace internal {
extern Tracer* g_tracer;
/// True iff g_tracer is set and enabled — the one armed flag.
extern bool g_stream_armed;
}  // namespace internal

/// Process-global tracer (null when none installed). Single-threaded, like
/// the simulator.
inline Tracer* GlobalTracer() { return internal::g_tracer; }

/// Installs `tracer` as the global tracer; returns the previous one.
Tracer* SetGlobalTracer(Tracer* tracer);

/// Cached per-component emitter.  Copyable; re-resolves its interned id when
/// the global tracer's generation changes.
class TraceHandle {
 public:
  TraceHandle() = default;
  explicit TraceHandle(std::string name) : name_(std::move(name)) {}

  void SetName(std::string name) {
    name_ = std::move(name);
    cached_generation_ = 0;  // force re-intern
  }
  const std::string& name() const { return name_; }

  /// True when emitting would reach the stream — callers guard any
  /// expensive argument computation (flow hashing, byte counting) behind
  /// this.  One load and one branch.
  bool armed() const { return internal::g_stream_armed; }

  void Emit(Ev ev, std::uint64_t flow = 0, std::uint64_t seq = 0,
            double arg = 0.0, std::uint64_t span = 0,
            std::uint64_t aux = 0) const {
    if (!internal::g_stream_armed) return;
    Tracer* t = internal::g_tracer;
    if (cached_generation_ != t->generation()) {
      cached_generation_ = t->generation();
      cached_id_ = t->Intern(name_.empty() ? std::string_view("?") : name_);
    }
    t->Emit(cached_id_, ev, flow, seq, arg, span, aux);
  }

 private:
  std::string name_;
  mutable std::uint64_t cached_generation_ = 0;
  mutable std::uint16_t cached_id_ = 0;
};

}  // namespace redplane::obs
