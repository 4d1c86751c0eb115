#include "obs/tracer.h"

#include <algorithm>
#include <array>
#include <iomanip>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/json.h"
#include "obs/profiler.h"

namespace redplane::obs {

const char* EvName(Ev ev) {
  switch (ev) {
    case Ev::kIngress: return "ingress";
    case Ev::kHostRecv: return "host_recv";
    case Ev::kLinkDrop: return "link_drop";
    case Ev::kLinkDown: return "link_down";
    case Ev::kLinkUp: return "link_up";
    case Ev::kNodeFailure: return "node_failure";
    case Ev::kNodeRecovery: return "node_recovery";
    case Ev::kReroute: return "reroute";
    case Ev::kPipeline: return "pipeline";
    case Ev::kRecirculate: return "recirculate";
    case Ev::kMirrored: return "mirrored";
    case Ev::kMirrorCleared: return "mirror_cleared";
    case Ev::kCpInstalled: return "cp_installed";
    case Ev::kPktgenBatch: return "pktgen_batch";
    case Ev::kLeaseMiss: return "lease_miss";
    case Ev::kLeaseGrant: return "lease_grant";
    case Ev::kFailoverRehome: return "failover_rehome";
    case Ev::kReplicationSent: return "replication_sent";
    case Ev::kRenewSent: return "renew_sent";
    case Ev::kRenewAck: return "renew_ack";
    case Ev::kBufferedRead: return "buffered_read";
    case Ev::kBufferedReadLoop: return "buffered_read_loop";
    case Ev::kRetransmit: return "retransmit";
    case Ev::kRetxGiveUp: return "retx_give_up";
    case Ev::kAckReleased: return "ack_released";
    case Ev::kLeaseDenied: return "lease_denied";
    case Ev::kSnapshotSent: return "snapshot_sent";
    case Ev::kOutputDropped: return "output_dropped";
    case Ev::kLeaseAcquired: return "lease_acquired";
    case Ev::kLeaseReleased: return "lease_released";
    case Ev::kOutputServed: return "output_served";
    case Ev::kEpsilonSample: return "epsilon_sample";
    case Ev::kFlowAdmitted: return "flow_admitted";
    case Ev::kLocalReadServed: return "local_read_served";
    case Ev::kStoreRecv: return "store_recv";
    case Ev::kStoreServiceStart: return "store_service_start";
    case Ev::kStoreApplied: return "store_applied";
    case Ev::kStoreBuffered: return "store_buffered";
    case Ev::kStoreReadParked: return "store_read_parked";
    case Ev::kStoreDenied: return "store_denied";
    case Ev::kStoreResponded: return "store_responded";
    case Ev::kDupAckDurable: return "dup_ack_durable";
    case Ev::kTailCommit: return "tail_commit";
    case Ev::kMergeApplied: return "merge_applied";
    case Ev::kReplicaPushed: return "replica_pushed";
    case Ev::kBatchFlushed: return "batch_flushed";
    case Ev::kStoreBatchRecv: return "store_batch_recv";
    case Ev::kChainReconfig: return "chain_reconfig";
    case Ev::kResyncCommit: return "resync_commit";
    case Ev::kGrayFault: return "gray_fault";
    case Ev::kGrayCleared: return "gray_cleared";
    case Ev::kHistoryClosed: return "history_closed";
  }
  return "?";
}

namespace internal {
Tracer* g_tracer = nullptr;
bool g_stream_armed = false;
}  // namespace internal

Tracer* SetGlobalTracer(Tracer* tracer) {
  Tracer* prev = internal::g_tracer;
  internal::g_tracer = tracer;
  internal::g_stream_armed = tracer != nullptr && tracer->enabled();
  return prev;
}

Subscriber::~Subscriber() {
  if (stream_ != nullptr) stream_->Unsubscribe(*this);
}

bool TraceFilter::Matches(const TraceRecord& r, const Tracer& tracer) const {
  if (flow != 0 && r.flow != flow) return false;
  if (!component.empty() && tracer.ComponentName(r.component) != component) {
    return false;
  }
  return true;
}

Tracer::Tracer(std::size_t capacity)
    : generation_(internal::NextGeneration()), metrics_("tracer") {
  if (capacity == 0) capacity = 1;
  ring_.resize(capacity);
  components_.emplace_back("?");  // id 0 = unknown
  // Ring-truncation visibility (sampled alongside component metrics so a
  // trace-derived artifact can be cross-checked against eviction pressure).
  metrics_.AddCallbackGauge("evicted_records",
                            [this] { return static_cast<double>(evicted_); });
  metrics_.AddCallbackGauge("orphaned_ends", [this] {
    return static_cast<double>(CountOrphanedEnds());
  });
  metrics_.AddCallbackGauge("live_records",
                            [this] { return static_cast<double>(count_); });
}

Tracer::~Tracer() {
  for (Subscriber* s : subscribers_) s->stream_ = nullptr;
  if (internal::g_tracer == this) SetGlobalTracer(nullptr);
}

void Tracer::SetEnabled(bool enabled) {
  enabled_ = enabled;
  if (internal::g_tracer == this) internal::g_stream_armed = enabled;
}

void Tracer::Subscribe(Subscriber& s) {
  if (s.stream_ == this) return;
  if (s.stream_ != nullptr) s.stream_->Unsubscribe(s);
  s.stream_ = this;
  subscribers_.push_back(&s);
}

void Tracer::Unsubscribe(Subscriber& s) {
  if (s.stream_ != this) return;
  s.stream_ = nullptr;
  subscribers_.erase(
      std::find(subscribers_.begin(), subscribers_.end(), &s));
}

std::uint16_t Tracer::Intern(std::string_view name) {
  for (std::size_t i = 0; i < components_.size(); ++i) {
    if (components_[i] == name) return static_cast<std::uint16_t>(i);
  }
  if (components_.size() >= 0xFFFF) return 0;
  components_.emplace_back(name);
  return static_cast<std::uint16_t>(components_.size() - 1);
}

const std::string& Tracer::ComponentName(std::uint16_t id) const {
  static const std::string kUnknown = "?";
  return id < components_.size() ? components_[id] : kUnknown;
}

void Tracer::Emit(std::uint16_t component, Ev ev, std::uint64_t flow,
                  std::uint64_t seq, double arg, std::uint64_t span,
                  std::uint64_t aux) {
  if (!enabled_) return;
  // The record is built in its ring slot (or, when the flow filter keeps it
  // out of the ring, on the stack) and subscribers read it from there.
  TraceRecord unrecorded;
  TraceRecord* rec = &unrecorded;
  if (flow_filter_ == 0 || flow == 0 || flow == flow_filter_) {
    if (count_ < ring_.size()) {
      rec = &ring_[(head_ + count_) % ring_.size()];
      ++count_;
    } else {
      rec = &ring_[head_];
      head_ = (head_ + 1) % ring_.size();
      ++evicted_;
    }
  }
  *rec = TraceRecord{.t = NowOrZero(),
                     .order = next_order_++,
                     .ev = ev,
                     .component = component,
                     .flow = flow,
                     .seq = seq,
                     .arg = arg,
                     .span = span,
                     .aux = aux};
  for (Subscriber* s : subscribers_) s->OnEvent(*rec);
}

std::vector<TraceRecord> Tracer::Records(const TraceFilter& filter) const {
  std::vector<TraceRecord> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const TraceRecord& r = ring_[(head_ + i) % ring_.size()];
    if (filter.Matches(r, *this)) out.push_back(r);
  }
  return out;
}

void Tracer::Clear() {
  head_ = 0;
  count_ = 0;
  evicted_ = 0;
  next_order_ = 0;
}

void Tracer::Reset() {
  Clear();
  components_.clear();
  components_.emplace_back("?");
  generation_ = internal::NextGeneration();
}

void WriteChromeTraceRecords(std::ostream& os,
                             std::span<const TraceRecord> records,
                             std::span<const std::string> components) {
  os << "{\"traceEvents\": [";
  bool first = true;
  // Thread-name metadata: one sim "thread" per component.
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << i
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
       << JsonEscape(components[i]) << "\"}}";
  }
  char ts_buf[48];
  for (const TraceRecord& r : records) {
    if (!first) os << ",";
    first = false;
    // Chrome trace timestamps are microseconds; keep ns precision.
    std::snprintf(ts_buf, sizeof(ts_buf), "%lld.%03lld",
                  static_cast<long long>(r.t / 1000),
                  static_cast<long long>(r.t % 1000));
    os << "\n  {\"ph\": \"i\", \"s\": \"t\", \"cat\": \"redplane\", \"ts\": "
       << ts_buf << ", \"pid\": 1, \"tid\": " << r.component
       << ", \"name\": \"" << EvName(r.ev) << "\", \"args\": {\"flow\": \""
       << std::hex << r.flow << std::dec << "\", \"seq\": " << r.seq
       << ", \"arg\": " << JsonNumber(r.arg);
    if (r.span != 0) {
      os << ", \"span\": \"" << std::hex << r.span << std::dec << '"';
    }
    if (ParentSpan(r) != 0) {
      os << ", \"parent_span\": \"" << std::hex << ParentSpan(r) << std::dec
         << '"';
    }
    if (r.orphan) os << ", \"orphan\": true";
    os << "}}";
  }
  os << "\n]}\n";
}

void Tracer::WriteChromeTrace(std::ostream& os, const TraceFilter& filter) const {
  // Orphan ends must be computed over the *full* record set (a filter could
  // otherwise hide a begin and fake an orphan), then filtered for export.
  std::vector<TraceRecord> records = Records();
  MarkOrphanedEnds(records);
  std::vector<TraceRecord> selected;
  selected.reserve(records.size());
  for (const TraceRecord& r : records) {
    if (filter.Matches(r, *this)) selected.push_back(r);
  }
  WriteChromeTraceRecords(os, selected, components_);
}

std::string Tracer::ChromeTraceJson(const TraceFilter& filter) const {
  std::ostringstream oss;
  WriteChromeTrace(oss, filter);
  return oss.str();
}

namespace {

struct PhaseDef {
  const char* name;
  Ev begin;
  Ev end;
  bool seq_matched;  // pair on (flow, seq); otherwise on flow alone
  int alt;           // index of a mutually-exclusive phase sharing this
                     // begin event, or -1 (a lease miss ends in either a
                     // grant or a rehome, never both)
};

// Protocol phases reconstructed from begin/end event pairs.  Ordered
// roughly along the packet lifecycle; the breakdown table keeps this order.
constexpr PhaseDef kPhases[] = {
    {"lease_acquire", Ev::kLeaseMiss, Ev::kLeaseGrant, false, 1},
    {"failover_rehome", Ev::kLeaseMiss, Ev::kFailoverRehome, false, 0},
    {"write_replication_rtt", Ev::kReplicationSent, Ev::kAckReleased, true, -1},
    {"switch_to_store", Ev::kReplicationSent, Ev::kStoreRecv, true, -1},
    {"store_queue_wait", Ev::kStoreRecv, Ev::kStoreServiceStart, true, -1},
    {"store_apply", Ev::kStoreServiceStart, Ev::kStoreApplied, true, -1},
    {"store_respond", Ev::kStoreApplied, Ev::kStoreResponded, true, -1},
    {"store_to_switch", Ev::kStoreResponded, Ev::kAckReleased, true, -1},
    {"buffered_read_rtt", Ev::kBufferedRead, Ev::kAckReleased, true, -1},
    {"retx_delay", Ev::kReplicationSent, Ev::kRetransmit, true, -1},
};

constexpr std::size_t kNumPhases = sizeof(kPhases) / sizeof(kPhases[0]);

/// Replays begin/end pairing over `recs` (ascending emission order).  For
/// every completed pair, calls `on_pair(phase, t_begin, t_end)`.  For every
/// end-kind record whose begin key was *never seen* in the set (evicted or
/// never recorded — as opposed to consumed by an earlier end, which chain
/// fan-out does legitimately), calls `on_orphan(record_index)`.
template <typename PairFn, typename OrphanFn>
void ReplayPhases(const std::vector<TraceRecord>& recs, PairFn&& on_pair,
                  OrphanFn&& on_orphan) {
  // Open begin events per phase, keyed by (flow, seq) — std::map/set for
  // deterministic behaviour independent of hash seeding.
  std::map<std::pair<std::uint64_t, std::uint64_t>, SimTime> open[kNumPhases];
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen[kNumPhases];
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const TraceRecord& r = recs[i];
    const Ev kind = PairingKind(r.ev);
    bool is_end = false;
    bool matched = false;
    bool begin_seen = false;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      const PhaseDef& def = kPhases[p];
      const std::uint64_t seq_key = def.seq_matched ? r.seq : 0;
      const auto key = std::make_pair(r.flow, seq_key);
      if (kind == def.begin) {
        // Keep the earliest unmatched begin for this key.
        open[p].emplace(key, r.t);
        seen[p].insert(key);
      }
      if (kind == def.end) {
        // A seq-0 record of an end-event kind is a control message (lease
        // acquire / renew) — those have no begin partner by design and are
        // never orphans.
        if (!def.seq_matched || r.seq != 0) is_end = true;
        auto it = open[p].find(key);
        if (it != open[p].end()) {
          matched = true;
          on_pair(p, it->second, r.t);
          open[p].erase(it);
          // A mutually-exclusive alternative phase consumed the same begin:
          // close it too so a later begin can't pair against a stale one.
          if (def.alt >= 0) {
            open[static_cast<std::size_t>(def.alt)].erase(key);
          }
        }
        if (seen[p].count(key) != 0) begin_seen = true;
      }
    }
    if (is_end && !matched && !begin_seen) on_orphan(i);
  }
}

}  // namespace

std::span<const ProtocolPair> ProtocolPairs() {
  static const auto pairs = [] {
    std::array<ProtocolPair, kNumPhases> out{};
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      out[p] = ProtocolPair{kPhases[p].begin, kPhases[p].end,
                            kPhases[p].seq_matched};
    }
    return out;
  }();
  return pairs;
}

std::size_t MarkOrphanedEnds(std::vector<TraceRecord>& records) {
  std::size_t marked = 0;
  ReplayPhases(
      records, [](std::size_t, SimTime, SimTime) {},
      [&](std::size_t i) {
        records[i].orphan = true;
        ++marked;
      });
  return marked;
}

std::size_t Tracer::CountOrphanedEnds() const {
  std::vector<TraceRecord> records = Records();
  return MarkOrphanedEnds(records);
}

std::vector<PhaseStats> Tracer::LatencyBreakdown() const {
  std::vector<PhaseStats> stats(kNumPhases);
  for (std::size_t p = 0; p < kNumPhases; ++p) stats[p].name = kPhases[p].name;
  ReplayPhases(
      Records(),
      [&](std::size_t p, SimTime begin_t, SimTime end_t) {
        stats[p].samples_us.Add(static_cast<double>(end_t - begin_t) / 1e3);
      },
      [](std::size_t) {});
  std::vector<PhaseStats> out;
  for (auto& s : stats) {
    if (!s.samples_us.Empty()) out.push_back(std::move(s));
  }
  return out;
}

void Tracer::PrintBreakdown(std::ostream& os) const {
  auto phases = LatencyBreakdown();
  os << "Per-phase latency breakdown (us):\n";
  os << "  " << std::left << std::setw(24) << "phase" << std::right
     << std::setw(10) << "count" << std::setw(12) << "p50" << std::setw(12)
     << "p99" << std::setw(12) << "max" << "\n";
  if (phases.empty()) {
    os << "  (no completed phase pairs recorded)\n";
    return;
  }
  for (const auto& ph : phases) {
    os << "  " << std::left << std::setw(24) << ph.name << std::right
       << std::setw(10) << ph.samples_us.Count() << std::setw(12)
       << FormatDouble(ph.samples_us.Percentile(50.0), 3) << std::setw(12)
       << FormatDouble(ph.samples_us.Percentile(99.0), 3) << std::setw(12)
       << FormatDouble(ph.samples_us.Max(), 3) << "\n";
  }
}

}  // namespace redplane::obs
