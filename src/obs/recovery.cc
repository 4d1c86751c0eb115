#include "obs/recovery.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/json.h"

namespace redplane::obs {

const char* RecoveryPhaseName(RecoveryPhase phase) {
  switch (phase) {
    case RecoveryPhase::kFailureDetection: return "failure_detection";
    case RecoveryPhase::kRouteReconvergence: return "route_reconvergence";
    case RecoveryPhase::kLeaseReacquisition: return "lease_reacquisition";
    case RecoveryPhase::kStateInstall: return "state_install";
    case RecoveryPhase::kFirstPacketServed: return "first_packet_served";
  }
  return "?";
}

bool PhaseSumOk(const RecoveryEpisode& episode) {
  if (!episode.complete) return false;
  SimDuration sum = 0;
  SimTime prev = episode.fault_at;
  for (int i = 0; i < kNumRecoveryPhases; ++i) {
    if (episode.phase_end[i] < prev) return false;  // endpoints must telescope
    sum += episode.phase_end[i] - prev;
    prev = episode.phase_end[i];
  }
  return sum == episode.Downtime();
}

void RecoveryTracker::OnEvent(const TraceRecord& ev) {
  switch (ev.ev) {
    case Ev::kNodeFailure:
      if (open_) {
        ++current_.extra_faults;
      } else {
        OpenEpisode(ev, "node_down");
      }
      return;
    case Ev::kLinkDown:
      if (open_) {
        ++current_.extra_faults;
      } else {
        OpenEpisode(ev, "link_cut");
      }
      return;
    case Ev::kReroute:
      if (open_ && current_.phase_end[0] == 0) {
        MarkPhase(RecoveryPhase::kFailureDetection, ev.t);
      }
      return;
    case Ev::kLeaseMiss:
      if (open_ && current_.phase_end[1] == 0) {
        MarkPhase(RecoveryPhase::kRouteReconvergence, ev.t);
      }
      return;
    case Ev::kLeaseGrant:
    case Ev::kFailoverRehome:
      if (open_ && current_.phase_end[2] == 0) {
        MarkPhase(RecoveryPhase::kLeaseReacquisition, ev.t);
      }
      return;
    case Ev::kLeaseAcquired:
      if (open_ && current_.phase_end[3] == 0) {
        MarkPhase(RecoveryPhase::kStateInstall, ev.t);
      }
      return;
    case Ev::kOutputServed: {
      if (open_ && ev.t >= current_.fault_at) {
        if (first_served_after_fault_ == 0) first_served_after_fault_ = ev.t;
        // Per-flow downtime: first post-fault service of a flow that was
        // served before the fault.
        const auto it = served_before_fault_.find(ev.flow);
        if (it != served_before_fault_.end()) {
          current_.flow_downtime_us.Add(
              static_cast<double>(ev.t - current_.fault_at) / 1e3);
          served_before_fault_.erase(it);
        }
        if (current_.phase_end[3] != 0 && current_.phase_end[4] == 0) {
          MarkPhase(RecoveryPhase::kFirstPacketServed, ev.t);
          current_.complete = true;
          CloseEpisode();
        }
      }
      last_served_[ev.flow] = ev.t;
      return;
    }
    default:
      return;
  }
}

void RecoveryTracker::OpenEpisode(const TraceRecord& ev,
                                  const char* trigger) {
  open_ = true;
  current_ = RecoveryEpisode{};
  current_.id = episodes_.size() + 1;
  current_.fault_at = ev.t;
  current_.trigger = trigger;
  current_.fault_aux = ev.aux;
  first_served_after_fault_ = 0;
  served_before_fault_ = last_served_;
  snapshot_has_records_ = false;
  snapshot_last_order_ = 0;
  if (stream() != nullptr) {
    // Flight-recorder rescue: copy the ring *now*, while the pre-fault
    // context is still in it; a long campaign would otherwise evict these
    // records before the episode closes.
    current_.trace = stream()->Records();
    current_.evicted_at_open = stream()->evicted();
    if (!current_.trace.empty()) {
      snapshot_last_order_ = current_.trace.back().order;
      snapshot_has_records_ = true;
    }
  }
}

void RecoveryTracker::MarkPhase(RecoveryPhase phase, SimTime t) {
  const int target = static_cast<int>(phase);
  // Back-fill skipped phases: an unset earlier endpoint collapses that
  // phase to zero width at `t`, so the endpoints always telescope.
  for (int i = 0; i <= target; ++i) {
    if (current_.phase_end[i] == 0) current_.phase_end[i] = t;
  }
}

void RecoveryTracker::CloseEpisode() {
  // Clamp endpoints non-decreasing (defensive: event timestamps are already
  // monotone within a single-threaded run).
  SimTime prev = current_.fault_at;
  for (int i = 0; i < kNumRecoveryPhases; ++i) {
    current_.phase_end[i] = std::max(current_.phase_end[i], prev);
    prev = current_.phase_end[i];
  }
  if (stream() != nullptr) {
    current_.evicted_at_close = stream()->evicted();
    // Merge in what the ring accumulated during the episode: records newer
    // than the open-time snapshot.
    for (const TraceRecord& r : stream()->Records()) {
      if (!snapshot_has_records_ || r.order > snapshot_last_order_) {
        current_.trace.push_back(r);
      }
    }
  }
  episodes_.push_back(std::move(current_));
  current_ = RecoveryEpisode{};
  open_ = false;
  served_before_fault_.clear();
  first_served_after_fault_ = 0;
}

void RecoveryTracker::Finalize(SimTime now) {
  if (!open_) return;
  if (first_served_after_fault_ != 0) {
    // Service resumed but the full phase chain never signaled (e.g. a link
    // flap whose leases survived): close at the first post-fault service,
    // clamped past any endpoint that did signal.
    SimTime tc = first_served_after_fault_;
    for (const SimTime t : current_.phase_end) tc = std::max(tc, t);
    MarkPhase(RecoveryPhase::kFirstPacketServed, tc);
    current_.complete = true;
  } else {
    // Service never resumed within the run: downtime lower-bounds truth.
    MarkPhase(RecoveryPhase::kFirstPacketServed,
              std::max(now, current_.fault_at));
    current_.complete = false;
  }
  CloseEpisode();
}

void RecoveryTracker::Reset() {
  episodes_.clear();
  open_ = false;
  current_ = RecoveryEpisode{};
  last_served_.clear();
  served_before_fault_.clear();
  first_served_after_fault_ = 0;
  snapshot_has_records_ = false;
  snapshot_last_order_ = 0;
}

void RecoveryTracker::WriteJson(std::ostream& os) const {
  os << "{\"episodes\": [";
  bool first_ep = true;
  for (const RecoveryEpisode& e : episodes_) {
    if (!first_ep) os << ", ";
    first_ep = false;
    os << "{\"id\": " << e.id << ", \"trigger\": \"" << JsonEscape(e.trigger)
       << "\", \"fault_at_ns\": " << e.fault_at
       << ", \"fault_aux\": " << e.fault_aux
       << ", \"complete\": " << (e.complete ? "true" : "false")
       << ", \"extra_faults\": " << e.extra_faults
       << ", \"downtime_ns\": " << (e.phase_end.back() - e.fault_at)
       << ", \"phase_sum_ok\": " << (PhaseSumOk(e) ? "true" : "false")
       << ", \"phases\": [";
    SimTime prev = e.fault_at;
    for (int i = 0; i < kNumRecoveryPhases; ++i) {
      if (i > 0) os << ", ";
      os << "{\"name\": \""
         << RecoveryPhaseName(static_cast<RecoveryPhase>(i))
         << "\", \"start_ns\": " << prev
         << ", \"end_ns\": " << e.phase_end[i]
         << ", \"duration_ns\": " << (e.phase_end[i] - prev) << "}";
      prev = e.phase_end[i];
    }
    os << "], \"flows\": {\"count\": " << e.flow_downtime_us.Count();
    if (!e.flow_downtime_us.Empty()) {
      os << ", \"p50_us\": " << JsonNumber(e.flow_downtime_us.Percentile(50))
         << ", \"p99_us\": " << JsonNumber(e.flow_downtime_us.Percentile(99))
         << ", \"max_us\": " << JsonNumber(e.flow_downtime_us.Max());
    }
    os << "}, \"evicted_during\": "
       << (e.evicted_at_close - e.evicted_at_open)
       << ", \"trace_records\": " << e.trace.size() << "}";
  }
  os << "]}";
}

std::string RecoveryTracker::Json() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

void RecoveryTracker::PrintTimeline(std::ostream& os) const {
  if (episodes_.empty()) {
    os << "no recovery episodes detected\n";
    return;
  }
  for (const RecoveryEpisode& e : episodes_) {
    const SimDuration downtime = e.phase_end.back() - e.fault_at;
    os << "episode " << e.id << ": trigger=" << e.trigger << " t0="
       << FormatDouble(static_cast<double>(e.fault_at) / 1e6, 3) << "ms"
       << " downtime="
       << FormatDouble(static_cast<double>(downtime) / 1e6, 3) << "ms"
       << (e.complete ? "" : " (INCOMPLETE: service never resumed)")
       << " phase_sum=" << (PhaseSumOk(e) ? "ok" : "VIOLATED") << "\n";
    os << "  " << std::left << std::setw(22) << "phase" << std::right
       << std::setw(14) << "start_ms" << std::setw(14) << "end_ms"
       << std::setw(14) << "duration_ms" << std::setw(9) << "share" << "\n";
    SimTime prev = e.fault_at;
    for (int i = 0; i < kNumRecoveryPhases; ++i) {
      const SimDuration d = e.phase_end[i] - prev;
      const double share =
          downtime > 0 ? static_cast<double>(d) / static_cast<double>(downtime)
                       : 0.0;
      os << "  " << std::left << std::setw(22)
         << RecoveryPhaseName(static_cast<RecoveryPhase>(i)) << std::right
         << std::setw(14)
         << FormatDouble(static_cast<double>(prev) / 1e6, 3) << std::setw(14)
         << FormatDouble(static_cast<double>(e.phase_end[i]) / 1e6, 3)
         << std::setw(14) << FormatDouble(static_cast<double>(d) / 1e6, 3)
         << std::setw(8) << FormatDouble(share * 100.0, 1) << "%" << "\n";
      prev = e.phase_end[i];
    }
    if (!e.flow_downtime_us.Empty()) {
      const SampleSet& flows = e.flow_downtime_us;
      os << "  flows interrupted: " << flows.Count()
         << "  downtime p50=" << FormatDouble(flows.Percentile(50) / 1e3, 2)
         << "ms p99=" << FormatDouble(flows.Percentile(99) / 1e3, 2)
         << "ms max=" << FormatDouble(flows.Max() / 1e3, 2) << "ms\n";
    }
    if (e.extra_faults > 0) {
      os << "  (+" << e.extra_faults << " overlapping fault(s) folded in)\n";
    }
  }
}

}  // namespace redplane::obs
