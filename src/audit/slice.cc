#include "audit/slice.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "obs/events.h"

namespace redplane::audit {

namespace {

using obs::Ev;
using obs::TraceRecord;

/// Environment events that act as global causes: any of these inside the
/// slice window may explain a violation on any flow.
bool IsInfraEvent(const TraceRecord& r) {
  if (r.flow != 0) return false;
  switch (r.ev) {
    case Ev::kNodeFailure:
    case Ev::kNodeRecovery:
    case Ev::kLinkDown:
    case Ev::kLinkUp:
    case Ev::kReroute:
      return true;
    default:
      return false;
  }
}

/// Span-pairing key: matched on (flow, seq) or flow alone per the pairing.
std::uint64_t PairKey(const TraceRecord& r, bool seq_matched) {
  return seq_matched ? r.flow ^ (r.seq * 0x9e3779b97f4a7c15ull) : r.flow;
}

}  // namespace

CausalSlice ExtractSlice(const obs::Tracer& tracer, std::uint64_t flow,
                         SimTime at, std::size_t max_events) {
  CausalSlice slice;
  slice.flow = flow;
  slice.at = at;

  const std::vector<TraceRecord> all = tracer.Records();
  const auto pairs = obs::ProtocolPairs();

  // Rule 1: program order on the violating flow, up to the violation time.
  // Keep only the most recent `max_events` as the seed window; closure and
  // infra merging below may still push us over budget (handled by cascade
  // drop at the end).
  std::vector<std::size_t> selected;  // indices into `all`, ascending
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].flow == flow && flow != 0 && all[i].t <= at) selected.push_back(i);
  }
  if (selected.size() > max_events) {
    slice.truncated = true;  // program-order prefix dropped to fit the budget
    selected.erase(selected.begin(),
                   selected.end() - static_cast<std::ptrdiff_t>(max_events));
  }

  std::unordered_set<std::size_t> in_slice(selected.begin(), selected.end());

  // Rule 2: happens-before closure over protocol span edges.  For every
  // end-of-span event in the slice, pull in the latest matching begin that
  // precedes it.  Newly added begins can themselves be span ends (phases
  // chain: kStoreRecv ends switch_to_store and begins store_apply), so
  // iterate to a fixpoint.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<std::size_t> current(in_slice.begin(), in_slice.end());
    for (std::size_t idx : current) {
      const TraceRecord& end_rec = all[idx];
      for (const auto& p : pairs) {
        if (obs::PairingKind(end_rec.ev) != p.end) continue;
        const std::uint64_t want = PairKey(end_rec, p.seq_matched);
        // Latest begin before this end with the same pairing key.
        for (std::size_t j = idx; j-- > 0;) {
          const TraceRecord& cand = all[j];
          if (obs::PairingKind(cand.ev) == p.begin &&
              PairKey(cand, p.seq_matched) == want) {
            if (in_slice.insert(j).second) changed = true;
            break;
          }
        }
      }
    }
  }

  // Rule 3: merge overlapping environment events.  Window starts at the
  // oldest flow/closure event already selected (or `at` when none).
  SimTime window_start = at;
  for (std::size_t idx : in_slice) window_start = std::min(window_start, all[idx].t);
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (IsInfraEvent(all[i]) && all[i].t >= window_start && all[i].t <= at) {
      in_slice.insert(i);
    }
  }

  std::vector<std::size_t> ordered(in_slice.begin(), in_slice.end());
  std::sort(ordered.begin(), ordered.end());

  // Cascade drop: while over budget, drop the oldest event — and, if it is
  // a span begin, every end in the slice that pairs with it, so the result
  // stays happens-before closed.
  while (ordered.size() > max_events) {
    slice.truncated = true;
    const TraceRecord& victim = all[ordered.front()];
    ordered.erase(ordered.begin());
    for (const auto& p : pairs) {
      if (obs::PairingKind(victim.ev) != p.begin) continue;
      const std::uint64_t key = PairKey(victim, p.seq_matched);
      // Drop ends pairing with the victim *unless* a later begin (still in
      // the slice, before the end) re-satisfies them.
      for (auto it = ordered.begin(); it != ordered.end();) {
        const TraceRecord& r = all[*it];
        bool drop = false;
        if (obs::PairingKind(r.ev) == p.end &&
            PairKey(r, p.seq_matched) == key) {
          drop = true;
          for (std::size_t other : ordered) {
            if (other >= *it) break;
            const TraceRecord& b = all[other];
            if (obs::PairingKind(b.ev) == p.begin &&
                PairKey(b, p.seq_matched) == key) {
              drop = false;
              break;
            }
          }
        }
        it = drop ? ordered.erase(it) : ++it;
      }
    }
  }

  // Materialise: remap component ids into a slice-local compact table so the
  // slice stays self-contained after the tracer is cleared or re-interned.
  std::unordered_map<std::uint16_t, std::uint16_t> remap;
  for (std::size_t idx : ordered) {
    TraceRecord r = all[idx];
    auto [it, inserted] =
        remap.emplace(r.component, static_cast<std::uint16_t>(slice.components.size()));
    if (inserted) slice.components.push_back(tracer.ComponentName(r.component));
    r.component = it->second;
    slice.events.push_back(r);
  }
  return slice;
}

bool IsHappensBeforeClosed(const CausalSlice& slice) {
  const auto pairs = obs::ProtocolPairs();
  for (std::size_t i = 0; i < slice.events.size(); ++i) {
    const TraceRecord& r = slice.events[i];
    for (const auto& p : pairs) {
      if (obs::PairingKind(r.ev) != p.end) continue;
      // Seq-0 records of end-event kinds are control messages (lease
      // acquire / renew); they have no begin partner by design.
      if (p.seq_matched && r.seq == 0) continue;
      // An end with no begin anywhere in the underlying history is not a
      // closure failure — there is nothing to pull in.  ExtractSlice marks
      // nothing, so approximate "had a begin" by requiring one in-slice
      // whenever any same-kind begin event appears earlier in the slice's
      // flow; the strict check: find a matching begin before i.
      const std::uint64_t want = PairKey(r, p.seq_matched);
      bool satisfied = false;
      bool begin_kind_seen = false;
      for (std::size_t j = 0; j < i; ++j) {
        const TraceRecord& b = slice.events[j];
        if (obs::PairingKind(b.ev) != p.begin) continue;
        begin_kind_seen = true;
        if (PairKey(b, p.seq_matched) == want) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied && begin_kind_seen) return false;
    }
  }
  return true;
}

std::string CausalSlice::PerfettoJson() const {
  std::ostringstream os;
  obs::WriteChromeTraceRecords(os, events, components);
  return os.str();
}

void CausalSlice::WriteText(std::ostream& os) const {
  os << "causal slice: flow=0x" << std::hex << flow << std::dec << " at=" << at
     << "ns events=" << events.size()
     << (truncated ? " (truncated to budget)" : "") << "\n";
  for (const auto& r : events) {
    const std::string& comp =
        r.component < components.size() ? components[r.component] : "?";
    os << "  t=" << r.t << "ns  " << comp << "  " << obs::EvName(r.ev)
       << "  flow=0x" << std::hex << r.flow << std::dec << " seq=" << r.seq;
    if (r.arg != 0.0) os << " arg=" << r.arg;
    if (r.orphan) os << " [orphan-end]";
    os << "\n";
  }
}

std::string CausalSlice::Text() const {
  std::ostringstream os;
  WriteText(os);
  return os.str();
}

}  // namespace redplane::audit
