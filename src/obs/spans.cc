#include "obs/spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/json.h"

namespace redplane::obs {

namespace {

// Boundary-pair classification.  Any (begin, end) pair not listed falls back
// to "begin->end" so novel interleavings stay visible instead of vanishing
// into a catch-all bucket.
const char* SegmentKind(Ev begin, Ev end) {
  begin = PairingKind(begin);
  end = PairingKind(end);
  if (begin == Ev::kReplicationSent && end == Ev::kStoreRecv)
    return "switch_to_store";
  if (begin == Ev::kRenewSent && end == Ev::kStoreRecv)
    return "switch_to_store";
  if (begin == Ev::kSnapshotSent && end == Ev::kStoreRecv)
    return "switch_to_store";
  if (begin == Ev::kStoreRecv && end == Ev::kStoreServiceStart)
    return "queue_wait";
  if (begin == Ev::kStoreServiceStart &&
      (end == Ev::kStoreApplied || end == Ev::kStoreBuffered ||
       end == Ev::kStoreReadParked || end == Ev::kStoreDenied))
    return "service";
  if (begin == Ev::kStoreApplied && end == Ev::kStoreRecv) return "chain_hop";
  if (begin == Ev::kStoreApplied && end == Ev::kStoreResponded)
    return "respond";
  if (begin == Ev::kStoreResponded &&
      (end == Ev::kAckReleased || end == Ev::kRenewAck))
    return "ack_return";
  if (begin == Ev::kReplicationSent && end == Ev::kRetransmit)
    return "retx_wait";
  if (begin == Ev::kRetransmit && end == Ev::kStoreRecv)
    return "switch_to_store";
  return nullptr;
}

std::string FallbackKind(Ev begin, Ev end) {
  std::string kind = EvName(begin);
  kind += "->";
  kind += EvName(end);
  return kind;
}

const std::string& NameOf(std::span<const std::string> components,
                          std::uint16_t id) {
  static const std::string kUnknown = "?";
  return id < components.size() ? components[id] : kUnknown;
}

// Microsecond timestamp with ns fraction, Chrome trace convention (matches
// WriteChromeTraceRecords).
void WriteTs(std::ostream& os, SimTime t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(t / 1000),
                static_cast<long long>(t % 1000));
  os << buf;
}

}  // namespace

std::vector<SpanTree> BuildSpanTrees(std::span<const TraceRecord> records,
                                     std::span<const std::string> components) {
  // Group by span id; std::map keeps iteration deterministic.
  std::map<std::uint64_t, std::vector<TraceRecord>> by_span;
  for (const TraceRecord& r : records) {
    if (r.span != 0) by_span[r.span].push_back(r);
  }
  std::vector<SpanTree> spans;
  spans.reserve(by_span.size());
  for (auto& [id, recs] : by_span) {
    std::sort(recs.begin(), recs.end(),
              [](const TraceRecord& a, const TraceRecord& b) {
                if (a.t != b.t) return a.t < b.t;
                return a.order < b.order;
              });
    SpanTree span;
    span.span = id;
    span.flow = recs.front().flow;
    span.seq = recs.front().seq;
    span.begin = recs.front().t;
    span.end = recs.back().t;
    for (const TraceRecord& r : recs) {
      if (ParentSpan(r) != 0) span.parent_span = ParentSpan(r);
      if (r.seq != 0) span.seq = r.seq;
    }
    span.segments.reserve(recs.size() > 0 ? recs.size() - 1 : 0);
    for (std::size_t i = 1; i < recs.size(); ++i) {
      const TraceRecord& a = recs[i - 1];
      const TraceRecord& b = recs[i];
      SpanSegment seg;
      const char* kind = SegmentKind(a.ev, b.ev);
      seg.kind = kind ? kind : FallbackKind(a.ev, b.ev);
      seg.from = NameOf(components, a.component);
      seg.to = NameOf(components, b.component);
      seg.ev_begin = a.ev;
      seg.ev_end = b.ev;
      seg.begin = a.t;
      seg.end = b.t;
      span.segments.push_back(std::move(seg));
    }
    spans.push_back(std::move(span));
  }
  // Sort by first-record time (ties by id) and link children to parents.
  std::sort(spans.begin(), spans.end(), [](const SpanTree& a, const SpanTree& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.span < b.span;
  });
  std::map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].span] = i;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_span == 0) continue;
    auto it = index.find(spans[i].parent_span);
    if (it != index.end() && it->second != i) {
      spans[it->second].children.push_back(i);
    }
  }
  return spans;
}

std::vector<SpanTree> BuildSpanTrees(const Tracer& tracer) {
  std::vector<std::string> components;
  components.reserve(tracer.NumComponents());
  for (std::size_t i = 0; i < tracer.NumComponents(); ++i) {
    components.push_back(tracer.ComponentName(static_cast<std::uint16_t>(i)));
  }
  return BuildSpanTrees(tracer.Records(), components);
}

std::vector<PhaseStats> SummarizeSegments(std::span<const SpanTree> spans) {
  std::map<std::string, SampleSet> by_kind;  // deterministic iteration order
  for (const SpanTree& span : spans) {
    for (const SpanSegment& seg : span.segments) {
      const double us = static_cast<double>(seg.DurationNs()) / 1e3;
      by_kind[seg.kind].Add(us);
      // Store-side segments additionally keyed per shard, so the report can
      // show which replica's queue (or service loop) ate the latency.
      if (seg.kind == "queue_wait" || seg.kind == "service") {
        by_kind[seg.kind + "@" + seg.to].Add(us);
      }
    }
  }
  std::vector<PhaseStats> out;
  out.reserve(by_kind.size());
  for (auto& [name, samples] : by_kind) {
    PhaseStats stats;
    stats.name = name;
    stats.samples_us = std::move(samples);
    out.push_back(std::move(stats));
  }
  return out;
}

void WriteSpansJson(std::ostream& os, std::span<const SpanTree> spans) {
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanTree& span = spans[i];
    if (i) os << ",";
    os << "\n  {\"span\": \"" << std::hex << span.span << std::dec
       << "\", \"parent_span\": \"" << std::hex << span.parent_span << std::dec
       << "\", \"flow\": \"" << std::hex << span.flow << std::dec
       << "\", \"seq\": " << span.seq << ", \"begin_ns\": " << span.begin
       << ", \"end_ns\": " << span.end << ", \"total_ns\": " << span.TotalNs()
       << ", \"segments\": [";
    for (std::size_t s = 0; s < span.segments.size(); ++s) {
      const SpanSegment& seg = span.segments[s];
      if (s) os << ",";
      os << "\n    {\"kind\": \"" << JsonEscape(seg.kind) << "\", \"from\": \""
         << JsonEscape(seg.from) << "\", \"to\": \"" << JsonEscape(seg.to)
         << "\", \"begin_ns\": " << seg.begin << ", \"end_ns\": " << seg.end
         << ", \"dur_ns\": " << seg.DurationNs() << "}";
    }
    os << "]}";
  }
  os << "\n]}\n";
}

std::string SpansJson(std::span<const SpanTree> spans) {
  std::ostringstream oss;
  WriteSpansJson(oss, spans);
  return oss.str();
}

void WriteChromeSpans(std::ostream& os, std::span<const SpanTree> spans) {
  // Self-contained track layout: one "thread" per distinct component name.
  std::map<std::string, int> tids;
  for (const SpanTree& span : spans) {
    for (const SpanSegment& seg : span.segments) {
      tids.emplace(seg.from, 0);
      tids.emplace(seg.to, 0);
    }
  }
  int next = 0;
  for (auto& [name, tid] : tids) tid = next++;
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& [name, tid] : tids) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
       << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
       << JsonEscape(name) << "\"}}";
  }
  for (const SpanTree& span : spans) {
    for (std::size_t s = 0; s < span.segments.size(); ++s) {
      const SpanSegment& seg = span.segments[s];
      const int tid = tids[seg.to];
      if (!first) os << ",";
      first = false;
      // Slice on the closing component's track.
      os << "\n  {\"ph\": \"X\", \"cat\": \"span\", \"name\": \""
         << JsonEscape(seg.kind) << "\", \"pid\": 1, \"tid\": " << tid
         << ", \"ts\": ";
      WriteTs(os, seg.begin);
      os << ", \"dur\": ";
      WriteTs(os, seg.DurationNs());
      os << ", \"args\": {\"span\": \"" << std::hex << span.span << std::dec
         << "\", \"seq\": " << span.seq << "}},";
      // Flow event chaining the segments: start on the first, step on the
      // middle ones, finish on the last — Perfetto draws the arrows.
      const char* ph = s == 0 ? "s" : (s + 1 == span.segments.size() ? "f" : "t");
      os << "\n  {\"ph\": \"" << ph << "\", \"cat\": \"span\", \"name\": \"req\""
         << ", \"id\": " << span.span << ", \"pid\": 1, \"tid\": " << tid
         << ", \"ts\": ";
      WriteTs(os, seg.end);
      if (*ph == 'f') os << ", \"bp\": \"e\"";
      os << "}";
    }
  }
  os << "\n]}\n";
}

}  // namespace redplane::obs
