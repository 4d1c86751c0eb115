#include "layers.h"

#include <utility>

#include "obs/spans.h"

namespace perfbench {

obs::ProfSite g_site_pipeline("bench.pipeline");
obs::ProfSite g_site_app("bench.app");
obs::ProfSite g_site_next_hop("bench.next_hop");
obs::ProfSite g_site_hosts("bench.hosts");
obs::ProfSite g_site_drain("bench.trace_drain");

void TimedPipeline::Process(dp::SwitchContext& ctx, net::Packet pkt) {
  if (observe_) observe_(pkt);
  obs::ProfScope scope(g_site_pipeline);
  inner_.Process(ctx, std::move(pkt));
}

core::ProcessResult TimedApp::Process(core::AppContext& ctx, net::Packet pkt,
                                      std::vector<std::byte>& state) {
  obs::ProfScope scope(g_site_app);
  return inner_.Process(ctx, std::move(pkt), state);
}

void InstallTimedForwarders(routing::Testbed& tb) {
  std::vector<dp::SwitchNode*> switches = {tb.core, tb.agg[0], tb.agg[1],
                                           tb.tor[0], tb.tor[1]};
  routing::RoutingFabric* fabric = tb.fabric.get();
  for (dp::SwitchNode* sw : switches) {
    sw->SetForwarder([fabric, sw](const net::Packet& pkt,
                                  PortId) -> std::optional<PortId> {
      obs::ProfScope scope(g_site_next_hop);
      return fabric->NextHop(sw, pkt);
    });
  }
}

std::string LayerOf(const std::string& site) {
  if (site == "sim.dispatch") return "sim";
  if (site == "bench.pipeline" || site.rfind("switch.", 0) == 0) return "core";
  if (site == "bench.app") return "apps";
  if (site == "bench.next_hop") return "routing";
  if (site.rfind("net.", 0) == 0) return "net";
  if (site.rfind("store.", 0) == 0) return "statestore";
  if (site.rfind("chain_mgr.", 0) == 0) return "chain";
  if (site == "bench.hosts") return "hosts";
  if (site == "bench.trace_drain") return "obs";
  if (site.rfind("audit.", 0) == 0) return "audit";
  return "other:" + site;
}

LayerTimes CollectLayerTimes(const obs::Profiler& profiler) {
  LayerTimes out;
  for (const obs::ProfSiteTotal& t : profiler.SiteTotals()) {
    const std::string layer = LayerOf(t.name);
    out.self_ns[layer] += static_cast<double>(t.self_ns);
    if (layer != "sim") out.attributed_ns += static_cast<double>(t.self_ns);
    out.sites[t.name] = t;
  }
  return out;
}

namespace {

/// Switch-side events after which a request span gets no more records.
bool ClosesSpan(obs::Ev ev) {
  switch (ev) {
    case obs::Ev::kAckReleased:
    case obs::Ev::kRenewAck:
    case obs::Ev::kLeaseGrant:
    case obs::Ev::kFailoverRehome:
    case obs::Ev::kLeaseDenied:
    case obs::Ev::kRetxGiveUp:
      return true;
    default:
      return false;
  }
}

}  // namespace

void SpanCollector::RefreshComponents(const obs::Tracer& tracer) {
  while (components_.size() < tracer.NumComponents()) {
    components_.push_back(tracer.ComponentName(
        static_cast<std::uint16_t>(components_.size())));
  }
}

void SpanCollector::Drain(obs::Tracer& tracer) {
  obs::ProfScope scope(g_site_drain);
  RefreshComponents(tracer);
  std::vector<obs::TraceRecord> recs = tracer.Records();
  tracer.Clear();
  records_ += recs.size();
  for (const obs::TraceRecord& r : recs) {
    if (r.span == 0) continue;
    auto& open = open_[r.span];
    open.push_back(r);
    if (ClosesSpan(r.ev)) {
      Close(r.span, open);
      open_.erase(r.span);
    }
  }
}

void SpanCollector::Finish(const obs::Tracer& tracer) {
  RefreshComponents(tracer);
  // Deterministic order for the leftovers.
  std::map<std::uint64_t, std::vector<obs::TraceRecord>> rest(open_.begin(),
                                                               open_.end());
  open_.clear();
  for (auto& [span, recs] : rest) Close(span, recs);
}

void SpanCollector::Close(std::uint64_t span,
                          std::vector<obs::TraceRecord>& recs) {
  (void)span;
  for (const obs::SpanTree& tree : obs::BuildSpanTrees(recs, components_)) {
    ++spans_;
    std::int64_t sum = 0;
    for (const obs::SpanSegment& seg : tree.segments) {
      sum += seg.DurationNs();
      segments_[seg.kind].push_back(seg.DurationNs());
    }
    if (sum != tree.TotalNs()) ++tiling_failures_;
    if (!tree.segments.empty() &&
        tree.segments.front().ev_begin == obs::Ev::kReplicationSent &&
        tree.segments.back().ev_end == obs::Ev::kAckReleased) {
      write_totals_.push_back(tree.TotalNs());
    }
  }
}

}  // namespace perfbench
