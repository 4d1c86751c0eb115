// Per-layer instrumentation the benchmark installs for its traced run.
//
// Everything here sits on public seams of the simulator: decorators around
// dp::PipelineHandler and core::SwitchApp, a replacement SwitchNode
// forwarder that calls RoutingFabric::NextHop, and obs::ProfSite scopes
// owned by the benchmark.  Layers without a public seam (event dispatch,
// store, chain manager, codec) are read from the profiler sites the
// libraries already declare.  Request spans come from the tracer ring
// through obs::BuildSpanTrees.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/app.h"
#include "dataplane/pipeline.h"
#include "obs/profiler.h"
#include "obs/tracer.h"
#include "routing/topology.h"

namespace perfbench {

using namespace redplane;

/// Benchmark-owned profiler sites (see LayerOf for the layer each feeds).
extern obs::ProfSite g_site_pipeline;  // RedPlaneSwitch::Process, via decorator
extern obs::ProfSite g_site_app;       // SwitchApp::Process, via decorator
extern obs::ProfSite g_site_next_hop;  // RoutingFabric::NextHop per hop
extern obs::ProfSite g_site_hosts;     // host sends and sink handlers
extern obs::ProfSite g_site_drain;     // tracer ring drain + span building

/// Times every packet through a wrapped pipeline handler.  `observe` (if
/// set) sees each packet first, outside the timed scope.
class TimedPipeline : public dp::PipelineHandler {
 public:
  TimedPipeline(dp::PipelineHandler& inner,
                std::function<void(const net::Packet&)> observe)
      : inner_(inner), observe_(std::move(observe)) {}

  void Process(dp::SwitchContext& ctx, net::Packet pkt) override;
  void Reset() override { inner_.Reset(); }
  void OnRecovery() override { inner_.OnRecovery(); }

 private:
  dp::PipelineHandler& inner_;
  std::function<void(const net::Packet&)> observe_;
};

/// Times the application's transition function; forwards everything else.
class TimedApp : public core::SwitchApp {
 public:
  explicit TimedApp(core::SwitchApp& inner) : inner_(inner) {}

  std::string_view name() const override { return inner_.name(); }
  std::optional<net::PartitionKey> KeyOf(
      const net::Packet& pkt) const override {
    return inner_.KeyOf(pkt);
  }
  core::StateTraits Traits() const override { return inner_.Traits(); }
  core::ProcessResult Process(core::AppContext& ctx, net::Packet pkt,
                              std::vector<std::byte>& state) override;
  bool StateInMatchTable() const override {
    return inner_.StateInMatchTable();
  }
  void Reset() override { inner_.Reset(); }

 private:
  core::SwitchApp& inner_;
};

/// Replaces every switch's forwarder with a timed call to the fabric's
/// NextHop (the same decision RoutingFabric::Install makes).
void InstallTimedForwarders(routing::Testbed& tb);

/// Host time per layer, from the profiler's site totals.
struct LayerTimes {
  /// Self nanoseconds per layer name ("sim", "core", "apps", ...).
  std::map<std::string, double> self_ns;
  /// Per-site totals the per-layer metrics need directly.
  std::map<std::string, obs::ProfSiteTotal> sites;
  double attributed_ns = 0;  // every named layer except "sim"
};

/// The layer a profiler site's self time belongs to.
std::string LayerOf(const std::string& site);

LayerTimes CollectLayerTimes(const obs::Profiler& profiler);

/// Reassembles request spans from the tracer ring as the run goes, so the
/// ring never has to hold a whole run.  Call Drain between simulation
/// chunks and Finish at the end.
class SpanCollector {
 public:
  void Drain(obs::Tracer& tracer);
  void Finish(const obs::Tracer& tracer);

  /// Segment durations (ns) by segment kind, over every finished span.
  const std::map<std::string, std::vector<std::int64_t>>& segments() const {
    return segments_;
  }
  /// Totals (ns) of complete write spans: replication sent -> ack released.
  const std::vector<std::int64_t>& write_totals() const {
    return write_totals_;
  }
  std::uint64_t spans() const { return spans_; }
  /// Spans whose segments did not tile the span exactly.
  std::uint64_t tiling_failures() const { return tiling_failures_; }
  std::uint64_t records() const { return records_; }

 private:
  void Close(std::uint64_t span, std::vector<obs::TraceRecord>& recs);
  void RefreshComponents(const obs::Tracer& tracer);

  std::unordered_map<std::uint64_t, std::vector<obs::TraceRecord>> open_;
  std::vector<std::string> components_;
  std::map<std::string, std::vector<std::int64_t>> segments_;
  std::vector<std::int64_t> write_totals_;
  std::uint64_t spans_ = 0;
  std::uint64_t tiling_failures_ = 0;
  std::uint64_t records_ = 0;
};

}  // namespace perfbench
