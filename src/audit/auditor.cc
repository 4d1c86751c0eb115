#include "audit/auditor.h"

#include <utility>

#include "audit/monitors.h"
#include "common/logging.h"
#include "obs/profiler.h"

namespace redplane::audit {

namespace {
// Stride > 1: OnEvent fires on every stream event when armed, and a sampled
// scope is enough to attribute monitor cost without inflating it.
obs::ProfSite g_prof_publish("audit.publish", /*stride=*/16);
}  // namespace

Auditor::Auditor() {
  events_counter_ = stats_.RegisterCounter("events");
  violations_counter_ = stats_.RegisterCounter("violations");
}

void Auditor::ArmStandardMonitors() {
  AddMonitor(std::make_unique<SingleOwnerMonitor>());
  AddMonitor(std::make_unique<SeqMonotonicMonitor>());
  AddMonitor(std::make_unique<ChainCommitMonitor>());
  AddMonitor(std::make_unique<EpsilonBoundMonitor>());
  AddMonitor(std::make_unique<BoundedStalenessMonitor>());
  AddMonitor(std::make_unique<MergeConvergenceMonitor>());
}

void Auditor::AddMonitor(std::unique_ptr<Monitor> monitor) {
  monitors_.push_back(std::move(monitor));
}

Monitor* Auditor::FindMonitor(std::string_view name) {
  for (auto& m : monitors_) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

const std::string& Auditor::ComponentName(std::uint16_t id) const {
  static const std::string kUnknown = "?";
  return stream() != nullptr ? stream()->ComponentName(id) : kUnknown;
}

void Auditor::OnEvent(const obs::TraceRecord& ev) {
  obs::ProfScope prof(g_prof_publish);
  ++events_seen_;
  events_counter_.Add();
  for (auto& m : monitors_) m->OnEvent(*this, ev);
}

void Auditor::ReportViolation(std::string_view monitor,
                              const obs::TraceRecord& at, std::string detail) {
  ++violations_total_;
  violations_counter_.Add();
  ++counts_by_monitor_[std::string(monitor)];
  stats_.Add(std::string("violations.") + std::string(monitor));
  RP_LOG(kError) << "AUDIT VIOLATION [" << monitor << "] at t=" << at.t
                 << "ns component=" << ComponentName(at.component)
                 << " key=0x" << std::hex << at.flow << std::dec
                 << " seq=" << at.seq << ": " << detail;
  if (violations_.size() >= kMaxStoredViolations) return;
  Violation v;
  v.monitor = std::string(monitor);
  v.detail = std::move(detail);
  v.at = at;
  if (stream() != nullptr) v.slice = ExtractSlice(*stream(), at.flow, at.t);
  violations_.push_back(std::move(v));
}

std::size_t Auditor::ViolationCount(std::string_view monitor) const {
  const auto it = counts_by_monitor_.find(monitor);
  return it == counts_by_monitor_.end() ? 0 : it->second;
}

void Auditor::ClearFindings() {
  violations_.clear();
  violations_total_ = 0;
  counts_by_monitor_.clear();
  events_seen_ = 0;
  stats_.Reset();
  for (auto& m : monitors_) m->Reset();
}

}  // namespace redplane::audit
