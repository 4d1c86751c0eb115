#include "routing/failure.h"

#include <algorithm>

namespace redplane::routing {

void FailureInjector::ScheduleNodeFailure(sim::Node* node, SimTime at,
                                          SimTime recover_at) {
  sim_.ScheduleAt(at, [this, node]() { FailNode(node); });
  if (recover_at >= 0) {
    sim_.ScheduleAt(recover_at, [this, node]() { RecoverNode(node); });
  }
}

void FailureInjector::ScheduleLinkFailure(sim::Link* link, SimTime at,
                                          SimTime recover_at) {
  sim_.ScheduleAt(at, [this, link]() { FailLink(link); });
  if (recover_at >= 0) {
    sim_.ScheduleAt(recover_at, [this, link]() { RecoverLink(link); });
  }
}

void FailureInjector::ScheduleAsymmetricLoss(sim::Link* link, NodeId from,
                                             double rate, SimTime at,
                                             SimTime clear_at) {
  sim_.ScheduleAt(at, [this, link, from, rate]() {
    ApplyAsymmetricLoss(link, from, rate);
  });
  if (clear_at >= 0) {
    sim_.ScheduleAt(clear_at,
                    [this, link, from]() { ClearAsymmetricLoss(link, from); });
  }
}

void FailureInjector::SchedulePartialPartition(sim::Link* link, NodeId from,
                                               SimTime at, SimTime clear_at) {
  ScheduleAsymmetricLoss(link, from, 1.0, at, clear_at);
}

void FailureInjector::FailNode(sim::Node* node) {
  if (++node_cuts_[node] > 1) return;  // already down: deepen only
  node->SetUp(false);
  fabric_.NotifyTopologyChange();
}

void FailureInjector::RecoverNode(sim::Node* node) {
  auto it = node_cuts_.find(node);
  if (it == node_cuts_.end() || it->second == 0) return;  // spurious heal
  if (--it->second > 0) return;  // another cut still holds the node down
  node->SetUp(true);
  fabric_.NotifyTopologyChange();
}

void FailureInjector::FailLink(sim::Link* link) {
  if (++link_cuts_[link] > 1) return;
  link->SetUp(false);
  fabric_.NotifyTopologyChange();
}

void FailureInjector::RecoverLink(sim::Link* link) {
  auto it = link_cuts_.find(link);
  if (it == link_cuts_.end() || it->second == 0) return;
  if (--it->second > 0) return;
  link->SetUp(true);
  fabric_.NotifyTopologyChange();
}

void FailureInjector::ApplyAsymmetricLoss(sim::Link* link, NodeId from,
                                          double rate) {
  DirLoss& dl = dir_loss_[{link, from}];
  ++dl.depth;
  dl.rate = std::max(dl.rate, rate);
  link->SetDirectionLoss(from, dl.rate);
  trace_.Emit(obs::Ev::kGrayFault, 0, 0, rate, 0,
              static_cast<std::uint64_t>(from));
}

void FailureInjector::ClearAsymmetricLoss(sim::Link* link, NodeId from) {
  auto it = dir_loss_.find({link, from});
  if (it == dir_loss_.end() || it->second.depth == 0) return;
  if (--it->second.depth > 0) return;  // another injection still active
  it->second.rate = 0.0;
  link->SetDirectionLoss(from, -1.0);
  trace_.Emit(obs::Ev::kGrayCleared, 0, 0, 0.0, 0,
              static_cast<std::uint64_t>(from));
}

int FailureInjector::NodeCutDepth(const sim::Node* node) const {
  auto it = node_cuts_.find(node);
  return it == node_cuts_.end() ? 0 : it->second;
}

int FailureInjector::LinkCutDepth(const sim::Link* link) const {
  auto it = link_cuts_.find(link);
  return it == link_cuts_.end() ? 0 : it->second;
}

}  // namespace redplane::routing
