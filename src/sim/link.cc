#include "sim/link.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/node.h"

namespace redplane::sim {

Link::Link(Simulator& sim, LinkConfig config, Rng rng)
    : sim_(sim), config_(config), rng_(rng) {
  assert(config_.bandwidth_bps > 0);
}

void Link::Connect(Node* a, PortId port_a, Node* b, PortId port_b) {
  assert(a_ == nullptr && b_ == nullptr);
  a_ = a;
  b_ = b;
  port_a_ = port_a;
  port_b_ = port_b;
  a->AttachLink(port_a, this);
  b->AttachLink(port_b, this);
  trace_.SetName("link:" + a->name() + "-" + b->name());
}

void Link::SetUp(bool up) {
  if (up_ == up) return;
  up_ = up;
  trace_.Emit(up ? obs::Ev::kLinkUp : obs::Ev::kLinkDown);
  if (!up) cut_times_.push_back(sim_.Now());  // ends the current epoch
}

void Link::SetDirectionLoss(NodeId from, double p) {
  assert(a_ != nullptr && b_ != nullptr);
  Direction& dir = from == a_->id() ? a_to_b_ : b_to_a_;
  dir.loss_override = p < 0 ? -1.0 : std::min(p, 1.0);
}

double Link::DirectionLoss(NodeId from) const {
  const Direction& dir = from == a_->id() ? a_to_b_ : b_to_a_;
  return dir.loss_override >= 0 ? dir.loss_override : config_.loss_rate;
}

void Link::Transmit(NodeId from, net::Packet pkt) {
  assert(a_ != nullptr && b_ != nullptr);
  if (!up_) {
    ++dropped_;
    trace_.Emit(obs::Ev::kLinkDrop, 0, 0, static_cast<double>(pkt.WireSize()));
    return;
  }

  const bool from_a = (from == a_->id());
  assert(from_a || from == b_->id());
  Direction& dir = from_a ? a_to_b_ : b_to_a_;
  const double loss =
      dir.loss_override >= 0 ? dir.loss_override : config_.loss_rate;
  if (loss > 0 && rng_.Bernoulli(loss)) {
    ++dropped_;
    trace_.Emit(obs::Ev::kLinkDrop, 0, 0, static_cast<double>(pkt.WireSize()));
    return;
  }
  Node* to = from_a ? b_ : a_;
  const PortId in_port = from_a ? port_b_ : port_a_;

  const double bits = static_cast<double>(pkt.WireSize()) * 8.0;
  const auto serialization = static_cast<SimDuration>(
      std::ceil(bits / config_.bandwidth_bps * 1e9));
  const SimTime start = std::max(sim_.Now(), dir.busy_until);
  dir.busy_until = start + serialization;

  SimDuration jitter = 0;
  if (config_.reorder_jitter > 0) {
    jitter = static_cast<SimDuration>(
        rng_.NextBounded(static_cast<std::uint64_t>(config_.reorder_jitter)));
  }
  const SimTime arrival = dir.busy_until + config_.propagation + jitter;
  const std::uint64_t epoch = cut_times_.size();
  sim_.ScheduleAt(arrival + to->ingress_latency(),
                  [this, to, in_port, pkt = std::move(pkt), epoch,
                   arrival]() mutable {
                    Deliver(to, in_port, std::move(pkt), epoch, arrival);
                  });
}

void Link::Deliver(Node* to, PortId port, net::Packet pkt,
                   std::uint64_t epoch, SimTime arrival) {
  // A cut in (transmit, arrival] or a receiver down at arrival loses the
  // packet on the link; a cut after arrival is too late to matter.
  const bool cut = epoch < cut_times_.size() && cut_times_[epoch] <= arrival;
  const Node::ArrivalState state = to->StateSince(arrival);
  if (cut || state == Node::ArrivalState::kDown) {
    ++dropped_;
    trace_.Emit(obs::Ev::kLinkDrop, 0, 0, static_cast<double>(pkt.WireSize()));
    return;
  }
  ++delivered_;
  to->NoteRx(pkt.WireSize());
  // A receiver that failed during its ingress loses the packet silently,
  // like any packet inside a failing switch's pipeline.
  if (state == Node::ArrivalState::kUp) to->Ingress(std::move(pkt), port);
}

}  // namespace redplane::sim
