#include "sim/node.h"

#include "sim/link.h"

namespace redplane::sim {

Node::Node(Simulator& sim, NodeId id, std::string name,
           SimDuration ingress_latency)
    : sim_(sim),
      id_(id),
      name_(std::move(name)),
      ingress_latency_(ingress_latency),
      metrics_(name_),
      trace_(name_) {
  tx_pkts_ = metrics_.RegisterCounter("tx_pkts");
  tx_bytes_ = metrics_.RegisterCounter("tx_bytes");
  rx_pkts_ = metrics_.RegisterCounter("rx_pkts");
  rx_bytes_ = metrics_.RegisterCounter("rx_bytes");
  drop_node_down_ = metrics_.RegisterCounter("drop_node_down");
  drop_no_link_ = metrics_.RegisterCounter("drop_no_link");
}

Node::~Node() = default;

void Node::SetUp(bool up) {
  if (up_ != up) {
    // The recovery tracker opens a failover episode on kNodeFailure, and
    // reports the node id (aux) as the fault's target.
    trace_.Emit(up ? obs::Ev::kNodeRecovery : obs::Ev::kNodeFailure, 0, 0, 0.0,
                0, static_cast<std::uint64_t>(id_));
    if (ingress_latency_ > 0) {
      // A delivery still pending now arrived after now - ingress latency,
      // so older transitions can no longer fall inside its ingress.
      const SimTime now = sim_.Now();
      std::erase_if(transitions_, [&](SimTime t) {
        return t <= now - ingress_latency_;
      });
      transitions_.push_back(now);
    }
  }
  up_ = up;
}

void Node::AttachLink(PortId port, Link* link) {
  if (port >= links_.size()) links_.resize(port + 1, nullptr);
  links_[port] = link;
}

Link* Node::LinkAt(PortId port) const {
  return port < links_.size() ? links_[port] : nullptr;
}

void Node::SendTo(PortId port, net::Packet pkt) {
  if (!up_) {
    drop_node_down_.Add();
    return;
  }
  Link* link = LinkAt(port);
  if (link == nullptr) {
    drop_no_link_.Add();
    return;
  }
  tx_pkts_.Add();
  tx_bytes_.Add(static_cast<double>(pkt.WireSize()));
  link->Transmit(id_, std::move(pkt));
}

}  // namespace redplane::sim
