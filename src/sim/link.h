// Point-to-point full-duplex link with bandwidth, propagation delay, loss,
// and optional reordering jitter.
//
// Each direction models store-and-forward serialization: a packet occupies
// the transmitter for size/bandwidth seconds (FIFO behind any packet still
// serializing), then arrives after the propagation delay plus an optional
// uniform jitter that can reorder packets — the property RedPlane's request
// sequencing exists to tolerate (§5.2).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/packet.h"
#include "obs/tracer.h"
#include "sim/simulator.h"

namespace redplane::sim {

class Node;

struct LinkConfig {
  /// Link rate in bits per second (default 100 Gbps, the testbed's rate).
  double bandwidth_bps = 100e9;
  /// One-way propagation delay.
  SimDuration propagation = Microseconds(1);
  /// Independent per-packet drop probability.
  double loss_rate = 0.0;
  /// Max extra delivery delay, drawn uniformly per packet; a nonzero value
  /// allows adjacent packets to arrive out of order.
  SimDuration reorder_jitter = 0;
};

class Link {
 public:
  Link(Simulator& sim, LinkConfig config, Rng rng);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Wires the link between (a, port_a) and (b, port_b) and registers it on
  /// both nodes.  Must be called exactly once before Transmit.
  void Connect(Node* a, PortId port_a, Node* b, PortId port_b);

  /// Transmits from the endpoint owned by node `from` toward the other end.
  void Transmit(NodeId from, net::Packet pkt);

  /// Administratively disables/enables the link (fiber-cut failure model).
  /// Packets in flight when the link goes down are dropped: a packet is lost
  /// if the link is cut between its transmission and its arrival, even when
  /// the link is back up by then.
  void SetUp(bool up);
  bool IsUp() const { return up_; }

  const LinkConfig& config() const { return config_; }
  /// Mutable for experiments that vary loss mid-run.
  void set_loss_rate(double p) { config_.loss_rate = p; }

  /// Per-direction loss override for gray-failure injection: asymmetric
  /// loss, or a one-way blackhole (p = 1) modelling a partial partition
  /// where A still reaches B but not vice versa.  `from` names the sending
  /// endpoint; a negative rate clears the override back to the symmetric
  /// config value.
  void SetDirectionLoss(NodeId from, double p);
  /// Effective loss rate for packets sent by `from` (override or config).
  double DirectionLoss(NodeId from) const;

  Node* endpoint_a() const { return a_; }
  Node* endpoint_b() const { return b_; }

  std::uint64_t packets_delivered() const { return delivered_; }
  std::uint64_t packets_dropped() const { return dropped_; }

 private:
  struct Direction {
    SimTime busy_until = 0;
    /// Loss override for this direction; negative = use config_.loss_rate.
    double loss_override = -1.0;
  };

  /// Runs one ingress latency after `arrival` (one event per hop), with
  /// the drop checks applied as of `arrival`.
  void Deliver(Node* to, PortId port, net::Packet pkt, std::uint64_t epoch,
               SimTime arrival);

  Simulator& sim_;
  LinkConfig config_;
  Rng rng_;
  Node* a_ = nullptr;
  Node* b_ = nullptr;
  PortId port_a_ = kInvalidPort;
  PortId port_b_ = kInvalidPort;
  Direction a_to_b_;
  Direction b_to_a_;
  bool up_ = true;
  /// cut_times_[e] is when the cut that ended epoch e happened; the current
  /// epoch is cut_times_.size().  A delivery fires after its arrival, so it
  /// needs the time of the first cut after its transmission, not only
  /// whether one happened.
  std::vector<SimTime> cut_times_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  obs::TraceHandle trace_;  // named "link:a-b" once connected
};

}  // namespace redplane::sim
