// Base class for simulated network elements (switches, servers, hosts).
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/simulator.h"

namespace redplane::sim {

class Link;

class Node {
 public:
  /// `ingress_latency`: see ingress_latency().
  Node(Simulator& sim, NodeId id, std::string name,
       SimDuration ingress_latency = 0);
  virtual ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  Simulator& sim() { return sim_; }

  /// Handles a packet arriving on `in_port`: a direct injection, or (through
  /// the default Ingress) a link delivery.
  virtual void HandlePacket(net::Packet pkt, PortId in_port) = 0;

  /// Time from a packet's arrival on a link to the moment this node acts on
  /// it: a switch's pipeline pass, 0 for every other node.  Link folds it
  /// into its delivery event, so one switch hop costs one simulator event.
  SimDuration ingress_latency() const { return ingress_latency_; }

  /// Runs a link delivery once the ingress latency has elapsed and the
  /// node's state over it checked out (see ArrivalState).  Defaults to
  /// HandlePacket; SwitchNode runs its pipeline body.
  virtual void Ingress(net::Packet pkt, PortId in_port) {
    HandlePacket(std::move(pkt), in_port);
  }

  /// How a link delivery that arrived at `arrival` finds this node now,
  /// one ingress latency later.
  enum class ArrivalState {
    kDown,         // down at arrival: a link drop
    kInterrupted,  // up at arrival, changed state since: received, not run
    kUp,           // up throughout
  };
  ArrivalState StateSince(SimTime arrival) const {
    // Transitions alternate, so the parity of those after `arrival` gives
    // the state at arrival.  One in the arrival nanosecond counts as before.
    std::size_t flips = 0;
    for (auto it = transitions_.rbegin();
         it != transitions_.rend() && *it > arrival; ++it) {
      ++flips;
    }
    if (up_ == (flips % 2 == 1)) return ArrivalState::kDown;
    return flips == 0 ? ArrivalState::kUp : ArrivalState::kInterrupted;
  }

  /// Marks this node as failed/recovered.  A failed node silently drops all
  /// deliveries; subclasses may also clear volatile state on failure.
  virtual void SetUp(bool up);
  bool IsUp() const { return up_; }

  /// Registers `link` on `port` (called by Link::Connect).
  void AttachLink(PortId port, Link* link);

  /// Link attached to `port`, or nullptr.
  Link* LinkAt(PortId port) const;

  /// Number of ports with a link attached (ports are dense from 0).
  std::size_t NumPorts() const { return links_.size(); }

  /// Transmits `pkt` out of `port`.  Drops silently (with a counter) if the
  /// port has no link or the node is down.
  void SendTo(PortId port, net::Packet pkt);

  /// Per-node metric registry ("tx_pkts", "rx_pkts", "drop_no_link", ...).
  /// Typed handles for the hot-path counters are pre-registered; ad-hoc
  /// counters still work through the string API.
  obs::MetricRegistry& counters() { return metrics_; }
  const obs::MetricRegistry& counters() const { return metrics_; }

  /// Accounts a delivery into this node (called by Link on the hot path).
  void NoteRx(std::size_t wire_bytes) {
    rx_pkts_.Add();
    rx_bytes_.Add(static_cast<double>(wire_bytes));
  }

 protected:
  /// Per-node trace emitter (component name = node name).
  const obs::TraceHandle& trace() const { return trace_; }

  Simulator& sim_;

 private:
  NodeId id_;
  std::string name_;
  bool up_ = true;
  const SimDuration ingress_latency_;
  /// Times of the up/down transitions within the last ingress latency,
  /// oldest first: exactly the ones a pending delivery may need.  Usually
  /// empty; a node flapping k times in one ingress latency holds k.
  std::vector<SimTime> transitions_;
  std::vector<Link*> links_;
  obs::MetricRegistry metrics_;
  obs::TraceHandle trace_;
  // Typed hot-path counters into metrics_.
  obs::Counter tx_pkts_;
  obs::Counter tx_bytes_;
  obs::Counter rx_pkts_;
  obs::Counter rx_bytes_;
  obs::Counter drop_node_down_;
  obs::Counter drop_no_link_;
};

}  // namespace redplane::sim
