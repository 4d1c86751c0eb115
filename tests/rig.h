// The protocol test rig: a source and a sink host, one or two RedPlane
// switches between them, and N state-store servers behind a hub that routes
// by destination IP.  Every end-to-end protocol test builds this topology;
// see DESIGN.md "Writing a protocol test" for the port map and options.
//
//   src port i       <-> switch i port 0     (i = 0 .. switches-1)
//   dst port i       <-> switch i port 1
//   switch i port 2  <-> hub port i          (opt.store_link)
//   store j port 0   <-> hub port switches + j   (j = 0 .. stores-1)
//
// Nodes and links are created in that order (src, dst, switches, hub,
// stores; src links, dst links, switch-hub links, store-hub links), so a
// seed always replays the same per-link random draws.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "core/redplane_switch.h"
#include "net/codec.h"
#include "obs/tracer.h"
#include "sim/host.h"
#include "sim/network.h"
#include "statestore/partition.h"
#include "statestore/server.h"

namespace redplane::rig {

inline constexpr net::Ipv4Addr kSrcIp(10, 0, 0, 1);
inline constexpr net::Ipv4Addr kDstIp(192, 168, 10, 1);
/// Switch i is 172.16.0.(1 + i); store j is 172.16.1.(1 + j).
inline constexpr net::Ipv4Addr kSw1Ip(172, 16, 0, 1);
inline constexpr net::Ipv4Addr kSw2Ip(172, 16, 0, 2);
inline constexpr net::Ipv4Addr kStoreIp(172, 16, 1, 1);

/// A UDP flow from src to dst.
inline net::FlowKey UdpFlow(std::uint16_t src_port = 1000) {
  return {kSrcIp, kDstIp, src_port, 80, net::IpProto::kUdp};
}

enum class StoreLayout {
  kChain,   // one chain: store 0 is the head, store N-1 the tail
  kShards,  // independent single-server shards behind a PartitionMap
};

struct RigOptions {
  std::uint64_t seed = 7;
  int switches = 2;
  int stores = 1;
  StoreLayout layout = StoreLayout::kChain;
  /// The switch <-> hub links, i.e. the switch-to-store path.
  sim::LinkConfig store_link{};
  /// Every store's configuration.  The rig sets its lease_period to
  /// rp.lease_period (the two must match), and only the head (store 0)
  /// keeps `mutations`.
  store::StoreConfig store{};
  core::RedPlaneConfig rp{};
  /// Overrides the layout's shard lookup (chain: store 0; shards: the
  /// PartitionMap), e.g. to follow a ChainManager's head.
  std::function<net::Ipv4Addr(const net::PartitionKey&)> shard_for{};
  /// Installs `tracer` as the global tracer, armed, with `auditor` and its
  /// standard monitors subscribed, once the topology is built.
  bool audit = false;
};

class Rig {
 public:
  Rig(core::SwitchApp& app, RigOptions opt = {}) {
    net::ResetPacketIds();
    net = std::make_unique<sim::Network>(sim, opt.seed);
    src = net->AddNode<sim::HostNode>("src", kSrcIp);
    dst = net->AddNode<sim::HostNode>("dst", kDstIp);
    for (int i = 0; i < opt.switches; ++i) {
      dp::SwitchConfig cfg;
      cfg.switch_ip = net::Ipv4Addr(172, 16, 0, 1 + i);
      sw.push_back(net->AddNode<dp::SwitchNode>(
          opt.switches == 1 ? "sw" : "sw" + std::to_string(i + 1), cfg));
    }
    hub = net->AddNode<sim::HostNode>("hub", net::Ipv4Addr(9, 9, 9, 9));
    const auto n = static_cast<PortId>(sw.size());
    for (PortId i = 0; i < n; ++i) net->Connect(src, i, sw[i], 0);
    for (PortId i = 0; i < n; ++i) net->Connect(dst, i, sw[i], 1);
    for (PortId i = 0; i < n; ++i) {
      net->Connect(sw[i], 2, hub, i, opt.store_link);
    }
    store::StoreConfig store_cfg = opt.store;
    store_cfg.lease_period = opt.rp.lease_period;
    for (int j = 0; j < opt.stores; ++j) {
      if (j > 0) store_cfg.mutations = {};
      stores.push_back(net->AddNode<store::StateStoreServer>(
          "store" + std::to_string(j), net::Ipv4Addr(172, 16, 1, 1 + j),
          store_cfg));
      net->Connect(stores.back(), 0, hub, static_cast<PortId>(n + j));
    }
    if (opt.layout == StoreLayout::kChain) {
      for (std::size_t j = 0; j + 1 < stores.size(); ++j) {
        stores[j + 1]->SetIsHead(false);
        stores[j]->SetChainSuccessor(stores[j + 1]->ip());
      }
    } else {
      std::vector<net::Ipv4Addr> ips;
      for (const auto* s : stores) ips.push_back(s->ip());
      map = store::PartitionMap(ips);
    }

    hub->SetHandler([this](sim::HostNode& self, net::Packet pkt) {
      if (!pkt.ip.has_value()) return;
      if (drop && drop(pkt)) {
        ++dropped;
        return;
      }
      for (std::size_t i = 0; i < sw.size(); ++i) {
        if (pkt.ip->dst == sw[i]->ip()) {
          self.SendTo(static_cast<PortId>(i), std::move(pkt));
          return;
        }
      }
      for (std::size_t j = 0; j < stores.size(); ++j) {
        if (pkt.ip->dst == stores[j]->ip()) {
          self.SendTo(static_cast<PortId>(sw.size() + j), std::move(pkt));
          return;
        }
      }
    });
    auto shard_for = opt.shard_for;
    if (!shard_for) {
      if (opt.layout == StoreLayout::kChain) {
        shard_for = [this](const net::PartitionKey&) {
          return stores.front()->ip();
        };
      } else {
        shard_for = [this](const net::PartitionKey& key) {
          return map.ShardFor(key);
        };
      }
    }
    for (dp::SwitchNode* node : sw) {
      node->SetForwarder(
          [](const net::Packet& pkt, PortId) -> std::optional<PortId> {
            if (!pkt.ip.has_value()) return std::nullopt;
            if (pkt.ip->dst == kSrcIp) return PortId{0};
            if (pkt.ip->dst == kDstIp) return PortId{1};
            return PortId{2};
          });
      rp.push_back(
          std::make_unique<core::RedPlaneSwitch>(*node, app, shard_for, opt.rp));
      node->SetPipeline(rp.back().get());
    }
    dst->SetHandler([this](sim::HostNode&, net::Packet) { ++delivered; });

    if (opt.audit) {
      tracer.SetClock([this] { return sim.Now(); });
      tracer.SetEnabled(true);
      prev_tracer_ = obs::SetGlobalTracer(&tracer);
      audited_ = true;
      auditor.ArmStandardMonitors();
      tracer.Subscribe(auditor);
    }
  }

  ~Rig() {
    if (audited_) obs::SetGlobalTracer(prev_tracer_);
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Advances simulated time by `d`.
  void Run(SimDuration d) { sim.RunUntil(sim.Now() + d); }

  obs::Tracer tracer;
  audit::Auditor auditor;
  sim::Simulator sim;
  std::unique_ptr<sim::Network> net;
  sim::HostNode* src = nullptr;
  sim::HostNode* dst = nullptr;
  sim::HostNode* hub = nullptr;
  std::vector<dp::SwitchNode*> sw;
  std::vector<store::StateStoreServer*> stores;
  store::PartitionMap map;  // the shard layout's map (empty for a chain)
  std::vector<std::unique_ptr<core::RedPlaneSwitch>> rp;
  /// Hub drop predicate: a packet it accepts is counted in `dropped` and
  /// goes no further.
  std::function<bool(const net::Packet&)> drop;
  int delivered = 0;  // packets at dst (the default dst handler)
  int dropped = 0;

 private:
  obs::Tracer* prev_tracer_ = nullptr;
  bool audited_ = false;
};

/// Holds a harness's app ahead of its Rig base, so the app is built before
/// the switches that run it and outlives them:
/// `struct Harness : rig::WithApp<MyApp>, rig::Rig { ... Rig(app, {...}) }`.
template <typename App>
struct WithApp {
  App app;
};

/// Read-only echo: forwards every packet, never writes state, so its flows
/// are renew-driven.
class ReadEchoApp : public core::SwitchApp {
 public:
  std::string_view name() const override { return "read_echo"; }
  core::ProcessResult Process(core::AppContext&, net::Packet pkt,
                              std::vector<std::byte>&) override {
    core::ProcessResult result;
    result.outputs.push_back(std::move(pkt));
    return result;
  }
};

/// A per-flow counter whose output carries (original packet id, count), so
/// the receiver can rebuild the history for linearizability checking across
/// the piggyback encode/decode.  Pair with StampedPacket.
class CountingEchoApp : public core::SwitchApp {
 public:
  std::string_view name() const override { return "counting_echo"; }
  core::ProcessResult Process(core::AppContext&, net::Packet pkt,
                              std::vector<std::byte>& state) override {
    core::ProcessResult result;
    const std::uint64_t count =
        core::StateAs<std::uint64_t>(state).value_or(0) + 1;
    core::SetState(state, count);
    result.state_modified = true;
    std::uint64_t original_id = pkt.id;
    if (pkt.payload.size() >= 8) {
      net::ByteReader r(pkt.payload);
      original_id = r.U64();
    }
    std::vector<std::byte> buf;
    net::ByteWriter w(buf);
    w.U64(original_id);
    w.U64(count);
    pkt.payload = std::move(buf);
    result.outputs.push_back(std::move(pkt));
    return result;
  }
};

/// A 20-byte UDP packet of `flow` whose payload is its own id, for
/// CountingEchoApp to echo.
inline net::Packet StampedPacket(const net::FlowKey& flow) {
  net::Packet pkt = net::MakeUdpPacket(flow, 20);
  std::vector<std::byte> buf;
  net::ByteWriter w(buf);
  w.U64(pkt.id);
  pkt.payload = std::move(buf);
  return pkt;
}

}  // namespace redplane::rig
