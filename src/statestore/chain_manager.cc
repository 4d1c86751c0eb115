#include "statestore/chain_manager.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "obs/profiler.h"

namespace redplane::store {

namespace {
obs::ProfSite g_prof_probe("chain_mgr.probe");
obs::ProfSite g_prof_rewire("chain_mgr.rewire");
}  // namespace

ChainManager::ChainManager(sim::Simulator& sim,
                           std::vector<StateStoreServer*> replicas,
                           ChainManagerConfig config)
    : sim_(sim), config_(config), all_(replicas), active_(std::move(replicas)) {
  assert(!active_.empty());
  Rewire();
}

void ChainManager::Start() {
  if (started_) return;
  started_ = true;
  sim_.Schedule(config_.probe_interval, [this]() {
    Probe();
    started_ = false;
    Start();
  });
}

net::Ipv4Addr ChainManager::HeadIp() const {
  return active_.empty() ? net::Ipv4Addr() : active_.front()->ip();
}

void ChainManager::Rewire() {
  obs::ProfScope prof(g_prof_rewire);
  for (std::size_t i = 0; i < active_.size(); ++i) {
    active_[i]->SetIsHead(i == 0);
    if (i + 1 < active_.size()) {
      active_[i]->SetChainSuccessor(active_[i + 1]->ip());
    } else {
      active_[i]->ClearChainSuccessor();  // the last replica is the tail
    }
  }
}

void ChainManager::Probe() {
  obs::ProfScope prof(g_prof_probe);
  // Detect failed replicas and splice them out.
  std::vector<StateStoreServer*> survivors;
  survivors.reserve(active_.size());
  bool changed = false;
  for (StateStoreServer* replica : active_) {
    if (replica->IsUp()) {
      survivors.push_back(replica);
    } else {
      changed = true;
      RP_LOG(kInfo) << "chain manager: replica " << replica->name()
                    << " failed; splicing out";
    }
  }
  if (changed) {
    active_ = std::move(survivors);
    ++reconfigurations_;
    Rewire();
    trace_.Emit(obs::Ev::kChainReconfig, 0, reconfigurations_, 0.0, 0,
                active_.size());
    // The splice moved the chain's commit point: by the prefix property,
    // everything the surviving tail has applied is also present on every
    // upstream survivor, so it became chain-wide durable the instant the
    // dead suffix left the chain.  Publish that evidence synchronously —
    // the promoted tail may legally release buffered reads and acks for
    // those sequences before the deferred head-snapshot resync below
    // lands, and without this the commit monitor sees the release first.
    if (!active_.empty()) {
      EmitResyncCommits(active_.back()->ExportFlows());
    }
    // A middle/tail splice may have lost chain-internal forwards; resync
    // every surviving downstream replica from the head to restore the
    // prefix property (management-plane copy).
    if (active_.size() > 1) {
      // Snapshot the head's state once at decision time (ExportFlows is a
      // reference; the copy per target is the only one made), hand each
      // target its own copy, and move it in on delivery.
      const auto& snapshot = active_.front()->ExportFlows();
      for (std::size_t i = 1; i < active_.size(); ++i) {
        StateStoreServer* target = active_[i];
        sim_.Schedule(config_.resync_delay,
                      [this, target, copy = snapshot]() mutable {
                        if (target->IsUp()) {
                          EmitResyncCommits(copy);
                          target->ImportFlows(std::move(copy));
                        }
                      });
      }
    }
  }

  // Re-admit recovered replicas as tails.
  if (config_.readmit_recovered) {
    for (StateStoreServer* replica : all_) {
      const bool in_active =
          std::find(active_.begin(), active_.end(), replica) != active_.end();
      const bool rejoining =
          std::find(rejoining_.begin(), rejoining_.end(), replica) !=
          rejoining_.end();
      if (!in_active && !rejoining && replica->IsUp()) {
        Readmit(replica);
      }
    }
  }
}

void ChainManager::Readmit(StateStoreServer* replica) {
  rejoining_.push_back(replica);
  RP_LOG(kInfo) << "chain manager: resyncing " << replica->name()
                << " for tail re-admission";
  // Copy the current tail's state after the resync delay, then append.
  StateStoreServer* source = active_.empty() ? nullptr : active_.back();
  auto snapshot = source != nullptr
                      ? source->ExportFlows()
                      : std::unordered_map<net::PartitionKey, FlowRecord>{};
  sim_.Schedule(config_.resync_delay,
                [this, replica, snapshot = std::move(snapshot)]() mutable {
    rejoining_.erase(
        std::remove(rejoining_.begin(), rejoining_.end(), replica),
        rejoining_.end());
    if (!replica->IsUp()) return;  // died again during resync
    EmitResyncCommits(snapshot);
    replica->ImportFlows(std::move(snapshot));
    active_.push_back(replica);
    ++reconfigurations_;
    Rewire();
    trace_.Emit(obs::Ev::kChainReconfig, 0, reconfigurations_, 0.0, 0,
                active_.size());
  });
}

void ChainManager::EmitResyncCommits(
    const std::unordered_map<net::PartitionKey, FlowRecord>& flows) {
  if (!trace_.armed()) return;
  for (const auto& [key, rec] : flows) {
    trace_.Emit(obs::Ev::kResyncCommit, net::HashPartitionKey(key),
                rec.last_applied_seq);
  }
}

}  // namespace redplane::store
