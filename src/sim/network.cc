#include "src/sim/network.h"

#include <cassert>
#include <utility>

namespace torsim {

Network::Network(Simulator* sim, const NetworkConfig& config) : sim_(sim), config_(config) {
  assert(config.node_count > 0);
  nodes_.reserve(config.node_count);
  for (uint32_t i = 0; i < config.node_count; ++i) {
    nodes_.push_back(std::make_unique<NodeState>(sim, config.default_bandwidth_bps));
  }
  latencies_.assign(static_cast<size_t>(config.node_count) * config.node_count,
                    config.default_latency);
  for (uint32_t i = 0; i < config.node_count; ++i) {
    latencies_[static_cast<size_t>(i) * config.node_count + i] = 0;
  }
}

void Network::SetLatency(NodeId a, NodeId b, Duration latency) {
  latencies_[static_cast<size_t>(a) * node_count() + b] = latency;
}

Duration Network::latency(NodeId a, NodeId b) const {
  return latencies_[static_cast<size_t>(a) * node_count() + b];
}

void Network::LimitNode(NodeId node, TimePoint from, TimePoint to, double bits_per_sec) {
  assert(node < node_count());
  assert(from >= sim_->now() && "cannot clamp instants the NICs already integrated over");
  NodeState& state = *nodes_[node];
  state.egress.schedule().LimitDuring(from, to, bits_per_sec);
  state.ingress.schedule().LimitDuring(from, to, bits_per_sec);
  state.egress.OnScheduleChanged();
  state.ingress.OnScheduleChanged();
}

void Network::SetNodeRateFrom(NodeId node, TimePoint from, double bits_per_sec) {
  assert(node < node_count());
  assert(from >= sim_->now() && "cannot edit instants the NICs already integrated over");
  NodeState& state = *nodes_[node];
  state.egress.schedule().SetRateFrom(from, bits_per_sec);
  state.ingress.schedule().SetRateFrom(from, bits_per_sec);
  state.egress.OnScheduleChanged();
  state.ingress.OnScheduleChanged();
}

void Network::SetHandler(NodeId node, DeliverFn handler) {
  nodes_[node]->handler = std::move(handler);
}

std::shared_ptr<const Frame> Network::Queue(Frame payload) const {
  if (flatten_frames_) {
    payload = Frame(payload.Flatten());
  }
  return std::make_shared<const Frame>(std::move(payload));
}

void Network::Send(NodeId from, NodeId to, std::string kind, Frame payload) {
  SendShared(from, to, kind, Queue(std::move(payload)));
}

void Network::Broadcast(NodeId from, const std::string& kind, Frame payload) {
  auto shared = Queue(std::move(payload));
  for (NodeId peer = 0; peer < node_count(); ++peer) {
    if (peer != from) {
      SendShared(from, peer, kind, shared);
    }
  }
}

void Network::SendShared(NodeId from, NodeId to, const std::string& kind,
                         std::shared_ptr<const Frame> payload) {
  assert(from < node_count() && to < node_count());
  const uint64_t wire_bytes = payload->size() + kPerMessageOverheadBytes;

  NodeState& sender = *nodes_[from];
  sender.counters.messages_sent += 1;
  sender.counters.bytes_sent += wire_bytes;
  bytes_by_kind_[kind] += wire_bytes;

  if (from == to) {
    // Local delivery: skip the NIC model entirely but still go through the
    // event queue so handlers never reenter.
    sim_->ScheduleAfter(0, [this, from, to, payload = std::move(payload)]() {
      NodeState& receiver = *nodes_[to];
      receiver.counters.messages_received += 1;
      if (receiver.handler) {
        receiver.handler(from, *payload);
      }
    });
    return;
  }

  const double bits = static_cast<double>(wire_bytes) * 8.0;
  const Duration hop_latency = latency(from, to);

  // Stage 1: egress. On completion, propagate, then stage 2: ingress, then
  // deliver. The shared payload rides along the chain of callbacks; captures
  // are flattened per stage (rather than nesting the previous closure) so
  // every stage fits its callback's inline buffer.
  sender.egress.StartTransfer(
      bits,
      [this, from, to, bits, wire_bytes, hop_latency, payload = std::move(payload)]() mutable {
        sim_->ScheduleAfter(
            hop_latency,
            [this, from, to, bits, wire_bytes, payload = std::move(payload)]() mutable {
              nodes_[to]->ingress.StartTransfer(
                  bits, [this, from, to, wire_bytes, payload = std::move(payload)]() {
                    NodeState& receiver = *nodes_[to];
                    receiver.counters.messages_received += 1;
                    receiver.counters.bytes_received += wire_bytes;
                    if (receiver.handler) {
                      receiver.handler(from, *payload);
                    }
                  });
            });
      });
}

uint64_t Network::total_bytes_sent() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->counters.bytes_sent;
  }
  return total;
}

uint64_t Network::undeliverable_count() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->egress.dropped_count() + node->ingress.dropped_count();
  }
  return total;
}

}  // namespace torsim
