// The simulated network fabric: per-node ingress/egress processor-sharing NICs
// plus a pairwise propagation-latency matrix.
//
// Delivery model for a message of S bytes from a to b:
//   1. The message drains through a's egress NIC, fair-sharing the (possibly
//      attack-clamped) rate with every other concurrent outbound transfer.
//   2. It propagates for latency(a, b).
//   3. It drains through b's ingress NIC, fair-sharing with concurrent inbound
//      transfers.
// This fluid model reproduces the bandwidth-starvation mechanism the paper uses
// to model DDoS (following Jansen et al.): when a victim's available bandwidth
// is clamped, all of its transfers slow down together and directory requests
// blow through their deadlines.
//
// Attack windows must be installed on the NIC schedules before simulated time
// reaches them; the benches configure attacks up front.
#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/ids.h"
#include "src/sim/bandwidth.h"
#include "src/sim/shared_nic.h"
#include "src/sim/simulator.h"

namespace torsim {

using torbase::Bytes;
using torbase::NodeId;

struct NetworkConfig {
  uint32_t node_count = 0;
  // Default symmetric NIC capacity for every node, bits/second.
  double default_bandwidth_bps = MegabitsPerSecond(250);
  // Default one-way propagation latency between distinct nodes.
  Duration default_latency = torbase::Millis(50);
};

// Fixed framing overhead added to every message's wire size (models
// TLS/TCP/HTTP framing of the directory connections).
constexpr uint32_t kPerMessageOverheadBytes = 64;

// Byte/message counters, kept per node and per message kind.
struct TrafficCounters {
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_received = 0;
  uint64_t bytes_received = 0;
};

class Network {
 public:
  // Delivery callback: (sender, payload). Runs at the receiver's delivery time.
  using DeliverFn = std::function<void(NodeId, const Bytes&)>;

  Network(Simulator* sim, const NetworkConfig& config);

  uint32_t node_count() const { return static_cast<uint32_t>(nodes_.size()); }
  Simulator& sim() { return *sim_; }

  // NIC rate schedules, exposed so attack models can clamp them. Direct edits
  // are only safe before the simulation reaches the edited instants; dynamic
  // policies should go through LimitNode / SetNodeRateFrom instead.
  BandwidthSchedule& egress(NodeId node) { return nodes_[node]->egress.schedule(); }
  BandwidthSchedule& ingress(NodeId node) { return nodes_[node]->ingress.schedule(); }

  // Clamps both of `node`'s NIC directions to `bits_per_sec` during
  // [from, to), restoring the underlying rate afterwards, and re-evaluates
  // in-flight transfers. Safe to call mid-run as long as from >= sim().now();
  // this is the primitive behind every attack schedule.
  void LimitNode(NodeId node, TimePoint from, TimePoint to, double bits_per_sec);

  // Sets both of `node`'s NIC directions to `bits_per_sec` from `from`
  // onwards (crash/recover churn and heterogeneous capacities). Same timing
  // contract as LimitNode.
  void SetNodeRateFrom(NodeId node, TimePoint from, double bits_per_sec);

  void SetLatency(NodeId a, NodeId b, Duration latency);  // directed a->b
  Duration latency(NodeId a, NodeId b) const;

  // Registers the handler that receives node `node`'s inbound messages.
  void SetHandler(NodeId node, DeliverFn handler);

  // Queues `payload` from `from` to `to`. `kind` labels the message class for
  // accounting (e.g. "VOTE", "DOCUMENT"). Self-sends deliver after a minimal
  // scheduling hop with no bandwidth cost.
  void Send(NodeId from, NodeId to, std::string kind, Bytes payload);

  // Sends `payload` to every node except `from`, sharing one underlying buffer
  // across all copies (bandwidth/accounting behave exactly like n-1 Send
  // calls; only the memory copies are elided — votes are multi-megabyte).
  void Broadcast(NodeId from, const std::string& kind, Bytes payload);

  // --- accounting ---------------------------------------------------------
  const TrafficCounters& counters(NodeId node) const { return nodes_[node]->counters; }
  // Bytes sent per message kind, across all nodes.
  const std::map<std::string, uint64_t>& bytes_by_kind() const { return bytes_by_kind_; }
  uint64_t total_bytes_sent() const;
  // Messages dropped because their NIC schedule could never carry them.
  uint64_t undeliverable_count() const;

 private:
  // Shared-buffer transfer path used by both Send and Broadcast.
  void SendShared(NodeId from, NodeId to, const std::string& kind,
                  std::shared_ptr<const Bytes> payload);

  struct NodeState {
    SharedNic egress;
    SharedNic ingress;
    DeliverFn handler;
    TrafficCounters counters;

    NodeState(Simulator* sim, double bandwidth_bps)
        : egress(sim, bandwidth_bps), ingress(sim, bandwidth_bps) {}
  };

  Simulator* sim_;
  NetworkConfig config_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  // latencies_[a * n + b]
  std::vector<Duration> latencies_;
  std::map<std::string, uint64_t> bytes_by_kind_;
};

}  // namespace torsim

#endif  // SRC_SIM_NETWORK_H_
