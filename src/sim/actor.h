// Actor framework: a protocol node bound to a slot in the Network. Concrete
// protocols subclass Actor and implement Start()/OnMessage(); the Harness wires
// a vector of actors to the simulator and network.
#ifndef SRC_SIM_ACTOR_H_
#define SRC_SIM_ACTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/ids.h"
#include "src/common/logging.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace torsim {

class Actor {
 public:
  virtual ~Actor() = default;

  // Called once when the simulation starts.
  virtual void Start() {}
  // Called for every inbound message.
  virtual void OnMessage(NodeId from, const Bytes& payload) = 0;

  NodeId id() const { return id_; }
  torbase::Logger& log() { return log_; }
  const torbase::Logger& log() const { return log_; }

 protected:
  Simulator& sim() { return *sim_; }
  Network& net() { return *net_; }
  TimePoint now() const { return sim_->now(); }
  uint32_t node_count() const { return net_->node_count(); }

  // Sends to a single peer.
  void SendTo(NodeId to, std::string kind, Bytes payload);
  // Sends to every node except this one. The receivers share the one buffer,
  // so pass the frame by move (Writer::TakeBuffer) to avoid copying it.
  void SendToAllOthers(const std::string& kind, Bytes payload);

  // One-shot timer; returns an id usable with CancelTimer.
  EventId SetTimer(Duration delay, SimCallback fn);
  void CancelTimer(EventId id);

 private:
  friend class Harness;

  Simulator* sim_ = nullptr;
  Network* net_ = nullptr;
  NodeId id_ = torbase::kNoNode;
  torbase::Logger log_;
};

// Owns the simulator, network and actors for one experiment run.
class Harness {
 public:
  explicit Harness(const NetworkConfig& config);

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }

  // Installs `actor` at node index == current actor count. Returns a non-owning
  // pointer. All actors must be added before StartAll().
  Actor* AddActor(std::unique_ptr<Actor> actor);

  // Calls Start() on every actor (each via the event queue at time now()).
  void StartAll();

  // Convenience: StartAll() then run the event loop until quiescent or until
  // `deadline`.
  void RunUntil(TimePoint deadline);

 private:
  Simulator sim_;
  Network net_;
  std::vector<std::unique_ptr<Actor>> actors_;
};

}  // namespace torsim

#endif  // SRC_SIM_ACTOR_H_
