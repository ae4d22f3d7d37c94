#include "src/sim/actor.h"

#include <cassert>
#include <utility>

namespace torsim {

void Actor::SendTo(NodeId to, std::string kind, Frame payload) {
  net_->Send(id_, to, std::move(kind), std::move(payload));
}

void Actor::SendToAllOthers(const std::string& kind, Frame payload) {
  net_->Broadcast(id_, kind, std::move(payload));
}

EventId Actor::SetTimer(Duration delay, SimCallback fn) {
  return sim_->ScheduleAfter(delay, std::move(fn));
}

void Actor::CancelTimer(EventId id) { sim_->Cancel(id); }

Harness::Harness(const NetworkConfig& config) : net_(&sim_, config) {}

Actor* Harness::AddActor(std::unique_ptr<Actor> actor) {
  assert(actors_.size() < net_.node_count() && "more actors than network slots");
  const NodeId id = static_cast<NodeId>(actors_.size());
  actor->sim_ = &sim_;
  actor->net_ = &net_;
  actor->id_ = id;
  Actor* raw = actor.get();
  net_.SetHandler(id, [raw](NodeId from, const Frame& payload) { raw->OnMessage(from, payload); });
  actors_.push_back(std::move(actor));
  return raw;
}

void Harness::StartAll() {
  for (auto& actor : actors_) {
    Actor* raw = actor.get();
    sim_.ScheduleAfter(0, [raw]() { raw->Start(); });
  }
}

void Harness::RunUntil(TimePoint deadline) {
  StartAll();
  sim_.RunUntil(deadline);
}

}  // namespace torsim
