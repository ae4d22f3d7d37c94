#include "src/attack/ddos.h"

namespace torattack {

void ApplyAttack(torsim::Network& net, const AttackWindow& window) {
  for (torbase::NodeId target : window.targets) {
    net.LimitNode(target, window.start, window.end, window.available_bps);
  }
}

std::vector<torbase::NodeId> FirstTargets(uint32_t count) {
  std::vector<torbase::NodeId> targets;
  targets.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    targets.push_back(i);
  }
  return targets;
}

}  // namespace torattack
