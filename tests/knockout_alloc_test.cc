// Bounds the memory of the paper's headline cell by an honest round's. In the
// knockout, 5 of 9 authorities are flooded to 0.5 Mbit/s for 5 minutes, and
// the fetch round queues its responses behind the victims' clamped links; a
// response that copied the votes it serves would hold megabytes per queued
// message. Large heap blocks (src/common/counting_allocator.h, one TU per
// binary) are what such copies request, so a knockout cell must request no
// more large-block bytes than an honest cell of the same protocol and size.
// Requested sizes do not depend on the allocator, so the bound is exact.
#include "src/common/counting_allocator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/attack/ddos.h"
#include "src/attack/schedule.h"
#include "src/scenario/runner.h"

namespace {

using torbase::counting_allocator::LargeBlockBytes;

torscenario::ScenarioSpec Cell(const std::string& protocol, bool knockout) {
  torscenario::ScenarioSpec spec;
  spec.protocol = protocol;
  spec.relay_count = 2000;
  spec.seed = 1;
  if (knockout) {
    torattack::AttackWindow window;
    window.targets = torattack::FirstTargets(5);
    window.start = 0;
    window.end = torbase::Minutes(5);
    window.available_bps = torattack::kUnderAttackBps;
    spec.attack = std::make_shared<torattack::WindowedAttack>(
        std::vector<torattack::AttackWindow>{window});
  }
  return spec;
}

// Large-block bytes that one run of `spec` requests.
uint64_t LargeBlockBytesOf(torscenario::ScenarioRunner& runner,
                           const torscenario::ScenarioSpec& spec) {
  const uint64_t before = LargeBlockBytes();
  runner.Run(spec);
  return LargeBlockBytes() - before;
}

TEST(KnockoutAllocTest, KnockoutRequestsNoMoreLargeBlocksThanAnHonestRound) {
  for (const std::string protocol : {"current", "synchronous", "icps"}) {
    SCOPED_TRACE(protocol);
    const torscenario::ScenarioSpec honest = Cell(protocol, false);
    const torscenario::ScenarioSpec knockout = Cell(protocol, true);
    // Memo off, so each run simulates. The first pass builds the workload
    // and interns every string the cells use; the counted pass is warm.
    torscenario::ScenarioRunner runner;
    runner.set_memoize(false);
    ASSERT_TRUE(runner.Run(honest).succeeded);
    // The paper's contrast: the flood halts the lock-step protocols only.
    ASSERT_EQ(runner.Run(knockout).succeeded, protocol == "icps");

    const uint64_t honest_bytes = LargeBlockBytesOf(runner, honest);
    const uint64_t knockout_bytes = LargeBlockBytesOf(runner, knockout);
    EXPECT_LE(knockout_bytes, honest_bytes)
        << "bytes requested in blocks of at least "
        << torbase::counting_allocator::kLargeBlockBytes << " bytes";
  }
}

}  // namespace
