#include "fault/failpoint.h"

#include <cstdint>
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "common/status.h"

namespace freshsel::fault {
namespace {

// Each test uses its own failpoint names: the registry is process-wide and
// registrations are permanent, so sharing names across tests would leak
// trigger state between them.

TEST(FailpointTest, UnarmedNeverFiresAndCountsNothing) {
  Failpoint& point = FailpointRegistry::Global().Get("t.unarmed");
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(point.ShouldFail());
  EXPECT_EQ(point.hits(), 0u);  // Unarmed hits are not accounted.
  EXPECT_EQ(point.fires(), 0u);
}

TEST(FailpointTest, GetReturnsStableReference) {
  Failpoint& a = FailpointRegistry::Global().Get("t.stable");
  Failpoint& b = FailpointRegistry::Global().Get("t.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.name(), "t.stable");
  EXPECT_EQ(FailpointRegistry::Global().Lookup("t.stable"), &a);
  EXPECT_EQ(FailpointRegistry::Global().Lookup("t.never-created"), nullptr);
}

TEST(FailpointTest, AlwaysFiresEveryHit) {
  Failpoint& point = FailpointRegistry::Global().Get("t.always");
  point.Arm(TriggerSpec::Always());
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(point.ShouldFail());
  EXPECT_EQ(point.hits(), 5u);
  EXPECT_EQ(point.fires(), 5u);
  point.Disarm();
  EXPECT_FALSE(point.ShouldFail());
}

TEST(FailpointTest, OneShotFiresOnceThenDisarms) {
  Failpoint& point = FailpointRegistry::Global().Get("t.once");
  point.Arm(TriggerSpec::OneShot());
  EXPECT_TRUE(point.ShouldFail());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(point.ShouldFail());
  EXPECT_EQ(point.fires(), 1u);
  EXPECT_EQ(point.hits(), 1u);  // Post-fire hits are unarmed, not counted.
}

TEST(FailpointTest, EveryNthPassesThenFires) {
  Failpoint& point = FailpointRegistry::Global().Get("t.nth");
  point.Arm(TriggerSpec::EveryNth(3));
  std::vector<bool> pattern;
  for (int i = 0; i < 9; ++i) pattern.push_back(point.ShouldFail());
  EXPECT_EQ(pattern, (std::vector<bool>{false, false, true, false, false,
                                        true, false, false, true}));
  EXPECT_EQ(point.hits(), 9u);
  EXPECT_EQ(point.fires(), 3u);
}

TEST(FailpointTest, EveryFirstIsAlways) {
  Failpoint& point = FailpointRegistry::Global().Get("t.nth1");
  point.Arm(TriggerSpec::EveryNth(1));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(point.ShouldFail());
}

TEST(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  Failpoint& point = FailpointRegistry::Global().Get("t.prob");
  auto draw_pattern = [&point](std::uint64_t seed) {
    point.Arm(TriggerSpec::Probability(0.5, seed));
    std::vector<bool> pattern;
    for (int i = 0; i < 64; ++i) pattern.push_back(point.ShouldFail());
    return pattern;
  };
  const std::vector<bool> first = draw_pattern(11);
  const std::vector<bool> replay = draw_pattern(11);
  EXPECT_EQ(first, replay);  // Re-arming restarts the private Rng stream.
  EXPECT_NE(first, draw_pattern(12));  // Another seed, another pattern.
  int fires = 0;
  for (bool b : first) fires += b ? 1 : 0;
  EXPECT_GT(fires, 10);  // p=0.5 over 64 draws: loose sanity bounds.
  EXPECT_LT(fires, 54);
}

TEST(FailpointTest, ProbabilityExtremes) {
  Failpoint& point = FailpointRegistry::Global().Get("t.prob-extreme");
  point.Arm(TriggerSpec::Probability(0.0, 1));
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(point.ShouldFail());
  point.Arm(TriggerSpec::Probability(1.0, 1));
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(point.ShouldFail());
}

TEST(FailpointTest, RearmingResetsAccounting) {
  Failpoint& point = FailpointRegistry::Global().Get("t.rearm");
  point.Arm(TriggerSpec::Always());
  point.ShouldFail();
  point.ShouldFail();
  EXPECT_EQ(point.fires(), 2u);
  point.Arm(TriggerSpec::EveryNth(2));
  EXPECT_EQ(point.hits(), 0u);
  EXPECT_EQ(point.fires(), 0u);
  EXPECT_FALSE(point.ShouldFail());
  EXPECT_TRUE(point.ShouldFail());
}

TEST(FailpointTest, ArmWithDisarmedSpecDisarms) {
  Failpoint& point = FailpointRegistry::Global().Get("t.arm-disarm");
  point.Arm(TriggerSpec::Always());
  point.Arm(TriggerSpec{});
  EXPECT_FALSE(point.ShouldFail());
}

TEST(FailpointTest, StateSnapshotsSpec) {
  Failpoint& point = FailpointRegistry::Global().Get("t.state");
  point.Arm(TriggerSpec::EveryNth(4));
  point.ShouldFail();
  const Failpoint::State state = point.state();
  EXPECT_EQ(state.spec.mode, TriggerMode::kEveryNth);
  EXPECT_EQ(state.spec.every_nth, 4u);
  EXPECT_EQ(state.hits, 1u);
  EXPECT_EQ(state.fires, 0u);
}

TEST(FailpointTest, ConcurrentHitsAreFullyAccounted) {
  Failpoint& point = FailpointRegistry::Global().Get("t.concurrent");
  point.Arm(TriggerSpec::EveryNth(2));
  constexpr int kThreads = 8;
  constexpr int kHitsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&point]() {
      for (int j = 0; j < kHitsPerThread; ++j) point.ShouldFail();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(point.hits(), static_cast<std::uint64_t>(kThreads) *
                              kHitsPerThread);
  EXPECT_EQ(point.fires(), point.hits() / 2);
}

TEST(FailpointRegistryTest, ArmFromSpecGrammar) {
  FailpointRegistry registry;
  ASSERT_TRUE(registry
                  .ArmFromSpec("a.read=always; b.write=nth:3,"
                               "c.learn = prob:0.25:7 ;; d.x=once")
                  .ok());
  EXPECT_EQ(registry.Lookup("a.read")->state().spec.mode,
            TriggerMode::kAlways);
  EXPECT_EQ(registry.Lookup("b.write")->state().spec.every_nth, 3u);
  const TriggerSpec prob = registry.Lookup("c.learn")->state().spec;
  EXPECT_EQ(prob.mode, TriggerMode::kProbability);
  EXPECT_DOUBLE_EQ(prob.probability, 0.25);
  EXPECT_EQ(prob.seed, 7u);
  EXPECT_EQ(registry.Lookup("d.x")->state().spec.mode, TriggerMode::kOneShot);
}

TEST(FailpointRegistryTest, ArmFromSpecOffDisarms) {
  FailpointRegistry registry;
  ASSERT_TRUE(registry.ArmFromSpec("p=always").ok());
  EXPECT_TRUE(registry.Lookup("p")->ShouldFail());
  ASSERT_TRUE(registry.ArmFromSpec("p=off").ok());
  EXPECT_FALSE(registry.Lookup("p")->ShouldFail());
}

TEST(FailpointRegistryTest, BadSpecsRejectedWithoutPartialArming) {
  FailpointRegistry registry;
  // The first clause is valid, the second is not: nothing may be armed.
  EXPECT_EQ(registry.ArmFromSpec("good=always;bad=wat").code(),
            StatusCode::kInvalidArgument);
  Failpoint* good = registry.Lookup("good");
  EXPECT_TRUE(good == nullptr || !good->ShouldFail());

  EXPECT_FALSE(registry.ArmFromSpec("=always").ok());
  EXPECT_FALSE(registry.ArmFromSpec("name=").ok());
  EXPECT_FALSE(registry.ArmFromSpec("name").ok());
  EXPECT_FALSE(registry.ArmFromSpec("n=nth").ok());
  EXPECT_FALSE(registry.ArmFromSpec("n=nth:0").ok());
  EXPECT_FALSE(registry.ArmFromSpec("n=nth:abc").ok());
  EXPECT_FALSE(registry.ArmFromSpec("n=prob").ok());
  EXPECT_FALSE(registry.ArmFromSpec("n=prob:1.5").ok());
  EXPECT_FALSE(registry.ArmFromSpec("n=prob:0.5:x").ok());
  EXPECT_FALSE(registry.ArmFromSpec("n=always:1").ok());
  EXPECT_FALSE(registry.ArmFromSpec("n=off:1").ok());
}

TEST(FailpointRegistryTest, EmptySpecIsNoOp) {
  FailpointRegistry registry;
  EXPECT_TRUE(registry.ArmFromSpec("").ok());
  EXPECT_TRUE(registry.ArmFromSpec(" ; , ").ok());
  EXPECT_TRUE(registry.Snapshot().empty());
}

TEST(FailpointRegistryTest, SnapshotSortedAndTotalFires) {
  FailpointRegistry registry;
  ASSERT_TRUE(registry.ArmFromSpec("zz=always;aa=always").ok());
  registry.Get("zz").ShouldFail();
  registry.Get("zz").ShouldFail();
  registry.Get("aa").ShouldFail();
  const std::vector<FailpointRegistry::Entry> entries = registry.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "aa");
  EXPECT_EQ(entries[1].name, "zz");
  EXPECT_EQ(entries[0].state.fires, 1u);
  EXPECT_EQ(entries[1].state.fires, 2u);
  EXPECT_EQ(registry.TotalFires(), 3u);
}

TEST(FailpointRegistryTest, DisarmAllStopsEveryPoint) {
  FailpointRegistry registry;
  ASSERT_TRUE(registry.ArmFromSpec("x=always;y=nth:1").ok());
  registry.DisarmAll();
  EXPECT_FALSE(registry.Get("x").ShouldFail());
  EXPECT_FALSE(registry.Get("y").ShouldFail());
}

TEST(FailpointRegistryTest, ArmFromEnvReadsVariable) {
  ASSERT_EQ(setenv("FRESHSEL_FAILPOINTS", "env.point=nth:2", 1), 0);
  FailpointRegistry registry;
  ASSERT_TRUE(registry.ArmFromEnv().ok());
  EXPECT_FALSE(registry.Get("env.point").ShouldFail());
  EXPECT_TRUE(registry.Get("env.point").ShouldFail());
  ASSERT_EQ(unsetenv("FRESHSEL_FAILPOINTS"), 0);
  FailpointRegistry unset_registry;
  EXPECT_TRUE(unset_registry.ArmFromEnv().ok());
  EXPECT_TRUE(unset_registry.Snapshot().empty());
}

TEST(FailpointRegistryTest, TriggerModeNames) {
  EXPECT_EQ(TriggerModeName(TriggerMode::kDisarmed), "disarmed");
  EXPECT_EQ(TriggerModeName(TriggerMode::kAlways), "always");
  EXPECT_EQ(TriggerModeName(TriggerMode::kOneShot), "once");
  EXPECT_EQ(TriggerModeName(TriggerMode::kEveryNth), "nth");
  EXPECT_EQ(TriggerModeName(TriggerMode::kProbability), "prob");
}

Status GuardedOperation() {
  FRESHSEL_FAILPOINT_RETURN("t.macro.return",
                            Status::Unavailable("injected"));
  return Status::OK();
}

TEST(FailpointMacroTest, FailpointReturnInjectsWhenArmed) {
  EXPECT_TRUE(GuardedOperation().ok());  // Registers the point, disarmed.
  Failpoint* point = FailpointRegistry::Global().Lookup("t.macro.return");
  ASSERT_NE(point, nullptr);
  point->Arm(TriggerSpec::EveryNth(2));
  EXPECT_TRUE(GuardedOperation().ok());
  const Status injected = GuardedOperation();
  EXPECT_EQ(injected.code(), StatusCode::kUnavailable);
  point->Disarm();
  EXPECT_TRUE(GuardedOperation().ok());
}

TEST(FailpointMacroTest, PlainFailpointCountsHits) {
  auto touch = []() { FRESHSEL_FAILPOINT("t.macro.touch"); };
  touch();
  Failpoint* point = FailpointRegistry::Global().Lookup("t.macro.touch");
  ASSERT_NE(point, nullptr);
  point->Arm(TriggerSpec::Always());
  touch();
  touch();
  EXPECT_EQ(point->hits(), 2u);
  EXPECT_EQ(point->fires(), 2u);
  point->Disarm();
}

}  // namespace
}  // namespace freshsel::fault
