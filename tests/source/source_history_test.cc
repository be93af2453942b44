#include "source/source_history.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "testing/test_world.h"
#include "workloads/bl_generator.h"

namespace freshsel::source {
namespace {

TEST(CaptureRecordTest, ContainsAt) {
  CaptureRecord rec;
  rec.inserted = 5;
  rec.deleted = 20;
  EXPECT_FALSE(rec.ContainsAt(4));
  EXPECT_TRUE(rec.ContainsAt(5));
  EXPECT_TRUE(rec.ContainsAt(19));
  EXPECT_FALSE(rec.ContainsAt(20));
}

TEST(CaptureRecordTest, KnownVersionAtTakesMaxCaptured) {
  const std::vector<VersionCapture> captures = {
      {0, 0}, {2, 10}, {1, 15}};  // v1 arrives late.
  EXPECT_EQ(KnownVersionAt(CaptureRange(captures), 5), 0u);
  EXPECT_EQ(KnownVersionAt(CaptureRange(captures), 10), 2u);
  // Late v1 does not downgrade.
  EXPECT_EQ(KnownVersionAt(CaptureRange(captures), 20), 2u);
}

TEST(SourceHistoryTest, AddAndFind) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w);
  EXPECT_EQ(history.records().size(), 3u);
  EXPECT_NE(history.Find(0), nullptr);
  EXPECT_NE(history.Find(1), nullptr);
  EXPECT_EQ(history.Find(3), nullptr);
  EXPECT_EQ(history.Find(999), nullptr);
}

TEST(SourceHistoryTest, RejectsDuplicatesAndOutOfRange) {
  SourceSpec spec;
  spec.name = "s";
  SourceHistory history(spec, 3);
  CaptureRecord rec;
  rec.entity = 1;
  rec.inserted = 0;
  EXPECT_TRUE(history.AddRecord(rec, {{0, 0}}).ok());
  EXPECT_FALSE(history.AddRecord(rec, {{0, 0}}).ok());  // Duplicate.
  CaptureRecord out_of_range;
  out_of_range.entity = 10;
  out_of_range.inserted = 0;
  EXPECT_FALSE(history.AddRecord(out_of_range, {{0, 0}}).ok());
}

TEST(SourceHistoryTest, SkipsNeverInsertedRecords) {
  SourceSpec spec;
  SourceHistory history(spec, 3);
  CaptureRecord rec;
  rec.entity = 0;
  rec.inserted = world::kNever;
  EXPECT_TRUE(history.AddRecord(rec, {{0, 4}}).ok());
  EXPECT_EQ(history.records().size(), 0u);
  EXPECT_EQ(history.Find(0), nullptr);
}

TEST(SourceHistoryTest, ContentCountAt) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w);
  EXPECT_EQ(history.ContentCountAt(0), 1);   // Entity 1 from day 0.
  EXPECT_EQ(history.ContentCountAt(2), 2);   // + entity 0.
  EXPECT_EQ(history.ContentCountAt(10), 3);  // + entity 2 (day 8).
  EXPECT_EQ(history.ContentCountAt(60), 2);  // Entity 0 deleted at 55.
}

TEST(SourceHistoryTest, WithAcquisitionDivisorAlignsCaptures) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w, /*period=*/1);
  SourceHistory slower = history.WithAcquisitionDivisor(10);
  EXPECT_EQ(slower.schedule().period, 10);

  // Entity 0's v1 capture at day 12 realigns to day 20.
  const CaptureRecord* rec = slower.Find(0);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(KnownVersionAt(slower.captures(*rec), 19), 0u);
  EXPECT_EQ(KnownVersionAt(slower.captures(*rec), 20), 1u);
  // Deletion at 55 realigns to 60.
  EXPECT_TRUE(rec->ContainsAt(59));
  EXPECT_FALSE(rec->ContainsAt(60));
}

TEST(SourceHistoryTest, DivisorNeverAcceleratesCaptures) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w);
  SourceHistory slower = history.WithAcquisitionDivisor(7);
  for (const CaptureRecord& rec : history.records()) {
    const CaptureRecord* slow = slower.Find(rec.entity);
    if (slow == nullptr) continue;  // Dropped entirely: fine.
    EXPECT_GE(slow->inserted, rec.inserted);
    if (rec.deleted != world::kNever && slow->deleted != world::kNever) {
      EXPECT_GE(slow->deleted, rec.deleted);
    }
  }
}

TEST(SourceHistoryTest, DivisorDropsCapturesAfterDeletion) {
  // Build a record where realignment pushes an update past the deletion.
  SourceSpec spec;
  spec.schedule.period = 1;
  SourceHistory history(spec, 1);
  CaptureRecord rec;
  rec.entity = 0;
  rec.inserted = 0;
  rec.deleted = 12;
  ASSERT_TRUE(history.AddRecord(rec, {{0, 0}, {1, 11}}).ok());
  // Divisor 10: acquisition days 0, 10, 20. v1 at 11 -> 20, delete 12 -> 20.
  SourceHistory slower = history.WithAcquisitionDivisor(10);
  const CaptureRecord* slow = slower.Find(0);
  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slower.captures(*slow).size(), 1u);  // v1 dropped.
  EXPECT_EQ(slow->deleted, 20);
}

TEST(SourceHistoryTest, RestrictedToFiltersBySubdomain) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w);
  // Scope of the test source is {0, 1}; entities 0, 1 live in sub 0 and
  // entity 2 in sub 1.
  SourceHistory slice = history.RestrictedTo({0}, "-slice");
  EXPECT_EQ(slice.records().size(), 2u);
  EXPECT_NE(slice.Find(0), nullptr);
  EXPECT_NE(slice.Find(1), nullptr);
  EXPECT_EQ(slice.Find(2), nullptr);
  EXPECT_EQ(slice.spec().scope, (std::vector<world::SubdomainId>{0}));
  EXPECT_EQ(slice.name(), "test-source-slice");
}

TEST(SourceHistoryTest, RestrictedToDisjointSubdomainsIsEmpty) {
  world::World w = testing::MakeTestWorld();
  SourceHistory history = testing::MakeTestSource(w);
  SourceHistory slice = history.RestrictedTo({2, 3}, "-x");
  EXPECT_EQ(slice.records().size(), 0u);
  EXPECT_TRUE(slice.spec().scope.empty());
}

using Captures = std::vector<VersionCapture>;
using testing::CapturesOf;

/// Every record of `got` equals the record of `want` at the same index,
/// header and captures alike.
void ExpectSameRecords(const SourceHistory& got, const SourceHistory& want) {
  ASSERT_EQ(got.records().size(), want.records().size());
  for (std::size_t i = 0; i < want.records().size(); ++i) {
    const CaptureRecord& a = got.records()[i];
    const CaptureRecord& b = want.records()[i];
    EXPECT_EQ(a.entity, b.entity) << "record " << i;
    EXPECT_EQ(a.subdomain, b.subdomain) << "record " << i;
    EXPECT_EQ(a.inserted, b.inserted) << "record " << i;
    EXPECT_EQ(a.deleted, b.deleted) << "record " << i;
    EXPECT_EQ(CapturesOf(got, a), CapturesOf(want, b)) << "record " << i;
    EXPECT_EQ(got.Find(a.entity), &a) << "record " << i;
  }
}

TEST(SourceHistoryTest, DerivedHistoriesKeepTheParentsCaptures) {
  workloads::BlConfig config;
  config.scale = 0.3;
  config.locations = 5;
  config.categories = 2;
  const workloads::Scenario scenario =
      workloads::GenerateBlScenario(config).value();
  for (const SourceHistory& parent : scenario.sources) {
    SCOPED_TRACE(parent.name());
    ASSERT_FALSE(parent.records().empty());

    SourceHistory copy = parent;
    ExpectSameRecords(copy, parent);
    const SourceHistory moved = std::move(copy);
    ExpectSameRecords(moved, parent);

    // Every other subdomain of the scope: each kept record carries the
    // parent's captures unchanged.
    std::vector<world::SubdomainId> half;
    for (std::size_t i = 0; i < parent.spec().scope.size(); i += 2) {
      half.push_back(parent.spec().scope[i]);
    }
    const SourceHistory slice = parent.RestrictedTo(half, "-half");
    std::size_t kept = 0;
    for (const CaptureRecord& rec : parent.records()) {
      const CaptureRecord* got = slice.Find(rec.entity);
      if (std::find(half.begin(), half.end(), rec.subdomain) == half.end()) {
        EXPECT_EQ(got, nullptr);
        continue;
      }
      ASSERT_NE(got, nullptr);
      ++kept;
      EXPECT_EQ(got->subdomain, rec.subdomain);
      EXPECT_EQ(got->inserted, rec.inserted);
      EXPECT_EQ(got->deleted, rec.deleted);
      EXPECT_EQ(CapturesOf(slice, *got), CapturesOf(parent, rec));
    }
    EXPECT_EQ(slice.records().size(), kept);

    // Re-aligned to a coarser schedule: each capture day moves to the next
    // acquisition, captures at or past the deletion drop, and the rest are
    // ordered by day exactly as the realignment orders them.
    for (const std::int64_t divisor : {1, 3, 7}) {
      SCOPED_TRACE("divisor " + std::to_string(divisor));
      const SourceHistory slower = parent.WithAcquisitionDivisor(divisor);
      const UpdateSchedule acq = parent.schedule().WithDivisor(divisor);
      auto realign = [&](TimePoint day) {
        return day == world::kNever ? world::kNever
                                    : acq.NextUpdateAtOrAfter(day);
      };
      std::size_t acquired = 0;
      for (const CaptureRecord& rec : parent.records()) {
        const TimePoint deleted = realign(rec.deleted);
        Captures want;
        for (const auto& [version, day] : CapturesOf(parent, rec)) {
          const TimePoint new_day = realign(day);
          if (new_day < deleted) want.emplace_back(version, new_day);
        }
        std::sort(want.begin(), want.end(),
                  [](const auto& a, const auto& b) {
                    return a.second < b.second;
                  });
        const CaptureRecord* got = slower.Find(rec.entity);
        if (want.empty()) {
          EXPECT_EQ(got, nullptr);
          continue;
        }
        ASSERT_NE(got, nullptr);
        ++acquired;
        EXPECT_EQ(got->inserted, want.front().second);
        EXPECT_EQ(got->deleted, deleted);
        EXPECT_EQ(CapturesOf(slower, *got), want);
      }
      EXPECT_EQ(slower.records().size(), acquired);
    }
  }
}

}  // namespace
}  // namespace freshsel::source
