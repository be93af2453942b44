#include "integration/union_integrator.h"

#include <cstdint>
#include <gtest/gtest.h>

#include "testing/test_world.h"

namespace freshsel::integration {
namespace {

source::SourceHistory MakeSource(
    std::size_t n_entities,
    const std::vector<testing::RecordWithCaptures>& records,
    const char* name = "s") {
  source::SourceSpec spec;
  spec.name = name;
  source::SourceHistory history(spec, n_entities);
  for (const testing::RecordWithCaptures& rec : records) {
    Status status = history.AddRecord(rec.header, rec.captures);
    EXPECT_TRUE(status.ok());
  }
  return history;
}

testing::RecordWithCaptures Rec(
    world::EntityId id, TimePoint inserted, TimePoint deleted,
    std::vector<source::VersionCapture> captures) {
  source::CaptureRecord rec;
  rec.entity = id;
  rec.inserted = inserted;
  rec.deleted = deleted;
  return {rec, std::move(captures)};
}

TEST(UnionIntegratorTest, UnionOfDisjointSources) {
  source::SourceHistory a =
      MakeSource(4, {Rec(0, 0, world::kNever, {{0, 0}})}, "a");
  source::SourceHistory b =
      MakeSource(4, {Rec(1, 5, world::kNever, {{0, 5}})}, "b");
  IntegratedSnapshot snap = IntegrateAt({&a, &b}, 10);
  EXPECT_EQ(snap.references().size(), 2u);
  EXPECT_EQ(snap.PresentCount(), 2u);
}

TEST(UnionIntegratorTest, EntityNotYetMentionedIsAbsent) {
  source::SourceHistory a =
      MakeSource(4, {Rec(0, 20, world::kNever, {{0, 20}})});
  IntegratedSnapshot snap = IntegrateAt({&a}, 10);
  EXPECT_EQ(snap.references().size(), 0u);
}

TEST(UnionIntegratorTest, NewerDeletionWins) {
  // Source a still carries entity 0 (reference day 3); source b deleted it
  // at day 8 -> integration result drops it.
  source::SourceHistory a =
      MakeSource(4, {Rec(0, 3, world::kNever, {{0, 3}})}, "a");
  source::SourceHistory b = MakeSource(4, {Rec(0, 1, 8, {{0, 1}})}, "b");
  IntegratedSnapshot snap = IntegrateAt({&a, &b}, 10);
  ASSERT_EQ(snap.references().size(), 1u);
  EXPECT_FALSE(snap.references()[0].present);
  EXPECT_EQ(snap.PresentCount(), 0u);
}

TEST(UnionIntegratorTest, NewerValueBeatsOlderDeletion) {
  // b deleted at day 8, but a captured a value update at day 9: the newer
  // reference resurrects the entity (stale-source behaviour).
  source::SourceHistory a =
      MakeSource(4, {Rec(0, 2, world::kNever, {{0, 2}, {1, 9}})}, "a");
  source::SourceHistory b = MakeSource(4, {Rec(0, 1, 8, {{0, 1}})}, "b");
  IntegratedSnapshot snap = IntegrateAt({&a, &b}, 10);
  ASSERT_EQ(snap.references().size(), 1u);
  EXPECT_TRUE(snap.references()[0].present);
  EXPECT_EQ(snap.references()[0].version, 1u);
}

TEST(UnionIntegratorTest, MostRecentVersionWinsAcrossSources) {
  source::SourceHistory a =
      MakeSource(4, {Rec(0, 0, world::kNever, {{0, 0}, {1, 4}})}, "a");
  source::SourceHistory b =
      MakeSource(4, {Rec(0, 0, world::kNever, {{0, 0}, {2, 7}})}, "b");
  IntegratedSnapshot snap = IntegrateAt({&a, &b}, 10);
  ASSERT_EQ(snap.references().size(), 1u);
  EXPECT_EQ(snap.references()[0].version, 2u);
  EXPECT_EQ(snap.references()[0].reference_time, 7);
}

TEST(UnionIntegratorTest, TieBreaksPreferDeletion) {
  source::SourceHistory a =
      MakeSource(4, {Rec(0, 0, world::kNever, {{0, 0}, {1, 8}})}, "a");
  source::SourceHistory b = MakeSource(4, {Rec(0, 0, 8, {{0, 0}})}, "b");
  IntegratedSnapshot snap = IntegrateAt({&a, &b}, 10);
  ASSERT_EQ(snap.references().size(), 1u);
  EXPECT_FALSE(snap.references()[0].present);
}

TEST(UnionIntegratorTest, EmptySourceListIsEmpty) {
  IntegratedSnapshot snap = IntegrateAt({}, 10);
  EXPECT_EQ(snap.references().size(), 0u);
}

}  // namespace
}  // namespace freshsel::integration
