#include "world/world.h"

#include <cstdint>
#include <gtest/gtest.h>

#include "testing/test_world.h"

namespace freshsel::world {
namespace {

TEST(EntityRecordTest, ExistsAt) {
  EntityRecord rec;
  rec.birth = 10;
  rec.death = 20;
  EXPECT_FALSE(rec.ExistsAt(9));
  EXPECT_TRUE(rec.ExistsAt(10));
  EXPECT_TRUE(rec.ExistsAt(19));
  EXPECT_FALSE(rec.ExistsAt(20));  // Death day: gone.

  rec.death = kNever;
  EXPECT_TRUE(rec.ExistsAt(1000000));
}

TEST(EntityRecordTest, VersionAt) {
  EntityRecord rec;
  rec.birth = 0;
  rec.update_times = {10, 30};
  EXPECT_EQ(rec.VersionAt(5), 0u);
  EXPECT_EQ(rec.VersionAt(10), 1u);
  EXPECT_EQ(rec.VersionAt(29), 1u);
  EXPECT_EQ(rec.VersionAt(30), 2u);
  EXPECT_EQ(rec.VersionAt(100), 2u);
}

TEST(EntityRecordTest, LatestChangeAt) {
  EntityRecord rec;
  rec.birth = 5;
  rec.update_times = {10, 30};
  EXPECT_EQ(rec.LatestChangeAt(7), 5);
  EXPECT_EQ(rec.LatestChangeAt(10), 10);
  EXPECT_EQ(rec.LatestChangeAt(29), 10);
  EXPECT_EQ(rec.LatestChangeAt(50), 30);
}

TEST(WorldTest, AddEntityValidation) {
  DataDomain domain = DataDomain::Create("a", 1, "b", 1).value();
  World w(std::move(domain), 100);

  EntityRecord wrong_id;
  wrong_id.id = 5;  // Must be 0.
  EXPECT_FALSE(w.AddEntity(wrong_id).ok());

  EntityRecord bad_sub;
  bad_sub.id = 0;
  bad_sub.subdomain = 9;
  EXPECT_FALSE(w.AddEntity(bad_sub).ok());

  EntityRecord death_before_birth;
  death_before_birth.id = 0;
  death_before_birth.birth = 10;
  death_before_birth.death = 10;
  EXPECT_FALSE(w.AddEntity(death_before_birth).ok());

  EntityRecord update_before_birth;
  update_before_birth.id = 0;
  update_before_birth.birth = 10;
  update_before_birth.update_times = {10};
  EXPECT_FALSE(w.AddEntity(update_before_birth).ok());

  EntityRecord update_after_death;
  update_after_death.id = 0;
  update_after_death.birth = 0;
  update_after_death.death = 5;
  update_after_death.update_times = {5};
  EXPECT_FALSE(w.AddEntity(update_after_death).ok());

  EntityRecord non_monotone;
  non_monotone.id = 0;
  non_monotone.birth = 0;
  non_monotone.update_times = {5, 5};
  EXPECT_FALSE(w.AddEntity(non_monotone).ok());

  EntityRecord good;
  good.id = 0;
  good.birth = 0;
  good.death = 50;
  good.update_times = {10, 20};
  EXPECT_TRUE(w.AddEntity(good).ok());
}

TEST(WorldTest, AddAfterFinalizeFails) {
  DataDomain domain = DataDomain::Create("a", 1, "b", 1).value();
  World w(std::move(domain), 10);
  ASSERT_TRUE(w.Finalize().ok());
  EntityRecord rec;
  rec.id = 0;
  EXPECT_FALSE(w.AddEntity(rec).ok());
}

TEST(WorldTest, CountsMatchBruteForce) {
  World w = testing::MakeTestWorld();
  for (TimePoint t = 0; t <= 100; t += 5) {
    std::int64_t expected_total = 0;
    std::vector<std::int64_t> expected_sub(4, 0);
    for (const EntityRecord& e : w.entities()) {
      if (e.ExistsAt(t)) {
        ++expected_total;
        ++expected_sub[e.subdomain];
      }
    }
    EXPECT_EQ(w.TotalCountAt(t), expected_total) << "t=" << t;
    for (SubdomainId sub = 0; sub < 4; ++sub) {
      EXPECT_EQ(w.CountAt(sub, t), expected_sub[sub])
          << "t=" << t << " sub=" << sub;
    }
  }
}

TEST(WorldTest, CountAtInSumsSubdomains) {
  World w = testing::MakeTestWorld();
  EXPECT_EQ(w.CountAtIn({0, 1}, 10), w.CountAt(0, 10) + w.CountAt(1, 10));
  EXPECT_EQ(w.CountAtIn({0, 1, 2, 3}, 30), w.TotalCountAt(30));
}

TEST(WorldTest, CountQueriesClampOutsideHorizon) {
  World w = testing::MakeTestWorld();
  EXPECT_EQ(w.TotalCountAt(-5), w.TotalCountAt(0));
  EXPECT_EQ(w.TotalCountAt(1000), w.TotalCountAt(100));
}

TEST(WorldTest, EntitiesInSubdomain) {
  World w = testing::MakeTestWorld();
  EXPECT_EQ(w.EntitiesInSubdomain(0),
            (std::vector<EntityId>{0, 1, 5}));
  EXPECT_EQ(w.EntitiesInSubdomain(1), (std::vector<EntityId>{2}));
  EXPECT_EQ(w.EntitiesInSubdomain(3), (std::vector<EntityId>{4}));
}

TEST(WorldTest, FinalizeIsIdempotent) {
  World w = testing::MakeTestWorld();
  const std::int64_t before = w.TotalCountAt(10);
  ASSERT_TRUE(w.Finalize().ok());
  EXPECT_EQ(w.TotalCountAt(10), before);
}

}  // namespace
}  // namespace freshsel::world
