#include "core/categories.hpp"

#include <gtest/gtest.h>

#include <set>

namespace mosaic::core {
namespace {

TEST(CategoryNames, AllUniqueAndRoundTrip) {
  std::set<std::string_view> seen;
  for (const Category category : all_categories()) {
    const std::string_view name = category_name(category);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    const auto back = category_from_name(name);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, category);
  }
  EXPECT_EQ(seen.size(), kCategoryCount);
}

TEST(CategoryNames, PaperTableOneLabelsPresent) {
  // Every label family from Table I must exist in the flat space.
  for (const char* name :
       {"read_on_start", "write_on_end", "read_after_start_before_end",
        "write_steady", "read_insignificant", "write_periodic",
        "write_periodic_minute", "write_periodic_hour",
        "read_periodic_day_or_more", "write_periodic_low_busy_time",
        "metadata_high_spike", "metadata_multiple_spikes",
        "metadata_high_density", "metadata_insignificant_load"}) {
    EXPECT_TRUE(category_from_name(name).has_value()) << name;
  }
}

TEST(CategoryFromName, UnknownIsNullopt) {
  EXPECT_FALSE(category_from_name("not_a_category").has_value());
  EXPECT_FALSE(category_from_name("").has_value());
}

TEST(CategoryAxisOf, ThreeAxes) {
  EXPECT_EQ(category_axis(Category::kReadOnStart), CategoryAxis::kTemporality);
  EXPECT_EQ(category_axis(Category::kWriteUnclassified),
            CategoryAxis::kTemporality);
  EXPECT_EQ(category_axis(Category::kReadPeriodic), CategoryAxis::kPeriodicity);
  EXPECT_EQ(category_axis(Category::kWritePeriodicHighBusyTime),
            CategoryAxis::kPeriodicity);
  EXPECT_EQ(category_axis(Category::kMetadataHighSpike),
            CategoryAxis::kMetadata);
  EXPECT_EQ(category_axis(Category::kMetadataInsignificantLoad),
            CategoryAxis::kMetadata);
}

TEST(CategorySet, InsertEraseContains) {
  CategorySet set;
  EXPECT_TRUE(set.empty());
  set.insert(Category::kReadOnStart);
  set.insert(Category::kWriteOnEnd);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(Category::kReadOnStart));
  EXPECT_FALSE(set.contains(Category::kWriteSteady));
  set.erase(Category::kReadOnStart);
  EXPECT_FALSE(set.contains(Category::kReadOnStart));
  EXPECT_EQ(set.size(), 1u);
}

TEST(CategorySet, InsertIsIdempotent) {
  CategorySet set;
  set.insert(Category::kWritePeriodic);
  set.insert(Category::kWritePeriodic);
  EXPECT_EQ(set.size(), 1u);
}

TEST(CategorySet, EqualityAndRaw) {
  CategorySet a;
  a.insert(Category::kReadSteady);
  CategorySet b;
  b.insert(Category::kReadSteady);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.raw(), b.raw());
  b.insert(Category::kWriteSteady);
  EXPECT_NE(a, b);
}

TEST(CategorySet, ToVectorInEnumOrder) {
  CategorySet set;
  set.insert(Category::kMetadataHighSpike);
  set.insert(Category::kReadOnStart);
  const auto members = set.to_vector();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0], Category::kReadOnStart);
  EXPECT_EQ(members[1], Category::kMetadataHighSpike);
}

TEST(CategorySet, NamesMatchMembers) {
  CategorySet set;
  set.insert(Category::kWritePeriodicMinute);
  set.insert(Category::kReadInsignificant);
  const auto names = set.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "read_insignificant");
  EXPECT_EQ(names[1], "write_periodic_minute");
}

TEST(AllCategories, CountMatches) {
  EXPECT_EQ(all_categories().size(), kCategoryCount);
}

}  // namespace
}  // namespace mosaic::core
