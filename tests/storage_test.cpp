/// Tests for the storage substrate's value types. Base columns live in the
/// engine's column registry; their schema checks are tested in
/// database_test (DatabaseSchema.*).

#include <gtest/gtest.h>

#include "storage/types.h"

namespace holix {
namespace {

TEST(Types, SizesAndNames) {
  EXPECT_STREQ(ValueTypeName(ValueType::kInt64), "int64");
  EXPECT_EQ(ValueTypeOf<int32_t>::value, ValueType::kInt32);
  EXPECT_EQ(ValueTypeOf<double>::value, ValueType::kDouble);
}

}  // namespace
}  // namespace holix
