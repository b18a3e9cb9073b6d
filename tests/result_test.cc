// Result<T>: value access, errors, and moving the value out of an rvalue.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "support/result.h"

namespace lfi {
namespace {

Result<std::unique_ptr<int>> MakeBox(int v) {
  return std::make_unique<int>(v);
}

TEST(Result, DereferencingAnRvalueMovesTheValueOut) {
  // A move-only T: `*std::move(r)` must bind the rvalue overload, or this
  // does not compile.
  auto r = MakeBox(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> box = *std::move(r);
  ASSERT_NE(box, nullptr);
  EXPECT_EQ(*box, 7);
  std::unique_ptr<int> direct = *MakeBox(8);
  EXPECT_EQ(*direct, 8);
}

TEST(Result, DereferencingAnRvalueDoesNotCopy) {
  Result<std::vector<int>> r = std::vector<int>(1000, 1);
  const int* data = r->data();
  std::vector<int> v = *std::move(r);
  EXPECT_EQ(v.data(), data);  // the buffer moved, it was not copied
}

TEST(Result, LvalueAccessAndErrors) {
  Result<std::string> ok = std::string("abc");
  EXPECT_TRUE(ok);
  EXPECT_EQ(*ok, "abc");
  EXPECT_EQ(ok->size(), 3u);
  Result<std::string> bad = Error{"boom"};
  EXPECT_FALSE(bad);
  EXPECT_EQ(bad.error(), "boom");
}

}  // namespace
}  // namespace lfi
