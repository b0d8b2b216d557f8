#include "util/logging.h"

#include <gtest/gtest.h>

namespace hsr::util {
namespace {

TEST(CheckTest, PassingCheckIsSilent) {
  HSR_CHECK(1 + 1 == 2);
  HSR_CHECK_MSG(true, "never shown");
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH({ HSR_CHECK(false); }, "CHECK failed");
  EXPECT_DEATH({ HSR_CHECK_MSG(false, "ctx"); }, "ctx");
}

}  // namespace
}  // namespace hsr::util
