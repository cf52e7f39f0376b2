// The strict parser behind every numeric TOKYONET_* environment knob
// (core/env.h).
#include "core/env.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <string>
#include <utility>

namespace tokyonet {
namespace {

constexpr const char* kVar = "TOKYONET_ENV_TEST_VALUE";

// Values every knob must reject: a negative number, a partial parse, an
// empty string and a value beyond long's range.
constexpr const char* kInvalid[] = {"-1", "4x", "", "99999999999999999999999"};

/// Sets an environment variable for one scope.
struct ScopedEnv {
  const char* name;
  ScopedEnv(const char* n, const char* value) : name(n) {
    EXPECT_EQ(::setenv(n, value, 1), 0);
  }
  ~ScopedEnv() { ::unsetenv(name); }
};

TEST(EnvInteger, UnsetReturnsFallbackSilently) {
  ::unsetenv(kVar);
  testing::internal::CaptureStderr();
  EXPECT_EQ(core::env_integer(kVar, 0, 10, 7), 7);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(EnvInteger, AcceptsWholeIntegersInRange) {
  for (const auto& [text, want] :
       {std::pair{"0", 0L}, std::pair{"3", 3L}, std::pair{"10", 10L}}) {
    const ScopedEnv env(kVar, text);
    EXPECT_EQ(core::env_integer(kVar, 0, 10, 7), want) << text;
  }
}

TEST(EnvInteger, RejectsInvalidValuesWithAWarning) {
  for (const char* text : kInvalid) {
    const ScopedEnv env(kVar, text);
    testing::internal::CaptureStderr();
    EXPECT_EQ(core::env_integer(kVar, 0, 10, 7), 7) << '"' << text << '"';
    EXPECT_NE(testing::internal::GetCapturedStderr().find(kVar),
              std::string::npos)
        << '"' << text << '"';
  }
  // Above the range is rejected too.
  const ScopedEnv env(kVar, "11");
  EXPECT_EQ(core::env_integer(kVar, 0, 10, 7), 7);
}

}  // namespace
}  // namespace tokyonet
