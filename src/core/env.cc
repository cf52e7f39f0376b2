#include "core/env.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace tokyonet::core {

long env_integer(const char* name, long lo, long hi, long fallback) noexcept {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(env, &end, 10);
  // Reject partial parses ("4x", "auto", "") and out-of-range values
  // instead of silently using a prefix or a wrapped value.
  if (end == env || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr,
                 "warning: ignoring invalid %s=%s (want an integer in "
                 "[%ld, %ld])\n",
                 name, env, lo, hi);
    return fallback;
  }
  return v;
}

}  // namespace tokyonet::core
