#pragma once

#include <stdexcept>
#include <string>

namespace dpipe::detail {

/// Throws std::invalid_argument("src/file:line: message"). Out of line and
/// cold, so a check site inlines only its test and a call.
[[noreturn, gnu::cold, gnu::noinline]] void throw_require(
    const char* file, int line, const std::string& message);

/// Throws std::logic_error("src/file:line: message").
[[noreturn, gnu::cold, gnu::noinline]] void throw_ensure(
    const char* file, int line, const std::string& message);

}  // namespace dpipe::detail

/// Precondition check: throws std::invalid_argument prefixed with the
/// check's src/file:line when `cond` is false. Use for argument validation
/// on public API boundaries. `cond` is evaluated exactly once; `msg` (a
/// literal or any expression convertible to std::string) is evaluated only
/// when the check fails, so a passing check builds no string.
#define DPIPE_REQUIRE(cond, msg)                                      \
  do {                                                                \
    if (!static_cast<bool>(cond)) [[unlikely]] {                      \
      ::dpipe::detail::throw_require(__FILE__, __LINE__, (msg));      \
    }                                                                 \
  } while (false)

/// Invariant check ("this cannot happen unless the library itself is
/// buggy"): throws std::logic_error prefixed with src/file:line. Same
/// evaluation rules as DPIPE_REQUIRE.
#define DPIPE_ENSURE(cond, msg)                                       \
  do {                                                                \
    if (!static_cast<bool>(cond)) [[unlikely]] {                      \
      ::dpipe::detail::throw_ensure(__FILE__, __LINE__, (msg));       \
    }                                                                 \
  } while (false)
