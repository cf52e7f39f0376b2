// Strict parsing for the numeric TOKYONET_* environment knobs
// (TOKYONET_THREADS), so every knob follows one rule.
#pragma once

namespace tokyonet::core {

/// Reads the integer environment variable `name`. Unset: returns
/// `fallback`. Set: the whole value must be a base-10 integer in
/// [lo, hi]; anything else (empty, "4x", a value out of range, an
/// overflow) prints a warning to stderr and returns `fallback`.
[[nodiscard]] long env_integer(const char* name, long lo, long hi,
                               long fallback) noexcept;

}  // namespace tokyonet::core
