// WiFi channel-selection models (§3.4.5, Fig 16).
//
// Home routers historically shipped with channel 1 as the factory
// default, producing the paper's 2013 Ch1 pile-up; later firmware added
// auto-selection, dispersing home channels by 2015. Public providers plan
// deployments on the non-overlapping 1/6/11 set.
#pragma once

#include <cstdint>

#include "core/types.h"
#include "stats/philox.h"

namespace tokyonet::net {

/// Which channel-assignment behaviour an AP exhibits.
enum class ChannelPolicy : std::uint8_t {
  FactoryDefaultHeavy,  // strong bias to Ch1 (2013-era home routers)
  AutoSelect,           // spread across 1..13 with mild 1/6/11 preference
  PlannedNonOverlap,    // 1/6/11 only (public provider deployments)
};

/// Draws a 2.4 GHz channel (1..13) under `policy`.
[[nodiscard]] std::uint8_t pick_channel_24(ChannelPolicy policy,
                                           stats::PhiloxRng& rng) noexcept;

/// Draws a 5 GHz channel from the W52/W53/W56 sets used in Japan.
[[nodiscard]] std::uint8_t pick_channel_5(stats::PhiloxRng& rng) noexcept;

/// Home channel policy mix per campaign year: the share of home APs that
/// still use the factory-default behaviour (shrinks over the years).
[[nodiscard]] double home_factory_default_share(int year_index) noexcept;

}  // namespace tokyonet::net
