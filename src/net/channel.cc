#include "net/channel.h"

#include <array>

namespace tokyonet::net {
namespace {

// Channel weights over 1..13 per policy. FactoryDefaultHeavy reproduces
// the 2013 home-AP Ch1 concentration of Fig 16(a); AutoSelect, the
// interference-avoiding firmware that replaces it by 2015 (§3.4.5),
// settles on the non-overlapping channels and mostly off the crowded
// Ch1, which relaxes the pile-up of Fig 16(b) and makes overlapping
// same-cell home pairs rarer.
constexpr std::array<double, 13> kFactoryDefaultWeights{
    0.38, 0.05, 0.05, 0.04, 0.04, 0.09, 0.04, 0.04, 0.03, 0.04, 0.11, 0.05, 0.04};
constexpr std::array<double, 13> kAutoSelectWeights{
    0.12, 0.02, 0.02, 0.02, 0.02, 0.34, 0.02, 0.02, 0.02, 0.02, 0.34, 0.02, 0.02};
constexpr std::array<double, 13> kPlannedWeights{
    0.30, 0.01, 0.01, 0.01, 0.01, 0.29, 0.01, 0.01, 0.01, 0.01, 0.28, 0.03, 0.02};

constexpr std::array<std::uint8_t, 8> k5GhzChannels{36, 40, 44, 48,
                                                    52, 100, 104, 108};

}  // namespace

std::uint8_t pick_channel_24(ChannelPolicy policy,
                             stats::PhiloxRng& rng) noexcept {
  const std::array<double, 13>* weights = nullptr;
  switch (policy) {
    case ChannelPolicy::FactoryDefaultHeavy:
      weights = &kFactoryDefaultWeights;
      break;
    case ChannelPolicy::AutoSelect:
      weights = &kAutoSelectWeights;
      break;
    case ChannelPolicy::PlannedNonOverlap:
      weights = &kPlannedWeights;
      break;
  }
  return static_cast<std::uint8_t>(1 + rng.categorical(*weights));
}

std::uint8_t pick_channel_5(stats::PhiloxRng& rng) noexcept {
  return k5GhzChannels[rng.uniform_int(k5GhzChannels.size())];
}

double home_factory_default_share(int year_index) noexcept {
  // 2013: most home routers still factory-set; 2015: auto-selection and
  // interference-avoiding firmware widely deployed (§3.4.5).
  constexpr double kShare[3] = {0.80, 0.55, 0.30};
  return kShare[year_index];
}

}  // namespace tokyonet::net
