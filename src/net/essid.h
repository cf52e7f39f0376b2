// ESSID vocabulary of the simulated region and the well-known-name
// matcher used by the paper's AP classification (§3.4.1): public networks
// are recognized by provider ESSIDs such as "0000docomo", "0001softbank"
// or "eduroam"; FON APs broadcasting a public ESSID from a home router
// get special-cased.
#pragma once

#include <string>
#include <string_view>

#include "stats/philox.h"

namespace tokyonet::net {

/// True if `essid` is one of the well-known public WiFi service names
/// (carrier offload networks, free municipal/commercial hotspots,
/// eduroam). This is the observable signal the classifier keys on.
[[nodiscard]] bool is_public_essid(std::string_view essid) noexcept;

/// True if `essid` is the FON community network name. FON boxes are home
/// routers that also broadcast a public ESSID; the paper classifies an AP
/// with a public FON ESSID as *home* when a user camps on it overnight.
[[nodiscard]] bool is_fon_essid(std::string_view essid) noexcept;

/// Generates ESSIDs for the AP universe. Home/office/venue names follow
/// Japanese consumer-router and corporate naming conventions; public
/// names are drawn from the provider catalogue with per-year weights
/// (carrier WiFi ramped up heavily from 2013).
class EssidFactory {
 public:
  /// `year_index`: 0 = 2013, 1 = 2014, 2 = 2015.
  explicit EssidFactory(int year_index) noexcept : year_(year_index) {}

  [[nodiscard]] std::string home(stats::PhiloxRng& rng) const;
  /// A small fraction of "home" routers are FON boxes.
  [[nodiscard]] std::string home_fon() const;
  [[nodiscard]] std::string office(stats::PhiloxRng& rng) const;
  [[nodiscard]] std::string public_hotspot(stats::PhiloxRng& rng) const;
  [[nodiscard]] std::string venue(stats::PhiloxRng& rng) const;
  [[nodiscard]] std::string mobile_hotspot(stats::PhiloxRng& rng) const;

 private:
  int year_;
};

}  // namespace tokyonet::net
