#include "net/essid.h"

#include <array>
#include <cstdio>

namespace tokyonet::net {
namespace {

// Public providers with relative deployment weight per campaign year.
// Carrier networks (docomo/softbank/au) ramped aggressively 2013-2015;
// municipal and convenience-store networks grew alongside (§1, §3.4.1).
struct PublicProvider {
  std::string_view essid;
  double weight[3];  // 2013, 2014, 2015
};

constexpr std::array<PublicProvider, 11> kPublicProviders{{
    {"0000docomo", {0.24, 0.26, 0.25}},
    {"0001softbank", {0.22, 0.22, 0.20}},
    {"au_Wi-Fi", {0.16, 0.16, 0.15}},
    {"Wi2premium", {0.08, 0.08, 0.08}},
    {"7SPOT", {0.09, 0.08, 0.08}},
    {"LAWSON_Wi-Fi", {0.05, 0.05, 0.06}},
    {"Famima_Wi-Fi", {0.04, 0.04, 0.05}},
    {"Metro_Free_Wi-Fi", {0.03, 0.04, 0.06}},
    {"JR-EAST_FREE_Wi-Fi", {0.02, 0.03, 0.04}},
    {"eduroam", {0.04, 0.03, 0.02}},
    {"FREESPOT", {0.03, 0.01, 0.01}},
}};

constexpr std::string_view kFonEssid = "FON_FREE_INTERNET";

constexpr std::array<std::string_view, 6> kHomeVendorPrefixes{
    "Buffalo-G-", "aterm-", "WARPSTAR-", "elecom2g-", "ctc-g-", "WHR-G-",
};

constexpr std::array<std::string_view, 5> kOfficePrefixes{
    "corp-ap-", "office-wlan-", "staff-net-", "biz-wifi-", "lan-",
};

constexpr std::array<std::string_view, 5> kVenuePrefixes{
    "cafe-wifi-", "hotel-guest-", "shop-ap-", "salon-net-", "guest-",
};

std::string with_hex_suffix(std::string_view prefix, stats::PhiloxRng& rng,
                            int digits) {
  std::string out{prefix};
  static constexpr char kHex[] = "0123456789ABCDEF";
  for (int i = 0; i < digits; ++i) {
    out += kHex[rng.uniform_int(16)];
  }
  return out;
}

}  // namespace

bool is_public_essid(std::string_view essid) noexcept {
  for (const PublicProvider& p : kPublicProviders) {
    if (essid == p.essid) return true;
  }
  return false;
}

bool is_fon_essid(std::string_view essid) noexcept {
  return essid == kFonEssid;
}

std::string EssidFactory::home(stats::PhiloxRng& rng) const {
  const auto& prefix =
      kHomeVendorPrefixes[rng.uniform_int(kHomeVendorPrefixes.size())];
  return with_hex_suffix(prefix, rng, 6);
}

std::string EssidFactory::home_fon() const { return std::string{kFonEssid}; }

std::string EssidFactory::office(stats::PhiloxRng& rng) const {
  const auto& prefix = kOfficePrefixes[rng.uniform_int(kOfficePrefixes.size())];
  return with_hex_suffix(prefix, rng, 4);
}

std::string EssidFactory::public_hotspot(stats::PhiloxRng& rng) const {
  std::array<double, kPublicProviders.size()> w;
  for (std::size_t i = 0; i < kPublicProviders.size(); ++i) {
    w[i] = kPublicProviders[i].weight[year_];
  }
  return std::string{kPublicProviders[rng.categorical(w)].essid};
}

std::string EssidFactory::venue(stats::PhiloxRng& rng) const {
  const auto& prefix = kVenuePrefixes[rng.uniform_int(kVenuePrefixes.size())];
  return with_hex_suffix(prefix, rng, 4);
}

std::string EssidFactory::mobile_hotspot(stats::PhiloxRng& rng) const {
  return with_hex_suffix("PocketWiFi-", rng, 6);
}

}  // namespace tokyonet::net
