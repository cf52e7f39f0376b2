// Record schema for one measurement campaign.
//
// The paper's on-device software (§2) uploads, every 10 minutes: byte
// counts per network interface, per-application traffic (Android only),
// the associated WiFi AP (BSSID/ESSID) with signal strength, scan results
// for non-associated APs (Android only), cellular technology, and coarse
// (5 km) geolocation. `SampleColumns` holds those records one column per
// field; `Dataset` holds a whole campaign.
//
// Everything the analysis layer may read is "observable": it is
// information the real measurement software could report. Simulator
// ground truth (true AP placement, user archetypes, true capped days,
// ...) lives in `GroundTruth`, which only tests, calibration checks and
// the survey synthesizer consume.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/column.h"
#include "core/cow_vector.h"
#include "core/types.h"

namespace tokyonet::core {
class DatasetIndex;
struct SampleLayout;
}  // namespace tokyonet::core

namespace tokyonet {

/// Index of a 5 km grid cell (see geo::Grid). 0xFFFF = unknown location.
using GeoCell = std::uint16_t;
inline constexpr GeoCell kNoGeoCell = 0xFFFF;

/// Traffic attributed to one application category within one sample
/// (Android only; iOS reports a single `Unknown` aggregate, §2).
struct AppTraffic {
  AppCategory category = AppCategory::Unknown;
  /// Explicit padding, always zero: these records are serialized raw
  /// (io/snapshot.cc), so compiler-inserted padding would leak
  /// indeterminate bytes into snapshot files and break byte-level
  /// write determinism.
  std::uint8_t reserved[3] = {};
  std::uint32_t rx_bytes = 0;
  std::uint32_t tx_bytes = 0;
};

/// Static, observable description of a device in the campaign.
struct DeviceInfo {
  DeviceId id{};
  Os os = Os::Android;
  Carrier carrier = Carrier::CarrierA;
  /// True for recruited participants (who also answer the survey);
  /// false for organic app-store installs (§2).
  bool recruited = true;
  /// Explicit padding, always zero (serialized raw — see AppTraffic).
  std::uint8_t reserved = 0;
};

/// Observable identity of a WiFi access point, as seen by a device that
/// associates with it: BSSID (AP MAC), ESSID (network name), band and
/// channel. The AP's true location/placement is ground truth only.
struct ApInfo {
  std::uint64_t bssid = 0;  // 48-bit MAC in the low bits
  std::string essid;
  Band band = Band::B24GHz;
  std::uint8_t channel = 1;  // 1..13 (2.4 GHz) or 36+ (5 GHz)
};

/// The campaign's 10-minute measurement records (§2), one core::Column
/// per field (owned, or a zero-copy view of a snapshot section), rows
/// sorted by (device, bin). A row's device and its slice of
/// Dataset::app_traffic are not stored: Dataset::index() gives them.
struct SampleColumns {
  core::Column<TimeBin> bin;
  // Byte counters per interface over the 10-minute window.
  core::Column<std::uint32_t> cell_rx, cell_tx, wifi_rx, wifi_tx;
  /// value() of the associated ApId; value(kNoAp) when not associated.
  core::Column<std::uint32_t> ap;
  core::Column<WifiState> wifi_state;
  core::Column<CellTech> tech;
  /// Battery level reported with each record (§2), 1..100.
  core::Column<std::uint8_t> battery_pct;
  /// RSSI of the association in dBm (meaningless unless Associated).
  core::Column<std::int8_t> rssi_dbm;
  core::Column<GeoCell> geo_cell;
  /// Number of this row's per-application records (0 for idle bins and
  /// iOS devices, which report no per-app breakdown).
  core::Column<std::uint8_t> app_count;
  /// kFlagTethering: the device acted as a cellular hotspot (Android
  /// reports tethering state; the paper strips tethering traffic from
  /// the main analysis, §2).
  core::Column<std::uint8_t> flags;
  // Scan summary (Android only, §2): number of *public* WiFi networks
  // detected in this window, split by band and by whether the strongest
  // beacon was "strong" (>= -70 dBm, §3.5). Saturates at 255.
  core::Column<std::uint8_t> scan_pub24_all, scan_pub24_strong;
  core::Column<std::uint8_t> scan_pub5_all, scan_pub5_strong;

  static constexpr std::uint8_t kFlagTethering = 1u << 0;
  static constexpr std::size_t kNumColumns = 17;

  [[nodiscard]] std::size_t size() const noexcept { return bin.size(); }
  [[nodiscard]] bool empty() const noexcept { return bin.empty(); }

  /// Calls `f(c.column...)` for every column of the given SampleColumns
  /// `c...` (one or more), in declaration order — which is also the
  /// snapshot section order.
  template <typename F, typename... S>
  static void for_each(F&& f, S&... c) {
    f(c.bin...);
    f(c.cell_rx...);
    f(c.cell_tx...);
    f(c.wifi_rx...);
    f(c.wifi_tx...);
    f(c.ap...);
    f(c.wifi_state...);
    f(c.tech...);
    f(c.battery_pct...);
    f(c.rssi_dbm...);
    f(c.geo_cell...);
    f(c.app_count...);
    f(c.flags...);
    f(c.scan_pub24_all...);
    f(c.scan_pub24_strong...);
    f(c.scan_pub5_all...);
    f(c.scan_pub5_strong...);
  }

  /// Grows every column to `n` rows without zero-filling.
  void resize_for_overwrite(std::size_t n) {
    for_each([n](auto& c) { c.resize_for_overwrite(n); }, *this);
  }

};

/// Post-campaign survey answers from one recruited user (§4.2).
struct SurveyResponse {
  Occupation occupation = Occupation::Other;
  /// "Did you connect to WiFi APs at <location>?" (Table 8).
  SurveyYesNo connected[kNumSurveyLocations] = {
      SurveyYesNo::No, SurveyYesNo::No, SurveyYesNo::No};
  /// Bitmask of SurveyReason per location; multiple answers allowed
  /// (Table 9).
  std::uint16_t reasons[kNumSurveyLocations] = {0, 0, 0};

  [[nodiscard]] bool gave_reason(SurveyLocation loc,
                                 SurveyReason r) const noexcept {
    return (reasons[static_cast<int>(loc)] >>
            static_cast<int>(r)) & 1u;
  }
  void set_reason(SurveyLocation loc, SurveyReason r) noexcept {
    reasons[static_cast<int>(loc)] |=
        static_cast<std::uint16_t>(1u << static_cast<int>(r));
  }
};

/// Broad behavioural archetype of a simulated user (§3.3.1 Fig 5).
enum class UserArchetype : std::uint8_t {
  CellularIntensive = 0,  // never uses WiFi (no AP / no configuration)
  WifiIntensive = 1,      // avoids cellular data almost entirely
  Mixed = 2,              // uses both, offloading opportunistically
};

/// Ground truth about one device, known to the simulator but *not*
/// observable by the analysis layer.
struct DeviceTruth {
  UserArchetype archetype = UserArchetype::Mixed;
  Occupation occupation = Occupation::Other;
  bool has_home_ap = false;
  ApId home_ap = kNoAp;
  bool works_at_office = false;
  bool office_has_byod_wifi = false;  // office AP accessible to the user
  ApId office_ap = kNoAp;
  GeoCell home_cell = kNoGeoCell;
  GeoCell office_cell = kNoGeoCell;
  /// Per-day fraction of waking bins with WiFi explicitly off.
  float wifi_off_propensity = 0.f;
  /// Lognormal daily traffic demand parameters (per-user heterogeneity).
  float demand_mu = 0.f;     // log(MB)
  float demand_sigma = 1.f;  // log-scale
  /// Whether this user configured public WiFi (e.g. SIM-auth carrier APs).
  bool uses_public_wifi = false;
  /// iOS only: bin at which the device took the OS update, or -1.
  std::int32_t update_bin = -1;
  /// Days on which the cellular soft cap throttled this device.
  std::vector<std::uint8_t> capped_day;  // size = num_days, 0/1
  /// Occasionally shares the cellular link with a laptop (tethering).
  bool is_tetherer = false;
};

/// Ground truth about one AP.
struct ApTruth {
  ApPlacement placement = ApPlacement::Public;
  /// Explicit padding, always zero (serialized raw — see AppTraffic).
  std::uint8_t reserved = 0;
  GeoCell cell = kNoGeoCell;
};

/// All simulator ground truth for a campaign.
struct GroundTruth {
  std::vector<DeviceTruth> devices;  // parallel to Dataset::devices
  core::CowVector<ApTruth> aps;      // parallel to Dataset::aps
};

/// A full campaign: devices, the AP universe they encountered, and the
/// 10-minute sample stream, sorted by (device, bin).
class Dataset {
 public:
  /// An empty campaign: no devices, no samples, trivially indexed.
  Dataset();

  Year year = Year::Y2015;
  CampaignCalendar calendar;

  std::vector<DeviceInfo> devices;
  /// Shared copy-on-write: datasets loaded from one shard store all
  /// read the store's table (write through aps.mut()).
  core::CowVector<ApInfo> aps;
  SampleColumns samples;
  core::Column<AppTraffic> app_traffic;
  std::vector<SurveyResponse> survey;  // parallel to devices (recruited only meaningful)
  GroundTruth truth;

  [[nodiscard]] std::size_t num_devices() const noexcept {
    return devices.size();
  }
  [[nodiscard]] int num_days() const noexcept { return calendar.num_days(); }

  /// Validates the dataset — validate()'s rules, with the sample
  /// columns checked against `layout`, which says which rows and which
  /// app-traffic records belong to which device — and, when it is
  /// sound, installs the index built from the layout
  /// (core/dataset_index.h). Returns an empty string on success, else
  /// the first problem (the dataset is then unindexed).
  ///
  /// `universe` = Trusted skips the AP universe's own checks (bands,
  /// truth.aps size) for a dataset whose aps and truth.aps are shared
  /// from a universe that already passed them and cannot change — a
  /// shard load sharing its store's resident universe. Samples are
  /// still checked against the universe's size.
  enum class UniverseCheck { Full, Trusted };
  [[nodiscard]] std::string index_samples(
      core::SampleLayout layout, UniverseCheck universe = UniverseCheck::Full);

  /// Re-validates the dataset against the current layout and rebuilds
  /// the index from it (a dataset never indexed must have no samples:
  /// it gets the empty layout). Returns false — leaving the dataset
  /// unindexed — when the dataset violates the contract.
  bool build_index();

  /// Release-mode structural validation: device/AP/app references,
  /// per-device bin order, bin bounds against the calendar, and
  /// ground-truth array shapes. Returns an empty string when the
  /// dataset is sound, else a description of the first problem.
  /// Snapshot loads run the same checks before trusting a file.
  [[nodiscard]] std::string validate() const;

  /// True once the sample columns carry a validated index that matches
  /// their row count.
  [[nodiscard]] bool indexed() const noexcept;

  /// The per-device ranges over the sample columns. Requires indexed().
  [[nodiscard]] const core::DatasetIndex& index() const noexcept;

 private:
  friend class core::DatasetIndex;
  std::shared_ptr<const core::DatasetIndex> index_;
};

}  // namespace tokyonet
