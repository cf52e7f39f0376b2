// Civil-calendar and simulation-clock utilities.
//
// The paper's measurement software samples device state every 10 minutes
// (§2); tokyonet therefore discretizes a campaign into 10-minute "bins".
// All wall-clock reasoning (diurnal peaks, weekday/weekend splits, the
// 22:00-06:00 home-inference window, peak-hour cap enforcement) is done
// in Japan Standard Time, which has no daylight-saving transitions —
// every day has exactly 144 bins.
#pragma once

#include <cstdint>
#include <string>

namespace tokyonet {

inline constexpr int kBinsPerHour = 6;
inline constexpr int kBinsPerDay = 24 * kBinsPerHour;  // 144
inline constexpr int kMinutesPerBin = 10;

/// Index of a 10-minute bin within one campaign (0 = first bin of day 0).
using TimeBin = std::uint16_t;

/// Day of week, ISO-style ordering starting from Monday.
enum class Weekday : std::uint8_t {
  Monday = 0,
  Tuesday,
  Wednesday,
  Thursday,
  Friday,
  Saturday,
  Sunday,
};

[[nodiscard]] std::string_view to_string(Weekday d) noexcept;

/// A civil (proleptic Gregorian) date.
struct Date {
  int year = 2015;
  int month = 1;  // 1..12
  int day = 1;    // 1..31

  friend constexpr bool operator==(const Date&, const Date&) = default;
};

/// Days since the civil epoch 1970-01-01 (negative before).
/// Howard Hinnant's "days_from_civil" algorithm.
[[nodiscard]] std::int64_t days_from_civil(const Date& d) noexcept;

/// Inverse of `days_from_civil`.
[[nodiscard]] Date civil_from_days(std::int64_t z) noexcept;

/// Day of week of a civil date.
[[nodiscard]] Weekday weekday_of(const Date& d) noexcept;

/// Calendar for one measurement campaign: a start date plus a length in
/// whole days. Maps 10-minute bins to wall-clock concepts.
class CampaignCalendar {
 public:
  CampaignCalendar() = default;

  /// Campaign starting at 00:00 JST on `start`, lasting `num_days` days.
  /// Requires num_days >= 1 and num_days * 144 <= 65535.
  CampaignCalendar(Date start, int num_days);

  [[nodiscard]] Date start_date() const noexcept { return start_; }
  [[nodiscard]] int num_days() const noexcept { return num_days_; }
  [[nodiscard]] int num_bins() const noexcept { return num_days_ * kBinsPerDay; }

  /// Day index (0-based) containing `bin`.
  [[nodiscard]] int day_of(TimeBin bin) const noexcept {
    return bin / kBinsPerDay;
  }
  /// Bin index within its day, 0..143.
  [[nodiscard]] int bin_in_day(TimeBin bin) const noexcept {
    return bin % kBinsPerDay;
  }
  /// Hour of day containing `bin`, 0..23.
  [[nodiscard]] int hour_of(TimeBin bin) const noexcept {
    return bin_in_day(bin) / kBinsPerHour;
  }

  [[nodiscard]] Date date_of_day(int day) const noexcept;
  [[nodiscard]] Weekday weekday_of_day(int day) const noexcept;
  [[nodiscard]] bool is_weekend_day(int day) const noexcept;

  /// True if `bin` falls in [from_hour, to_hour) of its local day,
  /// handling windows that wrap past midnight (e.g. 22 -> 6).
  [[nodiscard]] bool in_hour_window(TimeBin bin, int from_hour,
                                    int to_hour) const noexcept;

  /// "28 Sat"-style label used on the paper's weekly x-axes.
  [[nodiscard]] std::string day_label(int day) const;

 private:
  Date start_{};
  int num_days_ = 0;
  Weekday start_weekday_ = Weekday::Monday;
};

}  // namespace tokyonet
