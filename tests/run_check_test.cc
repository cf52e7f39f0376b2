// Differential test of core::check_device_run, the run check every
// shard load, CSV import and ingest Records frame goes through.
//
// The check reduces each rule over a whole column (vectorized) and walks
// row by row only when a run fails. Here it must return what a plain
// per-row walk of the same rules returns — the verdict,
// repeated_bins and the error text naming the first bad row — for every
// run length 0..70 at every start offset mod 32, on a valid run and on
// one mutation per rule at the first, a middle and the last row (or app
// record). Rows and app records outside the run hold invalid values, so
// a kernel that reads past its run fails too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>

#include "core/dataset_index.h"
#include "core/records.h"

namespace tokyonet::core {
namespace {

/// The rules of check_device_run, one row at a time, in the order its
/// error walk checks them.
RunCheck reference_check(const SampleColumns& c,
                         std::span<const AppCategory> category,
                         const DeviceRun& run, const RowLimits& limits) {
  std::uint64_t apps = 0;
  bool repeated = false;
  for (std::size_t i = run.row_begin; i < run.row_end; ++i) {
    const std::string row = "sample " + std::to_string(i);
    if (std::size_t{c.bin[i]} >= limits.num_bins) {
      return {row + " has bin " + std::to_string(c.bin[i]) + " outside the " +
              std::to_string(limits.num_bins) + "-bin campaign"};
    }
    if (i > run.row_begin && c.bin[i - 1] > c.bin[i]) {
      return {row + " breaks (device, bin) ordering"};
    }
    if (c.ap[i] != value(kNoAp) && c.ap[i] >= limits.num_aps) {
      return {row + " references AP " + std::to_string(c.ap[i]) + " of " +
              std::to_string(limits.num_aps)};
    }
    if (c.wifi_state[i] > WifiState::Associated || c.tech[i] > CellTech::Lte) {
      return {row + " has an unknown WiFi state or cell technology"};
    }
    if ((c.flags[i] & ~SampleColumns::kFlagTethering) != 0) {
      return {row + " has unknown flag bits"};
    }
    repeated = repeated || (i > run.row_begin && c.bin[i - 1] == c.bin[i]);
    apps += c.app_count[i];
  }
  if (run.app_begin > run.app_end || run.app_end > category.size() ||
      run.app_end - run.app_begin != apps) {
    return {"device " + std::to_string(run.device) + " app range [" +
            std::to_string(run.app_begin) + ", " +
            std::to_string(run.app_end) + ") does not hold its rows' " +
            std::to_string(apps) + " of " + std::to_string(category.size()) +
            " app records"};
  }
  for (std::size_t a = run.app_begin; a < run.app_end; ++a) {
    if (static_cast<int>(category[a]) >= kNumAppCategories) {
      return {"app record " + std::to_string(a) + " has an unknown category"};
    }
  }
  return {{}, repeated};
}

constexpr std::size_t kNumAps = 5;
constexpr std::size_t kPad = 40;  // invalid rows and records around the run

/// A valid run of `len` rows starting at row `offset`, with rising bins
/// (some repeated), mixed APs, states, technologies, tethering and 0-3
/// app records a row, surrounded by invalid rows and app records.
struct Fixture {
  SampleColumns cols;
  AppColumns apps;
  DeviceRun run;
  RowLimits limits;

  Fixture(std::size_t len, std::size_t offset) {
    const std::size_t rows = offset + len + kPad;
    cols.resize_for_overwrite(rows);
    SampleColumns::for_each(
        [](auto& c) {
          for (auto& v : c) {
            v = static_cast<std::decay_t<decltype(v)>>(0xFE);
          }
        },
        cols);
    std::fill(cols.ap.begin(), cols.ap.end(), 0xFFFFFFFEu);
    std::fill(cols.bin.begin(), cols.bin.end(), TimeBin{0xFFFE});
    std::uint32_t bin = 3;
    std::size_t n_apps = 0;
    for (std::size_t k = 0; k < len; ++k) {
      const std::size_t i = offset + k;
      bin += (k * 7 + offset) % 5 == 0 ? 0 : 1 + k % 3;
      cols.bin[i] = static_cast<TimeBin>(bin);
      cols.ap[i] = k % 4 == 0 ? value(kNoAp)
                              : static_cast<std::uint32_t>(k % kNumAps);
      cols.wifi_state[i] = static_cast<WifiState>(k % 3);
      cols.tech[i] = static_cast<CellTech>(k % 3);
      cols.flags[i] = k % 6 == 0 ? SampleColumns::kFlagTethering : 0;
      cols.app_count[i] = static_cast<std::uint8_t>((k + offset) % 4);
      n_apps += cols.app_count[i];
    }
    const std::size_t app_offset = offset % 7 + 3;
    for (std::size_t a = 0; a < app_offset + n_apps + kPad; ++a) {
      const bool inside = a >= app_offset && a < app_offset + n_apps;
      apps.push_back({static_cast<AppCategory>(
                          inside ? a % kNumAppCategories : 0xF0 + a % 15),
                      static_cast<std::uint32_t>(a), 7});
    }
    run = {11, offset, offset + len, app_offset, app_offset + n_apps};
    limits = {std::size_t{bin} + 1 + offset % 3, kNumAps};
  }
};

enum Rule {
  kBinPastCalendar, kBinDescends, kApPastUniverse, kApBelowNoAp,
  kUnknownState, kUnknownTech, kUnknownFlag, kAppCountMismatch,
  kAppRangePastColumn, kUnknownCategory, kNumRules
};

/// Breaks `rule` at row (or app record) `pos` of the run; false when
/// the run is too short to hold the mutation.
bool mutate(Fixture& f, Rule rule, std::size_t pos) {
  SampleColumns& c = f.cols;
  const std::size_t len = f.run.row_end - f.run.row_begin;
  const std::size_t n_apps = f.run.app_end - f.run.app_begin;
  const std::size_t i = f.run.row_begin + pos;
  if (rule == kUnknownCategory ? pos >= n_apps : pos >= len) return false;
  switch (rule) {
    case kBinPastCalendar:
      c.bin[i] = static_cast<TimeBin>(f.limits.num_bins + pos % 2);
      return true;
    case kBinDescends:
      if (pos == 0) return false;
      c.bin[i - 1] = static_cast<TimeBin>(c.bin[i] + 1 + pos % 2);
      return true;
    case kApPastUniverse:
      c.ap[i] = static_cast<std::uint32_t>(kNumAps + pos % 2);
      return true;
    case kApBelowNoAp: c.ap[i] = 0xFFFFFFFEu; return true;
    case kUnknownState:
      c.wifi_state[i] = static_cast<WifiState>(pos % 2 == 0 ? 3 : 255);
      return true;
    case kUnknownTech:
      c.tech[i] = static_cast<CellTech>(pos % 2 == 0 ? 3 : 128);
      return true;
    case kUnknownFlag:
      c.flags[i] = static_cast<std::uint8_t>(pos % 2 == 0 ? 2 : 0x81);
      return true;
    case kAppCountMismatch:
      c.app_count[i] = static_cast<std::uint8_t>(c.app_count[i] + 1);
      return true;
    case kAppRangePastColumn:
      f.run.app_end = f.apps.size() + 1 + pos;
      return true;
    case kUnknownCategory:
      f.apps.category[f.run.app_begin + pos] = static_cast<AppCategory>(
          pos % 2 == 0 ? kNumAppCategories : 255);
      return true;
    case kNumRules: break;
  }
  return false;
}

/// The check against the reference; returns the reference.
RunCheck expect_matches(const Fixture& f, const std::string& what) {
  const std::span<const AppCategory> category = f.apps.category;
  const RunCheck want = reference_check(f.cols, category, f.run, f.limits);
  const RunCheck got = check_device_run(f.cols, category, f.run, f.limits);
  EXPECT_EQ(got.error, want.error) << what;
  EXPECT_EQ(got.repeated_bins, want.repeated_bins) << what;
  return want;
}

TEST(RunCheck, MatchesPerRowReference) {
  int valid = 0, repeated = 0, rejected = 0;
  for (std::size_t len = 0; len <= 70; ++len) {
    for (std::size_t offset = 0; offset < 32; ++offset) {
      const std::string at =
          "len " + std::to_string(len) + " offset " + std::to_string(offset);
      const Fixture base(len, offset);
      const RunCheck sound = expect_matches(base, at);
      ASSERT_EQ(sound.error, "") << at;
      ++valid;
      repeated += sound.repeated_bins ? 1 : 0;
      const std::size_t n_apps = base.run.app_end - base.run.app_begin;
      for (int rule = 0; rule < kNumRules; ++rule) {
        const std::size_t n = rule == kUnknownCategory ? n_apps : len;
        for (const std::size_t pos : {std::size_t{0}, n / 2, n - 1}) {
          Fixture f = base;
          if (n == 0 || !mutate(f, static_cast<Rule>(rule), pos)) continue;
          const std::string what = at + " rule " + std::to_string(rule) +
                                   " pos " + std::to_string(pos);
          EXPECT_NE(expect_matches(f, what).error, "") << what;
          ++rejected;
        }
      }
    }
  }
  // Sound runs with and without repeated bins, and every rule broken at
  // up to three places in nearly every run.
  EXPECT_EQ(valid, 71 * 32);
  EXPECT_GT(repeated, 0);
  EXPECT_LT(repeated, valid);
  EXPECT_GT(rejected, 71 * 32 * kNumRules);
}

TEST(RunCheck, LongRunsMatchReference) {
  // Runs far longer than one vector, each rule broken near the end.
  for (const std::size_t len : {std::size_t{1000}, std::size_t{4321}}) {
    const Fixture base(len, 5);
    ASSERT_EQ(expect_matches(base, "long").error, "");
    for (int rule = 0; rule < kNumRules; ++rule) {
      Fixture f = base;
      const std::size_t n = rule == kUnknownCategory
                                ? f.run.app_end - f.run.app_begin
                                : len;
      ASSERT_TRUE(mutate(f, static_cast<Rule>(rule), n - 3));
      EXPECT_NE(expect_matches(f, "long rule " + std::to_string(rule)).error,
                "");
    }
  }
}

}  // namespace
}  // namespace tokyonet::core
