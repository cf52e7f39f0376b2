#include "app/catalog.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

namespace tokyonet::app {
namespace {

// Categories with explicitly modelled shares. Everything else shares a
// small residual weight.
constexpr std::array<AppCategory, kNumMajorCategories> kMajor{
    AppCategory::Browser,       AppCategory::Social,
    AppCategory::Video,         AppCategory::Communication,
    AppCategory::News,          AppCategory::Game,
    AppCategory::Music,         AppCategory::Shopping,
    AppCategory::Download,      AppCategory::Entertainment,
    AppCategory::Tools,         AppCategory::Productivity,
    AppCategory::Lifestyle,     AppCategory::Health,
    AppCategory::Business,
};

// Expected download-volume share per (year, context, major category).
// Calibrated qualitatively against Tables 6/7: cellular is
// browsing-led; home-WiFi video explodes from 2014; public WiFi shifts
// from pure browsing (2013) toward video/download (2014-15).
// Rows follow kMajor's order; each row sums to <= 1, remainder goes to
// the minor-category tail.
using ShareRow = std::array<double, kMajor.size()>;

constexpr ShareRow kCell2013{.38, .073, .057, .062, .030, .050, .030, .030,
                             .015, .040, .030, .020, .030, .012, .012};
constexpr ShareRow kCell2014{.36, .063, .074, .074, .062, .055, .028, .030,
                             .018, .035, .028, .022, .032, .014, .014};
constexpr ShareRow kCell2015{.28, .079, .110, .095, .058, .060, .028, .030,
                             .022, .032, .026, .025, .035, .016, .016};

constexpr ShareRow kWifiHome2013{.28, .068, .040, .043, .035, .045, .032,
                                 .028, .020, .035, .028, .035, .028, .010,
                                 .010};
constexpr ShareRow kWifiHome2014{.207, .040, .304, .065, .060, .040, .025,
                                 .020, .047, .025, .020, .052, .020, .010,
                                 .010};
constexpr ShareRow kWifiHome2015{.200, .047, .254, .074, .040, .040, .025,
                                 .020, .111, .022, .018, .060, .020, .010,
                                 .010};

constexpr ShareRow kWifiPublic2013{.441, .040, .021, .030, .029, .030, .020,
                                   .018, .012, .025, .020, .025, .033, .010,
                                   .012};
constexpr ShareRow kWifiPublic2014{.219, .028, .138, .035, .025, .030, .018,
                                   .015, .225, .020, .015, .040, .049, .032,
                                   .015};
constexpr ShareRow kWifiPublic2015{.240, .030, .196, .036, .025, .030, .018,
                                   .015, .099, .020, .015, .030, .041, .020,
                                   .020};

constexpr ShareRow kWifiOther2013{.36, .060, .030, .055, .030, .040, .025,
                                  .025, .015, .030, .025, .030, .030, .010,
                                  .015};
constexpr ShareRow kWifiOther2014{.30, .050, .110, .060, .040, .040, .022,
                                  .020, .080, .025, .020, .045, .028, .014,
                                  .016};
constexpr ShareRow kWifiOther2015{.27, .050, .150, .060, .035, .040, .022,
                                  .018, .070, .022, .018, .050, .028, .014,
                                  .018};

const ShareRow& share_row(Year year, Context ctx) noexcept {
  const int y = static_cast<int>(year);
  switch (ctx) {
    case Context::CellHome:
    case Context::CellOther: {
      static constexpr const ShareRow* rows[] = {&kCell2013, &kCell2014,
                                                 &kCell2015};
      return *rows[y];
    }
    case Context::WifiHome: {
      static constexpr const ShareRow* rows[] = {&kWifiHome2013,
                                                 &kWifiHome2014,
                                                 &kWifiHome2015};
      return *rows[y];
    }
    case Context::WifiPublic: {
      static constexpr const ShareRow* rows[] = {&kWifiPublic2013,
                                                 &kWifiPublic2014,
                                                 &kWifiPublic2015};
      return *rows[y];
    }
    case Context::WifiOther: {
      static constexpr const ShareRow* rows[] = {&kWifiOther2013,
                                                 &kWifiOther2014,
                                                 &kWifiOther2015};
      return *rows[y];
    }
  }
  return kCell2015;
}

constexpr std::uint64_t mb_to_bytes(double mb) noexcept {
  return mb <= 0 ? 0 : static_cast<std::uint64_t>(mb * 1e6);
}

// Categories not explicitly modelled; drawn uniformly when the alias
// table lands on the collapsed minor-tail pseudo-entry.
constexpr std::array<AppCategory, 10> kMinor{
    AppCategory::Travel,      AppCategory::Education,
    AppCategory::Finance,     AppCategory::Photography,
    AppCategory::Sports,      AppCategory::Weather,
    AppCategory::Books,       AppCategory::Medical,
    AppCategory::Transport,   AppCategory::Comics,
};

constexpr std::uint32_t saturate_u32(std::uint64_t v) noexcept {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(v, 0xFFFFFFFFull));
}

}  // namespace

double category_tx_ratio(AppCategory category) noexcept {
  switch (category) {
    case AppCategory::Browser: return 0.10;
    case AppCategory::Social: return 0.35;
    case AppCategory::Video: return 0.04;
    case AppCategory::Communication: return 0.45;
    case AppCategory::News: return 0.05;
    case AppCategory::Game: return 0.15;
    case AppCategory::Music: return 0.05;
    case AppCategory::Shopping: return 0.12;
    case AppCategory::Download: return 0.02;
    case AppCategory::Entertainment: return 0.10;
    case AppCategory::Tools: return 0.20;
    case AppCategory::Productivity: return 2.20;  // online-storage sync
    case AppCategory::Lifestyle: return 0.12;
    case AppCategory::Health: return 0.40;
    case AppCategory::Business: return 0.45;
    case AppCategory::OsUpdate: return 0.005;
    default: return 0.15;
  }
}

std::array<double, kNumMajorCategories + 1> category_weights(
    Year year, Context context) noexcept {
  const ShareRow& row = share_row(year, context);
  std::array<double, kNumMajorCategories + 1> weights{};
  double major_total = 0;
  for (std::size_t i = 0; i < kMajor.size(); ++i) {
    weights[i] = row[i];
    major_total += row[i];
  }
  weights[kMajor.size()] = std::max(0.0, 1.0 - major_total);
  return weights;
}

AppMixer::AppMixer(Year year)
    : year_(year), count_table_(kCategoryCountWeights), tx_noise_(0.0, 0.5) {
  // Per-scenario table build: each context's major shares plus the
  // collapsed minor tail become one alias table, so per-bin category
  // draws cost one uniform instead of a weight rescan.
  for (int c = 0; c < kNumContexts; ++c) {
    category_table_[static_cast<std::size_t>(c)] =
        stats::AliasTable(category_weights(year, static_cast<Context>(c)));
  }
}

double AppMixer::expected_share(Context context,
                                AppCategory category) const noexcept {
  const ShareRow& row = share_row(year_, context);
  for (std::size_t i = 0; i < kMajor.size(); ++i) {
    if (kMajor[i] == category) return row[i];
  }
  double major_total = 0;
  for (double w : row) major_total += w;
  const int minor_count = kNumAppCategories - static_cast<int>(kMajor.size());
  return std::max(0.0, 1.0 - major_total) / minor_count;
}

std::uint64_t AppMixer::mix(Context context, double demand_mb,
                            stats::PhiloxRng& rng,
                            std::vector<AppTraffic>& out) const {
  if (demand_mb <= 0) return 0;

  // Draw how many categories are active this bin.
  const std::size_t k = 1 + count_table_.draw(rng);

  // Pick k distinct categories with probability proportional to share
  // (minor tail collapsed into one pseudo-entry). Rejecting repeats
  // against the full alias table samples exactly the renormalized
  // remaining-weight distribution, without rebuilding any table.
  const stats::AliasTable& table =
      category_table_[static_cast<std::size_t>(context)];
  if (k == 1) {
    // Half of all calls land here: a single category takes the whole
    // demand, so the taken[] bookkeeping, the rejection check (a first
    // draw can never repeat) and the split normalization all vanish.
    // The draw sequence — category, optional minor pick, tx noise — is
    // the same as the general path's, so values match draw for draw.
    const std::size_t idx = table.draw(rng);
    const AppCategory cat = idx < kMajor.size()
                                ? kMajor[idx]
                                : kMinor[rng.uniform_int(kMinor.size())];
    const double tx_mb =
        demand_mb * category_tx_ratio(cat) * tx_noise_.draw(rng);
    AppTraffic& at = out.emplace_back();
    at.category = cat;
    at.rx_bytes = saturate_u32(mb_to_bytes(demand_mb));
    at.tx_bytes = saturate_u32(mb_to_bytes(tx_mb));
    return at.tx_bytes;
  }
  bool taken[kMajor.size() + 1] = {};
  std::array<AppCategory, 3> cats{};
  std::array<double, 3> split{};
  std::size_t chosen = 0;
  for (std::size_t draw = 0; draw < k && chosen < 3; ++draw) {
    std::size_t idx = table.draw(rng);
    for (int tries = 0; taken[idx] && tries < 24; ++tries) {
      idx = table.draw(rng);
    }
    if (taken[idx]) break;  // pathological rejection streak: stop early
    taken[idx] = true;
    AppCategory cat;
    if (idx < kMajor.size()) {
      cat = kMajor[idx];
    } else {
      // A minor category: uniform over the ones not explicitly modelled.
      cat = kMinor[rng.uniform_int(kMinor.size())];
    }
    cats[chosen] = cat;
    // With one active category the split normalizes to 1.0 no matter
    // what is drawn, so skip the draw entirely (k == 1 is half of all
    // mix calls).
    split[chosen] = k > 1 ? rng.uniform32(0.3, 1.0) : 1.0;
    ++chosen;
  }

  double split_total = 0;
  for (std::size_t i = 0; i < chosen; ++i) split_total += split[i];

  std::uint64_t tx_total = 0;
  for (std::size_t i = 0; i < chosen; ++i) {
    const double rx_mb = demand_mb * split[i] / split_total;
    const double tx_mb =
        rx_mb * category_tx_ratio(cats[i]) * tx_noise_.draw(rng);
    AppTraffic& at = out.emplace_back();
    at.category = cats[i];
    at.rx_bytes = saturate_u32(mb_to_bytes(rx_mb));
    at.tx_bytes = saturate_u32(mb_to_bytes(tx_mb));
    tx_total += at.tx_bytes;
  }
  return tx_total;
}

}  // namespace tokyonet::app
