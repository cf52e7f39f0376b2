#include "sim/engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "app/catalog.h"
#include "core/dataset_index.h"
#include "core/env.h"
#include "core/parallel.h"
#include "geo/region.h"
#include "net/cellular.h"
#include "net/deployment.h"
#include "sim/schedule.h"
#include "sim/survey.h"
#include "sim/user.h"
#include "stats/philox.h"
#include "stats/rng.h"
#include "stats/tables.h"

namespace tokyonet::sim {
namespace {

using geo::Point;
using net::Deployment;

// Counter-stream lanes: every hot-path draw is keyed by
// (campaign seed, device id, lane, slot). Setup draws (persistent radio
// conditions) use one fixed lane per device; each day's schedule-level
// draws use a day lane; each bin's draws use the global bin index as
// the lane. Lanes never collide: bins stay below kLaneDayBase
// (26 days * 144 bins = 3744) and days below the setup lane.
constexpr std::uint32_t kLaneDayBase = 0x00010000u;
constexpr std::uint32_t kLaneSetup = 0xFFFF0000u;

/// Device-block granularity for the parallel sweep, from
/// TOKYONET_SIM_DEVICE_BLOCK (default 1). The counter-based streams
/// make campaign bytes independent of this partitioning; the knob
/// exists so tests can assert that, and so streaming generation can
/// pick coarser blocks.
[[nodiscard]] std::size_t device_block_size() noexcept {
  return static_cast<std::size_t>(
      core::env_integer("TOKYONET_SIM_DEVICE_BLOCK", 1, 1L << 20, 1));
}

[[nodiscard]] std::uint32_t mb_to_bytes_u32(double mb) noexcept {
  if (mb <= 0) return 0;
  const double b = mb * 1e6;
  return b >= 4.0e9 ? 0xF0000000u : static_cast<std::uint32_t>(b);
}

[[nodiscard]] std::uint8_t saturate_u8(double v) noexcept {
  if (v <= 0) return 0;
  return v >= 255 ? 255 : static_cast<std::uint8_t>(v);
}

/// Per-segment association state while a user dwells at one place.
struct SegmentState {
  Where where = Where::Home;
  Point spot{};
  ApId ap = kNoAp;
  ApPlacement ap_placement = ApPlacement::Public;
  double distance_m = 10.0;
  /// Mean RSSI for this dwell: path loss at distance_m plus a shadowing
  /// term drawn once per segment (shadowing is a property of the spot,
  /// not of time; per-bin variation is small fast fading).
  double rssi_base_dbm = -70.0;
  bool wifi_off = false;
  /// Grid cell of `spot`, resolved once per segment (the spot is fixed
  /// for the whole dwell, so per-bin lookups would be wasted work).
  GeoCell cell = kNoGeoCell;
  /// Scan-summary parameters are fixed for the whole dwell (they depend
  /// only on `where` and `cell`), so the AP-density lookup, the Poisson
  /// CDF walks and the binomial starting masses are resolved once per
  /// segment — lazily, on the first bin that actually scans — instead of
  /// per bin. Draws through these caches are bit-identical to the
  /// uncached transforms.
  bool scan_ready = false;
  std::size_t scan_env = 2;  // index into the strong-thinning tables
  double strong24_p = 0;
  double strong5_p = 0;
  stats::PoissonCdfCache scan24;
  stats::PoissonCdfCache scan5;
};

/// Everything needed while simulating one device.
struct DeviceContext {
  const UserProfile* user = nullptr;
  bool updated = false;
  double update_remaining_mb = 0;
  std::int32_t update_bin = -1;
  // Persistent radio conditions at fixed places: the phone sits in
  // roughly the same spots at home/office every day, so distance and
  // shadowing are per-device constants, not per-day draws.
  double home_distance_m = 10.0;
  double home_rssi_base = -60.0;
  double office_distance_m = 12.0;
  double office_rssi_base = -60.0;
  /// Battery level carried across bins and days (charged overnight).
  double battery = 100.0;
};

/// Variable-length outputs of one device's simulation. Fixed-length
/// output (one Sample per bin) goes straight into the device's slice of
/// Dataset::samples; everything here is spliced in device order
/// afterwards so the dataset is byte-identical to a serial run.
struct DeviceOutput {
  std::vector<AppTraffic> app_traffic;  // app_begin relative to this buffer
  std::vector<std::uint8_t> capped_day;
  std::int32_t update_bin = -1;
};

}  // namespace

struct CampaignEngine::Impl {
  explicit Impl(const ScenarioConfig& config)
      : config_(config),
        root_rng_(config_.seed),
        region_(),
        deployment_(config_, region_, root_rng_),
        mixer_(config_.year) {
    // pow(1 - p, n) for the six dwell-fixed strong-scan thinning
    // probabilities (three environments x two bands): emit_scan's
    // binomial draws start their CDF walk from these masses instead of
    // re-running std::pow twice per Android bin. Same pow, same bits —
    // just hoisted from the bin loop to scenario setup.
    constexpr double kEnvStrong[kNumScanEnvs] = {0.5, 0.2, 1.0};
    for (std::size_t e = 0; e < kNumScanEnvs; ++e) {
      const double p24 = config_.deployment.scan_strong_frac * kEnvStrong[e];
      const double p5 = std::min(1.0, p24 * 1.3);
      strong_p_[e] = {p24, p5};
      for (std::size_t n = 0; n < kStrongPmf0N; ++n) {
        strong_pmf0_[e][0][n] = std::pow(1.0 - p24, static_cast<double>(n));
        strong_pmf0_[e][1][n] = std::pow(1.0 - p5, static_cast<double>(n));
      }
    }

    // Campaign-global population state. Rng::fork() is const — it never
    // advances root_rng_ — so taking both forks here preserves the draw
    // sequence the one-shot runner produced.
    stats::Rng pop_rng = root_rng_.fork(0xA11CE);
    PopulationBuilder builder(config_, region_);
    users_ = builder.build(deployment_, pop_rng);
    assign_mobile_hotspots();

    // Survey answers depend only on profiles (never on samples), so they
    // are drawn once up front and sliced per block afterwards.
    Dataset scratch;
    stats::Rng survey_rng = root_rng_.fork(0x50BE);
    build_survey(config_, users_, survey_rng, scratch);
    survey_all_ = std::move(scratch.survey);
  }

  Dataset run_block(std::size_t begin, std::size_t end, bool with_universe) {
    assert(begin <= end && end <= users_.size());
    Dataset ds;
    ds.year = config_.year;
    ds.calendar = CampaignCalendar(config_.start_date, config_.num_days);

    PopulationBuilder::export_range(users_, begin, end, region_, ds);
    ds.survey.assign(survey_all_.begin() + static_cast<std::ptrdiff_t>(begin),
                     survey_all_.begin() + static_cast<std::ptrdiff_t>(end));

    // Every device emits exactly one sample per bin, so each device owns
    // a fixed, disjoint slice of the sample array and the whole block can
    // be simulated in parallel. Every hot-path draw is keyed by
    // (seed, global device, day/bin, slot) through counter-based Philox
    // streams, so the result is byte-identical at any thread count AND
    // any device partitioning — blocks of 1, 16 or the whole panel
    // produce the same campaign.
    const auto n_bins = static_cast<std::size_t>(ds.calendar.num_bins());
    const std::size_t n_local = end - begin;
    // Every device writes one full Sample per bin into its slice, so the
    // zero-fill of a plain resize would be pure overhead.
    ds.samples.resize_for_overwrite(n_local * n_bins);

    // The campaign is dense by construction, so the acceleration index
    // is built alongside the samples: each device projects its finished
    // samples into the SoA columns as it emits them (disjoint slices,
    // safe in parallel) instead of DatasetIndex::build() re-scanning
    // the whole 48-byte AoS array afterwards.
    core::DatasetIndex::DenseBuilder idx_builder(n_local, ds.calendar);

    const std::size_t block = device_block_size();
    const std::size_t n_blocks = (n_local + block - 1) / block;
    std::vector<DeviceOutput> outputs(n_local);
    core::parallel_for(n_blocks, [&](std::size_t blk) {
      const std::size_t l0 = blk * block;
      const std::size_t l1 = std::min(l0 + block, n_local);
      for (std::size_t li = l0; li < l1; ++li) {
        const UserProfile& user = users_[begin + li];
        DeviceContext ctx{&user, false, 0, -1};
        net::DeviceCapTracker cap(config_.cap, config_.num_days);
        DeviceOutput out;
        // Android devices emit ~0.8 records per bin on average; one
        // right-sized reservation avoids the mid-campaign regrow.
        out.app_traffic.reserve(n_bins);
        simulate_device(ctx,
                        std::span<Sample>{ds.samples.data() + li * n_bins,
                                          n_bins},
                        out.app_traffic, cap, ds.calendar, idx_builder,
                        li * n_bins,
                        DeviceId{static_cast<std::uint32_t>(li)});
        out.update_bin = ctx.update_bin;
        out.capped_day.resize(static_cast<std::size_t>(config_.num_days));
        for (int d = 0; d < config_.num_days; ++d) {
          out.capped_day[static_cast<std::size_t>(d)] =
              cap.capped_on(d) ? 1 : 0;
        }
        outputs[li] = std::move(out);
      }
    });

    // Splice variable-length outputs in device order. Rebasing each
    // device's local app_traffic offsets by the running total recreates
    // exactly the global offsets a serial run would have produced.
    std::size_t total_apps = 0;
    for (const DeviceOutput& out : outputs) total_apps += out.app_traffic.size();
    ds.app_traffic.reserve(total_apps);
    for (std::size_t li = 0; li < n_local; ++li) {
      const UserProfile& user = users_[begin + li];
      DeviceOutput& out = outputs[li];
      const auto offset = static_cast<std::uint32_t>(ds.app_traffic.size());
      if (!out.app_traffic.empty()) {
        // The device's records land in one contiguous slice of the
        // global array — exactly the app range build() would derive
        // from the rebased per-sample offsets.
        idx_builder.set_app_range(li, offset,
                                  offset + out.app_traffic.size());
      }
      if (user.os == Os::Android && offset != 0) {
        const std::span<Sample> slice{ds.samples.data() + li * n_bins, n_bins};
        for (Sample& s : slice) s.app_begin += offset;
      }
      ds.app_traffic.insert(ds.app_traffic.end(), out.app_traffic.begin(),
                            out.app_traffic.end());
      auto& truth = ds.truth.devices[li];
      truth.update_bin = out.update_bin;
      truth.capped_day = std::move(out.capped_day);
    }

    if (with_universe) deployment_.export_to(ds);
    // Samples are (device, bin)-ordered and dense by construction, and
    // the SoA columns were already projected at emission time — install
    // the prebuilt index instead of re-scanning the AoS array.
    ds.adopt_index(idx_builder.finish());
    assert(ds.indexed());
    return ds;
  }

  Dataset universe() const {
    Dataset ds;
    ds.year = config_.year;
    ds.calendar = CampaignCalendar(config_.start_date, config_.num_days);
    deployment_.export_to(ds);
    return ds;
  }

  void assign_mobile_hotspots() {
    // Find the mobile-hotspot APs deployed up front and hand them to the
    // users flagged as owners.
    std::vector<ApId> mobile_aps;
    for (std::size_t i = 0; i < deployment_.aps().size(); ++i) {
      if (deployment_.aps()[i].placement == ApPlacement::MobileHotspot) {
        mobile_aps.push_back(ApId{static_cast<std::uint32_t>(i)});
      }
    }
    std::size_t next = 0;
    for (UserProfile& u : users_) {
      if (u.has_mobile_hotspot && next < mobile_aps.size()) {
        u.mobile_ap = mobile_aps[next++];
      } else {
        u.has_mobile_hotspot = false;
      }
    }
  }

  /// Location of the user during a segment, by type of place.
  [[nodiscard]] Point segment_spot(const UserProfile& user, Where where,
                                   double commute_t,
                                   stats::PhiloxRng& rng) const {
    switch (where) {
      case Where::Home:
        return user.home;
      case Where::Office:
        return user.office;
      case Where::Commute:
        return geo::TokyoRegion::along_path(user.home, user.office,
                                            commute_t);
      case Where::Public:
      case Where::Out: {
        // Near the workplace for workers on weekdays-evenings, otherwise
        // around home (suburban shops/stations).
        const Point anchor =
            user.works && rng.bernoulli(0.45) ? user.office : user.home;
        return Point{rng.normal(anchor.x_km, 2.5),
                     rng.normal(anchor.y_km, 2.5)};
      }
    }
    return user.home;
  }

  /// Decides WiFi state and association for a fresh segment.
  void enter_segment(const UserProfile& user, SegmentState& seg,
                     bool off_while_out, bool home_assoc_today,
                     stats::PhiloxRng& rng) const {
    seg.ap = kNoAp;
    seg.wifi_off = false;
    seg.scan_ready = false;

    const bool always_off =
        user.wifi_off_propensity >= 0.999;  // never-configured users
    const double join_boost =
        user.os == Os::Ios ? config_.adoption.ios_connect_boost : 1.0;

    switch (seg.where) {
      case Where::Home:
        if (always_off || user.archetype == UserArchetype::CellularIntensive) {
          // Never-configured users have nothing to join at home either.
          seg.wifi_off = !user.leaves_wifi_on;
        } else if (user.has_home_ap && home_assoc_today) {
          // Users switch WiFi back on at home even on off-while-out days.
          seg.ap = user.home_ap;
          seg.ap_placement = ApPlacement::Home;
        } else {
          seg.wifi_off = off_while_out || !user.leaves_wifi_on;
        }
        break;
      case Where::Office:
        if (user.office_byod && rng.bernoulli(0.92 * std::min(1.0, join_boost))) {
          seg.ap = user.office_ap;
          seg.ap_placement = ApPlacement::Office;
        } else {
          seg.wifi_off = always_off ? !user.leaves_wifi_on
                                    : (off_while_out || !user.leaves_wifi_on);
        }
        break;
      case Where::Commute:
        if (user.has_mobile_hotspot) {
          seg.ap = user.mobile_ap;
          seg.ap_placement = ApPlacement::MobileHotspot;
        } else {
          seg.wifi_off = always_off ? !user.leaves_wifi_on
                                    : (off_while_out || !user.leaves_wifi_on);
        }
        break;
      case Where::Public: {
        const bool try_join = user.uses_public_wifi &&
                              rng.bernoulli(std::min(1.0, 0.75 * join_boost));
        if (try_join) {
          if (const auto ap = deployment_.pick_public_ap(seg.spot, rng)) {
            seg.ap = *ap;
            seg.ap_placement = ApPlacement::Public;
          }
        }
        if (seg.ap == kNoAp && !always_off &&
            user.archetype != UserArchetype::CellularIntensive &&
            rng.bernoulli(0.18)) {
          // Occasionally a venue network (cafe/hotel guest WiFi).
          if (const auto ap = deployment_.pick_venue_ap(seg.spot, rng)) {
            seg.ap = *ap;
            seg.ap_placement = ApPlacement::OtherVenue;
          }
        }
        if (seg.ap == kNoAp) {
          // Public-WiFi users keep the radio on hunting for hotspots.
          seg.wifi_off = user.uses_public_wifi
                             ? false
                             : (always_off ? !user.leaves_wifi_on
                                           : (off_while_out ||
                                              !user.leaves_wifi_on));
        }
        break;
      }
      case Where::Out:
        seg.wifi_off = always_off ? !user.leaves_wifi_on
                                  : (off_while_out || !user.leaves_wifi_on);
        break;
    }
    if (seg.ap != kNoAp) {
      seg.distance_m = deployment_.draw_association_distance_m(
          seg.ap_placement, rng);
      const auto& ap = deployment_.ap(seg.ap);
      seg.rssi_base_dbm = net::sample_rssi_dbm(
          deployment_.path_loss(), seg.distance_m, ap.info.band, rng);
    }
  }

  static void apply_persistent_radio(const DeviceContext& ctx,
                                     SegmentState& seg) {
    if (seg.ap == kNoAp) return;
    const UserProfile& user = *ctx.user;
    if (user.has_home_ap && seg.ap == user.home_ap) {
      seg.distance_m = ctx.home_distance_m;
      seg.rssi_base_dbm = ctx.home_rssi_base;
    } else if (user.office_byod && seg.ap == user.office_ap) {
      seg.distance_m = ctx.office_distance_m;
      seg.rssi_base_dbm = ctx.office_rssi_base;
    }
  }

  [[nodiscard]] app::Context context_of(const SegmentState& seg,
                                        bool on_wifi) const noexcept {
    if (!on_wifi) {
      return seg.where == Where::Home ? app::Context::CellHome
                                      : app::Context::CellOther;
    }
    switch (seg.ap_placement) {
      case ApPlacement::Home: return app::Context::WifiHome;
      case ApPlacement::Public: return app::Context::WifiPublic;
      default: return app::Context::WifiOther;
    }
  }

  /// Simulates one device into its disjoint `out_samples` slice and a
  /// local `app_traffic` buffer. Touches no shared mutable state, so
  /// devices can run concurrently. Every Philox stream is keyed by the
  /// device's *global* id; `emit_id` is the id written into the emitted
  /// samples (block-local for shards, global for the full run).
  void simulate_device(DeviceContext& ctx, std::span<Sample> out_samples,
                       std::vector<AppTraffic>& app_traffic,
                       net::DeviceCapTracker& cap,
                       const CampaignCalendar& cal,
                       core::DatasetIndex::DenseBuilder& idx_builder,
                       std::size_t idx_base, DeviceId emit_id) const {
    const UserProfile& user = *ctx.user;
    const std::uint32_t dev = value(user.id);
    std::size_t out_pos = 0;
    const DemandParams& demand = config_.demand;

    // Persistent per-device radio conditions come from the device's
    // setup lane; every stream below is derived from coordinates alone,
    // never from how many draws another device or day consumed.
    stats::PhiloxRng setup_rng(config_.seed, dev, kLaneSetup);
    if (user.has_home_ap) {
      ctx.home_distance_m = deployment_.draw_association_distance_m(
          ApPlacement::Home, setup_rng);
      ctx.home_rssi_base = net::sample_rssi_dbm(
          deployment_.path_loss(), ctx.home_distance_m,
          deployment_.ap(user.home_ap).info.band, setup_rng);
    }
    if (user.office_byod) {
      ctx.office_distance_m = deployment_.draw_association_distance_m(
          ApPlacement::Office, setup_rng);
      ctx.office_rssi_base = net::sample_rssi_dbm(
          deployment_.path_loss(), ctx.office_distance_m,
          deployment_.ap(user.office_ap).info.band, setup_rng);
    }

    // One reseatable engine serves every per-bin lane below — same
    // sequences as constructing a PhiloxRng per bin, minus the per-bin
    // key derivation.
    stats::PhiloxRng rng(config_.seed, dev, 0);

    for (int day = 0; day < cal.num_days(); ++day) {
      const bool weekend = cal.is_weekend_day(day);
      stats::PhiloxRng day_rng(config_.seed, dev,
                               kLaneDayBase + static_cast<std::uint32_t>(day));
      const DaySchedule sched = ScheduleBuilder::build(user, weekend, day_rng);

      const double daily_mb =
          std::exp(user.demand_mu + day_rng.normal(0.0, demand.day_sigma));
      double activity_sum = 0;
      for (float a : sched.activity) activity_sum += a;
      if (activity_sum <= 0) activity_sum = 1;
      // One reciprocal per day instead of one divide per bin.
      const double inv_activity_sum = 1.0 / activity_sum;

      const bool off_while_out = day_rng.bernoulli(user.wifi_off_propensity);
      double cell_today_mb = 0;  // for self-rationing against the cap

      // Occasional tethering day: a laptop rides the cellular link for a
      // contiguous stretch of bins; hotspot mode keeps WiFi-as-client
      // off for its duration.
      int tether_from = -1, tether_to = -1;
      if (user.is_tetherer && day_rng.bernoulli(0.10)) {
        tether_from = 8 * kBinsPerHour +
                      static_cast<int>(day_rng.uniform_int(13 * kBinsPerHour));
        tether_to = tether_from + 3 + static_cast<int>(day_rng.uniform_int(10));
      }
      // Self-control varies day to day: some days users binge well past
      // their usual cellular comfort zone, which is exactly how real
      // heavy hitters trip the 3-day cap and then regress (Fig 19).
      const double budget_today =
          (user.has_home_ap ? demand.cell_budget_home_mb
                            : demand.cell_budget_no_home_mb) *
          day_rng.lognormal(0.0, 0.45);
      const bool home_assoc_today = day_rng.bernoulli(
          std::min(0.96, config_.adoption.home_assoc_rate *
                             (user.os == Os::Ios ? 1.22 : 0.96)));
      bool sync_done_today = false;
      bool update_roll_done = false;

      SegmentState seg;
      seg.where = Where::Home;
      seg.spot = user.home;
      seg.cell = region_.grid().cell_at(seg.spot);
      enter_segment(user, seg, off_while_out, home_assoc_today, day_rng);
      apply_persistent_radio(ctx, seg);

      // Track commute progress for geo interpolation.
      int commute_seen = 0, commute_total = 0;
      for (Where w : sched.where) commute_total += w == Where::Commute;

      for (int b = 0; b < kBinsPerDay; ++b) {
        const auto bin =
            static_cast<TimeBin>(day * kBinsPerDay + b);
        rng.reseat(dev, static_cast<std::uint32_t>(bin));
        const Where where = sched.where[static_cast<std::size_t>(b)];
        if (where != seg.where) {
          seg.where = where;
          const double t =
              commute_total > 0
                  ? static_cast<double>(commute_seen) / commute_total
                  : 0.5;
          seg.spot = segment_spot(user, where, t, rng);
          seg.cell = region_.grid().cell_at(seg.spot);
          enter_segment(user, seg, off_while_out, home_assoc_today, rng);
          apply_persistent_radio(ctx, seg);
        }
        if (where == Where::Commute) ++commute_seen;

        Sample s;
        s.device = emit_id;
        s.bin = bin;
        s.geo_cell = seg.cell;

        const bool tethering = b >= tether_from && b < tether_to;
        if (tethering) {
          // Hotspot mode: the client WiFi radio is unavailable.
          s.tethering = true;
        }

        // Association churn: home/office links flap briefly (one-bin
        // gaps, ~3%/bin, bounding Fig 13's duration tail); public
        // sessions end early (portal timeouts, users moving on).
        bool dropped_this_bin = false;
        if (seg.ap != kNoAp) {
          const bool is_public_like =
              seg.ap_placement == ApPlacement::Public ||
              seg.ap_placement == ApPlacement::OtherVenue;
          if (is_public_like) {
            if (rng.bernoulli(0.12)) seg.ap = kNoAp;  // session over
          } else if (rng.bernoulli(0.03)) {
            dropped_this_bin = true;  // transient flap, rejoin next bin
          }
        }
        const bool on_wifi = seg.ap != kNoAp && !dropped_this_bin && !tethering;
        s.wifi_state = on_wifi ? WifiState::Associated
                       : (seg.wifi_off || tethering)
                           ? WifiState::Off
                           : WifiState::OnUnassociated;
        if (on_wifi) {
          s.ap = seg.ap;
          s.rssi_dbm = net::quantize_rssi(seg.rssi_base_dbm +
                                          fading_noise_.draw(rng));
        }

        // --- Demand for this bin -----------------------------------
        const double share =
            sched.activity[static_cast<std::size_t>(b)] * inv_activity_sum;
        double rx_mb = daily_mb * share;
        std::uint64_t tx_bytes = 0;

        if (on_wifi) {
          double elasticity = demand.wifi_elasticity;
          if (seg.ap_placement == ApPlacement::Office) elasticity *= 0.70;
          // Public WiFi attracts deliberately heavy use (video, big
          // downloads) -- users exploit the free fat pipe (§3.6, §4.4).
          if (seg.ap_placement == ApPlacement::Public) elasticity *= 1.15;
          rx_mb *= elasticity;
        } else {
          const int hour = b / kBinsPerHour;
          rx_mb *= user.cellular_affinity;
          rx_mb *= cap.demand_multiplier(user.carrier, day, hour);
          rx_mb *= user.tech == CellTech::Lte ? 1.10 : 0.75;
          // Self-rationing: users track their own cellular use against
          // the cap; past a personal daily budget they defer to WiFi or
          // simply stop (much weaker for users with no home AP).
          if (cell_today_mb > budget_today) rx_mb *= demand.budget_excess_factor;
        }

        // Sub-0.01 MB bins become sporadic background chatter.
        if (rx_mb < 0.01 && !rng.bernoulli(0.5)) rx_mb = 0;

        // Laptop traffic over the hotspot: heavy, bursty download.
        if (tethering) rx_mb += rng.lognormal(std::log(45.0), 0.6);

        const app::Context app_ctx = context_of(seg, on_wifi);
        const auto app_begin = static_cast<std::uint32_t>(app_traffic.size());
        if (rx_mb > 0) {
          if (user.os == Os::Android) {
            tx_bytes = mixer_.mix(app_ctx, rx_mb, rng, app_traffic);
          } else {
            tx_bytes = static_cast<std::uint64_t>(
                rx_mb * 1e6 * 0.18 * ios_tx_noise_.draw(rng));
          }
        }

        // --- WiFi-gated online-storage sync (Table 7 productivity) --
        if (user.uses_sync && !sync_done_today && on_wifi &&
            seg.ap_placement == ApPlacement::Home && b >= 6 * kBinsPerHour &&
            rng.bernoulli(0.25)) {
          sync_done_today = true;
          const double sync_mb =
              demand.sync_daily_mb * rng.lognormal(0.0, 0.6);
          AppTraffic at;
          at.category = AppCategory::Productivity;
          at.rx_bytes = mb_to_bytes_u32(sync_mb * 0.35);
          at.tx_bytes = mb_to_bytes_u32(sync_mb);
          if (user.os == Os::Android) app_traffic.push_back(at);
          rx_mb += sync_mb * 0.35;
          tx_bytes += at.tx_bytes;
        }

        // --- The iOS 8.2 update event (§3.7) ------------------------
        maybe_start_update(ctx, day, b, on_wifi, seg, weekend,
                           update_roll_done, bin, rng);
        if (ctx.update_remaining_mb > 0 && on_wifi) {
          const double chunk =
              std::min(ctx.update_remaining_mb, 170.0 * rng.uniform(0.9, 1.15));
          ctx.update_remaining_mb -= chunk;
          rx_mb += chunk;
        }

        const std::uint32_t rx_bytes = mb_to_bytes_u32(rx_mb);
        if (on_wifi) {
          s.wifi_rx = rx_bytes;
          s.wifi_tx = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(tx_bytes, 0xF0000000ull));
          s.tech = CellTech::None;
        } else {
          s.cell_rx = rx_bytes;
          s.cell_tx = static_cast<std::uint32_t>(
              std::min<std::uint64_t>(tx_bytes, 0xF0000000ull));
          s.tech = rx_bytes > 0 || tx_bytes > 0 ? user.tech : CellTech::None;
          cap.add_download_mb(day, rx_mb);
          cell_today_mb += rx_mb;
        }

        if (user.os == Os::Android) {
          const auto count = app_traffic.size() - app_begin;
          s.app_begin = app_begin;
          s.app_count = static_cast<std::uint8_t>(std::min<std::size_t>(count, 255));
        }

        // --- Android scan summaries (Fig 17, §3.5) -------------------
        if (user.os == Os::Android && s.wifi_state != WifiState::Off) {
          emit_scan(s, seg, rng);
        }

        // Battery: drains with use (and with an idle scanning radio),
        // charges overnight at home and opportunistically when low.
        {
          const int hour = b / kBinsPerHour;
          double drain = 0.08 + 40.0 * share;
          if (s.wifi_state == WifiState::OnUnassociated) drain += 0.04;
          if (tethering) drain += 0.8;
          const bool overnight_charge =
              where == Where::Home && (hour >= 22 || hour < 7);
          const bool low_charge = ctx.battery < 20.0 &&
                                  (where == Where::Home || where == Where::Office);
          double charge = 0;
          if (overnight_charge || low_charge) charge = 1.5;
          ctx.battery = std::clamp(ctx.battery - drain + charge, 2.0, 100.0);
          // battery is clamped to [2, 100], so +0.5-and-truncate rounds
          // identically to lround without the libm call.
          s.battery_pct = static_cast<std::uint8_t>(ctx.battery + 0.5);
        }

        idx_builder.set(idx_base + out_pos, s);
        out_samples[out_pos++] = s;
      }
    }
  }

  void maybe_start_update(DeviceContext& ctx, int day, int bin_in_day,
                          bool on_wifi, const SegmentState& seg, bool weekend,
                          bool& rolled_today, TimeBin bin,
                          stats::PhiloxRng& rng) const {
    const UpdateParams& up = config_.update;
    const UserProfile& user = *ctx.user;
    if (!up.active || user.os != Os::Ios || ctx.updated ||
        day < up.release_day) {
      return;
    }
    if (!on_wifi || rolled_today) return;

    // Release happens in the evening of release_day.
    if (day == up.release_day && bin_in_day < 17 * kBinsPerHour) return;

    double hazard = 0;
    if (seg.ap_placement == ApPlacement::Home) {
      // Evening at home: the typical update moment.
      if (bin_in_day < 18 * kBinsPerHour) return;
      hazard = up.home_hazard;
      const int days_since = day - up.release_day;
      if (days_since == 0) hazard *= 1.7;      // flash-crowd burst (a)
      else if (days_since == 1) hazard *= 1.6;
      if (weekend) hazard *= up.weekend_boost;  // weekend peak (b)
    } else if ((seg.ap_placement == ApPlacement::Public ||
                seg.ap_placement == ApPlacement::Office ||
                seg.ap_placement == ApPlacement::OtherVenue) &&
               !user.has_home_ap && user.update_seeker) {
      // Seekers without home WiFi start hunting a couple of days after
      // release (they hear about the update, then plan a WiFi stop) --
      // this produces the paper's 3.5-day median delay gap.
      if (day - up.release_day < 2) return;
      hazard = up.seeker_hazard;
    } else {
      return;
    }

    rolled_today = true;
    if (rng.bernoulli(hazard)) {
      ctx.updated = true;
      ctx.update_remaining_mb = up.size_mb;
      ctx.update_bin = static_cast<std::int32_t>(bin);
    }
  }

  void emit_scan(Sample& s, SegmentState& seg, stats::PhiloxRng& rng) const {
    if (!seg.scan_ready) {
      // Indoors at home, walls attenuate street-level hotspots; in
      // motion (train/bus), APs flash by and few register as strong,
      // stable candidates. All of it is a property of the dwell, so the
      // AP-density lookup and the Poisson/binomial constants resolve
      // once per segment, on the first bin that scans.
      const double env_all = seg.where == Where::Home ? 0.35 : 1.0;
      seg.scan_env = seg.where == Where::Home      ? 0u
                     : seg.where == Where::Commute ? 1u
                                                   : 2u;
      const double expected =
          deployment_.expected_scan_count(seg.cell) * env_all;
      const double frac5 = config_.deployment.scan_5ghz_frac;
      seg.scan24.reset(expected * (1.0 - frac5));
      seg.scan5.reset(expected * frac5);
      seg.strong24_p = strong_p_[seg.scan_env][0];
      seg.strong5_p = strong_p_[seg.scan_env][1];
      seg.scan_ready = true;
    }
    const unsigned all24 = seg.scan24.draw(rng);
    const unsigned all5 = seg.scan5.draw(rng);
    // Strong subset: binomial thinning of the detected networks
    // (5 GHz cells are smaller, so a detected 5 GHz AP is more often
    // close enough to be strong). One inversion draw per band replaces
    // the per-detected-network bernoulli loop.
    const unsigned strong24 =
        rng.binomial_pmf0(all24, seg.strong24_p,
                          strong_pmf0(seg.scan_env, 0, all24));
    const unsigned strong5 =
        rng.binomial_pmf0(all5, seg.strong5_p,
                          strong_pmf0(seg.scan_env, 1, all5));
    s.scan_pub24_all = saturate_u8(all24);
    s.scan_pub5_all = saturate_u8(all5);
    s.scan_pub24_strong = saturate_u8(strong24);
    s.scan_pub5_strong = saturate_u8(strong5);
  }

  /// pow(1 - p, n) for a strong-thinning binomial, from the scenario
  /// table (falling back to the live pow only for freak scan counts past
  /// the table; either way the bits match the uncached draw).
  [[nodiscard]] double strong_pmf0(std::size_t env, std::size_t band,
                                   unsigned n) const {
    if (n < kStrongPmf0N) return strong_pmf0_[env][band][n];
    return std::pow(1.0 - strong_p_[env][band], static_cast<double>(n));
  }

  // home / commute / everywhere else
  static constexpr std::size_t kNumScanEnvs = 3;
  static constexpr unsigned kStrongPmf0N = 384;

  ScenarioConfig config_;
  stats::Rng root_rng_;
  geo::TokyoRegion region_;
  Deployment deployment_;
  app::AppMixer mixer_;
  std::vector<UserProfile> users_;
  std::vector<SurveyResponse> survey_all_;
  /// Noise-grade per-bin jitters via quantile tables (one uniform per
  /// draw, no per-bin quantile polynomial / exp).
  stats::NormalTable fading_noise_{0.0, 1.5};
  stats::LognormalTable ios_tx_noise_{0.0, 0.5};
  std::array<std::array<double, 2>, kNumScanEnvs> strong_p_{};
  std::array<std::array<std::array<double, kStrongPmf0N>, 2>, kNumScanEnvs>
      strong_pmf0_{};
};

CampaignEngine::CampaignEngine(const ScenarioConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

CampaignEngine::~CampaignEngine() = default;

std::size_t CampaignEngine::num_devices() const noexcept {
  return impl_->users_.size();
}

Dataset CampaignEngine::run_block(std::size_t begin, std::size_t end,
                                  bool with_universe) {
  return impl_->run_block(begin, end, with_universe);
}

Dataset CampaignEngine::run_all() {
  return impl_->run_block(0, impl_->users_.size(), /*with_universe=*/true);
}

Dataset CampaignEngine::universe() const { return impl_->universe(); }

}  // namespace tokyonet::sim
