// Ablations of the paper's fixed parameters, evaluated against
// simulator ground truth where available. All run on the 2015 campaign.
#include "analysis/availability.h"
#include "analysis/classify.h"
#include "analysis/query/source.h"
#include "analysis/ratios.h"
#include "report/figures.h"
#include "report/registry.h"
#include "report/runner.h"

namespace tokyonet::report {
namespace {

struct PrecisionRecall {
  double precision = 0;
  double recall = 0;
  double device_share = 0;
};

PrecisionRecall evaluate_home_inference(
    const std::vector<DeviceTruth>& truth,
    const analysis::ApClassification& cls) {
  int inferred = 0, correct = 0, owners = 0, correct_owner = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const DeviceTruth& t = truth[i];
    owners += t.has_home_ap;
    const ApId ap = cls.home_ap_of_device[i];
    if (ap == kNoAp) continue;
    ++inferred;
    if (t.has_home_ap && ap == t.home_ap) {
      ++correct;
      ++correct_owner;
    }
  }
  PrecisionRecall pr;
  if (inferred > 0) pr.precision = static_cast<double>(correct) / inferred;
  if (owners > 0) pr.recall = static_cast<double>(correct_owner) / owners;
  pr.device_share = cls.home_ap_device_share();
  return pr;
}

Table ablate_home_threshold(const FigureContext& ctx) {
  constexpr double kThresholds[] = {0.50, 0.60, 0.70, 0.80, 0.90};
  // The threshold sweep and the simulator ground truth (one row per
  // device in global device order) in one pass.
  analysis::query::Sweep sweep(ctx.source());
  const auto classified = analysis::classify_aps(sweep, {}, kThresholds);
  const auto truth = sweep.concat<DeviceTruth>(
      [](const Dataset& block, std::size_t) { return block.truth.devices; });
  sweep.run();

  Table t({"threshold", "precision", "recall", "inferred share", "home APs"});
  for (std::size_t k = 0; k < classified.get().size(); ++k) {
    const analysis::ApClassification& cls = classified.get()[k];
    const PrecisionRecall pr = evaluate_home_inference(truth.get(), cls);
    t.add_row({Value::pct(kThresholds[k], 0), Value::pct(pr.precision, 1),
               Value::pct(pr.recall, 1), Value::pct(pr.device_share, 1),
               Value::integer(cls.counts().home)});
  }
  t.notes.push_back(
      "reading: lower thresholds mislabel overnight visits (precision "
      "drops); higher thresholds miss flappy home links (recall drops). "
      "The paper's 70% sits on the plateau.");
  return t;
}

Table ablate_rssi_cutoff(const FigureContext& ctx) {
  Table t({"usable =", "stable-bin share", "users w/ opportunity",
           "offloadable cell share"});
  std::vector<analysis::OpportunityOptions> opts;
  for (const double stable : {0.05, 0.15, 0.30, 0.50}) {
    opts.emplace_back().stable_bin_share = stable;
  }
  const std::vector<analysis::OffloadOpportunity> sweep =
      analysis::offload_opportunity(ctx.source(), opts);
  for (std::size_t k = 0; k < opts.size(); ++k) {
    t.add_row({Value::text("strong (>= -70 dBm)"),
               Value::pct(opts[k].stable_bin_share, 0),
               Value::pct(sweep[k].users_with_stable_opportunity, 0),
               Value::pct(sweep[k].offloadable_cell_share, 0)});
  }
  t.notes.push_back(
      "reading: the offloadable share is insensitive to the stability "
      "requirement (the coverage is bimodal: downtown users see strong "
      "APs constantly, suburban users almost never), which is why the "
      "paper's single -70 dBm cutoff yields a robust 15-20% estimate.");
  return t;
}

Table ablate_user_bands(const FigureContext& ctx) {
  const auto& days = ctx.analysis().days();

  struct Bands {
    double lo, hi, heavy;
  };
  Table t({"light band", "heavy band", "light WiFi ratio", "heavy WiFi ratio",
           "separation"});
  constexpr Bands kBands[] = {{30, 70, 95}, {40, 60, 95}, {45, 55, 95},
                              {40, 60, 99}, {40, 60, 90}};
  const std::vector<double> rx = analysis::sorted_rx_mb(days);
  std::vector<analysis::UserClassifier> classes;
  for (const Bands& b : kBands) classes.emplace_back(rx, b.lo, b.hi, b.heavy);
  // Every band's profiles from one pass.
  const std::vector<analysis::WifiRatios> ratios =
      analysis::compute_wifi_ratios(ctx.source(), days, classes);
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const Bands& b = kBands[k];
    const double light = ratios[k].traffic_light.mean_ratio();
    const double heavy = ratios[k].traffic_heavy.mean_ratio();
    t.add_row({Value::text(strf("%.0f-%.0f pct", b.lo, b.hi)),
               Value::text(strf("top %.0f%%", 100 - b.heavy)),
               Value::pct(light, 0), Value::pct(heavy, 0),
               Value::real(heavy - light, 2)});
  }
  t.notes.push_back(
      "reading: the heavy-vs-light offloading separation (Fig 7) is "
      "robust to the exact band boundaries — widening the light band or "
      "trimming the heavy tail moves the means only slightly.");
  return t;
}

}  // namespace

void register_ablation_figures(FigureRegistry& r) {
  r.add({"ablate_home_threshold",
         "sweep of the 70% nightly-presence home-AP rule",
         "ablation of Sec 3.4.1's 70% nightly-presence rule", {Year::Y2015},
         &ablate_home_threshold});
  r.add({"ablate_rssi_cutoff",
         "sweep of the Sec 3.5 availability definition",
         "ablation of Sec 3.5's availability definition", {Year::Y2015},
         &ablate_rssi_cutoff});
  r.add({"ablate_user_bands",
         "sweep of the light/heavy user-class bands",
         "ablation of Sec 2's light/heavy user definitions", {Year::Y2015},
         &ablate_user_bands});
}

}  // namespace tokyonet::report
